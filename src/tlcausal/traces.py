"""Discretized multivariate time series: data model, file loading, thresholding.

A :class:`Trace` is a boolean matrix (variable x tick).  A :class:`TraceSet`
bundles replicate traces over the same variables; windows and transitions
never cross trace boundaries.  An :class:`EventList` is the sparse view used
by the spike-train generator and the ``event-csv`` format.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DataError
from .pctl import FALSE, TRUE

__all__ = [
    "EventList", "Trace", "TraceSet",
    "load_traces", "load_events", "discretize", "events_of", "write_events",
]


@dataclass(frozen=True)
class EventList:
    """Sparse (time, variable) records over ticks ``0 .. horizon-1``.

    Records are sorted by time then variable and contain no duplicates.
    """

    records: tuple
    horizon: int

    @staticmethod
    def from_records(records: Iterable[tuple], horizon: int) -> "EventList":
        recs = sorted((int(t), str(v)) for t, v in records)
        for t, v in recs[:1] + recs[-1:]:  # the earliest and the latest
            if not 0 <= t < horizon:
                raise DataError(f"event time out of range: ({t}, {v}) "
                                f"with horizon {horizon}")
        for a, b in zip(recs, recs[1:]):
            if a == b:
                raise DataError(f"duplicate event: {a}")
        return EventList(tuple(recs), int(horizon))

    def variables(self) -> tuple:
        """Variable names in order of first appearance."""
        seen = {}
        for _, v in self.records:
            seen.setdefault(v, None)
        return tuple(seen)

    def to_trace(self, variables: Optional[Sequence[str]] = None) -> "Trace":
        """Densify into a boolean trace of length ``horizon``.

        ``variables`` fixes the variable universe and order (needed when some
        declared variables never occur); defaults to first-appearance order.
        """
        names = tuple(variables) if variables is not None else self.variables()
        index = {v: i for i, v in enumerate(names)}
        values = np.zeros((len(names), self.horizon), dtype=bool)
        for t, v in self.records:
            if v not in index:
                raise DataError(f"event variable {v!r} not in declared list")
            values[index[v], t] = True
        return Trace(names, values)


@dataclass(frozen=True)
class Trace:
    """One replicate: ordered variables and a boolean (variable x tick) matrix."""

    variables: tuple
    values: np.ndarray
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        values = np.asarray(self.values, dtype=bool)
        if values.ndim != 2 or values.shape[0] != len(self.variables):
            raise DataError("trace matrix must be (variables x ticks)")
        if values.shape[1] < 1:
            raise DataError("trace must contain at least one tick")
        if len(set(self.variables)) != len(self.variables):
            raise DataError("duplicate variable names in trace")
        for v in self.variables:
            if v in (TRUE.name, FALSE.name):
                raise DataError(f"variable {v!r} is a reserved name: formulas "
                                f"read it as the constant atom")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_index",
                           {v: i for i, v in enumerate(self.variables)})

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def column(self, variable: str) -> np.ndarray:
        try:
            return self.values[self._index[variable]]
        except KeyError:
            raise DataError(f"unknown atom: {variable!r}") from None


@dataclass(frozen=True)
class TraceSet:
    """Replicate traces over an identical variable list."""

    traces: tuple

    def __post_init__(self):
        traces = tuple(self.traces)
        if not traces:
            raise DataError("trace set must contain at least one trace")
        first = traces[0].variables
        for tr in traces[1:]:
            if tr.variables != first:
                raise DataError("all traces must share the same variable list")
        object.__setattr__(self, "traces", traces)

    @property
    def variables(self) -> tuple:
        return self.traces[0].variables

    def __iter__(self):
        return iter(self.traces)

    def __len__(self):
        return len(self.traces)

    @property
    def total_ticks(self) -> int:
        return sum(tr.length for tr in self.traces)


Source = Union[str, Path, io.IOBase]


def _open_lines(source):
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return fh.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


def load_traces(source: Source, format: str,
                horizon: Optional[int] = None,
                variables: Optional[Sequence[str]] = None) -> TraceSet:
    """Load one trace from a CSV stream into a singleton :class:`TraceSet`.

    ``wide-csv``: header ``time,<var1>,...,<varN>``; one row per tick with
    cells in {0, 1}; the time column must run 0..length-1 in order.

    ``event-csv``: headerless ``<time>,<variable>`` rows; densified to length
    ``horizon`` (defaulting to the last event time + 1).  ``variables`` may
    declare the universe when some variables never occur.
    """
    if format == "wide-csv":
        return TraceSet((_load_wide(_open_lines(source)),))
    if format == "event-csv":
        return TraceSet((load_events(source, horizon).to_trace(variables),))
    raise DataError(f"unknown trace format: {format!r}")


def load_events(source: Source, horizon: Optional[int] = None) -> EventList:
    """Parse an event-csv stream without densifying (replicate loaders can
    then share one variable universe across files).  Syntax errors name
    their line; :meth:`EventList.from_records` checks range and duplicates.
    """
    records = []
    for lineno, line in enumerate(_open_lines(source), start=1):
        if line.strip() == "":
            continue
        parts = [c.strip() for c in line.split(",")]
        if len(parts) != 2 or not parts[0].isdecimal():
            raise DataError(f"malformed row at line {lineno}: {line!r}")
        records.append((int(parts[0]), parts[1]))
    if not records:
        raise DataError("empty event-csv input")
    if horizon is None:
        horizon = max(records)[0] + 1
    return EventList.from_records(records, horizon)


def _load_wide(lines):
    rows = [ln for ln in lines if ln.strip() != ""]
    if not rows:
        raise DataError("empty wide-csv input")
    header = [c.strip() for c in rows[0].split(",")]
    if len(header) < 2 or header[0] != "time":
        raise DataError("wide-csv header must be 'time,<var1>,...'")
    names = tuple(header[1:])
    length = len(rows) - 1
    if length < 1:
        raise DataError("wide-csv must contain at least one tick row")
    values = np.zeros((len(names), length), dtype=bool)
    for tick, line in enumerate(rows[1:], start=0):
        cells = [c.strip() for c in line.split(",")]
        lineno = tick + 2
        if len(cells) != len(header):
            raise DataError(f"malformed row at line {lineno}: "
                            f"expected {len(header)} cells")
        if cells[0] != str(tick):
            raise DataError(f"malformed row at line {lineno}: "
                            f"expected tick {tick}, found {cells[0]!r}")
        for j, cell in enumerate(cells[1:]):
            if cell == "1":
                values[j, tick] = True
            elif cell != "0":
                raise DataError(f"malformed row at line {lineno}: "
                                f"cell must be 0 or 1, found {cell!r}")
    return Trace(names, values)


def events_of(trace: Trace) -> EventList:
    """The sparse event view of a trace (inverse of densification)."""
    var_idx, ticks = np.nonzero(trace.values)
    records = [(int(t), trace.variables[i]) for i, t in zip(var_idx, ticks)]
    return EventList.from_records(records, trace.length)


def write_events(events: EventList, sink) -> None:
    """Serialize as event-csv (sorted records, LF line endings)."""
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w", encoding="utf-8", newline="\n") if own else sink
    try:
        for t, v in events.records:
            fh.write(f"{t},{v}\n")
    finally:
        if own:
            fh.close()


def discretize(series: np.ndarray, theta_up: float, theta_down: float,
               variables: Optional[Sequence[str]] = None) -> Trace:
    """Threshold a real matrix (variable x tick) into up/down atoms.

    Each input variable ``v`` yields atoms ``v_up`` (value >= theta_up) and
    ``v_down`` (value <= theta_down); values strictly between the thresholds
    set neither.  Requires ``theta_down < theta_up``, so an atom pair is
    never set at the same tick.
    """
    if not theta_down < theta_up:
        raise DataError("theta_down < theta_up required")
    matrix = np.asarray(series, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix[np.newaxis, :]
    if matrix.ndim != 2:
        raise DataError("series must be a (variables x ticks) matrix")
    if not np.isfinite(matrix).all():
        raise DataError("non-finite value in input series")
    n_vars, length = matrix.shape
    if variables is None:
        variables = [f"v{i}" for i in range(n_vars)]
    if len(variables) != n_vars:
        raise DataError("variable list does not match series rows")
    names = []
    values = np.zeros((2 * n_vars, length), dtype=bool)
    for i, v in enumerate(variables):
        names.append(f"{v}_up")
        names.append(f"{v}_down")
        values[2 * i] = matrix[i] >= theta_up
        values[2 * i + 1] = matrix[i] <= theta_down
    return Trace(tuple(names), values)
