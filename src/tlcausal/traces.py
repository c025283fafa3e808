"""Discretized multivariate time series: data model, file loading, thresholding.

A :class:`Trace` is a boolean matrix (variable x tick).  A :class:`TraceSet`
bundles replicate traces over the same variables; windows and transitions
never cross trace boundaries.  An :class:`EventList` is the sparse view used
by the spike-train generator and the ``event-csv`` format.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import DataError
from .pctl import FALSE, TRUE

__all__ = [
    "EventList", "Trace", "TraceSet",
    "load_events", "discretize", "events_of", "write_events",
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
        try:
            values = np.zeros((len(names), self.horizon), dtype=bool)
        except (MemoryError, ValueError) as exc:  # numpy refuses the size
            raise DataError(f"cannot hold a trace of {len(names)} x "
                            f"{self.horizon} (variables x ticks)") from exc
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
        _reject_reserved(self.variables)
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


def _reject_reserved(names):
    """Refuse ``true`` and ``false`` as variable names: formulas read them
    as the constant atoms."""
    for v in names:
        if v in (TRUE.name, FALSE.name):
            raise DataError(f"variable {v!r} is a reserved name: formulas "
                            f"read it as the constant atom")


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


def _write_text(sink, text: str) -> None:
    """Write ``text`` to an open text stream as it is, or to a path as
    UTF-8 with LF line endings, making missing parent directories.  A
    path that cannot be written is a data error naming it."""
    if not isinstance(sink, (str, Path)):
        sink.write(text)
        return
    try:
        Path(sink).parent.mkdir(parents=True, exist_ok=True)
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {sink}: {exc}") from exc


def _check_writable(directory) -> None:
    """Refuse, before any work, an output directory that a write could not
    make or write into: the nearest existing path must be a writable
    directory.  Makes nothing."""
    path = Path(directory)
    existing = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise DataError(f"cannot write {path}: {existing} is not a "
                        f"writable directory")


def load_events(source: Source, horizon: Optional[int] = None) -> EventList:
    """Parse an event-csv stream, headerless ``<time>,<variable>`` rows,
    without densifying (replicate loaders can then share one variable
    universe across files).  ``horizon`` defaults to the last event time
    + 1.  Syntax errors name their line; :meth:`EventList.from_records`
    checks range and duplicates.
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
    """One trace from wide-csv lines: header ``time,<var1>,...,<varN>``,
    then one row per tick with cells in {0, 1}; the time column must run
    0..length-1 in order."""
    rows = [(lineno, ln) for lineno, ln in enumerate(lines, start=1)
            if ln.strip() != ""]
    if not rows:
        raise DataError("empty wide-csv input")
    header = [c.strip() for c in rows[0][1].split(",")]
    if len(header) < 2 or header[0] != "time":
        raise DataError("wide-csv header must be 'time,<var1>,...'")
    names = tuple(header[1:])
    length = len(rows) - 1
    if length < 1:
        raise DataError("wide-csv must contain at least one tick row")
    values = np.zeros((len(names), length), dtype=bool)
    for tick, (lineno, line) in enumerate(rows[1:]):
        cells = [c.strip() for c in line.split(",")]
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
    _write_text(sink, "".join([f"{t},{v}\n" for t, v in events.records]))


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
