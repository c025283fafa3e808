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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DataError
from .pctl import FALSE, TRUE

__all__ = [
    "EventList", "Trace", "TraceSet",
    "load_events", "discretize", "events_of", "write_events",
]


@dataclass(frozen=True, eq=False)
class EventList:
    """Sparse (time, variable) events over ticks ``0 .. horizon-1``.

    Event ``k`` is variable ``names[ids[k]]`` at tick ``times[k]`` (int64).
    Events are sorted by time, then by name in ``str`` order, and contain
    no duplicates; ``names`` may also hold variables that never occur.
    """

    times: np.ndarray
    ids: np.ndarray
    names: tuple
    horizon: int

    @staticmethod
    def from_arrays(times, ids, names: Sequence[str],
                    horizon: int) -> "EventList":
        """Sort events given as parallel time and name-index arrays over
        distinct ``names``, then refuse a time outside ``[0, horizon)`` and
        a repeated event."""
        try:
            times = np.asarray(times, np.int64)
        except OverflowError:
            raise DataError("event times must fit in int64") from None
        ids, names = np.asarray(ids, np.intp), tuple(names)
        rank = np.empty(len(names), np.intp)
        rank[sorted(range(len(names)), key=names.__getitem__)] = \
            np.arange(len(names))
        ranks = rank[ids]
        step, rise = np.diff(times), np.diff(ranks)
        if (step < 0).any() or ((step == 0) & (rise < 0)).any():
            order = np.lexsort((ranks, times))
            times, ids, ranks = times[order], ids[order], ranks[order]
            step, rise = np.diff(times), np.diff(ranks)
        for k in (0, -1)[:len(times)]:  # the earliest and the latest
            t, v = int(times[k]), names[ids[k]]
            if not 0 <= t < horizon:
                raise DataError(f"event time out of range: ({t}, {v}) "
                                f"with horizon {horizon}")
        same = np.flatnonzero((step == 0) & (rise == 0))
        if same.size:
            k = same[0]
            record = (int(times[k]), names[ids[k]])
            raise DataError(f"duplicate event: {record}")
        return EventList(times, ids, names, int(horizon))

    @property
    def records(self) -> tuple:
        """The events as sorted ``(time, variable)`` pairs."""
        names = self.names
        return tuple([(t, names[i]) for t, i in
                      zip(self.times.tolist(), self.ids.tolist())])

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other):
        if not isinstance(other, EventList):
            return NotImplemented
        named = [np.array(e.names, dtype=object)[e.ids] for e in (self, other)]
        return (self.horizon == other.horizon
                and np.array_equal(self.times, other.times)
                and np.array_equal(*named))

    def variables(self) -> tuple:
        """Variable names in order of first appearance."""
        first = np.full(len(self.names), len(self.ids))
        np.minimum.at(first, self.ids, np.arange(len(self.ids)))
        seen = np.flatnonzero(first < len(self.ids))
        return tuple(self.names[i] for i in seen[np.argsort(first[seen])]
                     .tolist())

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
        rows = np.array([index.get(v, -1) for v in self.names],
                        dtype=np.intp)[self.ids]
        if (rows < 0).any():
            v = self.names[self.ids[np.argmax(rows < 0)]]
            raise DataError(f"event variable {v!r} not in declared list")
        values[rows, self.times] = True
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
        _check_names(self.variables)
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


def _check_names(names):
    """Refuse a repeated variable name, and ``true`` and ``false``: formulas
    read them as the constant atoms."""
    seen = set()
    for v in names:
        if v in (TRUE.name, FALSE.name):
            raise DataError(f"variable {v!r} is a reserved name: formulas "
                            f"read it as the constant atom")
        if v in seen:
            raise DataError(f"duplicate variable name {v!r}")
        seen.add(v)


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


def _read_text(source, ascii_bytes: bool = False):
    """The whole text of a path or an open stream, bytes read as UTF-8
    with line endings as they are; with ``ascii_bytes``, an ASCII text is
    returned as its bytes instead.  A path that cannot be read, or bytes
    that are not UTF-8, are a data error naming the source."""
    is_path = isinstance(source, (str, Path))
    name = source if is_path else getattr(source, "name", "<stream>")
    try:
        data = Path(source).read_bytes() if is_path else source.read()
        if ascii_bytes and data.isascii():
            return data.encode("ascii") if isinstance(data, str) else data
        return data.decode("utf-8") if isinstance(data, bytes) else data
    except OSError as exc:
        raise DataError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {name}: not valid UTF-8 "
                        f"(byte {exc.start})") from exc


def _open_lines(source):
    return _read_text(source).splitlines()


def _write_text(sink, text) -> None:
    """Write ``text``, a string or an iterable of strings written chunk
    by chunk, to an open text stream as it is, or to a path as UTF-8
    with LF line endings, making missing parent directories.  A path
    that cannot be written is a data error naming it."""
    chunks = (text,) if isinstance(text, str) else text
    if not isinstance(sink, (str, Path)):
        for chunk in chunks:
            sink.write(chunk)
        return
    try:
        Path(sink).parent.mkdir(parents=True, exist_ok=True)
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise DataError(f"cannot write {sink}: {exc}") from exc


def _uint(text: str) -> int:
    """``int(text)`` for ASCII digits alone, else a ``ValueError``: ``int``
    also reads a sign, ``_``, spaces and digits such as ``١``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return int(text)


def _check_writable(directory) -> None:
    """Refuse, before any work, an output directory that a write could not
    make or write into: the nearest existing path must be a writable
    directory.  Makes nothing."""
    path = Path(directory)
    existing = next(p for p in (path, *path.parents) if os.path.exists(p))
    if not (existing.is_dir() and os.access(existing, os.W_OK | os.X_OK)):
        raise DataError(f"cannot write {path}: {existing} is not a "
                        f"writable directory")


_BLOCK = 1 << 18  # bytes of clean text parsed at a time
# Unicode category Cc, which no name may hold (a tab would split its cell)
_CONTROL = frozenset(map(chr, [*range(32), *range(127, 160)]))


def load_events(source: Source, horizon: Optional[int] = None) -> EventList:
    """Parse an event-csv stream, headerless ``<time>,<variable>`` rows,
    without densifying (replicate loaders can then share one variable
    universe across files).  ``horizon`` defaults to the last event time
    + 1.  A clean text is parsed from its bytes; any other goes line by
    line, stripping cells and skipping blank lines, and a syntax error
    names its line.  :meth:`EventList.from_arrays` checks range and
    duplicates.
    """
    data = _read_text(source, ascii_bytes=True)
    parsed = _parse_clean(data) if isinstance(data, bytes) else None
    if parsed is not None:
        times, ids, names = parsed
    else:
        text = data.decode("ascii") if isinstance(data, bytes) else data
        times, ids, names = [], [], {}  # names: name -> id
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.strip() == "":
                continue
            try:
                time, name = (c.strip() for c in line.split(","))
                if not name or not _CONTROL.isdisjoint(name):
                    raise ValueError(name)
                times.append(_uint(time))
            except ValueError:  # not two cells, or a bad time or name
                raise DataError(f"malformed row at line {lineno}: "
                                f"{line!r}") from None
            if times[-1] >= 2 ** 63:
                raise DataError(f"event time above 2^63 - 1 at line "
                                f"{lineno}: {line!r}")
            ids.append(names.setdefault(name, len(names)))
        if not times:
            raise DataError("empty event-csv input")
        times = np.array(times, np.int64)
    if horizon is None:
        horizon = int(times.max()) + 1
    return EventList.from_arrays(times, ids, names, horizon)


def _parse_clean(data: bytes) -> Optional[tuple]:
    """Times, name ids and names (in first-appearance order) of a clean
    text, or ``None`` for any other.  A text is clean when it is not
    empty and each line is a time of 1-18 decimal digits (so below 2^63),
    a comma and a non-empty name without comma, whitespace, control or
    non-ASCII byte, ended by LF (optional on the last line); so no line
    is empty.
    The text is parsed, and the rule checked, in blocks of whole lines,
    and a block whose name keys would take over 8 bytes per byte of it is
    left to the line loop, so no temporary outgrows its block."""
    if not data or not data.isascii() or b"\x7f" in data:
        return None
    buf = np.frombuffer(data, np.uint8)
    n = data.count(b"\n") + (not data.endswith(b"\n"))
    times, ids = np.empty(n, np.int64), np.empty(n, np.intp)
    index = {}  # name -> id, in order of first appearance
    start = done = 0
    while start < len(buf):
        stop = data.find(b"\n", start + _BLOCK) + 1 or len(buf)
        block = buf[start:stop]
        commas = np.flatnonzero(block == ord(","))
        ends = np.flatnonzero(block == ord("\n"))
        # LF is the one byte below "!": no other whitespace or control byte
        if np.count_nonzero(block < ord("!")) != len(ends):
            return None
        if block[-1] != ord("\n"):  # the last line has no LF
            ends = np.append(ends, len(block))
        if len(commas) != len(ends):
            return None
        # as many commas as lines, each after 1-18 digits counted from a
        # line start (so no LF in between): exactly one comma on each line;
        # an empty name is malformed, which the line loop reports; the name
        # keys, as wide as the longest name, must not outgrow the block by
        # far (one long name among short ones: the line loop)
        digits, lengths = commas - np.append(0, ends[:-1] + 1), ends - commas - 1
        rows = slice(done, done + len(commas))
        if (not ((digits >= 1) & (digits <= 18)).all()
                or lengths.min() < 1
                or len(commas) * (int(lengths.max()) + 8) > 8 * len(block)
                or not _decimal(block, commas, digits, times[rows])):
            return None
        ids[rows] = _name_ids(block, commas, lengths, index)
        start, done = stop, rows.stop
    return times, ids, tuple(index)


def _decimal(block, commas, digits, value) -> bool:
    """Sum into the int64 ``value`` the ``digits`` decimal digits before
    each comma, one pass per digit place, units first; ``False`` if any of
    those bytes is not a digit."""
    value[:] = 0
    scale = 1
    for place in range(1, int(digits.max()) + 1):
        # the index reads another line's byte (possibly wrapping to the
        # block's end) where the time is shorter; that byte is masked
        digit = np.where(digits >= place, block[commas - place] - ord("0"), 0)
        if (digit > 9).any():  # a byte below "0" wraps around above 9
            return False
        value += digit * np.int64(scale)
        scale *= 10
    return True


def _name_ids(block, commas, lengths, index) -> np.ndarray:
    """Each line's name id in ``index``, new ones numbered by first
    appearance: keys read a byte place at a time into zero-padded uint64
    words (no clean name holds NUL) and grouped by :func:`_first_seen`."""
    longest = int(lengths.max())
    keys = np.zeros((len(commas), 8 * -(-longest // 8)), np.uint8)
    for place in range(longest):
        # past a shorter name: the next bytes (clipped at the end), masked
        byte = np.take(block, commas + (place + 1), mode="clip")
        keys[:, place] = np.where(lengths > place, byte, 0)
    local, first, _ = _first_seen(keys.view(np.uint64))
    known = [index.setdefault(keys[f].tobytes().rstrip(b"\0").decode(),
                              len(index)) for f in first.tolist()]
    return np.array(known, np.intp)[local]


def _first_seen(keys) -> tuple:
    """Each row's group id, first row and size, for the equal rows of a
    C-contiguous ``(n, w)`` uint64 matrix, numbered by first appearance.
    A stable ``argsort`` per 16-bit digit (a linear radix sort) sorts the
    rows, each group's in row order; a digit equal in every row can
    neither split nor reorder a group, so it gets no pass."""
    order = np.arange(len(keys))
    for digit in keys.view(np.uint16).T:
        if (digit[1:] != digit[:1]).any():
            order = order[np.argsort(digit[order], kind="stable")]
    starts = np.zeros(len(order), bool)
    starts[:1] = True
    for word in keys.T:
        word = word[order]
        starts[1:] |= word[1:] != word[:-1]
    heads = np.flatnonzero(starts)  # each group's first place in the sort
    sizes = np.diff(heads, append=len(order))
    first = order[heads]  # each group's first row
    by_first = np.argsort(first)  # groups in order of first appearance
    ids = np.empty_like(order)
    ids[order] = np.argsort(by_first).repeat(sizes)
    return ids, first[by_first], sizes[by_first]


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
    if any(not v or not _CONTROL.isdisjoint(v) for v in names):
        raise DataError(f"malformed header at line {rows[0][0]}: "
                        f"{rows[0][1]!r}")
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
    return EventList.from_arrays(ticks, var_idx, trace.variables,
                                 trace.length)


_EVENTS = 1 << 12  # lines of event-csv text joined into one chunk


def write_events(events: EventList, sink) -> None:
    """Serialize as event-csv (sorted records, LF line endings), written
    ``_EVENTS`` lines at a time so only one block's text is held.  A name
    that would not read back as it is (empty, holding a comma or a control
    character, or with whitespace at either end) is refused before anything
    is written."""
    for v in events.names:
        if not v or v != v.strip() or "," in v or not _CONTROL.isdisjoint(v):
            raise DataError(f"variable {v!r} cannot be written as event-csv")
    rows = [f",{v}\n" for v in events.names]
    times, ids = events.times, events.ids
    _write_text(sink, ("".join([f"{t}{rows[i]}" for t, i in zip(
        times[k:k + _EVENTS].tolist(), ids[k:k + _EVENTS].tolist())])
        for k in range(0, len(times), _EVENTS)))


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
    names = [f"{v}_{side}" for v in variables for side in ("up", "down")]
    values = np.empty((2 * n_vars, length), dtype=bool)
    values[0::2], values[1::2] = matrix >= theta_up, matrix <= theta_down
    return Trace(tuple(names), values)
