"""Labeled discrete-time Markov chains inferred from trace frequencies.

States are the distinct observed label vectors, numbered in order of first
appearance across the traces; transition probabilities are consecutive-pair
frequencies within each trace (pairs never span a trace boundary).  States
observed only without a successor get a self-loop, so every row stays
stochastic.  The observation count of each state is kept so
that checkers can average over states by empirical frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError
from .traces import (TraceSet, _first_seen, _open_lines, _reject_reserved,
                     _uint, _write_text)

__all__ = ["Dtmc", "build_dtmc", "encode_labels", "export_text", "load_text"]

if TYPE_CHECKING:
    from scipy import sparse

ROW_SUM_TOL = 1e-9
_SETTLE = 64  # walk steps between fixed-point checks


@dataclass(frozen=True)
class Dtmc:
    """A labeled stochastic transition system.

    ``transitions`` is a row-stochastic sparse matrix; ``label_matrix`` is a
    read-only state x atom boolean matrix, stored atom-major (column-major)
    so each atom's states are contiguous; ``frequency[i]`` counts how often
    state ``i`` was observed (all ticks, not just those with successors).
    """

    atoms: tuple
    label_matrix: np.ndarray
    transitions: sparse.csr_matrix
    initial: int
    frequency: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        _reject_reserved(self.atoms)
        marks = np.asfortranarray(self.label_matrix, dtype=bool).view()
        if marks.ndim != 2 or marks.shape[1] != len(self.atoms):
            raise DataError("label matrix shape does not match atoms")
        marks.flags.writeable = False
        object.__setattr__(self, "label_matrix", marks)
        n = len(marks)
        object.__setattr__(self, "transitions", _csr(self.transitions))
        if self.transitions.shape != (n, n):
            raise DataError("transition matrix shape does not match states")
        if not _finite_non_negative(self.transitions.data):
            raise DataError("transition probabilities must be finite and "
                            "non-negative")
        if n and not (worst := self.row_sum_deviation()) <= ROW_SUM_TOL:
            raise DataError(f"transition rows must sum to 1 "
                            f"(worst deviation {worst:.3e})")
        freq = np.asarray(self.frequency, dtype=float)
        if freq.shape != (n,):
            raise DataError("frequency vector shape does not match states")
        if not _finite_non_negative(freq):
            raise DataError("state frequencies must be finite and "
                            "non-negative")
        if not 0 <= self.initial < n:
            raise DataError("initial state index out of range")
        object.__setattr__(self, "frequency", freq)

    @property
    def n_states(self) -> int:
        return len(self.label_matrix)

    @cached_property
    def labels(self) -> tuple:
        """Atom set of each state, derived once from ``label_matrix``."""
        return tuple(frozenset(compress(self.atoms, row))
                     for row in self.label_matrix)

    @cached_property
    def _shift_split(self):
        """The rows of ``transitions`` that are not shift rows, with their
        csr, when shift rows are at least half the rows; else ``None``.  A
        shift row has one entry, 1.0 at column ``i + 1``: a state always
        followed by the next one first seen, common when states are
        numbered by first appearance."""
        trans, n = self.transitions, self.n_states
        single = np.flatnonzero(np.diff(trans.indptr) == 1)
        at = trans.indptr[single]
        shift = np.zeros(n, bool)
        shift[single] = ((trans.indices[at] == single + 1)
                         & (trans.data[at] == 1.0))
        if 2 * np.count_nonzero(shift) < n:
            return None
        rest = np.flatnonzero(~shift)
        return rest, trans[rest]

    def _walk(self, v: np.ndarray, steps: int, stop=slice(0),
              pinned=0.0) -> np.ndarray:
        """``v`` after ``steps`` pushes ``v = transitions @ v``, each
        followed by ``v[stop] = pinned`` (state indices; by default none);
        ``v`` itself is not written.  The bits are those of full products
        for a finite float vector with no negative entry and no -0.0,
        which is every vector the checker pushes.

        Every ``_SETTLE`` steps the walk ends if that step left the vector
        bit for bit as it was (compared as int64, as ``0.0 == -0.0`` in
        floats, with a copy taken before the step, as a split step writes
        over its input): a step is a fixed map, so every later one would too.

        With the shift split, each step's vector is one place on from the
        last in a buffer of ``n + min(steps, n)`` floats, moved back to its
        front when full, so a shift row's value ``v[i + 1]`` already sits at
        place ``i`` of the next step's vector and costs nothing; the other
        rows are one csr product written over it, each the same row sum as
        in the full product.  scipy's csr row sum starts from +0.0, and
        ``0.0 + 1.0 * x`` is ``x`` on such values."""
        split, n = self._shift_split, self.n_states
        if split is None:
            for i in range(1, steps + 1):
                last, v = v, self.transitions @ v
                v[stop] = pinned
                if i % _SETTLE == 0 and _same(v, last):
                    break
            return v
        rest, sub = split
        buf = np.empty(n + min(steps, n))
        buf[:n], k = v, 0
        for i in range(1, steps + 1):
            if k + n == buf.size:  # one copy of n floats per n steps
                buf[:n], k = buf[k:], 0
            last = buf[k:k + n].copy() if i % _SETTLE == 0 else None
            step = buf[k + 1:k + 1 + n]  # its last place is a rest row's
            step[rest] = sub @ buf[k:k + n]
            step[stop] = pinned
            k += 1
            if last is not None and _same(step, last):
                break
        return buf[k:k + n]

    @cached_property
    def _columns(self) -> dict:
        """Each atom's column of ``label_matrix``, the first if repeated."""
        return {a: i for i, a in reversed(tuple(enumerate(self.atoms)))}

    def states_with(self, atom: str) -> np.ndarray:
        """Read-only boolean mask of states labeled with ``atom``: a
        contiguous view of ``label_matrix`` for a declared atom."""
        col = self._columns.get(atom)
        return (np.zeros(self.n_states, bool) if col is None
                else self.label_matrix[:, col])

    def row_sum_deviation(self) -> float:
        rows = np.asarray(self.transitions.sum(axis=1)).ravel()
        return float(np.abs(rows - 1.0).max())


def _same(a, b) -> bool:  # bit for bit
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _csr(*args, **kwargs):
    """A scipy csr matrix.  ``scipy.sparse`` loads here, on the first chain
    built, loaded or constructed, so ``import tlcausal`` and the chain-free
    commands (infer, fdr, report, generate) never load scipy."""
    from scipy import sparse
    return sparse.csr_matrix(*args, **kwargs)


def _finite_non_negative(values) -> bool:
    return bool(((values >= 0) & (values < np.inf)).all())  # NaN fails both


def encode_labels(atoms, labels) -> np.ndarray:
    """State x atom boolean matrix of a sequence of per-state atom sets."""
    undeclared = sorted(frozenset().union(*labels) - set(atoms))
    if undeclared:
        raise DataError(f"state labels name undeclared atoms {undeclared}")
    return np.array([[a in lab for a in atoms] for lab in labels],
                    dtype=bool).reshape(len(labels), len(atoms))


def build_dtmc(data: TraceSet) -> Dtmc:
    """Infer the chain from observed label vectors and their transitions."""
    if not isinstance(data, TraceSet):
        data = TraceSet(tuple(data))
    lengths = [trace.length for trace in data]
    ends = np.cumsum(lengths)
    ids, labels, frequency = _states(data, ends)
    n = len(labels)
    a, b = np.delete(ids, ends - 1), np.delete(ids, ends - lengths)
    pairs, counts = np.unique(a * n + b, return_counts=True)  # (a, b) order
    src, dst = np.divmod(pairs, n)
    out_total = np.bincount(a, minlength=n)
    terminal = np.flatnonzero(out_total == 0)  # keep every row stochastic
    trans = _csr(
        (np.concatenate([counts / out_total[src], np.ones(len(terminal))]),
         (np.concatenate([src, terminal]), np.concatenate([dst, terminal]))),
        shape=(n, n))
    return Dtmc(data.variables, labels, trans, 0, frequency)


def _states(data: TraceSet, ends) -> tuple:
    """Each tick's state id, the state x atom label matrix (atom-major) and
    each state's tick count, with states numbered by first appearance.

    A tick's label is keyed as little-endian bits in zero-padded uint64
    words, ``atoms // 64 + 1`` of them, so a zero-atom label still has
    one; the keys are grouped by :func:`~tlcausal.traces._first_seen`.
    Each state's bits are unpacked byte-row by bit into an atom x state
    matrix, whose transpose is the label matrix."""
    atoms = len(data.variables)
    packed = np.zeros((ends[-1], atoms // 64 + 1), "<u8")
    rows = packed.view(np.uint8)  # tick x byte
    for trace, stop in zip(data, ends.tolist()):
        block = rows[stop - trace.length:stop]
        for a, values in enumerate(trace.values):
            block[:, a >> 3] |= values.view(np.uint8) << (a & 7)
    ids, first, sizes = _first_seen(packed)
    cols = rows[first, :(atoms + 7) // 8].T.copy()  # byte x state
    marks = np.empty((8 * len(cols), len(first)), np.uint8)
    for bit in range(8):  # atom 8 * b + bit is bit ``bit`` of byte b
        np.bitwise_and(cols >> bit, 1, out=marks[bit::8])
    return ids, marks[:atoms].view(bool).T, sizes


# ---------------------------------------------------------------------------
# Textual export (debugging and checker-only input)

def export_text(model: Dtmc, sink) -> None:
    """Write the model as a plain listing.

    Lines: ``atoms <a> <b> ...``, ``initial <id>``, ``state <id>: {a,b}``,
    ``freq <id> <count>``, ``trans <from> <to> <prob>``.  An atom whose
    name holds whitespace or a comma, which :func:`load_text` would read
    as two names, is refused before anything is written.
    """
    for atom in model.atoms:
        if atom.split() != [atom] or "," in atom:
            raise DataError(f"atom {atom!r} cannot be listed: a listing's "
                            f"atom names hold no whitespace or comma")
    coo = model.transitions.tocoo()
    _write_text(sink, "".join([
        f"atoms {' '.join(model.atoms)}\ninitial {model.initial}\n",
        *(f"state {i}: {{{','.join(sorted(lab))}}}\n"
          for i, lab in enumerate(model.labels)),
        *(f"freq {i} {_exact(f)}\n" for i, f in enumerate(model.frequency)),
        *(f"trans {coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}\n"
          for k in np.lexsort((coo.col, coo.row)))]))


def _exact(value) -> str:
    """A float as text that ``float`` reads back to the same value: plain
    digits when it is integral, else its ``repr``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def load_text(source) -> Dtmc:
    """Parse a listing produced by :func:`export_text`.  A repeated ``atoms``
    or ``initial`` line, or a ``state``, ``freq`` or ``trans`` record
    repeated for the same state or pair, is refused, naming both lines."""
    lines = _open_lines(source)
    atoms, initial, states, freqs, trans = {}, {}, {}, {}, {}
    # each record's key -> (line number, value); atoms and initial: key ()
    for lineno, line in enumerate(map(str.strip, lines), start=1):
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "atoms":
                table, key, value = atoms, (), tuple(rest.split())
            elif head == "initial":
                table, key, value = initial, (), _uint(rest.strip())
            elif head == "state":
                sid, _, label = map(str.strip, rest.partition(":"))
                table, key = states, (_uint(sid),)
                if not (label.startswith("{") and label.endswith("}")):
                    raise ValueError(label)
                value = {a.strip() for a in label[1:-1].split(",")} - {""}
            elif head == "freq":
                sid, value = rest.split()
                table, key, value = freqs, (_uint(sid),), float(value)
            elif head == "trans":
                a, b, p = rest.split()
                table, key, value = trans, (_uint(a), _uint(b)), float(p)
            else:
                raise ValueError(f"unknown record {head!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed model line {lineno}: {line!r}") from exc
        if key in table:
            raise DataError(f"model line {lineno} repeats "
                            f"{' '.join(map(str, (head, *key)))} "
                            f"(first at line {table[key][0]})")
        table[key] = (lineno, value)
    if not atoms or not states:
        raise DataError("model listing missing atoms or states")
    atoms, initial = atoms[()][1], initial.get((), (0, 0))[1]
    n = max(states)[0] + 1
    for table in (states, freqs, trans):
        for ids, (lineno, _) in table.items():
            if not all(0 <= i < n for i in ids):
                raise DataError(f"model line {lineno} names a state outside "
                                f"[0, {n}): {lines[lineno - 1].strip()!r}")
    if len({a for a, _ in trans}) < n:  # refused before anything is built
        raise DataError("transition rows must sum to 1 (a state has no trans line)")
    freq = np.array([freqs.get((i,), (0, 1.0))[1] for i in range(n)])
    marks = encode_labels(atoms, [states.get((i,), (0, ()))[1]
                                  for i in range(n)])
    pairs = np.array(list(trans), dtype=np.intp).reshape(-1, 2)
    probs = [p for _, p in trans.values()]
    return Dtmc(atoms, marks, _csr((probs, (pairs[:, 0], pairs[:, 1])),
                                   shape=(n, n)), initial, freq)
