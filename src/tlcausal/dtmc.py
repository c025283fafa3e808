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
from itertools import compress
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import DataError
from .traces import TraceSet

__all__ = ["Dtmc", "build_dtmc", "export_text", "load_text"]

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Dtmc:
    """A labeled stochastic transition system.

    ``transitions`` is a row-stochastic sparse matrix; ``labels[i]`` is the
    atom set of state ``i``; ``frequency[i]`` counts how often the state was
    observed (all ticks, not just those with successors).
    """

    atoms: tuple
    labels: tuple
    transitions: sparse.csr_matrix
    initial: int
    frequency: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        object.__setattr__(self, "transitions",
                           sparse.csr_matrix(self.transitions))
        if self.transitions.shape != (n, n):
            raise DataError("transition matrix shape does not match states")
        worst = self.row_sum_deviation() if n else 0.0
        if worst > ROW_SUM_TOL:
            raise DataError(f"transition rows must sum to 1 "
                            f"(worst deviation {worst:.3e})")
        freq = np.asarray(self.frequency, dtype=float)
        if freq.shape != (n,):
            raise DataError("frequency vector shape does not match states")
        if not 0 <= self.initial < n:
            raise DataError("initial state index out of range")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "labels",
                           tuple(frozenset(s) for s in self.labels))
        undeclared = sorted(frozenset().union(*self.labels) - set(self.atoms))
        if undeclared:
            raise DataError(f"state labels name undeclared atoms {undeclared}")
        object.__setattr__(self, "frequency", freq)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def states_with(self, atom: str) -> np.ndarray:
        """Boolean mask of states labeled with ``atom``."""
        return np.array([atom in lab for lab in self.labels], dtype=bool)

    def row_sum_deviation(self) -> float:
        rows = np.asarray(self.transitions.sum(axis=1)).ravel()
        return float(np.abs(rows - 1.0).max())


def build_dtmc(data: TraceSet) -> Dtmc:
    """Infer the chain from observed label vectors and their transitions."""
    if not isinstance(data, TraceSet):
        data = TraceSet(tuple(data))
    ticks = np.concatenate([trace.values.T for trace in data])  # tick x atom
    # A constant column keeps every key non-empty when there are no atoms;
    # the void view below needs C-contiguous rows.
    packed = np.ascontiguousarray(np.packbits(
        np.column_stack([ticks, np.ones(len(ticks), bool)]), axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)  # state ids by first appearance
    ids, n = np.argsort(order)[inverse], len(first)
    lengths = [trace.length for trace in data]
    ends = np.cumsum(lengths)
    a, b = np.delete(ids, ends - 1), np.delete(ids, ends - lengths)
    pairs, counts = np.unique(a * n + b, return_counts=True)  # (a, b) order
    src, dst = np.divmod(pairs, n)
    out_total = np.bincount(a, minlength=n)
    terminal = np.flatnonzero(out_total == 0)  # keep every row stochastic
    trans = sparse.csr_matrix(
        (np.concatenate([counts / out_total[src], np.ones(len(terminal))]),
         (np.concatenate([src, terminal]), np.concatenate([dst, terminal]))),
        shape=(n, n))
    labels = [frozenset(compress(data.variables, row))
              for row in ticks[first[order]]]
    return Dtmc(data.variables, labels, trans, 0, np.bincount(ids))


# ---------------------------------------------------------------------------
# Textual export (debugging and checker-only input)

def export_text(model: Dtmc, sink) -> None:
    """Write the model as a plain listing.

    Lines: ``atoms <a> <b> ...``, ``initial <id>``, ``state <id>: {a,b}``,
    ``freq <id> <count>``, ``trans <from> <to> <prob>``.
    """
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w", encoding="utf-8", newline="\n") if own else sink
    try:
        fh.write("atoms " + " ".join(model.atoms) + "\n")
        fh.write(f"initial {model.initial}\n")
        for i, lab in enumerate(model.labels):
            inner = ",".join(sorted(lab))
            fh.write(f"state {i}: {{{inner}}}\n")
        for i, f in enumerate(model.frequency):
            fh.write(f"freq {i} {f:g}\n")
        coo = model.transitions.tocoo()
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            fh.write(f"trans {coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}\n")
    finally:
        if own:
            fh.close()


def load_text(source) -> Dtmc:
    """Parse a listing produced by :func:`export_text`."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise DataError(f"cannot read {source}: {exc}") from exc
    else:
        lines = source.read().splitlines()
    atoms: Optional[tuple] = None
    initial = 0
    labels: dict = {}
    freqs: dict = {}
    triples: list = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        try:
            if head == "atoms":
                atoms = tuple(rest.split())
            elif head == "initial":
                initial = int(rest)
            elif head == "state":
                sid, _, labpart = rest.partition(":")
                inner = labpart.strip()[1:-1]
                if int(sid) < 0:
                    raise ValueError("negative state id")
                labels[int(sid)] = frozenset(
                    x for x in inner.split(",") if x)
            elif head == "freq":
                sid, value = rest.split()
                freqs[int(sid)] = float(value)
            elif head == "trans":
                a, b, p = rest.split()
                triples.append((lineno, int(a), int(b), float(p)))
            else:
                raise ValueError(f"unknown record {head!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed model line {lineno}: {line!r}") from exc
    if atoms is None or not labels:
        raise DataError("model listing missing atoms or states")
    n = max(labels) + 1
    for lineno, a, b, _ in triples:
        if not (0 <= a < n and 0 <= b < n):
            raise DataError(f"model line {lineno} names a state outside "
                            f"[0, {n}): {lines[lineno - 1].strip()!r}")
    label_list = [labels.get(i, frozenset()) for i in range(n)]
    freq = np.array([freqs.get(i, 1.0) for i in range(n)])
    rows, cols, vals = ([t[k] for t in triples] for k in (1, 2, 3))
    trans = sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return Dtmc(atoms, tuple(label_list), trans, initial, freq)
