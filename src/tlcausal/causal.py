"""Candidate causes: enumeration, the prima facie filter, and predictive
impact scores.

A hypothesis pairs a cause formula with an effect formula over a tick window
``[tmin, tmax]``.  It is prima facie when the cause occurs at all, the
conditional window frequency of the effect is defined, and that frequency
strictly exceeds the effect's marginal window frequency (the comparison is
done on cross-multiplied integer counts, so exact ties never pass).

The impact of cause ``c`` on effect ``e`` against a rival ``x`` is
``P(e | c and x) - P(e | not-c and x)``, both sides conditioning on the same
tick and using the hypothesis window.  A cause's average impact runs over all
rival prima facie causes of the same effect; by default the divisor counts
only the rivals whose terms are defined (both conditioning denominators meet
the support floor), with a strict mode dividing by the full rival-set size
including the cause itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .checker import _check_window, eval_on_trace, window_hits
from .errors import CheckError
from .pctl import Atom, Not
from .pctl import print_formula  # noqa: F401  (perfbench wraps this name)
from .traces import TraceSet

__all__ = ["HypothesisFamily", "ScoreTable", "enumerate_pairwise",
           "score_hypotheses"]


@dataclass(frozen=True, eq=False)
class HypothesisFamily:
    """Hypotheses at one window as indices: hypothesis ``i`` pairs
    ``causes[cause_ix[i]]`` with ``effects[effect_ix[i]]``.  The index
    arrays must be one-dimensional integer arrays of one length, each
    index inside its formulas."""

    causes: tuple
    effects: tuple
    cause_ix: np.ndarray
    effect_ix: np.ndarray
    tmin: int
    tmax: int

    def __post_init__(self):
        _check_window(self.tmin, self.tmax)
        for ix, formulas in ((self.cause_ix, self.causes),
                             (self.effect_ix, self.effects)):
            if not (isinstance(ix, np.ndarray) and ix.ndim == 1
                    and ix.dtype.kind in "iu"):
                raise CheckError("cause_ix and effect_ix must be "
                                 "one-dimensional integer arrays")
            if not ((ix >= 0) & (ix < len(formulas))).all():
                raise CheckError("a hypothesis index falls outside its "
                                 "formulas")
        if len(self.cause_ix) != len(self.effect_ix):
            raise CheckError("cause_ix and effect_ix differ in length")

    def __len__(self):
        return len(self.cause_ix)


def enumerate_pairwise(atoms: Sequence[str], tmin: int, tmax: int,
                       include_negations: bool = False) -> HypothesisFamily:
    """All ordered atom pairs (cause != effect) at one window.

    With negations, causes additionally range over negated atoms (effects
    stay positive).  Order is deterministic: positive causes first, then
    negated ones, each crossed with effects in atom order.
    """
    atoms = list(atoms)
    if not atoms:
        raise CheckError("no atoms to enumerate")
    if len(set(atoms)) != len(atoms):
        raise CheckError("duplicate atom names")
    n = len(atoms)
    effects = tuple(Atom(a) for a in atoms)
    causes = effects + (tuple(Not(e) for e in effects)
                        if include_negations else ())
    # row b of the grid lists every effect but atom b, in atom order
    others = np.broadcast_to(np.arange(n), (n, n))[~np.eye(n, dtype=bool)]
    return HypothesisFamily(causes, effects,
                            np.repeat(np.arange(len(causes)), n - 1),
                            np.tile(others, len(causes) // n), tmin, tmax)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """A family's scores as arrays over its hypotheses: ``num`` of the
    ``den`` qualifying cause ticks see the effect in window, as do ``marg``
    of all ``qual_total`` qualifying ticks; ``eps`` is the impact average,
    NaN for none."""

    num: np.ndarray
    den: np.ndarray
    marg: np.ndarray
    qual_total: int
    passed: np.ndarray
    eps: np.ndarray


# ---------------------------------------------------------------------------
# Batched scoring over a whole hypothesis family
#
# Counts come from 0/1 matrix products over the qualifying ticks of all traces,
# in float32 over chunks of at most _CHUNK ticks: a partial sum is an integer
# no larger than the chunk length, and float32 holds every integer up to 2**24
# exactly, in any summation order.  Chunk results add up in int64, so the
# counts match the per-pair definitions exactly at any trace length, and the
# float32 copy stays at 16 KiB per column however long the traces are.
#
# The rival counts of a cause's passers (ticks where it and a rival hold
# and the effect hits) take one product over the ticks where that cause
# holds, which are few next to the ticks where an effect hits; the matrix
# is tick-major so that those ticks are gathered as contiguous rows.  Each
# passer's terms form one row, padded to the largest rival set with the
# sentinel cause: a padding term is never defined (the sentinel never
# holds), so it adds +0.0, which leaves the left-to-right sum unchanged
# because a defined term is never -0.0.
_CHUNK = 2 ** 12


def _counts(m, left, right):
    """Exact counts ``m[:, left].T @ m[:, right]`` of a tick-major boolean
    matrix ``m``; ``left`` and ``right`` select its columns."""
    def chunk(t):
        f = m[t:t + _CHUNK].astype(np.float32)
        return (f[:, left].T @ f[:, right]).astype(np.int64)

    total = chunk(0)  # a matrix without ticks still gives its zero counts
    for t in range(_CHUNK, len(m), _CHUNK):
        total += chunk(t)
    return total


def score_hypotheses(data: TraceSet, family: HypothesisFamily,
                     divisor: str = "defined",
                     min_support: int = 1) -> ScoreTable:
    """Scores in family order: the prima facie test of every hypothesis
    and, for passers, the impact average over the rival passers of the
    same effect at the family's window.  Causes and effects are
    evaluated per tick (atoms, negations, or any propositional formula).
    """
    if divisor not in ("defined", "strict"):
        raise CheckError(f"unknown divisor mode {divisor!r}")
    tmin, tmax = family.tmin, family.tmax
    causes, effects = family.causes, family.effects
    nc, ne = len(causes), len(effects)

    # the qualifying ticks of all traces side by side, tick-major: causes, a
    # sentinel cause that never holds, then effect window hits.  Cause rows
    # (for a cause's ticks) are made once the hit rows are copied and freed
    nqs = [max(trace.length - tmax, 0) for trace in data]
    spans = list(zip(data, np.cumsum([0] + nqs), nqs))
    qual_total = sum(nqs)
    hits = np.empty((ne, qual_total), dtype=bool)
    for trace, at, nq in spans:
        for j, e in enumerate(effects):
            hits[j, at:at + nq] = window_hits(eval_on_trace(trace, e),
                                              tmin, tmax)
    m = np.empty((qual_total, nc + 1 + ne), dtype=bool)
    m[:, nc + 1:] = hits.T
    marg_num = hits.sum(axis=1)
    del hits
    rows = np.zeros((nc + 1, qual_total), dtype=bool)
    for trace, at, nq in spans:
        for i, c in enumerate(causes):
            rows[i, at:at + nq] = eval_on_trace(trace, c)[:nq]
    m[:, :nc + 1] = rows.T
    both = _counts(m, slice(nc + 1), slice(None))
    cooc, cond_num = both[:, :nc + 1], both[:, nc + 1:]  # cond: in window
    cause_qual = np.diagonal(cooc)

    cause_ix, effect_ix = family.cause_ix, family.effect_ix
    num = cond_num[cause_ix, effect_ix]
    den = cause_qual[cause_ix]
    marg = marg_num[effect_ix]
    # exact rational num/den > marg/qual_total (int64 is exact while the
    # tick count stays below 3e9); a qualifying cause tick implies the
    # cause occurred
    passed = (den > 0) & (num * qual_total > marg * den)

    passers = np.flatnonzero(passed)
    group_effect, group, size, rivals = _rival_rows(
        cause_ix[passers], effect_ix[passers], nc)
    eps = np.full(len(family), np.nan)
    x_total = cause_qual[rivals]
    num_x = cond_num[rivals, group_effect[:, None]]
    rated = np.flatnonzero(size[group] > 1)  # a lone passer has no average
    # each rated cause's slots, in slot order, from one stable sort
    rated_cause = cause_ix[passers[rated]]
    order = np.argsort(rated_cause, kind="stable")
    by_cause, starts = np.unique(rated_cause[order], return_index=True)
    for c, slots in zip(by_cause.tolist(),
                        np.split(rated[order], starts[1:])):
        # the counts of ticks where c and a rival hold and the effect hits
        # are all taken over the ticks where c holds
        g = group[slots]
        cols = rivals[g]
        both_hit = _counts(np.take(m, np.flatnonzero(rows[c]), axis=0),
                           nc + 1 + group_effect[g], slice(nc + 1))
        values, defined = _impact_terms(
            both=cooc[c][cols],
            x_total=x_total[g],
            num_both=both_hit[np.arange(len(g))[:, None], cols],
            num_x=num_x[g],
            min_support=min_support)
        eps[passers[slots]] = _average(values, defined, divisor, size[g])
    return ScoreTable(num, den, marg, qual_total, passed, eps)


def _rival_rows(causes, effects, sentinel):
    """The passers grouped by effect: passer ``i`` is in group ``group[i]``
    of ``size`` passers, whose effect is ``group_effect[group[i]]``.  Row g
    of ``rivals`` lists group g's causes in passer order, padded with
    ``sentinel`` to the largest group."""
    group_effect, group, size = np.unique(effects, return_inverse=True,
                                          return_counts=True)
    order = np.argsort(group, kind="stable")
    place = np.arange(len(order)) - (np.cumsum(size) - size)[group[order]]
    rivals = np.full((len(size), size.max(initial=0)), sentinel)
    rivals[group[order], place] = causes[order]
    return group_effect, group, size, rivals


def _impact_terms(both, x_total, num_both, num_x, min_support):
    """Impact of each passer (row) against each rival passer (column) of
    its effect: ``P(e | c and x) - P(e | not-c and x)`` from the counts of
    ticks where both hold (``both``, ``num_both`` of them with the effect in
    window) and where the rival holds (``x_total``, ``num_x``).

    Returns ``(values, defined)``; a term is defined when both conditioning
    denominators reach ``min_support`` (and at least 1), so the term against
    the cause itself, whose not-c side is empty, never is.  Undefined values
    are 0.0.
    """
    x_only = x_total - both
    floor = max(min_support, 1)
    defined = (both >= floor) & (x_only >= floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = num_both / both - (num_x - num_both) / x_only
    return np.where(defined, values, 0.0), defined


def _average(values, defined, divisor, n_rivals):
    """Each row's terms summed left to right, as a plain loop over the
    rivals would (``np.sum`` sums pairwise and may change the last bits),
    divided by the row's defined-term count (NaN for none) or, for
    ``strict``, by its rival-set size ``n_rivals``."""
    total = np.cumsum(values, axis=1)[:, -1]
    count = n_rivals if divisor == "strict" else defined.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return total / count
