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
from .pctl import Atom, Formula, Not, print_formula
from .traces import TraceSet

__all__ = [
    "Hypothesis", "HypothesisFamily", "ScoreTable", "enumerate_pairwise",
    "score_hypotheses",
]


@dataclass(frozen=True)
class Hypothesis:
    """Cause-effect pair with a tick window ``[tmin, tmax]``, ``tmin >= 1``."""

    cause: Formula
    effect: Formula
    tmin: int
    tmax: int

    def __post_init__(self):
        _check_window(self.tmin, self.tmax)


@dataclass(frozen=True, eq=False)
class HypothesisFamily:
    """Hypotheses at one window as indices: hypothesis ``i`` pairs
    ``causes[cause_ix[i]]`` with ``effects[effect_ix[i]]``."""

    causes: tuple
    effects: tuple
    cause_ix: np.ndarray
    effect_ix: np.ndarray
    tmin: int
    tmax: int

    def __post_init__(self):
        _check_window(self.tmin, self.tmax)

    @classmethod
    def of(cls, hypotheses: Sequence[Hypothesis]) -> "HypothesisFamily":
        """The family of a hypothesis list at one window (a family is
        returned as is); formulas printing alike share one index.  An
        empty list has no window of its own and is given ``[1, 1]``, so
        it still scores to an empty table."""
        if isinstance(hypotheses, HypothesisFamily):
            return hypotheses
        hypotheses = list(hypotheses)
        windows = {(h.tmin, h.tmax) for h in hypotheses} or {(1, 1)}
        if len(windows) > 1:
            raise CheckError("batched scoring requires a single shared window")
        cause_ix, causes = _index(h.cause for h in hypotheses)
        effect_ix, effects = _index(h.effect for h in hypotheses)
        return cls(causes, effects, cause_ix, effect_ix, *windows.pop())

    def __len__(self):
        return len(self.cause_ix)


def _index(formulas):
    """Index array of the formulas (formulas printing alike share one id)
    and the distinct formulas in first-seen order."""
    ids: dict = {}
    distinct, out = [], []
    for f in formulas:
        i = ids.setdefault(print_formula(f), len(ids))
        if i == len(distinct):
            distinct.append(f)
        out.append(i)
    return np.array(out, dtype=np.int64), tuple(distinct)


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

    family: HypothesisFamily
    num: np.ndarray
    den: np.ndarray
    marg: np.ndarray
    qual_total: int
    passed: np.ndarray
    eps: np.ndarray


# ---------------------------------------------------------------------------
# Batched scoring over a whole hypothesis family
#
# The pipeline evaluates every ordered pair at once.  Counts come from 0/1
# matrix products over the qualifying ticks of each trace, in float32 over
# chunks of at most _CHUNK ticks: a partial sum is an integer no larger than
# the chunk length, and float32 holds every integer up to 2**24 exactly, in
# any summation order.  Chunk results add up in int64, so the counts match
# the per-pair definitions exactly at any trace length.
_CHUNK = 2 ** 16


def _products(left, right):
    """Exact counts ``left @ right.T`` of two boolean matrices whose rows
    run over the same ticks."""
    total = np.zeros((len(left), len(right)), dtype=np.int64)
    for t in range(0, left.shape[1], _CHUNK):
        lf = left[:, t:t + _CHUNK].astype(np.float32)
        rf = lf if right is left else right[:, t:t + _CHUNK].astype(np.float32)
        total += (lf @ rf.T).astype(np.int64)
    return total


def score_hypotheses(data: TraceSet, hypotheses: Sequence[Hypothesis],
                     divisor: str = "defined",
                     min_support: int = 1) -> ScoreTable:
    """Scores in input order: the prima facie test of every hypothesis
    and, for passers, the impact average over the rival passers of the
    same effect at the shared window.

    ``hypotheses`` is a :class:`HypothesisFamily` or any hypothesis list
    at one window; causes/effects are evaluated per tick (atoms,
    negations, or any propositional formula).
    """
    if divisor not in ("defined", "strict"):
        raise CheckError(f"unknown divisor mode {divisor!r}")
    family = HypothesisFamily.of(hypotheses)
    tmin, tmax = family.tmin, family.tmax
    causes, effects = family.causes, family.effects
    nc, ne = len(causes), len(effects)

    cooc = np.zeros((nc, nc), dtype=np.int64)      # qualifying co-occurrence
    cond_num = np.zeros((nc, ne), dtype=np.int64)  # cause tick & effect in window
    cause_qual = np.zeros(nc, dtype=np.int64)
    marg_num = np.zeros(ne, dtype=np.int64)
    qual_total = 0
    kept = []  # per trace: cause rows, effect hits, ticks two causes hold

    for trace in data:
        rows = np.array([eval_on_trace(trace, c) for c in causes],
                        dtype=bool).reshape(nc, trace.length)
        nq = trace.length - tmax
        if nq <= 0:
            continue
        rq = rows[:, :nq]
        hits = np.empty((ne, nq), dtype=bool)
        for j, e in enumerate(effects):
            hits[j] = window_hits(eval_on_trace(trace, e), tmin, tmax)
        qual_total += nq
        cause_qual += rq.sum(axis=1)
        marg_num += hits.sum(axis=1)
        cooc += _products(rq, rq)
        cond_num += _products(rq, hits)
        kept.append((rq, hits, np.flatnonzero(rq.sum(axis=0) >= 2)))

    cause_ix, effect_ix = family.cause_ix, family.effect_ix
    num = cond_num[cause_ix, effect_ix]
    den = cause_qual[cause_ix]
    marg = marg_num[effect_ix]
    # exact rational num/den > marg/qual_total (int64 is exact while the
    # tick count stays below 3e9); a qualifying cause tick implies the
    # cause occurred
    passed = (den > 0) & (num * qual_total > marg * den)

    eps = np.full(len(family), np.nan)  # a lone passer has no average
    passers = np.flatnonzero(passed)
    passer_effects = effect_ix[passers]
    _, first = np.unique(passer_effects, return_index=True)
    for ej in passer_effects[np.sort(first)]:  # in first-passer order
        members = passers[passer_effects == ej]
        if len(members) == 1:
            continue  # no rival to compare against
        rivals = cause_ix[members]
        num_x = cond_num[rivals, ej]
        values, defined = _impact_terms(
            both=cooc[np.ix_(rivals, rivals)],
            x_total=cause_qual[rivals],
            num_both=_pair_counts(kept, rivals, ej, num_x),
            num_x=num_x,
            min_support=min_support)
        eps[members] = np.array(_average(values, defined, divisor),
                                dtype=float)  # None reads as NaN
    return ScoreTable(family, num, den, marg, qual_total, passed, eps)


def _pair_counts(kept, rivals, ej, own):
    """Ticks where two rivals both hold and effect ``ej`` hits its window,
    summed over the traces.  Only hit ticks where two causes hold can add
    to a pair; the diagonal, each rival's own hit count, is ``own``."""
    total = np.zeros((len(rivals), len(rivals)), dtype=np.int64)
    for rq, hits, multi in kept:
        # index arrays, not a filtered copy of rq: faster than np.ix_ too
        sub = rq[rivals][:, multi[hits[ej, multi]]]
        total += _products(sub, sub)
    np.fill_diagonal(total, own)
    return total


def _impact_terms(both, x_total, num_both, num_x, min_support):
    """Impact of each passer (row) against each rival passer (column) of one
    effect: ``P(e | c and x) - P(e | not-c and x)`` from the counts of ticks
    where both hold (``both``, ``num_both`` of them with the effect in
    window) and where the rival holds (``x_total``, ``num_x``).

    Returns ``(values, defined)``; a term is defined when both conditioning
    denominators reach ``min_support`` (and at least 1), so the diagonal,
    whose not-c side is empty, never is.  Undefined values are 0.0.
    """
    x_only = x_total - both
    floor = max(min_support, 1)
    defined = (both >= floor) & (x_only >= floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = num_both / both - (num_x - num_both) / x_only
    return np.where(defined, values, 0.0), defined


def _average(values, defined, divisor):
    """Each row's defined terms summed left to right, as a plain loop over
    the rivals would (``np.sum`` sums pairwise and may change the last
    bits), divided by the defined-term count or, for ``strict``, by the
    rival-set size (the column count)."""
    total = np.cumsum(values, axis=1)[:, -1].tolist()
    if divisor == "strict":
        return [t / values.shape[1] for t in total]
    return [t / k if k else None
            for t, k in zip(total, defined.sum(axis=1).tolist())]
