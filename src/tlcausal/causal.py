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

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .checker import FrequencyEstimate, eval_on_trace, window_hits
from .errors import CheckError
from .pctl import Atom, Formula, Not, print_formula
from .traces import TraceSet

__all__ = [
    "Hypothesis", "PrimaFacieResult", "enumerate_pairwise", "score_hypotheses",
]


@dataclass(frozen=True)
class Hypothesis:
    """Cause-effect pair with a tick window ``[tmin, tmax]``, ``tmin >= 1``."""

    cause: Formula
    effect: Formula
    tmin: int
    tmax: int

    def __post_init__(self):
        if not (isinstance(self.tmin, int) and self.tmin >= 1):
            raise CheckError("hypothesis window requires tmin >= 1")
        if not (isinstance(self.tmax, int) and self.tmax >= self.tmin):
            raise CheckError("hypothesis window requires tmax >= tmin")


@dataclass(frozen=True)
class PrimaFacieResult:
    """One hypothesis's prima facie test and, for a passer, its average
    impact ``eps_avg``: ``None`` when there is nothing to average (no rival
    passer, or no defined term under the ``defined`` divisor)."""

    hypothesis: Hypothesis
    occurred: bool
    p_cond: FrequencyEstimate
    p_marginal: FrequencyEstimate
    passed: bool
    eps_avg: Optional[float] = None


def enumerate_pairwise(atoms: Sequence[str], tmin: int, tmax: int,
                       include_negations: bool = False) -> List[Hypothesis]:
    """All ordered atom pairs (cause != effect) at one window.

    With negations, causes additionally range over negated atoms (effects
    stay positive).  Order is deterministic: positive causes first, then
    negated ones, each crossed with effects in atom order.
    """
    atoms = list(atoms)
    if not atoms:
        raise CheckError("no atoms to enumerate")
    causes: List[Tuple[Formula, str]] = [(Atom(a), a) for a in atoms]
    if include_negations:
        causes += [(Not(Atom(a)), a) for a in atoms]
    out = []
    for cause, base in causes:
        for e in atoms:
            if e == base:
                continue
            out.append(Hypothesis(cause, Atom(e), tmin, tmax))
    return out


_ZERO = FrequencyEstimate(0.0, 0, 0)


# ---------------------------------------------------------------------------
# Batched scoring over a whole hypothesis family
#
# The pipeline evaluates every ordered pair at once.  Counts come from 0/1
# matrix products over the qualifying ticks of each trace.  Every partial sum
# of such a product is an integer no larger than the number of ticks summed
# over, so it is exact in float64 up to 2**53 ticks; the counts match the
# per-pair definitions exactly.

def _products(left, right):
    """Exact counts ``left @ right.T`` of two boolean matrices whose rows
    run over the same ticks."""
    lf = left.astype(np.float64)
    rf = lf if right is left else right.astype(np.float64)
    return (lf @ rf.T).astype(np.int64)


def _index(formulas):
    """Integer id of each formula (formulas printing alike share one) and
    the distinct formulas in first-seen order."""
    ids: dict = {}
    distinct, out = [], []
    for f in formulas:
        i = ids.setdefault(print_formula(f), len(ids))
        if i == len(distinct):
            distinct.append(f)
        out.append(i)
    return out, distinct


def score_hypotheses(data: TraceSet, hypotheses: Sequence[Hypothesis],
                     divisor: str = "defined",
                     min_support: int = 1) -> List[PrimaFacieResult]:
    """One result per hypothesis, in input order: the prima facie test and,
    for passers, the impact average over the rival passers of the same
    effect at the shared window.

    All hypotheses must share one window, and causes/effects are evaluated
    per tick (atoms, negations, or any propositional formula).
    """
    if divisor not in ("defined", "strict"):
        raise CheckError(f"unknown divisor mode {divisor!r}")
    hypotheses = list(hypotheses)
    if not hypotheses:
        return []
    tmin = hypotheses[0].tmin
    tmax = hypotheses[0].tmax
    if any(h.tmin != tmin or h.tmax != tmax for h in hypotheses):
        raise CheckError("batched scoring requires a single shared window")

    cause_ix, causes = _index(h.cause for h in hypotheses)
    effect_ix, effects = _index(h.effect for h in hypotheses)
    nc, ne = len(causes), len(effects)

    cooc = np.zeros((nc, nc), dtype=np.int64)      # qualifying co-occurrence
    cond_num = np.zeros((nc, ne), dtype=np.int64)  # cause tick & effect in window
    cause_occ = np.zeros(nc, dtype=np.int64)       # all ticks, uncensored
    cause_qual = np.zeros(nc, dtype=np.int64)
    marg_num = np.zeros(ne, dtype=np.int64)
    qual_total = 0
    kept = []  # per trace: cause rows and effect window hits, qualifying ticks

    for trace in data:
        rows = np.array([eval_on_trace(trace, c) for c in causes],
                        dtype=bool)
        cause_occ += rows.sum(axis=1)
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
        kept.append((rq, hits))

    occ, qual = cause_occ.tolist(), cause_qual.tolist()
    cond, marg = cond_num.tolist(), marg_num.tolist()
    tests = []     # per hypothesis: the fields of its result but eps_avg
    passers = {}   # effect id -> indices of its passing hypotheses
    for i, (h, ci, ej) in enumerate(zip(hypotheses, cause_ix, effect_ix)):
        den, num = qual[ci], cond[ci][ej]
        p_cond = FrequencyEstimate(num / den, num, den) if den else _ZERO
        p_marg = (FrequencyEstimate(marg[ej] / qual_total, marg[ej],
                                    qual_total) if qual_total else _ZERO)
        # exact rational num/den > marg/qual_total; a qualifying cause
        # tick (den > 0) implies the cause occurred
        passed = den > 0 and num * qual_total > marg[ej] * den
        tests.append((h, occ[ci] > 0, p_cond, p_marg, passed))
        if passed:
            passers.setdefault(ej, []).append(i)

    eps = {}  # hypothesis index -> impact average; a lone passer has none
    for ej, members in passers.items():
        if len(members) == 1:
            continue  # no rival to compare against
        rivals = [cause_ix[i] for i in members]
        values, defined = _impact_terms(
            both=cooc[np.ix_(rivals, rivals)],
            x_total=cause_qual[rivals],
            num_both=_pair_counts(kept, rivals, ej),
            num_x=cond_num[rivals, ej],
            min_support=min_support)
        eps.update(zip(members, _average(values, defined, divisor)))
    return [PrimaFacieResult(*test, eps.get(i))
            for i, test in enumerate(tests)]


def _pair_counts(kept, rivals, ej):
    """Ticks where two rivals both hold and effect ``ej`` hits its window,
    summed over the traces; only the hit ticks can contribute."""
    total = np.zeros((len(rivals), len(rivals)), dtype=np.int64)
    for rq, hits in kept:
        sub = rq[rivals][:, np.flatnonzero(hits[ej])]  # faster than np.ix_
        total += _products(sub, sub)
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
