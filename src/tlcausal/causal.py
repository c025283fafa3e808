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

from .checker import (FrequencyEstimate, eval_on_trace, marginal_window_prob,
                      trace_leads_to, window_hits)
from .errors import CheckError, EmptyWindowError
from .pctl import And, Atom, Formula, Not, print_formula
from .traces import TraceSet

__all__ = [
    "Hypothesis", "PrimaFacieResult", "EpsilonTerm", "SignificanceRecord",
    "enumerate_pairwise", "prima_facie_test", "epsilon_x", "epsilon_avg",
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
        if not (isinstance(self.tmin, int) and self.tmin >= 1):
            raise CheckError("hypothesis window requires tmin >= 1")
        if not (isinstance(self.tmax, int) and self.tmax >= self.tmin):
            raise CheckError("hypothesis window requires tmax >= tmin")


@dataclass(frozen=True)
class PrimaFacieResult:
    hypothesis: Hypothesis
    occurred: bool
    p_cond: FrequencyEstimate
    p_marginal: FrequencyEstimate
    passed: bool


@dataclass(frozen=True)
class EpsilonTerm:
    """One rival comparison; ``value`` is None when undefined."""

    rival: Formula
    value: Optional[float]
    defined: bool


@dataclass
class SignificanceRecord:
    """Scored hypothesis: its rival terms and their average impact."""

    hypothesis: Hypothesis
    eps_terms: List[EpsilonTerm]
    eps_avg: Optional[float]


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


def _raises_strictly(cond: FrequencyEstimate, marg: FrequencyEstimate) -> bool:
    # exact rational comparison: num_c/den_c > num_m/den_m
    return (cond.numerator * marg.denominator
            > marg.numerator * cond.denominator)


_ZERO = FrequencyEstimate(0.0, 0, 0)


def prima_facie_test(data: TraceSet, h: Hypothesis) -> PrimaFacieResult:
    """Occurrence, probability raising, and the strictness check for one
    hypothesis.  Empty denominators make the test fail, not raise."""
    occurred = any(eval_on_trace(tr, h.cause).any() for tr in data)
    try:
        p_cond = trace_leads_to(data, h.cause, h.effect, h.tmin, h.tmax)
    except EmptyWindowError:
        p_cond = _ZERO
    try:
        p_marginal = marginal_window_prob(
            data, h.effect, h.tmax - h.tmin + 1, h.tmin)
    except EmptyWindowError:
        p_marginal = _ZERO
    passed = (occurred and p_cond.denominator > 0
              and p_marginal.denominator > 0
              and _raises_strictly(p_cond, p_marginal))
    return PrimaFacieResult(h, occurred, p_cond, p_marginal, passed)


def epsilon_x(data: TraceSet, c: Formula, x: Formula, e: Formula,
              tmin: int, tmax: int,
              min_support: int = 1) -> Tuple[Optional[float], bool]:
    """Impact of ``c`` on ``e`` holding rival ``x`` fixed.

    Returns ``(value, defined)``; undefined when either conditioning
    denominator falls below ``min_support``.
    """
    if c == x:
        raise CheckError("rival must differ from the cause")
    try:
        with_c = trace_leads_to(data, And(c, x), e, tmin, tmax)
        without_c = trace_leads_to(data, And(Not(c), x), e, tmin, tmax)
    except EmptyWindowError:
        return None, False
    if (with_c.denominator < min_support
            or without_c.denominator < min_support):
        return None, False
    return with_c.probability - without_c.probability, True


def epsilon_avg(data: TraceSet, c: Formula, e: Formula,
                rivals: Sequence[Formula], tmin: int, tmax: int,
                divisor: str = "defined",
                min_support: int = 1) -> SignificanceRecord:
    """Average impact of ``c`` on ``e`` over the other prima facie causes.

    ``rivals`` is the full prima facie cause set of ``e`` (including ``c``).
    ``divisor="defined"`` averages the defined terms; ``divisor="strict"``
    divides the defined-term sum by ``len(rivals)``.  With no rivals besides
    ``c`` the average is undefined and the record is excluded downstream.
    """
    if divisor not in ("defined", "strict"):
        raise CheckError(f"unknown divisor mode {divisor!r}")
    if not any(r == c for r in rivals):
        raise CheckError("cause must be a member of the rival set")
    terms = []
    for x in rivals:
        if x == c:
            continue
        value, defined = epsilon_x(data, c, x, e, tmin, tmax, min_support)
        terms.append(EpsilonTerm(x, value, defined))
    return SignificanceRecord(
        Hypothesis(c, e, tmin, tmax), terms,
        _reduce_terms(terms, divisor, len(rivals)))


def _reduce_terms(terms, divisor, n_rivals):
    if not terms:
        return None
    defined = [t.value for t in terms if t.defined]
    if divisor == "strict":
        return sum(defined) / n_rivals
    if not defined:
        return None
    return sum(defined) / len(defined)


# ---------------------------------------------------------------------------
# Batched scoring over a whole hypothesis family
#
# The pipeline evaluates every ordered pair at once.  Counts come from
# integer-valued matrix products over the qualifying ticks of each trace,
# which reproduce the per-pair functions above exactly (0/1 dot products in
# float64 are exact well past any realistic trace length).

@dataclass
class FamilyScores:
    """Everything the pipeline needs: prima facie results in enumeration
    order, and one impact record per passer in the same order."""

    prima_facie: List[PrimaFacieResult]
    records: List[SignificanceRecord]


def _cause_rows(trace, causes):
    rows = np.empty((len(causes), trace.length), dtype=bool)
    for i, c in enumerate(causes):
        rows[i] = eval_on_trace(trace, c)
    return rows


def score_hypotheses(data: TraceSet, hypotheses: Sequence[Hypothesis],
                     divisor: str = "defined",
                     min_support: int = 1) -> FamilyScores:
    """Prima facie results for every hypothesis plus impact records for the
    passers, grouping rivals by effect at the shared window.

    All hypotheses must share one window, and causes/effects are evaluated
    per tick (atoms, negations, or any propositional formula).
    """
    hypotheses = list(hypotheses)
    if not hypotheses:
        return FamilyScores([], [])
    tmin = hypotheses[0].tmin
    tmax = hypotheses[0].tmax
    if any(h.tmin != tmin or h.tmax != tmax for h in hypotheses):
        raise CheckError("batched scoring requires a single shared window")

    causes = _unique_formulas(h.cause for h in hypotheses)
    effects = _unique_formulas(h.effect for h in hypotheses)
    cause_id = {print_formula(c): i for i, c in enumerate(causes)}
    effect_id = {print_formula(e): i for i, e in enumerate(effects)}
    nc, ne = len(causes), len(effects)

    cooc = np.zeros((nc, nc), dtype=np.int64)      # qualifying co-occurrence
    cond_num = np.zeros((nc, ne), dtype=np.int64)  # cause tick & effect in window
    cause_occ = np.zeros(nc, dtype=np.int64)       # all ticks, uncensored
    cause_qual = np.zeros(nc, dtype=np.int64)
    marg_num = np.zeros(ne, dtype=np.int64)
    qual_total = 0

    for trace in data:
        rows = _cause_rows(trace, causes)
        cause_occ += rows.sum(axis=1)
        nq = trace.length - tmax
        if nq <= 0:
            continue
        qual_total += nq
        rq = rows[:, :nq].astype(np.float64)
        cooc += np.rint(rq @ rq.T).astype(np.int64)
        cause_qual += np.rint(rq.sum(axis=1)).astype(np.int64)
        for j, e in enumerate(effects):
            hits = window_hits(eval_on_trace(trace, e), tmin, tmax)
            marg_num[j] += int(hits.sum())
            cond_num[:, j] += np.rint(rq @ hits.astype(np.float64)).astype(np.int64)

    prima: List[PrimaFacieResult] = []
    passers_by_effect: dict = {}
    for h in hypotheses:
        ci = cause_id[print_formula(h.cause)]
        ej = effect_id[print_formula(h.effect)]
        occurred = cause_occ[ci] > 0
        den = int(cause_qual[ci])
        num = int(cond_num[ci, ej])
        p_cond = (FrequencyEstimate(num / den, num, den) if den else _ZERO)
        p_marg = (FrequencyEstimate(marg_num[ej] / qual_total,
                                    int(marg_num[ej]), qual_total)
                  if qual_total else _ZERO)
        passed = (bool(occurred) and den > 0 and qual_total > 0
                  and _raises_strictly(p_cond, p_marg))
        prima.append(PrimaFacieResult(h, bool(occurred), p_cond, p_marg, passed))
        if passed:
            passers_by_effect.setdefault(ej, []).append(ci)

    # second pass: per-effect rival-pair counts, restricted to the passers
    pair_num = {ej: np.zeros((len(xs), len(xs)), dtype=np.int64)
                for ej, xs in passers_by_effect.items() if len(xs) > 1}
    if pair_num:
        for trace in data:
            nq = trace.length - tmax
            if nq <= 0:
                continue
            rows = _cause_rows(trace, causes)
            rq = rows[:, :nq].astype(np.float64)
            for ej, matrix in pair_num.items():
                hits = window_hits(eval_on_trace(trace, effects[ej]),
                                   tmin, tmax).astype(np.float64)
                sub = rq[passers_by_effect[ej]]
                matrix += np.rint((sub * hits) @ sub.T).astype(np.int64)

    records: List[SignificanceRecord] = []
    for result in prima:
        if not result.passed:
            continue
        h = result.hypothesis
        ci = cause_id[print_formula(h.cause)]
        ej = effect_id[print_formula(h.effect)]
        rivals = passers_by_effect[ej]
        pos = rivals.index(ci)
        terms = []
        for k, xi in enumerate(rivals):
            if xi == ci:
                continue
            terms.append(_batched_term(
                causes[xi],
                both=int(cooc[ci, xi]),
                x_total=int(cause_qual[xi]),
                num_both=int(pair_num[ej][pos, k]),
                num_x=int(cond_num[xi, ej]),
                min_support=min_support))
        records.append(SignificanceRecord(
            h, terms, _reduce_terms(terms, divisor, len(rivals))))
    return FamilyScores(prima, records)


def _batched_term(rival, both, x_total, num_both, num_x, min_support):
    x_only = x_total - both
    if both < min_support or x_only < min_support:
        return EpsilonTerm(rival, None, False)
    value = num_both / both - (num_x - num_both) / x_only
    return EpsilonTerm(rival, value, True)


def _unique_formulas(formulas):
    seen = {}
    for f in formulas:
        seen.setdefault(print_formula(f), f)
    return list(seen.values())
