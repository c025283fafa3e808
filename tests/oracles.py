"""Independent reference implementations used to check the package.

Most of this recomputes results from first principles: exhaustive path
enumeration over small chains, pure-Python window counting in exact rational
arithmetic, and an event-by-event replay validator for generated spike
trains; none of that calls into the package's own evaluation paths.  The
tick-by-tick chain builder is the reference for the array build in
``tlcausal.dtmc``.  The per-pair scoring functions at the end evaluate one
hypothesis or one rival at a time through the package's trace counting
(itself checked against the rational counter); they are the reference for
the batched scorer, and through them the hypothesis-table rows are the
reference for the pipeline's columnar table.  ``scipy.stats.norm.pdf`` is
the reference for the null density ``tlcausal.fdr.NullModel.pdf``.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
from scipy import sparse
from scipy.stats import norm

from tlcausal.causal import Hypothesis, PrimaFacieResult
from tlcausal.checker import (FrequencyEstimate, eval_on_trace,
                              trace_leads_to, window_hits)
from tlcausal.dtmc import Dtmc, encode_labels
from tlcausal.errors import CheckError, EmptyWindowError
from tlcausal.pctl import And, Atom, Formula, Not, print_formula
from tlcausal.traces import TraceSet


# ---------------------------------------------------------------------------
# Path enumeration over an explicit transition matrix

def _paths(T, start, length):
    n = T.shape[0]
    stack = [((start,), 1.0)]
    while stack:
        path, prob = stack.pop()
        if len(path) == length + 1:
            yield path, prob
            continue
        last = path[-1]
        for s2 in range(n):
            p = T[last, s2]
            if p > 0.0:
                stack.append((path + (s2,), prob * p))


def _until_accepts(path, f1, f2):
    for j, s in enumerate(path):
        if s in f2:
            return all(path[i] in f1 for i in range(j))
    return False


def enum_until(T, f1, f2, tmax, start):
    """P(f1 U{<=tmax} f2) from ``start`` by summing accepted path weights."""
    if start in f2:
        return 1.0
    total = 0.0
    for path, prob in _paths(T, start, tmax):
        if _until_accepts(path, f1, f2):
            total += prob
    return total


def enum_unless(T, f1, f2, tmax, start):
    """Weak until: accepted when until accepts or f1 holds along the whole
    bounded prefix."""
    total = 0.0
    for path, prob in _paths(T, start, tmax):
        if _until_accepts(path, f1, f2) or all(s in f1 for s in path):
            total += prob
    return total


def enum_window_reach(T, eset, tmin, tmax, start):
    """P(reach an e-state at some step in [tmin, tmax]) from ``start``."""
    total = 0.0
    for path, prob in _paths(T, start, tmax):
        if any(path[j] in eset for j in range(tmin, tmax + 1)):
            total += prob
    return total


def enum_leads_to(T, freq, cset, eset, tmin, tmax):
    """Frequency-weighted leads-to probability by path enumeration."""
    num = 0.0
    den = 0.0
    for s in sorted(cset):
        w = freq[s]
        num += w * enum_window_reach(T, eset, tmin, tmax, s)
        den += w
    return num / den


# ---------------------------------------------------------------------------
# Window counting on traces (exact integers / rationals)

def count_leads_to(columns_c, columns_e, tmin, tmax):
    """(numerator, denominator) over traces given per-trace boolean columns.

    Denominator: antecedent ticks with the full window observed; numerator:
    those with the consequent anywhere in [t+tmin, t+tmax].
    """
    num = den = 0
    for c, e in zip(columns_c, columns_e):
        length = len(c)
        for t in range(length):
            if t + tmax >= length or not c[t]:
                continue
            den += 1
            if any(e[u] for u in range(t + tmin, t + tmax + 1)):
                num += 1
    return num, den


def count_marginal(columns_e, width, offset):
    num = den = 0
    hi = offset + width - 1
    for e in columns_e:
        length = len(e)
        for t in range(length):
            if t + hi >= length:
                continue
            den += 1
            if any(e[u] for u in range(t + offset, t + hi + 1)):
                num += 1
    return num, den


def rational_epsilon(columns_c, columns_x, columns_e, tmin, tmax,
                     min_support=1):
    """Exact ``P(e|c and x) - P(e|not-c and x)`` or None when undefined."""
    both = [np.asarray(c) & np.asarray(x)
            for c, x in zip(columns_c, columns_x)]
    xonly = [~np.asarray(c) & np.asarray(x)
             for c, x in zip(columns_c, columns_x)]
    n1, d1 = count_leads_to(both, columns_e, tmin, tmax)
    n2, d2 = count_leads_to(xonly, columns_e, tmin, tmax)
    if d1 < min_support or d2 < min_support:
        return None
    return Fraction(n1, d1) - Fraction(n2, d2)


# ---------------------------------------------------------------------------
# Replay validation of generated spike trains

def firings_by_neuron(events):
    out = {}
    for t, v in events.records:
        out.setdefault(v, []).append(t)
    return out


def check_refractory(events, refractory):
    """No neuron fires twice within the refractory span."""
    for neuron, ts in firings_by_neuron(events).items():
        for a, b in zip(ts, ts[1:]):
            if b - a < refractory:
                return f"{neuron} fired at {a} and {b} (< {refractory} apart)"
    return None


def check_triggering(events, parent, child, delay_min, delay_max, refractory):
    """For a deterministic edge parent->child where the child has no other
    firing source: every isolated parent firing must produce exactly one
    child firing in the delay window, and every child firing must sit in
    some parent's window."""
    by = firings_by_neuron(events)
    parents = by.get(parent, [])
    children = by.get(child, [])
    gap = delay_max + refractory
    problems = []
    for i, t in enumerate(parents):
        prev_ok = i == 0 or t - parents[i - 1] > gap
        next_ok = i == len(parents) - 1 or parents[i + 1] - t > gap
        if not (prev_ok and next_ok):
            continue
        if t + delay_max >= events.horizon:
            continue
        hits = [u for u in children if t + delay_min <= u <= t + delay_max]
        if len(hits) != 1:
            problems.append(f"parent at {t}: {len(hits)} child firings "
                            f"in window")
    for u in children:
        if not any(t + delay_min <= u <= t + delay_max for t in parents):
            problems.append(f"child firing at {u} outside every parent window")
    return problems


# ---------------------------------------------------------------------------
# Chain build: one tick at a time

def build_dtmc(data: TraceSet) -> Dtmc:
    """Infer the chain from observed label vectors and their transitions."""
    if not isinstance(data, TraceSet):
        data = TraceSet(tuple(data))
    atoms = data.variables
    key_to_id: dict = {}
    labels: list = []
    freq: list = []
    counts: dict = {}
    initial = None

    for trace in data:
        cols = np.ascontiguousarray(trace.values.T)
        ids = np.empty(trace.length, dtype=np.int64)
        for t in range(trace.length):
            key = cols[t].tobytes()
            sid = key_to_id.get(key)
            if sid is None:
                sid = len(labels)
                key_to_id[key] = sid
                labels.append(frozenset(
                    v for v, bit in zip(atoms, cols[t]) if bit))
                freq.append(0)
            freq[sid] += 1
            ids[t] = sid
        if initial is None:
            initial = int(ids[0])
        for a, b in zip(ids[:-1], ids[1:]):
            counts[(int(a), int(b))] = counts.get((int(a), int(b)), 0) + 1

    n = len(labels)
    out_total = np.zeros(n, dtype=np.int64)
    for (a, _b), c in counts.items():
        out_total[a] += c
    rows, cols_, vals = [], [], []
    for (a, b), c in sorted(counts.items()):
        rows.append(a)
        cols_.append(b)
        vals.append(c / out_total[a])
    for s in np.flatnonzero(out_total == 0):  # terminal: keep stochastic
        rows.append(int(s))
        cols_.append(int(s))
        vals.append(1.0)
    trans = sparse.csr_matrix((vals, (rows, cols_)), shape=(n, n))
    return Dtmc(atoms, encode_labels(atoms, labels), trans, initial,
                np.array(freq, dtype=float))


# ---------------------------------------------------------------------------
# Per-pair scoring: one hypothesis, one rival at a time

_ZERO = FrequencyEstimate(0.0, 0, 0)


def marginal_window_prob(data: TraceSet, e: Formula,
                         width: int, offset: int) -> FrequencyEstimate:
    """Baseline frequency of ``e`` in a sliding window of ``width`` ticks
    starting ``offset`` ticks ahead, over all ticks with the window in range.
    For a hypothesis window ``[tmin, tmax]`` use ``offset=tmin`` and
    ``width=tmax-tmin+1``."""
    if width < 1:
        raise CheckError("window width must be >= 1")
    if offset < 0:
        raise CheckError("window offset must be >= 0")
    hi = offset + width - 1
    num = den = 0
    for trace in data:
        e_arr = eval_on_trace(trace, e)
        nq = trace.length - hi
        if nq <= 0:
            continue
        hits = window_hits(e_arr, offset, hi)
        den += nq
        num += int(hits.sum())
    if den == 0:
        raise EmptyWindowError("no tick has a full window in range")
    return FrequencyEstimate(num / den, num, den)



def prima_facie_test(data, h):
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
              and Fraction(p_cond.numerator, p_cond.denominator)
              > Fraction(p_marginal.numerator, p_marginal.denominator))
    return PrimaFacieResult(h, occurred, p_cond, p_marginal, passed)


@dataclass(frozen=True)
class EpsilonTerm:
    """One rival comparison; ``value`` is None when undefined."""

    rival: Formula
    value: Optional[float]
    defined: bool


@dataclass
class EpsilonRecord:
    """A hypothesis, its rival terms in rival order, and their average."""

    hypothesis: Hypothesis
    eps_terms: List[EpsilonTerm]
    eps_avg: Optional[float]


def epsilon_x(data, c, x, e, tmin, tmax, min_support=1):
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


def epsilon_avg(data, c, e, rivals, tmin, tmax, divisor="defined",
                min_support=1):
    """Average impact of ``c`` on ``e`` over the other prima facie causes.

    ``rivals`` is the full prima facie cause set of ``e`` (including ``c``).
    ``divisor="defined"`` averages the defined terms; ``divisor="strict"``
    divides the defined-term sum by ``len(rivals)``.  With no rivals besides
    ``c`` the average is undefined.
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
    return EpsilonRecord(Hypothesis(c, e, tmin, tmax), terms,
                         _reduce_terms(terms, divisor, len(rivals)))


def _reduce_terms(terms, divisor, n_rivals):
    if not terms:
        return None
    defined = [t.value for t in terms if t.defined]
    total = 0.0
    for value in defined:  # left to right; sum() compensates from Python 3.12
        total += value
    if divisor == "strict":
        return total / n_rivals
    if not defined:
        return None
    return total / len(defined)


# ---------------------------------------------------------------------------
# Hypothesis-table rows: one Hypothesis object at a time

def pairwise_hypotheses(atoms, tmin, tmax, include_negations=False):
    """Every ordered atom pair (cause != effect), positive causes first,
    then negated ones, each crossed with the effects in atom order."""
    causes = [(Atom(a), a) for a in atoms]
    if include_negations:
        causes += [(Not(Atom(a)), a) for a in atoms]
    return [Hypothesis(cause, Atom(e), tmin, tmax)
            for cause, base in causes for e in atoms if e != base]


def hypothesis_rows(data, tmin, tmax, negations=False, divisor="defined",
                    min_support=1):
    """The first eight ``hypotheses.tsv`` cells of every pairwise
    hypothesis: names, window, both frequencies, the prima facie flag and
    the impact average, each number written with ``.10g`` and an empty
    cell where it is undefined."""
    tests = [prima_facie_test(data, h) for h in
             pairwise_hypotheses(data.variables, tmin, tmax, negations)]
    rivals = {}
    for test in tests:
        if test.passed:
            rivals.setdefault(test.hypothesis.effect, []).append(
                test.hypothesis.cause)
    rows = []
    for test in tests:
        h = test.hypothesis
        eps = (epsilon_avg(data, h.cause, h.effect, rivals[h.effect], tmin,
                           tmax, divisor, min_support).eps_avg
               if test.passed else None)
        rows.append((print_formula(h.cause), print_formula(h.effect),
                     str(tmin), str(tmax), _cell(test.p_cond),
                     _cell(test.p_marginal), "1" if test.passed else "0",
                     "" if eps is None else format(eps, ".10g")))
    return rows


def _cell(estimate):
    if not estimate.denominator:
        return ""
    return format(estimate.probability, ".10g")


# ---------------------------------------------------------------------------
# Null density by scipy.stats

def null_pdf(null, z):
    """``NullModel.pdf`` as ``scipy.stats.norm.pdf`` computes it."""
    base = norm.pdf(z, loc=null.delta0, scale=null.sigma0)
    return base if null.p0 is None else null.p0 * base
