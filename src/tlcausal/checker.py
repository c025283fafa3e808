"""Satisfaction sets and path probabilities, exact on a chain or by counting
on traces.

On a :class:`~tlcausal.dtmc.Dtmc`, :func:`until_prob` gives the strong and
the weak until: by value iteration, which stops at a bit-identical fixed
point, or for an infinite bound exactly, by graph search and one solve.
``{>0}`` and ``{>=1}`` are the positivity of the path and of its negation,
one set of states each, read off the chain's edges by one boolean step
loop to its fixed point at every time bound; ``{>1}`` never holds, and
every other bound compares floats.  Probability-bounded
leads-to is checked per state through the always-globally reading: no
path may reach an antecedent state whose window misses the bound.

On traces, formulæ are evaluated per tick, temporal operators along the trace
suffix.  The decider of tick t for ``l U{<=k} r`` or ``l W{<=k} r`` is the
first tick j >= t where r holds or l fails.  Both hold at t when there is a
decider with j - t <= k and r holds at j; when no decider falls within the
bound and the trace, only the weak until holds.  The leads-to probability is
the fraction of antecedent ticks whose full window contains a consequent
tick.  Antecedent ticks whose window runs off the end of the trace are
censored from both numerator and denominator, and windows never cross trace
boundaries.  Counts are integers, so callers can compare estimates in
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtmc import Dtmc
from .errors import CheckError, EmptyWindowError
from .pctl import (INFINITY, And, Atom, Formula, Implies, LeadsTo, Not, Or,
                   PathFormula, ProbBound, StateFormula, Until)
from .traces import Trace, TraceSet

__all__ = [
    "FrequencyEstimate", "sat_set", "until_prob", "leads_to_prob",
    "leads_to_meets", "trace_leads_to", "eval_on_trace", "window_hits",
]


@dataclass(frozen=True)
class FrequencyEstimate:
    """A probability backed by its counts.

    ``probability == numerator / denominator`` whenever the denominator is
    positive.  Trace-based estimates carry integer counts; chain-based ones
    carry frequency-weighted (possibly fractional) totals.
    """

    probability: float
    numerator: float
    denominator: float


def _meets(f: ProbBound, possible, vec):
    """Where a probability meets ``f``'s bound: ``{>0}`` where the path is
    possible, ``possible(False)``, ``{>=1}`` where its negation is not,
    ``{>=0}`` everywhere, ``{>1}`` nowhere, and others by ``vec()``."""
    if f.p == 0.0:
        return possible(False) | (f.comparison == ">=")
    if f.p == 1.0:
        return ~possible(True) & (f.comparison == ">=")
    return vec() >= f.p if f.comparison == ">=" else vec() > f.p


# ---------------------------------------------------------------------------
# Shared propositional core

def _sat(f: Formula, n: int, leaf) -> np.ndarray:
    """Boolean satisfaction of ``f`` at ``n`` positions (chain states or
    trace ticks): the constants and the connectives here, every other node
    by ``leaf``."""
    if isinstance(f, Atom) and f.name in ("true", "false"):
        return np.full(n, f.name == "true")
    if isinstance(f, Not):
        return ~_sat(f.operand, n, leaf)
    if isinstance(f, And):
        return _sat(f.left, n, leaf) & _sat(f.right, n, leaf)
    if isinstance(f, Or):
        return _sat(f.left, n, leaf) | _sat(f.right, n, leaf)
    if isinstance(f, Implies):
        return ~_sat(f.left, n, leaf) | _sat(f.right, n, leaf)
    return leaf(f)


# ---------------------------------------------------------------------------
# Exact semantics on a Dtmc

def _state_mask(model: Dtmc, f: Formula) -> np.ndarray:
    return _sat(f, model.n_states, lambda g: _chain_leaf(model, g))


def _chain_leaf(model: Dtmc, f: Formula) -> np.ndarray:
    if isinstance(f, Atom):
        if f.name not in model.atoms:
            raise CheckError(f"unknown atom: {f.name!r}")
        return model.states_with(f.name)
    if isinstance(f, ProbBound):
        return _probbound_mask(model, f)
    if isinstance(f, PathFormula):
        raise CheckError("a bare path formula has no satisfaction set; "
                         "wrap it in a probability bound")
    raise CheckError(f"not a formula node: {f!r}")


def _probbound_mask(model: Dtmc, f: ProbBound) -> np.ndarray:
    inner = f.path
    if isinstance(inner, LeadsTo):
        # AG[left -> (window-reach right with this bound)]
        left, right = _lead_masks(model, inner.left, inner.right)
        window = (model, right, inner.tmin, inner.tmax)
        reach = _meets(f, lambda dual: _window_possible(*window, dual),
                       lambda: _window_reach_vector(*window))
        return ~_reach(model, left & ~reach, np.ones(model.n_states, bool))
    if isinstance(inner, Until):
        until = (model, _state_mask(model, inner.left),
                 _state_mask(model, inner.right), inner.tmax, inner.weak)
        return _meets(f, lambda dual: _possible(*until, dual),
                      lambda: until_prob(*until))
    # degenerate zero-length path: indicator of the state formula
    mask = _state_mask(model, inner)
    return _meets(f, lambda dual: mask ^ dual, lambda: mask)


def _lead_masks(model, c, e):
    if not (isinstance(c, StateFormula) and isinstance(e, StateFormula)):
        raise CheckError("leads-to on a chain requires state-formula "
                         "operands; use the trace semantics for "
                         "temporal operands")
    return _state_mask(model, c), _state_mask(model, e)


def _window_reach_vector(model, target_mask, tmin, tmax):
    v = until_prob(model, np.ones(model.n_states, bool), target_mask,
                   tmax - tmin)
    return model._walk(v, int(tmin))


def _window_possible(model, target_mask, tmin, tmax, dual):
    """Where the window's reach (its miss, if ``dual``) is possible."""
    return _steps(model, _possible(model, np.ones(model.n_states, bool),
                                   target_mask, tmax - tmin, False, dual),
                  tmin)


def sat_set(model: Dtmc, f: Formula) -> frozenset:
    """State indices satisfying a state formula."""
    return frozenset(int(i) for i in np.flatnonzero(_state_mask(model, f)))


def until_prob(model: Dtmc, f1m: np.ndarray, f2m: np.ndarray, tmax,
               weak=False) -> np.ndarray:
    """Per-state probability of ``f1 U{<=tmax} f2``, or of ``f1 W{<=tmax}
    f2`` when ``weak``, where ``f1m`` and ``f2m`` are boolean state masks.

    Recurrence: P_0 = [s in f2], or [s in f1 | f2] if ``weak``; P_k = 1 on
    f2, else T @ P_{k-1} on f1, else 0.  An infinite bound is exact: graph
    search for 0.0 and 1.0, one solve, rows read as normalized, for the
    rest; weak, it is until's dual ``1 - P((f1 & ~f2) U (~f1 & ~f2))``.
    These are floats: ``{>0}`` and ``{>=1}`` read the chain's edges instead.
    """
    if tmax == INFINITY:
        return (1.0 - _until_unbounded(model, f1m & ~f2m, ~f1m & ~f2m)
                if weak else _until_unbounded(model, f1m, f2m))
    stop = np.flatnonzero(~f1m | f2m)
    return model._walk((f1m | f2m if weak else f2m).astype(float),
                       int(tmax), stop, f2m[stop].astype(float))


def _reach(model, target, through):
    """States with a positive-probability path to a ``target`` state whose
    earlier states all lie in ``through``: one breadth-first search over
    the reversed edges from a virtual root ``n`` joined to the targets."""
    from scipy.sparse import csgraph, csr_matrix
    trans, n = model.transitions, model.n_states
    src = np.repeat(np.arange(n), np.diff(trans.indptr))
    edge = (trans.data != 0) & through[src]  # an explicit 0.0 is no edge
    tips = np.flatnonzero(target)
    graph = csr_matrix((np.ones(np.count_nonzero(edge) + tips.size), (
        np.concatenate([trans.indices[edge], np.full(tips.size, n)]),
        np.concatenate([src[edge], tips]))), shape=(n + 1, n + 1))
    seen = np.zeros(n + 1, bool)
    seen[csgraph.breadth_first_order(graph, n, return_predecessors=False)] = 1
    return seen[:n]


def _possible(model, f1m, f2m, steps, weak, dual=False):
    """Where ``f1 U{<=steps} f2`` (``W`` if ``weak``) has positive
    probability, or with ``dual`` its negation ``(f1 & !f2) W (!f1 & !f2)``
    (``U`` if ``weak``): by graph search for an infinite bound, else by the
    boolean recurrence ``x = f2 | (cont & edge into x)`` to its fixed point."""
    if dual:
        f1m, f2m, weak = f1m & ~f2m, ~f1m & ~f2m, not weak
    cont = f1m & ~f2m
    if steps == INFINITY:  # weak: through cont into a state that cannot fail
        return _reach(model, ~_reach(model, ~f1m & ~f2m, cont) if weak
                      else f2m, cont)
    return _steps(model, f1m | f2m if weak else f2m, steps, f2m, cont)


def _steps(model, x, steps, keep=False, cont=True):
    """``x`` after ``steps`` boolean steps ``x = keep | (cont & edge into
    x)``, stopping at the first step that changes nothing."""
    for _ in range(int(steps)):
        x, last = keep | (cont & _some_edge_into(model, x)), x
        if np.array_equal(x, last):
            break
    return x


def _some_edge_into(model, x):
    # an explicit 0.0 is no edge, and a sum of positive products is positive
    return model.transitions @ x.astype(float) > 0


def _until_unbounded(model, f1m, f2m):
    from scipy.sparse import diags
    from scipy.sparse.linalg import spsolve
    zero = ~_possible(model, f1m, f2m, INFINITY, False)
    one = ~_reach(model, zero, f1m & ~f2m)
    vec = one.astype(float)
    rest = np.flatnonzero(~zero & ~one)
    if rest.size:
        # each state leaves by its off-diagonal mass, not by 1 - T[s, s],
        # which a self-loop of 1 - 1e-13 would cancel with its own exit
        trans = model.transitions
        off = (trans - diags(trans.diagonal()))[rest]
        a = diags(np.asarray(off.sum(axis=1)).ravel()) - off[:, rest]
        vec[rest] = np.clip(spsolve(a.tocsc(), off @ vec), 2.0 ** -53,
                            1.0 - 2.0 ** -53)
    return vec


def leads_to_prob(model: Dtmc, c: Formula, e: Formula,
                  tmin: int, tmax) -> FrequencyEstimate:
    """Chain-based leads-to probability, averaged over antecedent states.

    Per antecedent state the probability of reaching the consequent in the
    window is the ``tmin``-step push of the bounded reachability vector; the
    aggregate weights states by their observed frequency, which is the
    maximum-likelihood estimate of P(consequent in window | antecedent).
    The window is checked as the leads-to formula checks it.  The chain is
    first order over one tick's labels, so it forgets the antecedent
    within a tick: at a window many ticks out, such as the paper's
    [20, 40], every antecedent reads about the consequent's base rate, and
    this estimates something other than :func:`trace_leads_to`, which
    counts the windows after each occurrence.
    """
    LeadsTo(c, e, tmin, tmax)
    cmask, emask = _lead_masks(model, c, e)
    if not cmask.any():
        raise CheckError("antecedent holds in no state "
                         "(occurrence condition violated)")
    u = _window_reach_vector(model, emask, tmin, tmax)
    weights = model.frequency[cmask]
    denom = float(weights.sum())
    if denom <= 0:
        raise CheckError("antecedent states have zero observed frequency")
    numer = float((weights * u[cmask]).sum())
    return FrequencyEstimate(numer / denom, numer, denom)


def leads_to_meets(model: Dtmc, f: ProbBound, est: FrequencyEstimate) -> bool:
    """Whether ``est``, :func:`leads_to_prob` of ``f``'s leads-to, meets its
    bound: ``{>0}`` when the window's reach is possible from an antecedent
    state of positive frequency, ``{>=1}`` when its miss is from none."""
    lead = f.path
    cmask, emask = _lead_masks(model, lead.left, lead.right)
    weighed = cmask & (model.frequency > 0)
    return bool(_meets(f, lambda dual: _window_possible(
        model, emask, lead.tmin, lead.tmax, dual)[weighed].any(),
        lambda: est.probability))


# ---------------------------------------------------------------------------
# Per-tick semantics on traces

def eval_on_trace(trace: Trace, f: Formula) -> np.ndarray:
    """Boolean satisfaction of ``f`` at every tick of one trace.

    Temporal operators look along the trace suffix by the decider rule of
    the module docstring.
    """
    return _sat(f, trace.length, lambda g: _trace_leaf(trace, g))


def _trace_leaf(trace: Trace, f: Formula) -> np.ndarray:
    if isinstance(f, Atom):
        return trace.column(f.name)
    if isinstance(f, ProbBound):
        # a trace is one path: the path probability is 0 or 1
        sat = eval_on_trace(trace, f.path)
        return _meets(f, lambda dual: sat ^ dual, lambda: sat)
    if isinstance(f, LeadsTo):
        raise CheckError("leads-to has no per-tick truth value on traces; "
                         "use trace_leads_to")
    if not isinstance(f, Until):
        raise CheckError(f"not a formula node: {f!r}")
    left = eval_on_trace(trace, f.left)
    right = eval_on_trace(trace, f.right)
    n = trace.length
    ticks = np.arange(n)
    # the decider of each tick: the first tick at or after it where right
    # holds or left fails; n where there is none
    decider = np.minimum.accumulate(
        np.where(right | ~left, ticks, n)[::-1])[::-1]
    decided = (decider < n) & (decider - ticks <= f.tmax)
    return np.where(decided, right[np.minimum(decider, n - 1)],
                    f.weak)


def window_hits(marks: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """For each tick ``t`` with the full window in range, whether ``marks``
    is set anywhere in ``[t+lo, t+hi]``.  Result has length ``len - hi``
    (empty when the trace is shorter than the window)."""
    nq = len(marks) - hi
    if nq <= 0:
        return np.zeros(0, dtype=bool)
    # seg[t] ORs the s marks from t + lo; two spans of s cover the window
    seg, s = np.asarray(marks, dtype=bool)[lo:], 1
    while 2 * s <= hi - lo + 1:
        seg, s = seg[:-s] | seg[s:], 2 * s
    return seg[:nq] | seg[hi - lo + 1 - s:][:nq]


def _check_window(tmin, tmax):
    if not (isinstance(tmin, int) and tmin >= 1):
        raise CheckError("window requires tmin >= 1")
    if not (isinstance(tmax, int) and tmin <= tmax < 2 ** 63):
        raise CheckError("trace windows require tmin <= tmax < 2^63")


def trace_leads_to(data: TraceSet, c: Formula, e: Formula,
                   tmin: int, tmax: int) -> FrequencyEstimate:
    """Windowed conditional frequency of ``e`` after ``c`` over traces.

    Denominator: ticks where ``c`` holds with the full window observed
    (``t + tmax < length``), per trace.  Numerator: those ticks with ``e``
    holding somewhere in ``[t+tmin, t+tmax]``.  Raises
    :class:`EmptyWindowError` when the denominator is zero.
    """
    _check_window(tmin, tmax)
    num = den = 0
    for trace in data:
        c_arr = eval_on_trace(trace, c)
        hits = window_hits(eval_on_trace(trace, e), tmin, tmax)
        cq = c_arr[:len(hits)]
        den += int(cq.sum())
        num += int((cq & hits).sum())
    if den == 0:
        raise EmptyWindowError(
            "antecedent never occurs with a full window in range")
    return FrequencyEstimate(num / den, num, den)
