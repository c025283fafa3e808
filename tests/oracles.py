"""Independent reference implementations used to check the package.

Most of this recomputes results from first principles: exhaustive path
enumeration over small chains, pure-Python window counting in exact rational
arithmetic, per-tick trace semantics by loops (the reference for the
vectorised until/unless in ``tlcausal.checker``), and an event-by-event
replay validator for generated spike trains; none of that calls into the
package's own evaluation paths.  The tick-by-tick chain builder is the
reference for the array build in ``tlcausal.dtmc``, and the tick-by-tick
simulator, one ``Generator`` call per draw, the reference for the raw-word
replay in ``tlcausal.synthgen``.  The line-by-line event-csv parser over
sorted ``(time, variable)`` tuples is the reference for ``load_events``,
and one regular expression states the clean-text rule that
``tlcausal.traces._parse_clean`` checks as it parses.  One dict over the
rows numbers equal rows by first appearance: the reference for
``tlcausal.traces._first_seen``, which groups chain states and event
names.
The per-pair scoring functions at the end evaluate one hypothesis or one
rival at a time through the package's trace counting (itself checked
against the rational counter); they are the reference for the batched
scorer, and through them the hypothesis-table rows are the reference for
the pipeline's columnar table.  The batched scorer that takes rival
counts one effect at a time, over that effect's hit ticks, is the
bit-for-bit reference for the one that takes them one cause at a time.
The row-by-row writer and line-by-line reader of ``hypotheses.tsv`` are
the reference for the pipeline's column writer and reader, down to the
reader's error messages.
The running-count window is the reference for the doubled ORs of
``tlcausal.checker.window_hits``.  Value iteration by full csr products is
the bit-for-bit reference for the chain checker's shift-row push, and an
exact solve in Fractions with Gaussian elimination the reference for its
unbounded until, unless and leads-to always-reading.  That solve, or the
finite-bound recurrence in Fractions, is the reference for the verdicts
of ``{>0}`` and ``{>=1}``, which the checker reads off the chain's edges.
``scipy.stats.norm.pdf`` is the reference for the null density
``tlcausal.fdr.NullModel.pdf``.
"""

import re
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np
from scipy import sparse
from scipy.stats import norm

from tlcausal import causal
from tlcausal.causal import ScoreTable
from tlcausal.checker import (FrequencyEstimate, eval_on_trace,
                              trace_leads_to, window_hits)
from tlcausal.dtmc import Dtmc, encode_labels
from tlcausal.errors import CheckError, DataError, EmptyWindowError
from tlcausal.pctl import (INFINITY, And, Atom, Formula, Implies, Not, Or,
                           ProbBound, print_formula)
from tlcausal.pipeline import TSV_COLUMNS, HypothesisTable
from tlcausal.synthgen import GenConfig, GroundTruth
from tlcausal.traces import EventList, TraceSet, _open_lines


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
# Value iteration on a chain by full products: each step is
# ``f2v + cont * (T @ current)`` and the window's ``tmin`` pushes are
# ``T @ v``.  This is the bit-for-bit reference for the sliding walk
# ``Dtmc._walk`` and the stop states it pins by index, for every finite
# bound.

def iterate_full(model, current, f2v, cont, tmax):
    for _ in range(int(tmax)):
        current = f2v + cont * (model.transitions @ current)
    return current


def until_full(model, f1m, f2m, tmax):
    f2v = f2m.astype(float)
    return iterate_full(model, f2v.copy(), f2v, f1m & ~f2m, tmax)


def unless_full(model, f1m, f2m, tmax):
    return iterate_full(model, (f1m | f2m).astype(float), f2m.astype(float),
                        f1m & ~f2m, tmax)


def window_reach_full(model, target, tmin, tmax, start=None):
    """The window's reach vector: ``tmin`` full products of the bounded
    until vector, or of ``start`` when given."""
    v = until_full(model, np.ones(model.n_states, bool), target,
                   tmax - tmin) if start is None else start
    for _ in range(int(tmin)):
        v = model.transitions @ v
    return v


def leads_to_full(model, cmask, emask, tmin, tmax, start=None):
    """(numerator, denominator) of the chain leads-to probability."""
    u = window_reach_full(model, emask, tmin, tmax, start)
    weights = model.frequency[cmask]
    return float((weights * u[cmask]).sum()), float(weights.sum())


def leads_to_sat_full(model, reach, cmask):
    """States satisfying a leads-to read as AG[c -> reach], where ``reach``
    marks the states whose window meets the bound: those from which no
    path reaches an antecedent state outside ``reach``."""
    rows = _exact_rows(model)
    bad = cmask & ~reach
    return frozenset(s for s in range(model.n_states)
                     if not any(bad[j] for j in _reachable(rows, s)))


# ---------------------------------------------------------------------------
# Unbounded until and unless on a chain, exactly: each row normalized as
# Fractions, the probability-0 states by graph search, the rest by Gaussian
# elimination.  The weak until is until towards f2 or a state from which
# every path stays in ``f1 & ~f2``, so it does not lean on the duality.
# A finite bound is its recurrence in Fractions, step by step.

def _exact_rows(model):
    """Each state's successors with their normalized probabilities."""
    trans, rows = model.transitions, []
    for s in range(model.n_states):
        row = {}
        for k in range(trans.indptr[s], trans.indptr[s + 1]):
            j, p = int(trans.indices[k]), Fraction(float(trans.data[k]))
            row[j] = row.get(j, 0) + p
        row = {j: p for j, p in row.items() if p}
        total = sum(row.values())
        rows.append({j: p / total for j, p in row.items()})
    return rows


def _reachable(rows, s):
    seen, stack = {s}, [s]
    while stack:
        for j in rows[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def exact_until(model, f1m, f2m):
    """P(f1 U{<=inf} f2) at each state, as Fractions."""
    rows, n = _exact_rows(model), model.n_states
    can = {s for s in range(n) if f2m[s]}  # Prob0 is the complement
    grew = True
    while grew:
        new = {s for s in range(n) if s not in can and f1m[s]
               and any(j in can for j in rows[s])}
        can |= new
        grew = bool(new)
    unknown = [s for s in sorted(can) if not f2m[s]]
    index = {s: k for k, s in enumerate(unknown)}
    m = len(unknown)
    # (I - P) x = P 1_f2 over the unknown states, one augmented row each
    a = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for k, s in enumerate(unknown):
        a[k][k] += 1
        for j, p in rows[s].items():
            if f2m[j]:
                a[k][m] += p
            elif j in index:
                a[k][index[j]] -= p
    for c in range(m):
        pivot = next(r for r in range(c, m) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(m):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[c])]
    out = [Fraction(int(bool(f2m[s]))) for s in range(n)]
    for k, s in enumerate(unknown):
        out[s] = a[k][m] / a[k][k]
    return out


def _push_exact(rows, vec):
    return [sum((p * vec[j] for j, p in row.items()), Fraction(0))
            for row in rows]


def exact_bounded(model, f1m, f2m, k, weak=False):
    """P(f1 U{<=k} f2), or with ``weak`` P(f1 W{<=k} f2), at each state as
    Fractions: ``k`` steps of the recurrence over the normalized rows."""
    rows, n = _exact_rows(model), model.n_states
    vec = [Fraction(int(bool(f2m[s] or weak and f1m[s]))) for s in range(n)]
    for _ in range(k):
        pushed = _push_exact(rows, vec)
        vec = [Fraction(1) if f2m[s] else pushed[s] if f1m[s] else Fraction(0)
               for s in range(n)]
    return vec


def exact_window_reach(model, emask, tmin, tmax):
    """P(e within [tmin, tmax]) at each state, as Fractions: ``tmin``
    pushes of P(true U{<=tmax - tmin} e) through the normalized rows."""
    ones = np.ones(model.n_states, bool)
    vec = (exact_until(model, ones, emask) if tmax == INFINITY
           else exact_bounded(model, ones, emask, tmax - tmin))
    rows = _exact_rows(model)
    for _ in range(tmin):
        vec = _push_exact(rows, vec)
    return vec


def exact_unless(model, f1m, f2m):
    """P(f1 W{<=inf} f2) at each state, as Fractions."""
    rows, stay = _exact_rows(model), f1m & ~f2m
    kept = np.array([all(stay[j] for j in _reachable(rows, s))
                     for s in range(model.n_states)], bool)
    return exact_until(model, f1m, f2m | kept)


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
# Per-tick trace semantics by loops

def trace_sat(trace, f):
    """Per-tick truth of ``f`` on one trace, node by node; until and unless
    by the backward loop or the k-pass shift of ``path_on_trace``."""
    if isinstance(f, Atom):
        if f.name in ("true", "false"):
            return np.full(trace.length, f.name == "true")
        return trace.column(f.name)
    if isinstance(f, Not):
        return ~trace_sat(trace, f.operand)
    if isinstance(f, And):
        return trace_sat(trace, f.left) & trace_sat(trace, f.right)
    if isinstance(f, Or):
        return trace_sat(trace, f.left) | trace_sat(trace, f.right)
    if isinstance(f, Implies):
        return ~trace_sat(trace, f.left) | trace_sat(trace, f.right)
    if isinstance(f, ProbBound):
        vals = trace_sat(trace, f.path).astype(float)  # 0/1 on one path
        return vals >= f.p if f.comparison == ">=" else vals > f.p
    return path_on_trace(trace, f)


def path_on_trace(trace, f):
    """``f.left U{<=tmax} f.right`` (or W) at every tick: one backward
    pass for an infinite bound, ``tmax`` shift passes for a finite one;
    running off the end falsifies U and satisfies W."""
    left = trace_sat(trace, f.left)
    right = trace_sat(trace, f.right)
    weak = f.weak
    n = trace.length
    if f.tmax == INFINITY:
        out = np.empty(n, dtype=bool)
        carry = weak  # beyond the end: weak succeeds, strong fails
        for t in range(n - 1, -1, -1):
            carry = right[t] or (left[t] and carry)
            out[t] = carry
        return out
    k = int(f.tmax)
    current = (right | left) if weak else right.copy()
    fill = weak
    for _ in range(k):
        shifted = np.empty(n, dtype=bool)
        shifted[:-1] = current[1:]
        shifted[-1] = fill
        current = right | (left & shifted)
    return current


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
# Event-csv loading: one line at a time, over sorted tuples

# The texts load_events parses from their bytes: each line one time of 1-18
# decimal digits (so below 2^63), a comma and a non-empty name without
# comma, whitespace or control character (in ASCII, the bytes up to space
# and DEL); no empty line; the last line's LF optional.
_CLEAN_LINE = r"[0-9]{1,18},[^,\x00-\x20\x7f]+"
CLEAN_EVENTS = re.compile(rf"(?:{_CLEAN_LINE}(?:\n|\Z))+")


def events_from_records(records, horizon) -> EventList:
    """An ``EventList`` from ``(time, variable)`` pairs in any order,
    through the checking constructor ``EventList.from_arrays``."""
    recs = [(int(t), str(v)) for t, v in records]
    index = {v: i for i, v in enumerate(dict.fromkeys(v for _, v in recs))}
    return EventList.from_arrays([t for t, _ in recs],
                                 [index[v] for _, v in recs], index, horizon)


def events_text(events: EventList) -> str:
    """The event-csv text of ``events``, one ``time,name`` line per
    record: the reference for ``tlcausal.traces.write_events``."""
    return "".join([f"{t},{v}\n" for t, v in events.records])


def first_seen(rows) -> list:
    """Each row's group id, each group's first row and each group's size,
    for the groups of equal rows, numbered by first appearance: one dict
    over the rows as tuples."""
    groups = {}  # row -> [group id, first row, size]
    ids = []
    for k, row in enumerate(map(tuple, rows)):
        group = groups.setdefault(row, [len(groups), k, 0])
        group[2] += 1
        ids.append(group[0])
    return [ids, [g[1] for g in groups.values()],
            [g[2] for g in groups.values()]]


def is_clean(text: str) -> bool:
    """Whether ``text`` is ASCII and matches :data:`CLEAN_EVENTS`."""
    return text.isascii() and bool(CLEAN_EVENTS.fullmatch(text))


def load_events(source, horizon=None) -> tuple:
    """Parse event-csv line by line into sorted ``(time, variable)``
    records with Python ints; returns ``(records, horizon)``.  A name is
    not empty and holds no character of Unicode category Cc."""
    records = []
    for lineno, line in enumerate(_open_lines(source), start=1):
        if line.strip() == "":
            continue
        parts = [c.strip() for c in line.split(",")]
        if (len(parts) != 2 or not parts[0].isascii()
                or not parts[0].isdecimal() or not parts[1]
                or any(unicodedata.category(c) == "Cc" for c in parts[1])):
            raise DataError(f"malformed row at line {lineno}: {line!r}")
        records.append((int(parts[0]), parts[1]))
    if not records:
        raise DataError("empty event-csv input")
    if horizon is None:
        horizon = max(records)[0] + 1
    recs = sorted(records)
    for t, v in recs[:1] + recs[-1:]:  # the earliest and the latest
        if not 0 <= t < horizon:
            raise DataError(f"event time out of range: ({t}, {v}) "
                            f"with horizon {horizon}")
    for a, b in zip(recs, recs[1:]):
        if a == b:
            raise DataError(f"duplicate event: {a}")
    return tuple(recs), horizon


# ---------------------------------------------------------------------------
# Spike-train simulation: one tick at a time

def generate(config: GenConfig) -> tuple:
    """The simulator one tick at a time, each draw a ``Generator`` call:
    the reference for the raw-word replay in ``tlcausal.synthgen``."""
    structure = config.structure
    names = structure.neurons
    n = len(names)
    rates = config.rate_vector()
    out_edges = [[] for _ in range(n)]  # per parent: (child index, prob)
    index = {v: i for i, v in enumerate(names)}
    for p, c, q in structure.edges:
        out_edges[index[p]].append((index[c], q))

    rng = np.random.default_rng(config.seed)
    eligible_at = np.zeros(n, dtype=np.int64)
    pending: dict = {}  # tick -> [(child index, trigger prob)] in creation order
    times: list = []
    fired_idx: list = []
    total = 0
    t = 0
    fired = np.zeros(n, dtype=bool)

    while total < config.target_firings:
        fired[:] = False
        eligible = np.flatnonzero(eligible_at <= t)
        if eligible.size:
            draws = rng.random(eligible.size)
            fired[eligible] = draws < rates[eligible]
        for child, prob in pending.pop(t, ()):
            if eligible_at[child] <= t and rng.random() < prob:
                fired[child] = True
        for i in np.flatnonzero(fired):
            times.append(t)
            fired_idx.append(i)
            total += 1
            eligible_at[i] = t + config.refractory
            for child, prob in out_edges[i]:
                d = int(rng.integers(config.delay_min, config.delay_max + 1))
                pending.setdefault(t + d, []).append((child, prob))
        t += 1

    horizon = t
    records = [(tick, names[i]) for tick, i in zip(times, fired_idx)]
    return events_from_records(records, horizon), GroundTruth.of(structure)


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


def window_hits_cumsum(marks, lo, hi):
    """``checker.window_hits`` from a running count: tick ``t`` hits when
    the count over ``[t+lo, t+hi]`` is positive."""
    nq = len(marks) - hi
    if nq <= 0:
        return np.zeros(0, dtype=bool)
    cs = np.concatenate(([0], np.cumsum(marks.astype(np.int64))))
    return (cs[hi + 1: hi + 1 + nq] - cs[lo: lo + nq]) > 0


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



@dataclass(frozen=True)
class PrimaFacieRecord:
    """One hypothesis's prima facie test."""

    hypothesis: tuple  # (cause, effect, tmin, tmax)
    occurred: bool
    p_cond: FrequencyEstimate
    p_marginal: FrequencyEstimate
    passed: bool


def prima_facie_test(data, h):
    """Occurrence, probability raising, and the strictness check for one
    hypothesis ``h = (cause, effect, tmin, tmax)``.  Empty denominators
    make the test fail, not raise."""
    cause, effect, tmin, tmax = h
    occurred = any(eval_on_trace(tr, cause).any() for tr in data)
    try:
        p_cond = trace_leads_to(data, cause, effect, tmin, tmax)
    except EmptyWindowError:
        p_cond = _ZERO
    try:
        p_marginal = marginal_window_prob(data, effect, tmax - tmin + 1,
                                          tmin)
    except EmptyWindowError:
        p_marginal = _ZERO
    passed = (occurred and p_cond.denominator > 0
              and p_marginal.denominator > 0
              and Fraction(p_cond.numerator, p_cond.denominator)
              > Fraction(p_marginal.numerator, p_marginal.denominator))
    return PrimaFacieRecord(h, occurred, p_cond, p_marginal, passed)


@dataclass(frozen=True)
class EpsilonTerm:
    """One rival comparison; ``value`` is None when undefined."""

    rival: Formula
    value: Optional[float]
    defined: bool


@dataclass
class EpsilonRecord:
    """A hypothesis ``(cause, effect, tmin, tmax)``, its rival terms in
    rival order, and their average."""

    hypothesis: tuple
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
    return EpsilonRecord((c, e, tmin, tmax), terms,
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
# Batched scoring one effect at a time

def per_effect_scores(data, family, divisor="defined", min_support=1):
    """``causal.score_hypotheses`` taking each effect's rival-pair counts
    over its hit ticks where two causes hold, one product per effect and
    trace, with every trace's rows kept until all effects are done."""
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
        values, defined = causal._impact_terms(
            both=cooc[np.ix_(rivals, rivals)],
            x_total=cause_qual[rivals],
            num_both=_pair_counts(kept, rivals, ej, num_x),
            num_x=num_x,
            min_support=min_support)
        eps[members] = np.array(_average(values, defined, divisor),
                                dtype=float)  # None reads as NaN
    return ScoreTable(num, den, marg, qual_total, passed, eps)


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


def _products(left, right):
    """Exact counts ``left @ right.T`` of two boolean matrices whose rows
    run over the same ticks, in int64."""
    return left.astype(np.int64) @ right.astype(np.int64).T


def _average(values, defined, divisor):
    """Each row's defined terms summed left to right, divided by the
    defined-term count or, for ``strict``, by the rival-set size (the
    column count)."""
    total = np.cumsum(values, axis=1)[:, -1].tolist()
    if divisor == "strict":
        return [t / values.shape[1] for t in total]
    return [t / k if k else None
            for t, k in zip(total, defined.sum(axis=1).tolist())]


# ---------------------------------------------------------------------------
# Hypothesis-table rows: one hypothesis at a time

def pairwise_hypotheses(atoms, tmin, tmax, include_negations=False):
    """Every ordered atom pair (cause != effect) as ``(cause, effect,
    tmin, tmax)``, positive causes first, then negated ones, each crossed
    with the effects in atom order."""
    causes = [(Atom(a), a) for a in atoms]
    if include_negations:
        causes += [(Not(Atom(a)), a) for a in atoms]
    return [(cause, Atom(e), tmin, tmax)
            for cause, base in causes for e in atoms if e != base]


def family_hypotheses(family):
    """The hypotheses of a family as ``(cause, effect, tmin, tmax)``."""
    return [(family.causes[c], family.effects[e], family.tmin, family.tmax)
            for c, e in zip(family.cause_ix, family.effect_ix)]


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
            cause, effect, _, _ = test.hypothesis
            rivals.setdefault(effect, []).append(cause)
    rows = []
    for test in tests:
        cause, effect, _, _ = test.hypothesis
        eps = (epsilon_avg(data, cause, effect, rivals[effect], tmin, tmax,
                           divisor, min_support).eps_avg
               if test.passed else None)
        rows.append((print_formula(cause), print_formula(effect),
                     str(tmin), str(tmax), _cell(test.p_cond),
                     _cell(test.p_marginal), "1" if test.passed else "0",
                     "" if eps is None else format(eps, ".10g")))
    return rows


def _cell(estimate):
    if not estimate.denominator:
        return ""
    return format(estimate.probability, ".10g")


# ---------------------------------------------------------------------------
# hypotheses.tsv: one row, one cell at a time

def hypotheses_text(table: HypothesisTable) -> str:
    """The text of ``hypotheses.tsv`` written row by row, each cell
    formatted by itself: ``.10g`` for a float, ``str`` for an int or a
    name, 1/0 for the prima facie flag and the empty cell for NaN.  The
    reference for the column writer of ``tlcausal.pipeline``."""
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "1" if value else "0"
        return format(value, ".10g") if isinstance(value, float) \
            else str(value)
    return "".join(["\t".join(map(cell, row)) + "\n"
                    for row in [TSV_COLUMNS, *table]])


def read_hypotheses_tsv(path) -> HypothesisTable:
    """Parse ``hypotheses.tsv`` line by line, each cell by itself, and stop
    at the first line of the wrong width or the first bad cell: the
    reference for the column reader of ``tlcausal.pipeline``, its arrays
    and its error messages."""
    lines = _open_lines(path)
    if not lines or tuple(lines[0].split("\t")) != TSV_COLUMNS:
        raise DataError(f"{path}: not a hypothesis table")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(TSV_COLUMNS):
            raise DataError(f"{path}:{lineno}: expected "
                            f"{len(TSV_COLUMNS)} columns")
        values = []
        for column, cell, (read, _) in zip(TSV_COLUMNS, cells,
                                           _TABLE_READERS):
            try:
                values.append(read(cell))
            except (KeyError, ValueError):
                raise DataError(f"{path}:{lineno}: bad {column} "
                                f"{cell!r}") from None
        rows.append(values)
    columns = list(zip(*rows)) or [()] * len(TSV_COLUMNS)
    return HypothesisTable(*(np.array(column, dtype=dtype) for column,
                             (_, dtype) in zip(columns, _TABLE_READERS)))


def _table_window(cell):
    if not (cell.isascii() and cell.isdigit() and 0 < int(cell) < 2 ** 63):
        raise ValueError(f"bad window {cell!r}")
    return int(cell)


def _table_float(cell):
    if cell == "":
        return None
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {cell!r}")
    return value


# per column: the cell reader and the table's dtype
_TABLE_READERS = (
    (str, object), (str, object), (_table_window, np.int64),
    (_table_window, np.int64),
    (_table_float, float), (_table_float, float),
    ({"1": True, "0": False}.__getitem__, bool),
    (_table_float, float), (_table_float, float), (_table_float, float),
    ({"significant": "significant",
      "insignificant": "insignificant"}.__getitem__, object))


# ---------------------------------------------------------------------------
# Null density by scipy.stats

def null_pdf(null, z):
    """``NullModel.pdf`` as ``scipy.stats.norm.pdf`` computes it."""
    base = norm.pdf(z, loc=null.delta0, scale=null.sigma0)
    return base if null.p0 is None else null.p0 * base
