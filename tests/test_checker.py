import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (random_dtmc, random_traceset, trace_from_marks,
                      traceset_from_marks)
from oracles import marginal_window_prob
from scipy import sparse
from tlcausal import checker
from tlcausal.checker import (_state_mask, _window_reach_vector,
                              eval_on_trace, leads_to_meets, leads_to_prob,
                              sat_set, trace_leads_to, until_prob,
                              window_hits)
from tlcausal.dtmc import Dtmc, build_dtmc
from tlcausal.errors import CheckError, DataError, EmptyWindowError
from tlcausal.pctl import (INFINITY, And, Atom, LeadsTo, Not, ProbBound,
                           Until, parse)
from tlcausal.synthgen import GenConfig, generate, preset
from tlcausal.traces import TraceSet


class TestSatSet:
    def test_atom(self, dtmc_a):
        assert sat_set(dtmc_a, Atom("b")) == {1}

    def test_complement(self, dtmc_a):
        assert sat_set(dtmc_a, Not(Atom("b"))) == {0, 2}

    def test_bounded_until_bound(self, dtmc_a):
        got = sat_set(dtmc_a, parse("[a U{<=2} b]{>=0.5}"))
        assert got == {0, 1}

    def test_unknown_atom(self, dtmc_a):
        with pytest.raises(CheckError, match="unknown atom"):
            sat_set(dtmc_a, Atom("zz"))

    def test_leads_to_ag_reading(self, dtmc_a):
        # from s2 the antecedent never holds, so the claim holds vacuously
        got = sat_set(dtmc_a, parse("a ~>{>=1,<=2}{>=0.5} b"))
        assert 2 in got

    def test_builtins(self, dtmc_a):
        assert sat_set(dtmc_a, Atom("true")) == {0, 1, 2}
        assert sat_set(dtmc_a, Atom("false")) == frozenset()

    def test_implies(self, dtmc_a):
        assert sat_set(dtmc_a, parse("a -> b")) == {1, 2}
        assert sat_set(dtmc_a, parse("!a | b")) == {1, 2}

    def test_bound_over_a_state_formula(self, dtmc_a):
        # a zero-length path: probability 1 where a holds, 0 elsewhere
        for text in ("A a", "E a", "[a]{>=0.5}", "[a]{>0.5}"):
            assert sat_set(dtmc_a, parse(text)) == {0}, text
        assert sat_set(dtmc_a, parse("[a]{>1}")) == frozenset()
        assert sat_set(dtmc_a, parse("[a]{>=0}")) == {0, 1, 2}


class TestUntilUnless:
    def test_worked_example_a(self, dtmc_a):
        vec = until_prob(dtmc_a, dtmc_a.states_with("a"),
                         dtmc_a.states_with("b"), 2)
        assert vec[0] == pytest.approx(0.5, abs=1e-12)
        assert vec[1] == 1.0
        assert vec[2] == 0.0

    def test_worked_example_b(self, dtmc_b):
        vec = until_prob(dtmc_b, dtmc_b.states_with("a"),
                         dtmc_b.states_with("b"), 2)
        assert vec[0] == pytest.approx(0.75, abs=1e-12)

    def test_target_state_is_one_at_every_horizon(self, dtmc_a):
        for t in (0, 1, 5, INFINITY):
            vec = until_prob(dtmc_a, dtmc_a.states_with("a"),
                             dtmc_a.states_with("b"), t)
            assert vec[1] == 1.0

    def test_unless_self_loop(self):
        rng = np.random.default_rng(0)
        model = random_dtmc(rng, 1, atoms=("a", "b"))
        f1 = np.array([True])
        f2 = np.array([False])
        vec = until_prob(model, f1, f2, 3, weak=True)
        assert vec[0] == pytest.approx(1.0, abs=1e-12)

    def test_unless_worked_example_a(self, dtmc_a):
        vec = until_prob(dtmc_a, dtmc_a.states_with("a"),
                         dtmc_a.states_with("b"), 2, weak=True)
        assert vec[0] == pytest.approx(0.5, abs=1e-12)

    def test_unless_zero_horizon(self, dtmc_a):
        vec = until_prob(dtmc_a, dtmc_a.states_with("a"),
                         dtmc_a.states_with("b"), 0, weak=True)
        assert vec[0] == 1.0  # in f1 only

    def test_oracle_agreement_small_models(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            model = random_dtmc(rng, n)
            T = model.transitions.toarray()
            f1 = set(int(i) for i in
                     np.flatnonzero(rng.random(n) < 0.6))
            f2 = set(int(i) for i in
                     np.flatnonzero(rng.random(n) < 0.4))
            tmax = int(rng.integers(0, 7))
            f1m = np.zeros(n, bool)
            f2m = np.zeros(n, bool)
            for i in f1:
                f1m[i] = True
            for i in f2:
                f2m[i] = True
            got_u = until_prob(model, f1m, f2m, tmax)
            got_w = until_prob(model, f1m, f2m, tmax, weak=True)
            for s in range(n):
                assert got_u[s] == pytest.approx(
                    oracles.enum_until(T, f1, f2, tmax, s), abs=1e-10)
                assert got_w[s] == pytest.approx(
                    oracles.enum_unless(T, f1, f2, tmax, s), abs=1e-10)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(77)
        model = random_dtmc(rng, 5)
        f1 = model.states_with("a")
        f2 = model.states_with("b")
        prev = until_prob(model, f1, f2, 0)
        for t in range(1, 8):
            cur = until_prob(model, f1, f2, t)
            assert (cur >= prev - 1e-12).all()
            prev = cur

    def test_unless_dominates_until(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            model = random_dtmc(rng, 4)
            f1 = model.states_with("a")
            f2 = model.states_with("b")
            t = int(rng.integers(0, 6))
            u = until_prob(model, f1, f2, t)
            w = until_prob(model, f1, f2, t, weak=True)
            assert (w >= u - 1e-12).all()

    def test_infinite_until_fixed_point(self, dtmc_b):
        vec = until_prob(dtmc_b, dtmc_b.states_with("a"),
                         dtmc_b.states_with("b"), INFINITY)
        assert vec[0] == 1.0

    def test_slow_exit_is_exact(self):
        # the exit of 1e-7 a step makes value iteration crawl; the graph
        # alone decides that b is certain from a, and G a fails there
        T = sparse.csr_matrix(np.array([[1.0 - 1e-7, 1e-7], [0.0, 1.0]]))
        slow = Dtmc(("a", "b"), np.array([[True, False], [False, True]]),
                    T, 0, np.array([1.0, 1.0]))
        a, b = slow.states_with("a"), slow.states_with("b")
        assert until_prob(slow, a, b, INFINITY).tolist() == [1.0, 1.0]
        assert until_prob(slow, a, ~a & ~b, INFINITY,
                          weak=True).tolist() == [0.0, 0.0]
        assert sat_set(slow, parse("G a")) == frozenset()

    def test_tiny_exit_keeps_its_verdicts(self):
        # state 0 reaches b with 1/(1 + 1e-20) and stays off b for ever
        # with the rest: 1.0 and 0.0 in floats, but neither holds exactly
        T = sparse.csr_matrix(np.array([[0.0, 1.0, 1e-20], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]]))
        tiny = Dtmc(("a", "b"), np.array([[True, False], [False, True],
                                          [False, False]]), T, 0, np.ones(3))
        assert sat_set(tiny, parse("F b")) == {1}
        assert sat_set(tiny, parse("E G !b")) == {0, 2}

    @pytest.mark.parametrize("rows, labels, formulas, want", [
        # state 0 reaches b in one step with 0.9999999999, not 1: before,
        # {>=1} passed anything within 1e-9 of 1 at a finite bound
        ([[0.0, 0.9999999999, 1e-10], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
         [[True, False], [False, True], [False, False]],
         ["[a U{<=1} b]{>=1}", "[a U{<=inf} b]{>=1}"], {1}),
        # 0 -> 1 -> 2 {b} with 1e-200 a step: the path's 1e-400 underflows
        # to 0.0, and before, {>0} missed state 0
        ([[1.0, 1e-200, 0.0], [0.0, 1.0, 1e-200], [0.0, 0.0, 1.0]],
         [[True, False], [False, False], [False, True]],
         ["[true U{<=2} b]{>0}", "a ~>{>=1,<=2}{>0} b"], {0, 1, 2}),
        # state 0's row sums to 1 + 5e-10, within ROW_SUM_TOL, so a U{<=1} b
        # reads 1.0000000005 there: before, {>1} passed it
        ([[0.0, 0.50000000025, 0.50000000025], [0.0, 1.0, 0.0],
          [0.0, 0.0, 1.0]],
         [[True, False], [False, True], [False, True]],
         ["[a U{<=1} b]{>1}", "[a U{<=inf} b]{>1}"], set()),
    ], ids=["near-one", "underflow", "above-one"])
    def test_finite_bound_verdicts_read_the_edges(self, rows, labels,
                                                  formulas, want):
        model = Dtmc(("a", "b"), np.array(labels), sparse.csr_matrix(
            np.array(rows)), 0, np.ones(3))
        for formula in formulas:
            assert sat_set(model, parse(formula)) == want


class TestLeadsToProb:
    def test_worked_example(self, dtmc_a):
        est = leads_to_prob(dtmc_a, Atom("a"), Atom("b"), 1, 2)
        assert est.probability == pytest.approx(0.5, abs=1e-12)

    def test_true_effect(self, dtmc_a):
        est = leads_to_prob(dtmc_a, Atom("a"), Atom("true"), 1, 2)
        assert est.probability == pytest.approx(1.0, abs=1e-12)

    def test_empty_antecedent(self, dtmc_a):
        with pytest.raises(CheckError, match="no state"):
            leads_to_prob(dtmc_a, Atom("false"), Atom("b"), 1, 2)

    @pytest.mark.parametrize("tmin, tmax", [(0, 2), (3, 2), (0, INFINITY)])
    def test_bad_window_is_refused(self, dtmc_a, tmin, tmax):
        with pytest.raises(DataError, match=re.escape(
                f"1 <= tmin <= tmax, not [{tmin!r}, {tmax!r}]")):
            leads_to_prob(dtmc_a, Atom("a"), Atom("b"), tmin, tmax)

    def test_frequency_weighting(self):
        rng = np.random.default_rng(31)
        model = random_dtmc(rng, 5)
        T = model.transitions.toarray()
        cset = {int(i) for i in np.flatnonzero(model.states_with("a"))}
        eset = {int(i) for i in np.flatnonzero(model.states_with("b"))}
        if not cset:
            return
        est = leads_to_prob(model, Atom("a"), Atom("b"), 2, 4)
        want = oracles.enum_leads_to(T, model.frequency, cset, eset, 2, 4)
        assert est.probability == pytest.approx(want, abs=1e-10)

    def test_chain_forgets_the_antecedent_at_the_paper_window(self):
        # a state is one tick's labels, and the next state depends on them
        # alone, so 20 ticks on, every antecedent reads about the effect's
        # base rate: the cause A and the non-causes N and H of B agree on
        # the chain (0.3748...), while the traces, which count the windows
        # after each occurrence, read 0.866, 0.441 and 0.486
        events, _ = generate(GenConfig(preset("tree", 4), 0.02,
                                       target_firings=10_000, seed=1))
        data = TraceSet((events.to_trace(),))
        model = build_dtmc(data)
        assert model.n_states == 263
        on_chain, on_traces = (
            [est(source, Atom(c), Atom("B"), 20, 40).probability
             for c in "ANH"]
            for est, source in ((leads_to_prob, model),
                                (trace_leads_to, data)))
        assert max(on_chain) - min(on_chain) < 1e-12
        assert min(on_traces[0] - p for p in on_traces[1:]) > 0.2


_QUALITATIVE = ((">", 0.0), (">=", 1.0), (">", 1.0), (">=", 0.0))


def _passes(values, cmp, p):
    """Where floats or Fractions meet the bound ``cmp p``, compared as
    they are."""
    return np.array([v >= p if cmp == ">=" else v > p for v in values],
                    dtype=bool)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@st.composite
def _built_chains(draw):
    """``build_dtmc`` on random traces: many atoms make nearly every state
    new on its first visit (mostly shift rows), few atoms make few."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return build_dtmc(random_traceset(
        rng, n_atoms=draw(st.sampled_from([2, 3, 8, 12])), max_len=40,
        n_traces=draw(st.integers(1, 3)),
        density=draw(st.sampled_from([0.1, 0.3, 0.5]))))


@st.composite
def _hand_chains(draw):
    """A csr made entry by entry: shift rows (one 1.0 at column ``i + 1``)
    on just under, at or just over half of the rows, and the other rows one
    of: a lone entry just under 1.0 at ``i + 1``, a lone 1.0 elsewhere (a
    self-loop included), 1.0 at ``i + 1`` beside an explicit 0.0 or -0.0,
    or a spread of weights in unsorted column order with explicit 0.0 and
    -0.0 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 14))
    half = (n + 1) // 2
    k = min(n - 1, max(0, half + draw(st.sampled_from([-1, 0, 1]))))
    shift = set(rng.permutation(n - 1)[:k].tolist())
    data, indices, indptr = [], [], [0]
    for i in range(n):
        kind = rng.integers(4)
        if i in shift:
            row = [(i + 1, 1.0)]
        elif kind == 0 and i + 1 < n:
            row = [(i + 1, 1.0 - 2.0**-45)]
        elif kind == 1 and i + 1 < n:
            row = [(i + 1, 1.0),
                   (int(rng.integers(n)), float(rng.choice([0.0, -0.0])))]
            rng.shuffle(row)
        elif kind <= 2:
            row = [(int(rng.choice([j for j in range(n) if j != i + 1])),
                    1.0)]
        else:
            cols = rng.permutation(n)[:rng.integers(1, n + 1)]
            weights = rng.integers(1, 10, len(cols)).astype(float)
            row = list(zip(cols.tolist(), (weights / weights.sum()).tolist()))
            row += [(int(j), z) for j, z in
                    zip(rng.integers(0, n, 2), (0.0, -0.0))
                    if rng.random() < 0.5]
            rng.shuffle(row)
        indices += [j for j, _ in row]
        data += [p for _, p in row]
        indptr.append(len(indices))
    trans = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    marks = rng.random((n, 2)) < 0.5
    return Dtmc(("a", "b"), marks, trans, 0,
                rng.integers(0, 6, n).astype(float))


class TestShiftRowPush:
    """The chain checks with finite bounds equal, bit for bit, value
    iteration by full csr products (``oracles.iterate_full``), with and
    without the shift split."""

    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(_built_chains(), _hand_chains()), data=st.data())
    def test_matches_full_product_recurrence(self, model, data):
        n = model.n_states
        masks = st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda m: np.array(m, dtype=bool))
        f1m, f2m = data.draw(masks), data.draw(masks)
        tmax = data.draw(st.integers(0, 12))
        for weak, want in ((False, oracles.until_full),
                           (True, oracles.unless_full)):
            got = until_prob(model, f1m, f2m, tmax, weak)
            assert np.array_equal(_bits(got),
                                  _bits(want(model, f1m, f2m, tmax)))
        tmin = data.draw(st.integers(1, 6))
        hi = data.draw(st.integers(tmin, tmin + 10))
        reach = oracles.window_reach_full(model, f2m, tmin, hi)
        assert np.array_equal(
            _bits(_window_reach_vector(model, f2m, tmin, hi)), _bits(reach))
        c, e = (data.draw(st.sampled_from(model.atoms)) for _ in range(2))
        cmask, emask = model.states_with(c), model.states_with(e)
        if model.frequency[cmask].sum() > 0:
            est = leads_to_prob(model, Atom(c), Atom(e), tmin, hi)
            assert np.array_equal(
                _bits([est.numerator, est.denominator]),
                _bits(oracles.leads_to_full(model, cmask, emask, tmin, hi)))
        cmp = data.draw(st.sampled_from([">=", ">"]))
        p = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        # {>0} and {>=1} against the exact values, the rest the floats
        reach = _passes(oracles.exact_window_reach(model, emask, tmin, hi)
                        if (cmp, p) in _QUALITATIVE else
                        oracles.window_reach_full(model, emask, tmin, hi),
                        cmp, p)
        assert sat_set(model, ProbBound(LeadsTo(Atom(c), Atom(e), tmin, hi),
                                        cmp, p)) == \
            oracles.leads_to_sat_full(model, reach, cmask)

    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(_built_chains(), _hand_chains()).filter(
        lambda m: m._shift_split is not None), data=st.data())
    def test_walk_on_split_chains(self, model, data):
        """The sliding walk, with stop states on shift rows among them,
        and the until, unless and window reach that take it, from 0 and 1
        steps up, and past ``2n`` steps, where the buffer has been moved
        back to its front."""
        n = model.n_states
        booleans = st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda m: np.array(m, dtype=bool))
        values = st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.7, 3.5, 5e-324]),
                          min_size=n, max_size=n).map(np.array)
        steps = data.draw(st.one_of(st.sampled_from([0, 1]),
                                    st.integers(0, 12),
                                    st.integers(2 * n + 1, 3 * n + 2)))
        v, fixed, stopm = data.draw(values), data.draw(values), \
            data.draw(booleans)
        shift = np.setdiff1d(np.arange(n), model._shift_split[0])
        stopm[data.draw(st.sampled_from(shift.tolist()))] = True
        f2v = np.where(stopm, fixed, 0.0)
        stop = np.flatnonzero(stopm)
        given_v = v.copy()
        assert np.array_equal(
            _bits(model._walk(v, steps, stop, f2v[stop])),
            _bits(oracles.iterate_full(model, v, f2v, ~stopm, steps)))
        assert np.array_equal(
            _bits(model._walk(v, steps)),
            _bits(oracles.window_reach_full(model, None, steps, None, v)))
        assert np.array_equal(_bits(v), _bits(given_v))  # v is not written
        f1m, f2m = data.draw(booleans), data.draw(booleans)
        for weak, want in ((False, oracles.until_full),
                           (True, oracles.unless_full)):
            got = until_prob(model, f1m, f2m, steps, weak)
            assert np.array_equal(_bits(got),
                                  _bits(want(model, f1m, f2m, steps)))
        hi = steps + data.draw(st.sampled_from([0, 1, 5]))
        assert np.array_equal(
            _bits(_window_reach_vector(model, f2m, steps, hi)),
            _bits(oracles.window_reach_full(model, f2m, steps, hi)))

    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(_built_chains(), _hand_chains()), data=st.data())
    def test_walk_past_its_fixed_point_checks(self, model, data):
        """Bounds of 64 steps and more, where the walk looks for a
        bit-identical fixed point, on both of its branches: the strong and
        the weak until, and a bare walk without pins."""
        n = model.n_states
        booleans = st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda m: np.array(m, dtype=bool))
        steps = data.draw(st.one_of(st.sampled_from([64, 65, 128]),
                                    st.integers(64, 400)))
        f1m, f2m = data.draw(booleans), data.draw(booleans)
        for weak, want in ((False, oracles.until_full),
                           (True, oracles.unless_full)):
            got = until_prob(model, f1m, f2m, steps, weak)
            assert np.array_equal(_bits(got),
                                  _bits(want(model, f1m, f2m, steps)))
        v = data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.25, 0.7, 3.5]),
                               min_size=n, max_size=n).map(np.array))
        assert np.array_equal(
            _bits(model._walk(v, steps)),
            _bits(oracles.iterate_full(model, v, np.zeros(n),
                                       np.ones(n, bool), steps)))

    @pytest.mark.parametrize("formula", [
        "[a U{<=100000000000000000000} b]{>=0.5}",
        "[b U{<=100000000000000000000} a]{>=0.5}",  # settles at [1, 1, 1, 0]
        "[a W{<=100000000000000000000} b]{>=0.5}",
        "a ~>{>=100000000000000000000,<=100000000000000000000}{>0} b"])
    def test_huge_bound_stops_at_its_fixed_point(self, tmp_path, formula):
        # 0 -> 1 -> 2 -> 3 {b} or back to 0, all three {a}; 3 loops.  The
        # float walks settle within 200 steps, the boolean push within 4
        listing = tmp_path / "chain.txt"
        listing.write_text(
            "atoms a b\n" + "".join(f"state {i}: {{a}}\n" for i in range(3))
            + "state 3: {b}\ntrans 0 1 1.0\ntrans 1 2 1.0\n"
            "trans 2 3 0.5\ntrans 2 0 0.5\ntrans 3 3 1.0\n")
        src = Path(checker.__file__).parents[1]
        subprocess.run([sys.executable, "-m", "tlcausal.cli", "check",
                        "--model", str(listing), "--formula", formula],
                       cwd=src, check=True, capture_output=True, timeout=30)

    def test_walk_memory_does_not_grow_with_the_bound(self):
        # the sliding buffer holds n + min(steps, n) floats
        model = _spike_chain()
        assert model._shift_split is not None
        ones, b = np.ones(model.n_states, bool), model.states_with("B")
        until_prob(model, ones, b, 3)

        def peak(steps):
            tracemalloc.start()
            try:
                until_prob(model, ones, b, steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(20_000) <= peak(2_000) + 4096

    def test_split_only_when_shift_rows_are_half(self):
        # rows 0 and 1 are shift rows; row 2 loops back to 0
        trans = np.array([[0.0, 1.0, 0.0, 0.0],
                          [0.0, 0.0, 1.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0, 1.0]])
        model = Dtmc(("a",), np.zeros((4, 1), bool), trans, 0, np.ones(4))
        rest, sub = model._shift_split
        assert rest.tolist() == [2, 3] and sub.shape == (2, 4)
        trans[1] = [0.0, 0.0, 0.5, 0.5]  # one shift row of four
        assert Dtmc(("a",), np.zeros((4, 1), bool), trans, 0,
                    np.ones(4))._shift_split is None


@st.composite
def _slow_chains(draw):
    """Rows that value iteration reads badly: a self-loop just under 1.0
    with exits of 1e-13, a spread of weights that leaks or overshoots by
    5e-10 (within ``ROW_SUM_TOL``), a lone self-loop, or an entry of
    1 - 1e-13 beside one of 1e-13; each with explicit 0.0 and -0.0 entries
    now and then."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    data, indices, indptr = [], [], [0]
    for i in range(n):
        kind = rng.integers(4)
        cols = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
        if kind == 0:
            exits = [j for j in cols if j != i]
            row = [(i, 1.0 - 1e-13 * len(exits))] + [(j, 1e-13)
                                                      for j in exits]
        elif kind == 1:
            weights = rng.integers(1, 10, len(cols)).astype(float)
            weights *= (1.0 + rng.choice([-5e-10, 5e-10])) / weights.sum()
            row = list(zip(cols, weights.tolist()))
        elif kind == 2:
            row = [(i, 1.0)]
        else:
            row = [(cols[0], 1.0 - 1e-13), (int(rng.integers(n)), 1e-13)]
        row += [(int(j), z) for j, z in zip(rng.integers(0, n, 2), (0.0, -0.0))
                if rng.random() < 0.5]
        rng.shuffle(row)
        indices += [j for j, _ in row]
        data += [p for _, p in row]
        indptr.append(len(indices))
    trans = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    return Dtmc(("a", "b"), rng.random((n, 2)) < 0.5, trans, 0,
                rng.integers(0, 6, n).astype(float))


@cache
def _spike_chain():
    """A small chain shaped like spike-wide's: neurons that fire often, so
    most ticks are states first seen, and 65 of the 78 rows shift rows."""
    events, _ = generate(GenConfig(
        preset("tree", 4, trigger_prob=0.9), spontaneous_rate=0.12,
        refractory=2, delay_min=1, delay_max=3, target_firings=250, seed=1))
    return build_dtmc(TraceSet((events.to_trace(),)))


_BOUNDS = ((">", 0.0), (">=", 1.0), (">=", 0.5), (">", 0.3), (">=", 0.9),
           (">", 1.0), (">=", 0.0))


def _verdicts_agree(got, exact, cmp, p):
    """Whether a sat set gives the exact verdict at every state, except
    within 1e-9 of an interior bound ``p``."""
    for s, value in enumerate(exact):
        if 0.0 < p < 1.0 and abs(value - Fraction(p)) <= 1e-9:
            continue
        if (s in got) != (value >= p if cmp == ">=" else value > p):
            return False
    return True


class TestUnboundedExact:
    """Unbounded until, unless and leads-to against an exact solve in
    Fractions (``oracles.exact_until`` and ``oracles.exact_unless``), and
    the leads-to always-reading against a search of the paths."""

    @settings(max_examples=300, deadline=None)
    @given(model=st.one_of(_built_chains(), _hand_chains(), _slow_chains()),
           data=st.data())
    def test_matches_exact_solve(self, model, data):
        n = model.n_states
        atom = st.sampled_from(model.atoms).map(Atom)
        operand = st.one_of(atom, atom.map(Not), st.just(Atom("true")),
                            st.just(Atom("false")))
        left, right = data.draw(operand), data.draw(operand)
        f1m, f2m = _state_mask(model, left), _state_mask(model, right)
        for weak, exact in ((False, oracles.exact_until),
                            (True, oracles.exact_unless)):
            want = exact(model, f1m, f2m)
            got = until_prob(model, f1m, f2m, INFINITY, weak)
            assert np.abs(got - np.array(want, float)).max() <= 1e-12
            for cmp, p in _BOUNDS:
                assert _verdicts_agree(sat_set(model, ProbBound(
                    Until(left, right, INFINITY, weak), cmp, p)), want, cmp, p)
        # leads-to with an infinite window: tmin pushes of the exact reach
        tmin = data.draw(st.integers(1, 4))
        c, e = (data.draw(st.sampled_from(model.atoms)) for _ in range(2))
        cmask, emask = model.states_with(c), model.states_with(e)
        start = np.array(oracles.exact_until(model, np.ones(n, bool), emask),
                         float)
        reach = oracles.window_reach_full(model, emask, tmin, INFINITY, start)
        assert np.abs(_window_reach_vector(model, emask, tmin, INFINITY)
                      - reach).max() <= 1e-12
        if model.frequency[cmask].sum() > 0:
            est = leads_to_prob(model, Atom(c), Atom(e), tmin, INFINITY)
            num, den = oracles.leads_to_full(model, cmask, emask, tmin,
                                             INFINITY, start)
            assert est.denominator == den
            assert abs(est.numerator - num) <= 1e-12 * den
        exact = oracles.exact_window_reach(model, emask, tmin, INFINITY)
        for cmp, p in _BOUNDS:
            # {>0} and {>=1} exactly; other bounds not within 1e-9 of a value
            if (cmp, p) in _QUALITATIVE or np.abs(reach - p).min() > 1e-9:
                assert sat_set(model, ProbBound(
                    LeadsTo(Atom(c), Atom(e), tmin, INFINITY), cmp, p)) == \
                    oracles.leads_to_sat_full(model, _passes(
                        exact if (cmp, p) in _QUALITATIVE else reach, cmp, p),
                        cmask)


class TestQualitative:
    """``{>0}`` and ``{>=1}`` on until, unless and leads-to (and so on
    ``F``, ``G``, ``A``, ``E``), at every time bound, are read off the
    chain's edges with no solve and no walk, and give the verdicts of the
    exact Fraction oracles, as do ``{>1}`` and ``{>=0}``; so does the
    weighted leads-to verdict of ``check --model``."""

    @settings(max_examples=200, deadline=None)
    @given(model=st.one_of(_slow_chains(), st.builds(_spike_chain)),
           data=st.data())
    def test_verdicts_without_a_solve_or_walk(self, model, data):
        atom = st.sampled_from(model.atoms).map(Atom)
        operand = st.one_of(atom, atom.map(Not), st.just(Atom("true")),
                            st.just(Atom("false")))
        left, right = data.draw(operand), data.draw(operand)
        f1m, f2m = _state_mask(model, left), _state_mask(model, right)
        tmax = data.draw(st.one_of(st.integers(0, 8), st.just(INFINITY)))
        tmin = data.draw(st.integers(1, 4))
        c, e = (data.draw(st.sampled_from(model.atoms)) for _ in range(2))
        lead = LeadsTo(Atom(c), Atom(e), tmin, tmin + tmax)
        cmask, emask = model.states_with(c), model.states_with(e)
        weighed = cmask & (model.frequency > 0)
        est = (leads_to_prob(model, lead.left, lead.right, lead.tmin,
                             lead.tmax) if weighed.any() else None)
        if tmax == INFINITY:
            exact = {False: oracles.exact_until(model, f1m, f2m),
                     True: oracles.exact_unless(model, f1m, f2m)}
        else:
            exact = {weak: oracles.exact_bounded(model, f1m, f2m, tmax, weak)
                     for weak in (False, True)}
        reach = oracles.exact_window_reach(model, emask, tmin, lead.tmax)
        with mock.patch("scipy.sparse.linalg.spsolve",
                        side_effect=AssertionError("spsolve called")), \
                mock.patch.object(Dtmc, "_walk",
                                  side_effect=AssertionError("walk called")):
            for cmp, p in _QUALITATIVE:
                for weak, want in exact.items():
                    assert sat_set(model, ProbBound(
                        Until(left, right, tmax, weak), cmp, p)) == \
                        set(np.flatnonzero(_passes(want, cmp, p)).tolist())
                meets = _passes(reach, cmp, p)
                assert sat_set(model, ProbBound(lead, cmp, p)) == \
                    oracles.leads_to_sat_full(model, meets, cmask)
                if est is not None:
                    assert leads_to_meets(model, ProbBound(lead, cmp, p),
                                          est) == (meets[weighed].any()
                                                   if cmp == ">" else
                                                   meets[weighed].all())

    def test_sets_stop_at_their_fixed_point(self):
        # 0 {a} -> 1 {a} or 4 {}; 1 -> 2 {a}; 2 -> 2 or 3 {b}; 3 -> 0;
        # 4 loops.  A bound of 4000 asks for 4000 boolean steps, and each
        # set is fixed after at most one step per state
        T = sparse.csr_matrix(np.array([
            [0.0, 0.5, 0.0, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0]]))
        labels = [[True, False]] * 3 + [[False, True], [False, False]]
        model = Dtmc(("a", "b"), np.array(labels), T, 0, np.ones(5))
        a, b = model.states_with("a"), model.states_with("b")
        ones = np.ones(5, bool)
        cases = [  # formula, window pushes, the exact oracle's states
            ("[true U{<=4000} b]{>0}", 0, np.flatnonzero(_passes(
                oracles.exact_bounded(model, ones, b, 4000), ">", 0.0))),
            ("[a W{<=4000} b]{>=1}", 0, np.flatnonzero(_passes(
                oracles.exact_bounded(model, a, b, 4000, weak=True),
                ">=", 1.0))),
            ("a ~>{>=2,<=4000}{>=1} b", 2, oracles.leads_to_sat_full(
                model, _passes(oracles.exact_window_reach(model, b, 2, 4000),
                               ">=", 1.0), a))]
        with mock.patch.object(checker, "_some_edge_into",
                               wraps=checker._some_edge_into) as step:
            for formula, tmin, want in cases:
                step.reset_mock()
                assert sat_set(model, parse(formula)) == set(want)
                assert step.call_count <= model.n_states + 1 + tmin

    def test_spike_chain_has_undecided_states(self):
        # the chain the test above draws from needs a solve for some
        # operands: here 22 of its states lie strictly inside (0, 1)
        model = _spike_chain()
        assert model._shift_split is not None
        vec = until_prob(model, ~model.states_with("A"),
                         model.states_with("B"), INFINITY)
        assert ((vec > 0) & (vec < 1)).sum() == 22


class TestTraceSemantics:
    def test_leads_to_hand_count(self):
        data = traceset_from_marks(("c", "e"), 10, {"c": [1, 5], "e": [2, 9]})
        est = trace_leads_to(data, Atom("c"), Atom("e"), 1, 2)
        assert (est.numerator, est.denominator) == (1, 2)

    def test_censoring_empties_denominator(self):
        data = traceset_from_marks(("c", "e"), 10, {"c": [9], "e": [2]})
        with pytest.raises(EmptyWindowError):
            trace_leads_to(data, Atom("c"), Atom("e"), 1, 2)

    def test_self_following_atom(self):
        # by the censoring rule tick 3's window is tick 4, where c is false
        data = traceset_from_marks(("c",), 5, {"c": [0, 1, 2, 3]})
        est = trace_leads_to(data, Atom("c"), Atom("c"), 1, 1)
        assert (est.numerator, est.denominator) == (3, 4)

    def test_marginal_hand_count(self):
        data = traceset_from_marks(("e",), 10, {"e": [2, 9]})
        est = marginal_window_prob(data, Atom("e"), 2, 1)
        assert (est.numerator, est.denominator) == (3, 8)

    def test_marginal_true_and_false(self):
        data = traceset_from_marks(("e",), 10, {"e": [2]})
        assert marginal_window_prob(data, Atom("true"), 3, 1).probability == 1.0
        assert marginal_window_prob(data, Atom("false"), 3, 1).probability == 0.0

    def test_brute_force_agreement(self):
        rng = np.random.default_rng(404)
        for _ in range(60):
            data = random_traceset(rng, n_atoms=int(rng.integers(2, 6)),
                                   max_len=50,
                                   n_traces=int(rng.integers(1, 3)))
            tmin = int(rng.integers(1, 4))
            tmax = tmin + int(rng.integers(0, 5))
            c, e = rng.choice(len(data.variables), size=2, replace=False)
            cname, ename = data.variables[c], data.variables[e]
            cols_c = [tr.column(cname) for tr in data]
            cols_e = [tr.column(ename) for tr in data]
            want = oracles.count_leads_to(cols_c, cols_e, tmin, tmax)
            try:
                got = trace_leads_to(data, Atom(cname), Atom(ename),
                                     tmin, tmax)
                assert (got.numerator, got.denominator) == want
            except EmptyWindowError:
                assert want[1] == 0
            want_m = oracles.count_marginal(cols_e, tmax - tmin + 1, tmin)
            try:
                got_m = marginal_window_prob(data, Atom(ename),
                                             tmax - tmin + 1, tmin)
                assert (got_m.numerator, got_m.denominator) == want_m
            except EmptyWindowError:
                assert want_m[1] == 0

    def test_replicate_shorter_than_the_window(self):
        # replicates of 1 and 2 ticks hold no full window of [1, 2]; they
        # add nothing beside the 6-tick one
        marks = ({"c": [0]}, {"c": [0, 1], "e": [1]},
                 {"c": [0, 3], "e": [2]})
        data = TraceSet(tuple(trace_from_marks(("c", "e"), n, m)
                              for n, m in zip((1, 2, 6), marks)))
        est = trace_leads_to(data, Atom("c"), Atom("e"), 1, 2)
        assert (est.numerator, est.denominator) == (1, 2) == \
            oracles.count_leads_to([t.column("c") for t in data],
                                   [t.column("e") for t in data], 1, 2)

    def test_windows_do_not_cross_traces(self):
        t1 = traceset_from_marks(("c", "e"), 4, {"c": [3]}).traces[0]
        t2 = traceset_from_marks(("c", "e"), 4, {"e": [0]}).traces[0]
        from tlcausal.traces import TraceSet
        with pytest.raises(EmptyWindowError):
            # c's window would need ticks from the next trace
            trace_leads_to(TraceSet((t1, t2)), Atom("c"), Atom("e"), 1, 1)


class TestEvalOnTrace:
    def test_bounded_until(self):
        data = traceset_from_marks(("a", "b"), 6,
                                   {"a": [0, 1, 2], "b": [3]})
        trace = data.traces[0]
        got = eval_on_trace(trace, parse("[a U{<=2} b]{>=1}"))
        assert got.tolist() == [False, True, True, True, False, False]

    def test_implies(self):
        trace = trace_from_marks(("a", "b"), 4, {"a": [0, 1], "b": [1, 3]})
        want = [False, True, True, True]
        assert eval_on_trace(trace, parse("a -> b")).tolist() == want
        assert eval_on_trace(trace, parse("!a | b")).tolist() == want

    def test_unbounded_unless_truncation(self):
        data = traceset_from_marks(("a", "b"), 4, {"a": [2, 3]})
        trace = data.traces[0]
        got = eval_on_trace(trace, parse("[a W{<=inf} b]{>=1}"))
        assert got.tolist() == [False, False, True, True]

    def test_temporal_antecedent_in_window_count(self):
        # cause formula is itself an until
        data = traceset_from_marks(("a", "b", "e"), 12,
                                   {"a": [0, 1, 4], "b": [2, 5], "e": [3, 7]})
        est = trace_leads_to(data, parse("[a U{<=2} b]{>=1}"), Atom("e"), 1, 2)
        sat = eval_on_trace(data.traces[0], parse("[a U{<=2} b]{>=1}"))
        want = oracles.count_leads_to(
            [sat], [data.traces[0].column("e")], 1, 2)
        assert (est.numerator, est.denominator) == want


class TestLeadsToSatSet:
    def test_strict_bound_splits_states(self, dtmc_a):
        # window-reach from s0 is exactly 0.5: the strict bound excludes it,
        # and s0 then violates the always-globally reading at itself
        got = sat_set(dtmc_a, parse("a ~>{>=1,<=2}{>0.5} b"))
        assert got == {1, 2}
        # the weak bound keeps s0
        assert sat_set(dtmc_a, parse("a ~>{>=1,<=2}{>=0.5} b")) == {0, 1, 2}


@settings(max_examples=200, deadline=None)
@given(marks=st.lists(st.booleans(), max_size=30), lo=st.integers(1, 5),
       width=st.integers(0, 5))
def test_window_hits_matches_naive_loop(marks, lo, width):
    hi = lo + width
    naive = [any(marks[t + lo: t + hi + 1]) for t in range(len(marks) - hi)]
    got = window_hits(np.array(marks, dtype=bool), lo, hi)
    assert got.dtype == bool
    assert got.tolist() == naive


@settings(max_examples=300, deadline=None)
@given(marks=st.lists(st.booleans(), max_size=300).map(
           lambda m: np.array(m, dtype=bool)),
       density=st.floats(0.0, 1.0), lo=st.integers(0, 40),
       width=st.integers(1, 70))
@example(marks=np.zeros(0, dtype=bool), density=1.0, lo=0, width=1)
@example(marks=np.zeros(0, dtype=bool), density=1.0, lo=3, width=5)
@example(marks=np.ones(10, dtype=bool), density=0.5, lo=4, width=1)
@example(marks=np.ones(10, dtype=bool), density=0.5, lo=0, width=8)
@example(marks=np.ones(10, dtype=bool), density=1.0, lo=2, width=8)
@example(marks=np.ones(10, dtype=bool), density=1.0, lo=2, width=9)
@example(marks=np.ones(10, dtype=bool), density=1.0, lo=9, width=3)
def test_window_hits_matches_running_count(marks, density, lo, width):
    # density thins the marks, so long windows also see misses
    rng = np.random.default_rng(len(marks))
    marks = marks & (rng.random(len(marks)) < density)
    hi = lo + width - 1
    got = window_hits(marks, lo, hi)
    want = oracles.window_hits_cumsum(marks, lo, hi)
    assert got.dtype == bool and len(got) == max(len(marks) - hi, 0)
    assert np.array_equal(got, want)


_TRACE_ATOMS = st.sampled_from([Atom(n) for n in ("a", "b", "true", "false")])
_TBOUNDS = st.one_of(st.integers(0, 10), st.just(INFINITY))


def _path(operand):
    return st.builds(Until, operand, operand, _TBOUNDS, st.booleans())


def _trace_formulas(operand):
    return st.one_of(
        operand.map(Not),
        _path(operand),  # bare until/unless, as an operand too
        st.builds(ProbBound, _path(operand), st.sampled_from([">=", ">"]),
                  st.sampled_from([0.0, 0.5, 1.0])),
        st.builds(And, _path(operand), _TRACE_ATOMS))


@settings(max_examples=400, deadline=None)
@given(ticks=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                      max_size=30),
       f=st.recursive(_TRACE_ATOMS, _trace_formulas, max_leaves=6))
def test_eval_on_trace_matches_loop_oracle(ticks, f):
    trace = trace_from_marks(("a", "b"), len(ticks), {
        "a": [t for t, (a, _) in enumerate(ticks) if a],
        "b": [t for t, (_, b) in enumerate(ticks) if b]})
    got = eval_on_trace(trace, f)
    assert got.dtype == bool
    assert got.tolist() == oracles.trace_sat(trace, f).tolist()


_LEADS_TO = "leads-to has no per-tick truth value on traces; use trace_leads_to"


@pytest.mark.parametrize("on, f, error, message", [
    ("chain", And(Atom("a"), Atom("zz")), CheckError, "unknown atom: 'zz'"),
    ("trace", And(Atom("a"), Atom("zz")), DataError, "unknown atom: 'zz'"),
    ("chain", Not(Until(Atom("a"), Atom("b"), 2)), CheckError,
     "a bare path formula has no satisfaction set; "
     "wrap it in a probability bound"),
    ("trace", parse("a ~>{>=1,<=2}{>=0.5} b"), CheckError, _LEADS_TO),
    ("trace", parse("a ~>{>=1,<=2}{>=0.5} b").path, CheckError, _LEADS_TO),
    ("chain", parse("a U{<=2} b ~>{>=1,<=2}{>=0.5} b"), CheckError,
     "leads-to on a chain requires state-formula operands; "
     "use the trace semantics for temporal operands"),
    ("chain", Not("a"), CheckError, "not a formula node: 'a'"),
    ("trace", And(Atom("a"), 42), CheckError, "not a formula node: 42"),
    ("leads_to_prob", parse("a ~>{>=1,<=2}{>0} a U{<=1} b"), CheckError,
     "leads-to on a chain requires state-formula operands; "
     "use the trace semantics for temporal operands"),
])
def test_checker_error_types_and_messages(dtmc_a, on, f, error, message):
    trace = trace_from_marks(("a", "b"), 4, {"a": [0], "b": [1]})
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        if on == "chain":
            sat_set(dtmc_a, f)
        elif on == "trace":
            eval_on_trace(trace, f)
        else:
            leads_to_prob(dtmc_a, f.path.left, f.path.right, f.path.tmin,
                          f.path.tmax)
    assert info.type is error
