from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_traceset, trace_from_marks, traceset_from_marks
from oracles import epsilon_avg, epsilon_x, prima_facie_test
from tlcausal import causal
from tlcausal.causal import (HypothesisFamily, enumerate_pairwise,
                             score_hypotheses)
from tlcausal.errors import CheckError
from tlcausal.pctl import And, Atom, Not, Or
from tlcausal.traces import Trace, TraceSet


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_pairwise(["a", "b", "c"], 1, 2)) == 6
        atoms = [f"v{i}" for i in range(26)]
        assert len(enumerate_pairwise(atoms, 20, 40)) == 650

    def test_negations_double_the_causes(self):
        got = enumerate_pairwise(["a", "b"], 1, 1, include_negations=True)
        assert len(got) == 4
        assert got.causes[got.cause_ix[2]] == Not(Atom("a"))

    def test_window_carried(self):
        family = enumerate_pairwise(["a", "b"], 20, 40)
        assert (family.tmin, family.tmax) == (20, 40)

    def test_invalid_window(self):
        with pytest.raises(CheckError):
            _single(Atom("a"), Atom("b"), 0, 4)
        with pytest.raises(CheckError):
            enumerate_pairwise(["a", "b"], 3, 2)

    @pytest.mark.parametrize("negations", [False, True])
    @pytest.mark.parametrize("n_atoms", [1, 2, 5])
    def test_matches_hypothesis_loop(self, n_atoms, negations):
        atoms = [f"v{i}" for i in range(n_atoms)]
        family = enumerate_pairwise(atoms, 2, 4, include_negations=negations)
        want = oracles.pairwise_hypotheses(atoms, 2, 4, negations)
        assert len(family) == len(want)
        assert oracles.family_hypotheses(family) == want

    def test_window_beyond_int64(self):
        # hypotheses.tsv stores tmax as an int64
        with pytest.raises(CheckError, match="2\\^63"):
            enumerate_pairwise(["a", "b"], 1, 2 ** 63)
        assert enumerate_pairwise(["a", "b"], 1, 2 ** 63 - 1).tmax == \
            2 ** 63 - 1

    def test_duplicate_atoms(self):
        with pytest.raises(CheckError, match="duplicate"):
            enumerate_pairwise(["a", "b", "a"], 1, 1)


def _single(cause, effect, tmin, tmax):
    """The family of the one hypothesis ``cause ~> effect``."""
    ix = np.zeros(1, dtype=np.int64)
    return HypothesisFamily((cause,), (effect,), ix, ix, tmin, tmax)


class TestFamilyIndices:
    @pytest.mark.parametrize("cause_ix, effect_ix", [
        (np.array([-1, 0]), np.array([0, 0])),  # before the causes
        (np.array([0, 2]), np.array([0, 0])),   # past the causes
        (np.array([0, 1]), np.array([0, 2])),   # past the effects
        (np.array([0, 1]), np.array([0])),      # lengths differ
        (np.array([[0, 1]]), np.array([[0, 1]])),
        (np.array([0.0, 1.0]), np.array([0, 1])),
        (np.array([True, False]), np.array([0, 1])),
        ([0, 1], [0, 1]),
    ])
    def test_refuses_indices_that_do_not_describe_it(self, cause_ix,
                                                      effect_ix):
        a, b = Atom("a"), Atom("b")
        with pytest.raises(CheckError, match="cause_ix|index"):
            HypothesisFamily((a, b), (b, a), cause_ix, effect_ix, 1, 1)

    def test_empty_family_scores_to_an_empty_table(self):
        data = traceset_from_marks(("a", "b"), 10, {"a": [0], "b": [1]})
        none = np.zeros(0, dtype=np.uint8)
        scores = score_hypotheses(data, HypothesisFamily((), (), none, none,
                                                         1, 1))
        assert len(scores.passed) == len(scores.eps) == 0
        assert scores.qual_total == 9


class TestPrimaFacie:
    def test_periodic_example(self):
        data = traceset_from_marks(("c", "e"), 20,
                                   {"c": [0, 5, 10, 15], "e": [1, 6, 11, 16]})
        res = prima_facie_test(data, (Atom("c"), Atom("e"), 1, 1))
        assert res.p_cond.probability == 1.0
        assert (res.p_marginal.numerator, res.p_marginal.denominator) == (4, 19)
        assert res.passed

    def test_cause_never_occurs(self):
        data = traceset_from_marks(("c", "e"), 10, {"e": [1]})
        res = prima_facie_test(data, (Atom("c"), Atom("e"), 1, 1))
        assert not res.occurred and not res.passed

    def test_exact_tie_fails(self):
        # e holds everywhere: conditional and marginal are both 1
        data = traceset_from_marks(("c", "e"), 10,
                                   {"c": [2, 4], "e": list(range(10))})
        res = prima_facie_test(data, (Atom("c"), Atom("e"), 1, 2))
        assert res.p_cond.probability == res.p_marginal.probability == 1.0
        assert not res.passed

    def test_censored_window_is_not_a_fault(self):
        data = traceset_from_marks(("c", "e"), 5, {"c": [4], "e": [1]})
        res = prima_facie_test(data, (Atom("c"), Atom("e"), 1, 2))
        assert res.occurred and not res.passed
        assert res.p_cond.denominator == 0

    def test_relabeling_uninvolved_atom_is_irrelevant(self):
        marks = {"c": [0, 5, 10], "e": [1, 6, 11], "z": [3, 7]}
        d1 = traceset_from_marks(("c", "e", "z"), 15, marks)
        marks2 = dict(marks)
        marks2["w"] = marks2.pop("z")
        d2 = traceset_from_marks(("c", "e", "w"), 15, marks2)
        h = (Atom("c"), Atom("e"), 1, 1)
        r1 = prima_facie_test(d1, h)
        r2 = prima_facie_test(d2, h)
        assert r1.p_cond == r2.p_cond
        assert r1.p_marginal == r2.p_marginal
        assert r1.passed == r2.passed


class TestEpsilonX:
    def test_full_contrast(self):
        data = traceset_from_marks(("x", "c", "e"), 10,
                                   {"x": [0, 2, 4, 6], "c": [0, 4],
                                    "e": [1, 5]})
        value, defined = epsilon_x(data, Atom("c"), Atom("x"), Atom("e"), 1, 1)
        assert defined and value == 1.0

    def test_no_contrast(self):
        data = traceset_from_marks(("x", "c", "e"), 10,
                                   {"x": [0, 2, 4, 6], "c": [0, 4],
                                    "e": [1, 3]})
        value, defined = epsilon_x(data, Atom("c"), Atom("x"), Atom("e"), 1, 1)
        assert defined and value == 0.0

    def test_undefined_when_never_cooccur(self):
        data = traceset_from_marks(("x", "c", "e"), 10,
                                   {"x": [1, 3], "c": [0, 4], "e": [2]})
        value, defined = epsilon_x(data, Atom("c"), Atom("x"), Atom("e"), 1, 1)
        assert not defined and value is None

    def test_rival_must_differ(self):
        data = traceset_from_marks(("c", "e"), 10, {"c": [0], "e": [1]})
        with pytest.raises(CheckError):
            epsilon_x(data, Atom("c"), Atom("c"), Atom("e"), 1, 1)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(62)
        for _ in range(30):
            data = random_traceset(rng, 3, max_len=40)
            value, defined = epsilon_x(data, Atom("a"), Atom("b"), Atom("c"),
                                       1, 2)
            if defined:
                assert -1.0 <= value <= 1.0

    def test_exact_against_rational_oracle(self):
        rng = np.random.default_rng(88)
        for _ in range(40):
            data = random_traceset(rng, 3, max_len=50,
                                   n_traces=int(rng.integers(1, 3)))
            tmin = int(rng.integers(1, 3))
            tmax = tmin + int(rng.integers(0, 4))
            cols = {v: [tr.column(v) for tr in data]
                    for v in data.variables}
            value, defined = epsilon_x(data, Atom("a"), Atom("b"), Atom("c"),
                                       tmin, tmax)
            want = oracles.rational_epsilon(cols["a"], cols["b"], cols["c"],
                                            tmin, tmax)
            if want is None:
                assert not defined
            else:
                assert defined
                n1, d1 = oracles.count_leads_to(
                    [a & b for a, b in zip(cols["a"], cols["b"])],
                    cols["c"], tmin, tmax)
                n2, d2 = oracles.count_leads_to(
                    [~a & b for a, b in zip(cols["a"], cols["b"])],
                    cols["c"], tmin, tmax)
                assert value == n1 / d1 - n2 / d2
                assert Fraction(n1, d1) - Fraction(n2, d2) == want


class TestEpsilonAvg:
    def test_two_defined_terms(self):
        # rivals engineered so the two term values are 0.4 and 0.2
        data = _three_rival_data()
        c, e = Atom("c"), Atom("e")
        rivals = [c, Atom("x1"), Atom("x2")]
        rec = epsilon_avg(data, c, e, rivals, 1, 1)
        values = [t.value for t in rec.eps_terms]
        assert rec.eps_avg == pytest.approx(sum(values) / len(values))

    def test_strict_divisor(self):
        data = _three_rival_data()
        c, e = Atom("c"), Atom("e")
        rivals = [c, Atom("x1"), Atom("x2")]
        default = epsilon_avg(data, c, e, rivals, 1, 1)
        strict = epsilon_avg(data, c, e, rivals, 1, 1, divisor="strict")
        total = sum(t.value for t in default.eps_terms if t.defined)
        assert strict.eps_avg == pytest.approx(total / 3)
        assert default.eps_avg == pytest.approx(total / 2)

    def test_single_rival(self):
        data = traceset_from_marks(("c", "x", "e"), 12,
                                   {"c": [0, 4, 8], "x": [0, 8], "e": [1, 9]})
        rec = epsilon_avg(data, Atom("c"), Atom("e"),
                          [Atom("c"), Atom("x")], 1, 1)
        assert len(rec.eps_terms) == 1
        assert rec.eps_avg == rec.eps_terms[0].value

    def test_no_rivals_is_undefined(self):
        data = traceset_from_marks(("c", "e"), 12, {"c": [0], "e": [1]})
        rec = epsilon_avg(data, Atom("c"), Atom("e"), [Atom("c")], 1, 1)
        assert rec.eps_avg is None and rec.eps_terms == []

    def test_cause_must_be_member(self):
        data = traceset_from_marks(("c", "x", "e"), 12, {"c": [0], "e": [1]})
        with pytest.raises(CheckError):
            epsilon_avg(data, Atom("c"), Atom("e"), [Atom("x")], 1, 1)


def _three_rival_data():
    rng = np.random.default_rng(11)
    values = rng.random((4, 120)) < 0.35
    return TraceSet((Trace(("c", "x1", "x2", "e"), values),))


def _score_with_terms(monkeypatch, data, hyps):
    """Score, keeping the (values, defined) term rows of the passers with
    rivals in the order the scorer computes them, one block per cause."""
    captured = []
    impact_terms = causal._impact_terms

    def recording(*args, **kwargs):
        out = impact_terms(*args, **kwargs)
        captured.append(out)
        return out

    monkeypatch.setattr(causal, "_impact_terms", recording)
    return score_hypotheses(data, hyps), captured


def _row_terms(row, rivals, cause):
    """The scorer's (value, defined) terms in one padded row, in rival
    order, value None where undefined, as the per-pair functions report
    them.  The terms against the cause itself (a repeated hypothesis
    repeats it) and the padding past the rivals must be undefined +0.0."""
    values, defined = row
    own = np.array([x == cause for x in rivals] +
                   [True] * (len(values) - len(rivals)))
    assert not defined[own].any()
    assert (values[own] == 0.0).all() and not np.signbit(values[own]).any()
    return [(float(values[k]) if defined[k] else None, bool(defined[k]))
            for k in np.flatnonzero(~own)]


def _eps(scores, i):
    """The impact average of hypothesis ``i``, None where NaN, as the
    per-pair functions report it."""
    eps = float(scores.eps[i])
    return None if np.isnan(eps) else eps


@st.composite
def _replicate_sets(draw):
    """1-3 replicate traces over 2-4 atoms, 1-24 ticks each, so that with
    windows up to [3,6] some replicates are shorter than tmax."""
    atoms = tuple("abcd"[:draw(st.integers(2, 4))])
    traces = []
    for length in draw(st.lists(st.integers(1, 24), min_size=1,
                                max_size=3)):
        cells = draw(st.lists(st.booleans(), min_size=len(atoms) * length,
                              max_size=len(atoms) * length))
        traces.append(Trace(atoms, np.array(cells).reshape(len(atoms),
                                                           length)))
    return TraceSet(tuple(traces))


def _assert_matches_per_pair_functions(monkeypatch, data, tmin, tmax,
                                       hyps=None):
    """Counts, terms and impact averages of every pairwise hypothesis, or
    of the family ``hyps``, against the per-pair oracle functions."""
    if hyps is None:
        hyps = enumerate_pairwise(data.variables, tmin, tmax)
        want = oracles.pairwise_hypotheses(data.variables, tmin, tmax)
    else:
        want = oracles.family_hypotheses(hyps)
    scores, terms = _score_with_terms(monkeypatch, data, hyps)
    by_effect = {}
    for i, h in enumerate(want):
        cause, effect, _, _ = h
        single = prima_facie_test(data, h)
        assert scores.passed[i] == single.passed
        assert (scores.num[i], scores.den[i]) == \
            (single.p_cond.numerator, single.p_cond.denominator)
        assert (scores.marg[i], scores.qual_total) == \
            (single.p_marginal.numerator,
             single.p_marginal.denominator)
        if single.passed:
            by_effect.setdefault(effect, []).append(cause)
    # the scorer visits the causes in id order, each cause's passers with
    # rivals in hypothesis order, one row each, padded to the largest
    # rival set
    rated = sorted((i for i in np.flatnonzero(scores.passed)
                    if len(by_effect[want[i][1]]) > 1),
                   key=lambda i: (hyps.cause_ix[i], i))
    width = max(map(len, by_effect.values()), default=0)
    rows = [row for values, defined in terms for row in zip(values, defined)]
    assert len(rows) == len(rated)
    assert all(len(values) == width for values, _ in rows)
    rows = dict(zip(rated, rows))
    for i in np.flatnonzero(scores.passed):
        cause, effect, _, _ = want[i]
        rivals = by_effect[effect]
        single = epsilon_avg(data, cause, effect, rivals, tmin, tmax)
        assert _eps(scores, i) == single.eps_avg
        got = _row_terms(rows[i], rivals, cause) if i in rows else []
        assert got == [(t.value, t.defined) for t in single.eps_terms]
    return by_effect


_ORACLE_CASES = dict(data=_replicate_sets(), tmin=st.integers(1, 3),
                     width=st.integers(0, 3), negations=st.booleans(),
                     min_support=st.sampled_from([1, 2, 3]),
                     divisor=st.sampled_from(["defined", "strict"]))


def _assert_matches_oracles(data, tmin, tmax, negations, min_support,
                            divisor):
    """Counts and impact averages of every pairwise hypothesis against the
    oracle functions."""
    hyps = enumerate_pairwise(data.variables, tmin, tmax,
                              include_negations=negations)
    want = oracles.pairwise_hypotheses(data.variables, tmin, tmax, negations)
    scores = score_hypotheses(data, hyps, divisor=divisor,
                              min_support=min_support)
    by_effect = {}
    for i, h in enumerate(want):
        cause, effect, _, _ = h
        single = prima_facie_test(data, h)
        assert (scores.num[i], scores.den[i]) == \
            (single.p_cond.numerator, single.p_cond.denominator)
        assert (scores.marg[i], scores.qual_total) == \
            (single.p_marginal.numerator, single.p_marginal.denominator)
        assert scores.passed[i] == single.passed
        if single.passed:
            by_effect.setdefault(effect, []).append(cause)
    assert scores.passed.sum() == sum(map(len, by_effect.values()))
    for i in np.flatnonzero(scores.passed):
        cause, effect, _, _ = want[i]
        single = epsilon_avg(data, cause, effect, by_effect[effect],
                             tmin, tmax, divisor=divisor,
                             min_support=min_support)
        assert _eps(scores, i) == single.eps_avg


class TestBatchedScoring:
    def test_matches_per_pair_functions(self, monkeypatch):
        rng = np.random.default_rng(100)
        for _ in range(10):
            data = random_traceset(rng, 4, max_len=60,
                                   n_traces=int(rng.integers(1, 3)))
            tmin = int(rng.integers(1, 3))
            tmax = tmin + int(rng.integers(0, 3))
            _assert_matches_per_pair_functions(monkeypatch, data, tmin, tmax)

    @settings(max_examples=150, deadline=None)
    @given(**_ORACLE_CASES)
    def test_matches_oracles_on_random_replicates(self, data, tmin, width,
                                                  negations, min_support,
                                                  divisor):
        _assert_matches_oracles(data, tmin, tmin + width, negations,
                                min_support, divisor)

    # chunks of 1 and 7 ticks break inside windows and inside traces
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_matches_per_pair_functions_in_small_chunks(self, monkeypatch,
                                                        chunk):
        monkeypatch.setattr(causal, "_CHUNK", chunk)
        self.test_matches_per_pair_functions(monkeypatch)

    @pytest.mark.parametrize("chunk", [1, 7])
    @settings(max_examples=150, deadline=None)
    @given(**_ORACLE_CASES)
    def test_matches_oracles_in_small_chunks(self, chunk, data, tmin, width,
                                             negations, min_support, divisor):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(causal, "_CHUNK", chunk)
            _assert_matches_oracles(data, tmin, tmin + width, negations,
                                    min_support, divisor)

    def test_replicate_without_two_causes_at_one_tick(self, monkeypatch):
        # no two atoms of "apart" hold at one tick, so it adds to no rival
        # pair; a and b hold together at ticks 0 and 16 of "together"
        variables = ("a", "b", "e")
        apart = trace_from_marks(variables, 40, {
            "a": [0, 10, 20], "b": [5, 15, 25], "e": [1, 6, 11, 16, 21, 26]})
        together = trace_from_marks(variables, 40, {
            "a": [0, 8, 16, 24], "b": [0, 4, 16, 28], "e": [1, 5, 9, 17, 29]})
        assert apart.values.sum(axis=0).max() == 1
        for data in (TraceSet((apart, together)),
                     TraceSet((together, apart))):
            by_effect = _assert_matches_per_pair_functions(monkeypatch, data,
                                                           1, 1)
            assert by_effect[Atom("e")] == [Atom("a"), Atom("b")]

    def test_products_exact_across_a_chunk_boundary(self):
        ticks = causal._CHUNK + 3
        m = np.ones((ticks, 3), dtype=bool)
        m[:, 1] = False
        counts = causal._counts(m, [2, 0], slice(1, 3))
        assert counts.dtype == np.int64
        assert counts.tolist() == [[0, ticks], [0, ticks]]
        assert causal._counts(m, slice(None), slice(None)).tolist() == [
            [ticks, 0, ticks], [0, 0, 0], [ticks, 0, ticks]]

    def test_min_support_below_one_acts_as_one(self):
        # a and b never co-occur: their mutual terms have no ticks at all
        data = traceset_from_marks(("a", "b", "e"), 40,
                                   {"a": [0, 10, 20], "b": [5, 15, 25],
                                    "e": [1, 6, 11, 16, 21, 26]})
        hyps = enumerate_pairwise(data.variables, 1, 1)
        zero = score_hypotheses(data, hyps, min_support=0)
        one = score_hypotheses(data, hyps, min_support=1)
        assert zero.passed.sum() == 2
        assert [_eps(zero, i) for i in np.flatnonzero(zero.passed)] == \
               [_eps(one, i) for i in np.flatnonzero(one.passed)]

    def test_negated_causes(self):
        rng = np.random.default_rng(55)
        data = random_traceset(rng, 3, max_len=60)
        hyps = enumerate_pairwise(data.variables, 1, 2,
                                  include_negations=True)
        want = oracles.pairwise_hypotheses(data.variables, 1, 2, True)
        scores = score_hypotheses(data, hyps)
        for i, h in enumerate(want):
            single = prima_facie_test(data, h)
            assert single.passed == scores.passed[i]

    def test_records_in_enumeration_order(self):
        rng = np.random.default_rng(9)
        data = random_traceset(rng, 4, max_len=80)
        hyps = enumerate_pairwise(data.variables, 1, 1)
        scores = score_hypotheses(data, hyps)
        assert len(scores.passed) == len(scores.eps) == len(hyps)
        assert np.isnan(scores.eps[~scores.passed]).all()

    def test_compound_cause_formulas(self):
        data = traceset_from_marks(
            ("a", "b", "e"), 30,
            {"a": [0, 6, 12, 18], "b": [0, 12, 24], "e": [1, 13]})
        h = (And(Atom("a"), Atom("b")), Atom("e"), 1, 1)
        scores = score_hypotheses(data, _single(*h))
        single = prima_facie_test(data, h)
        assert (scores.num[0], scores.den[0]) == \
            (single.p_cond.numerator, single.p_cond.denominator)
        assert scores.passed[0] == single.passed


@st.composite
def _scoring_cases(draw):
    """Replicates, a window and a family at it: the pairwise family or a
    hand-built one whose causes are atoms, negations and conjunctions or
    disjunctions of two atoms, with its index pairs in any order and with
    repeats, so that an effect's rivals need not come in cause-id
    order."""
    data = draw(_replicate_sets())
    tmin = draw(st.integers(1, 3))
    tmax = tmin + draw(st.integers(0, 3))
    if draw(st.booleans()):
        return data, enumerate_pairwise(data.variables, tmin, tmax,
                                        include_negations=draw(st.booleans()))
    atom = st.sampled_from([Atom(v) for v in data.variables])
    cause = st.one_of(atom, st.builds(Not, atom), st.builds(And, atom, atom),
                      st.builds(Or, atom, atom))
    effect = st.one_of(atom, st.builds(Not, atom))
    causes = draw(st.lists(cause, min_size=1, max_size=8, unique=True))
    effects = draw(st.lists(effect, min_size=1, max_size=4, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(causes) - 1),
                                    st.integers(0, len(effects) - 1)),
                          max_size=16))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))
    cause_ix, effect_ix = np.array(draw(st.permutations(pairs)),
                                   dtype=np.int64).reshape(-1, 2).T
    return data, HypothesisFamily(tuple(causes), tuple(effects), cause_ix,
                                  effect_ix, tmin, tmax)


def _assert_same_scores(got, want):
    """Every array of two score tables equal; ``eps`` bit for bit, with
    NaN in the same places."""
    for name in ("num", "den", "marg", "passed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.qual_total == want.qual_total
    nan = np.isnan(want.eps)
    assert np.array_equal(np.isnan(got.eps), nan)
    assert np.array_equal(got.eps[~nan].view(np.int64),
                          want.eps[~nan].view(np.int64))


class TestCauseSideScoring:
    """The scorer against the per-effect scorer it replaced."""

    @pytest.mark.parametrize("chunk", [None, 1, 7])
    @settings(max_examples=150, deadline=None)
    @given(case=_scoring_cases(), min_support=st.sampled_from([1, 2, 3]),
           divisor=st.sampled_from(["defined", "strict"]))
    def test_matches_per_effect_scorer(self, chunk, case, min_support,
                                       divisor):
        data, hyps = case
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(causal, "_CHUNK", chunk)
            _assert_same_scores(
                score_hypotheses(data, hyps, divisor, min_support),
                oracles.per_effect_scores(data, hyps, divisor, min_support))

    def test_rivals_out_of_cause_order_and_repeated(self):
        rng = np.random.default_rng(4)
        atoms = ("a", "b", "c", "e")
        values = rng.random((4, 200)) < 0.3
        values[3, 1:] |= values[0, :-1] | values[1, :-1]  # a and b raise e
        data = TraceSet((Trace(atoms, values),
                         Trace(atoms, np.ones((4, 2), dtype=bool))))
        a, b, c, e = map(Atom, atoms)
        # c ~> a, a | b ~> e, b ~> e, !c ~> e, a ~> e, b ~> e, a & b ~> e,
        # a ~> c
        family = HypothesisFamily(
            (c, Or(a, b), b, Not(c), a, And(a, b)), (a, e, c),
            np.array([0, 1, 2, 3, 4, 2, 5, 4]),
            np.array([0, 1, 1, 1, 1, 1, 1, 2]), 1, 2)
        for divisor in ("defined", "strict"):
            got = score_hypotheses(data, family, divisor)
            _assert_same_scores(got, oracles.per_effect_scores(data, family,
                                                               divisor))
        # e's rivals come out of cause-id order, and b's passer repeats
        rivals = family.cause_ix[got.passed & (family.effect_ix == 1)]
        assert len(rivals) >= 4 and (np.diff(rivals) < 0).any()
        assert list(rivals).count(family.cause_ix[2]) == 2
        assert not np.isnan(got.eps[got.passed]).all()
        for chunk in (None, 1, 7):
            with pytest.MonkeyPatch.context() as patch:
                if chunk is not None:
                    patch.setattr(causal, "_CHUNK", chunk)
                _assert_matches_per_pair_functions(patch, data, 1, 2, family)

    def test_every_replicate_shorter_than_tmax(self):
        data = TraceSet((Trace(("a", "e"), np.ones((2, 3), dtype=bool)),
                         Trace(("a", "e"), np.zeros((2, 4), dtype=bool))))
        hyps = enumerate_pairwise(data.variables, 2, 4)
        got = score_hypotheses(data, hyps)
        _assert_same_scores(got, oracles.per_effect_scores(data, hyps))
        assert got.qual_total == 0 and not got.passed.any()


class TestDivisorArithmetic:
    def test_reduce_rule(self):
        from oracles import EpsilonTerm, _reduce_terms
        terms = [EpsilonTerm(Atom("x1"), 0.4, True),
                 EpsilonTerm(Atom("x2"), 0.2, True)]
        assert _reduce_terms(terms, "defined", 3) == pytest.approx(0.3)
        assert _reduce_terms(terms, "strict", 3) == pytest.approx(0.2)
        single = [EpsilonTerm(Atom("x1"), 0.7, True)]
        assert _reduce_terms(single, "defined", 2) == pytest.approx(0.7)
        undefined = [EpsilonTerm(Atom("x1"), None, False)]
        assert _reduce_terms(undefined, "defined", 2) is None
        assert _reduce_terms(undefined, "strict", 2) == 0.0
        assert _reduce_terms([], "defined", 1) is None

    def test_package_average_rule(self):
        # the same cases through the scorer's own rule; each row's first
        # column is the passer itself, whose term is never defined, and
        # padding past the rivals is undefined +0.0
        def average(values, defined, divisor, pad=0):
            row = np.array([values + [0.0] * pad])
            mask = np.array([defined + [False] * pad])
            eps = float(causal._average(row, mask, divisor,
                                        np.array([len(values)]))[0])
            return None if np.isnan(eps) else eps
        two = ([0.0, 0.4, 0.2], [False, True, True])
        for pad in (0, 2):
            assert average(*two, "defined", pad) == pytest.approx(0.3)
            assert average(*two, "strict", pad) == pytest.approx(0.2)
        assert average([0.0, 0.7], [False, True], "defined") == \
            pytest.approx(0.7)
        undefined = ([0.0, 0.0], [False, False])
        assert average(*undefined, "defined") is None
        assert average(*undefined, "strict") == 0.0
        assert average([0.0], [False], "defined") is None
