from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_traceset, traceset_from_marks
from oracles import epsilon_avg, epsilon_x, prima_facie_test
from tlcausal import causal
from tlcausal.causal import (Hypothesis, HypothesisFamily, enumerate_pairwise,
                             score_hypotheses)
from tlcausal.errors import CheckError
from tlcausal.pctl import And, Atom, Not
from tlcausal.traces import Trace, TraceSet


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_pairwise(["a", "b", "c"], 1, 2)) == 6
        atoms = [f"v{i}" for i in range(26)]
        assert len(enumerate_pairwise(atoms, 20, 40)) == 650

    def test_negations_double_the_causes(self):
        got = enumerate_pairwise(["a", "b"], 1, 1, include_negations=True)
        assert len(got) == 4
        assert got[2].cause == Not(Atom("a"))

    def test_window_carried(self):
        h = enumerate_pairwise(["a", "b"], 20, 40)[0]
        assert (h.tmin, h.tmax) == (20, 40)

    def test_invalid_window(self):
        with pytest.raises(CheckError):
            Hypothesis(Atom("a"), Atom("b"), 0, 4)
        with pytest.raises(CheckError):
            enumerate_pairwise(["a", "b"], 3, 2)

    @pytest.mark.parametrize("negations", [False, True])
    @pytest.mark.parametrize("n_atoms", [1, 2, 5])
    def test_matches_hypothesis_loop(self, n_atoms, negations):
        atoms = [f"v{i}" for i in range(n_atoms)]
        family = enumerate_pairwise(atoms, 2, 4, include_negations=negations)
        want = oracles.pairwise_hypotheses(atoms, 2, 4, negations)
        assert list(family) == want
        assert [family[i] for i in range(len(want))] == want
        assert list(family[1:-1]) == want[1:-1]
        assert list(family[::-2]) == want[::-2]
        assert list(HypothesisFamily.of(want)) == want
        assert HypothesisFamily.of(family) is family

    def test_duplicate_atoms(self):
        with pytest.raises(CheckError, match="duplicate"):
            enumerate_pairwise(["a", "b", "a"], 1, 1)


class TestPrimaFacie:
    def test_periodic_example(self):
        data = traceset_from_marks(("c", "e"), 20,
                                   {"c": [0, 5, 10, 15], "e": [1, 6, 11, 16]})
        res = prima_facie_test(data, Hypothesis(Atom("c"), Atom("e"), 1, 1))
        assert res.p_cond.probability == 1.0
        assert (res.p_marginal.numerator, res.p_marginal.denominator) == (4, 19)
        assert res.passed

    def test_cause_never_occurs(self):
        data = traceset_from_marks(("c", "e"), 10, {"e": [1]})
        res = prima_facie_test(data, Hypothesis(Atom("c"), Atom("e"), 1, 1))
        assert not res.occurred and not res.passed

    def test_exact_tie_fails(self):
        # e holds everywhere: conditional and marginal are both 1
        data = traceset_from_marks(("c", "e"), 10,
                                   {"c": [2, 4], "e": list(range(10))})
        res = prima_facie_test(data, Hypothesis(Atom("c"), Atom("e"), 1, 2))
        assert res.p_cond.probability == res.p_marginal.probability == 1.0
        assert not res.passed

    def test_censored_window_is_not_a_fault(self):
        data = traceset_from_marks(("c", "e"), 5, {"c": [4], "e": [1]})
        res = prima_facie_test(data, Hypothesis(Atom("c"), Atom("e"), 1, 2))
        assert res.occurred and not res.passed
        assert res.p_cond.denominator == 0

    def test_relabeling_uninvolved_atom_is_irrelevant(self):
        marks = {"c": [0, 5, 10], "e": [1, 6, 11], "z": [3, 7]}
        d1 = traceset_from_marks(("c", "e", "z"), 15, marks)
        marks2 = dict(marks)
        marks2["w"] = marks2.pop("z")
        d2 = traceset_from_marks(("c", "e", "w"), 15, marks2)
        h = Hypothesis(Atom("c"), Atom("e"), 1, 1)
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
    """Score, keeping each effect's (values, defined) term arrays in the
    order the scorer computes them."""
    captured = []
    impact_terms = causal._impact_terms

    def recording(*args, **kwargs):
        out = impact_terms(*args, **kwargs)
        captured.append(out)
        return out

    monkeypatch.setattr(causal, "_impact_terms", recording)
    return score_hypotheses(data, hyps), captured


def _row_terms(terms, by_effect, h):
    """The scorer's (value, defined) terms of ``h`` in rival order, value
    None where undefined, as the per-pair functions report them."""
    rivals = by_effect[h.effect]
    if len(rivals) == 1:
        return []
    values, defined = terms[h.effect]
    i = rivals.index(h.cause)
    return [(float(values[i, k]) if defined[i, k] else None,
             bool(defined[i, k]))
            for k in range(len(rivals)) if k != i]


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


class TestBatchedScoring:
    def test_matches_per_pair_functions(self, monkeypatch):
        rng = np.random.default_rng(100)
        for _ in range(10):
            data = random_traceset(rng, 4, max_len=60,
                                   n_traces=int(rng.integers(1, 3)))
            tmin = int(rng.integers(1, 3))
            tmax = tmin + int(rng.integers(0, 3))
            hyps = enumerate_pairwise(data.variables, tmin, tmax)
            scores, terms = _score_with_terms(monkeypatch, data, hyps)
            by_effect = {}
            for res in scores:
                single = prima_facie_test(data, res.hypothesis)
                assert single.passed == res.passed
                assert single.p_cond == res.p_cond
                assert single.p_marginal == res.p_marginal
                if res.passed:
                    by_effect.setdefault(res.hypothesis.effect,
                                         []).append(res.hypothesis.cause)
            # the scorer visits the effects with rivals in first-passer order
            with_rivals = [e for e, cs in by_effect.items() if len(cs) > 1]
            assert len(terms) == len(with_rivals)
            terms = dict(zip(with_rivals, terms))
            for record in [r for r in scores if r.passed]:
                h = record.hypothesis
                want = epsilon_avg(data, h.cause, h.effect,
                                   by_effect[h.effect], tmin, tmax)
                assert record.eps_avg == want.eps_avg
                assert _row_terms(terms, by_effect, h) == \
                       [(t.value, t.defined) for t in want.eps_terms]

    @settings(max_examples=150, deadline=None)
    @given(data=_replicate_sets(), tmin=st.integers(1, 3),
           width=st.integers(0, 3), negations=st.booleans(),
           min_support=st.sampled_from([1, 2, 3]),
           divisor=st.sampled_from(["defined", "strict"]))
    def test_matches_oracles_on_random_replicates(self, data, tmin, width,
                                                  negations, min_support,
                                                  divisor):
        tmax = tmin + width
        hyps = enumerate_pairwise(data.variables, tmin, tmax,
                                  include_negations=negations)
        scores = score_hypotheses(data, hyps, divisor=divisor,
                                  min_support=min_support)
        by_effect = {}
        for res in scores:
            single = prima_facie_test(data, res.hypothesis)
            assert res.p_cond == single.p_cond
            assert res.p_marginal == single.p_marginal
            assert res.passed == single.passed
            if res.passed:
                by_effect.setdefault(res.hypothesis.effect,
                                     []).append(res.hypothesis.cause)
        assert len([r for r in scores if r.passed]) == \
               sum(map(len, by_effect.values()))
        for record in [r for r in scores if r.passed]:
            h = record.hypothesis
            want = epsilon_avg(data, h.cause, h.effect, by_effect[h.effect],
                               tmin, tmax, divisor=divisor,
                               min_support=min_support)
            assert record.eps_avg == want.eps_avg

    def test_min_support_below_one_acts_as_one(self):
        # a and b never co-occur: their mutual terms have no ticks at all
        data = traceset_from_marks(("a", "b", "e"), 40,
                                   {"a": [0, 10, 20], "b": [5, 15, 25],
                                    "e": [1, 6, 11, 16, 21, 26]})
        hyps = enumerate_pairwise(data.variables, 1, 1)
        zero = score_hypotheses(data, hyps, min_support=0)
        one = score_hypotheses(data, hyps, min_support=1)
        assert len([r for r in zero if r.passed]) == 2
        assert [r.eps_avg for r in zero if r.passed] == \
               [r.eps_avg for r in one if r.passed]

    def test_negated_causes(self):
        rng = np.random.default_rng(55)
        data = random_traceset(rng, 3, max_len=60)
        hyps = enumerate_pairwise(data.variables, 1, 2,
                                  include_negations=True)
        scores = score_hypotheses(data, hyps)
        for res in scores:
            single = prima_facie_test(data, res.hypothesis)
            assert single.passed == res.passed

    def test_records_in_enumeration_order(self):
        rng = np.random.default_rng(9)
        data = random_traceset(rng, 4, max_len=80)
        hyps = enumerate_pairwise(data.variables, 1, 1)
        scores = score_hypotheses(data, hyps)
        assert [r.hypothesis for r in scores] == list(hyps)
        assert scores[-3:] == list(scores)[-3:]
        assert scores[::-1] == list(scores)[::-1]
        assert list(score_hypotheses(data, [])) == []
        assert all(r.eps_avg is None for r in scores if not r.passed)

    def test_compound_cause_formulas(self):
        data = traceset_from_marks(
            ("a", "b", "e"), 30,
            {"a": [0, 6, 12, 18], "b": [0, 12, 24], "e": [1, 13]})
        h = Hypothesis(And(Atom("a"), Atom("b")), Atom("e"), 1, 1)
        scores = score_hypotheses(data, [h])
        single = prima_facie_test(data, h)
        assert scores[0].p_cond == single.p_cond
        assert scores[0].passed == single.passed


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
        # column is the passer itself, whose term is never defined
        def average(values, defined, divisor):
            return causal._average(np.array([values]), np.array([defined]),
                                   divisor)[0]
        two = ([0.0, 0.4, 0.2], [False, True, True])
        assert average(*two, "defined") == pytest.approx(0.3)
        assert average(*two, "strict") == pytest.approx(0.2)
        assert average([0.0, 0.7], [False, True], "defined") == \
            pytest.approx(0.7)
        undefined = ([0.0, 0.0], [False, False])
        assert average(*undefined, "defined") is None
        assert average(*undefined, "strict") == 0.0
        assert average([0.0], [False], "defined") is None
