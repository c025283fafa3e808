import random

import pytest

from formula_gen import random_formula
from tlcausal.errors import FormulaParseError
from tlcausal.pctl import (INFINITY, And, Atom, Implies, LeadsTo, Not, Or,
                           ProbBound, Until, parse, print_formula)


class TestParse:
    def test_single_atom(self):
        assert parse("a") == Atom("a")

    def test_gene_regulation_example(self):
        f = parse("(a_up & b_down) U{<=inf} c_up ~>{>=1,<=4}{>=0.9} d_up")
        assert f == ProbBound(
            LeadsTo(Until(And(Atom("a_up"), Atom("b_down")),
                          Atom("c_up"), INFINITY),
                    Atom("d_up"), 1, 4),
            ">=", 0.9)

    def test_occurrence_condition(self):
        f = parse("F{<=inf}{>0} c")
        assert f == ProbBound(Until(Atom("true"), Atom("c"), INFINITY),
                              ">", 0.0)

    def test_booleans(self):
        assert parse("a & b | !c") == Or(And(Atom("a"), Atom("b")),
                                         Not(Atom("c")))
        assert parse("a -> b -> c") == Implies(Atom("a"),
                                               Implies(Atom("b"), Atom("c")))
        assert parse("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_until_binds_loosest(self):
        f = parse("[a & b U{<=3} c]{>0}")
        assert f == ProbBound(Until(And(Atom("a"), Atom("b")), Atom("c"), 3),
                              ">", 0.0)

    def test_bracket_bound(self):
        f = parse("[a U{<=2} b]{>=0.5}")
        assert f == ProbBound(Until(Atom("a"), Atom("b"), 2), ">=", 0.5)

    def test_unless(self):
        f = parse("[a W{<=3} b]{>0.1}")
        assert f == ProbBound(Until(Atom("a"), Atom("b"), 3, True), ">", 0.1)
        assert print_formula(f) == "[a W{<=3} b]{>0.1}"

    def test_leads_to_window(self):
        f = parse("a ~>{>=20,<=40}{>=0.5} b")
        assert f == ProbBound(LeadsTo(Atom("a"), Atom("b"), 20, 40),
                              ">=", 0.5)

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaParseError) as err:
            parse("a & & b")
        assert "position" in str(err.value)

    def test_probability_out_of_range(self):
        with pytest.raises(FormulaParseError, match="out of range"):
            parse("[a U{<=2} b]{>=1.5}")

    @pytest.mark.parametrize("text", [
        "[a U{<=٣} b]{>=0.5}",  # Arabic-Indic 3: time bound
        "[a U{<=3} b]{>=٠.٥}",  # Arabic-Indic 0.5: probability
        "[a U{<=３} b]{>=0.5}",  # full-width 3: time bound
        "[a U{<=3} b]{>=０.５}",  # full-width 0.5: probability
        "a ~>{>=١,<=4}{>=0.5} b",  # Arabic-Indic 1: window start
        "a ~>{>=1,<=４}{>=0.5} b",  # full-width 4: window end
        "[a U{<=1٣} b]{>=0.5}",  # an ASCII digit, then another
    ])
    def test_numbers_are_ascii_digits(self, text):
        with pytest.raises(FormulaParseError, match="unexpected character"):
            parse(text)

    def test_trailing_garbage(self):
        with pytest.raises(FormulaParseError):
            parse("a b")

    def test_bare_path_rejected(self):
        with pytest.raises(FormulaParseError):
            parse("a U{<=2} b")


class TestSugar:
    def test_universal(self):
        assert parse("A f") == parse("[f]{>=1}")

    def test_existential(self):
        assert parse("E f") == parse("[f]{>0}")

    def test_finally(self):
        assert parse("F f") == parse("[true U{<=inf} f]{>=1.0}")

    def test_globally_uses_weak_until(self):
        # strong until would make 'holds forever' unsatisfiable
        assert parse("G f") == parse("[f W{<=inf} false]{>=1.0}")

    def test_quantifier_combinations(self):
        assert parse("A F x") == ProbBound(
            Until(Atom("true"), Atom("x"), INFINITY), ">=", 1.0)
        assert parse("E G{<=5} x") == ProbBound(
            Until(Atom("x"), Atom("false"), 5, True), ">", 0.0)
        assert parse("F{<=7}{>=0.3} x") == ProbBound(
            Until(Atom("true"), Atom("x"), 7), ">=", 0.3)

    def test_operator_letters_stay_atoms_in_operand_positions(self):
        assert parse("A ~>{>=1,<=2}{>=0.5} B") == ProbBound(
            LeadsTo(Atom("A"), Atom("B"), 1, 2), ">=", 0.5)
        assert parse("[A U{<=2} F]{>0}") == ProbBound(
            Until(Atom("A"), Atom("F"), 2), ">", 0.0)
        assert parse("G & b") == And(Atom("G"), Atom("b"))


class TestPrint:
    def test_atom(self):
        assert print_formula(Atom("a")) == "a"

    def test_forced_parens(self):
        assert print_formula(Not(And(Atom("a"), Atom("b")))) == "!(a & b)"

    def test_canonical_leads_to(self):
        s = "a ~>{>=20,<=40}{>=0.5} b"
        assert print_formula(parse(s)) == s

    def test_roundtrip_examples(self):
        for s in ("a", "!a & b", "a -> (b | c)",
                  "[a U{<=2} b]{>=0.5}",
                  "(a_up & b_down) U{<=inf} c_up ~>{>=1,<=4}{>=0.9} d_up"):
            assert parse(print_formula(parse(s))) == parse(s)

    @pytest.mark.parametrize("p", [1e-05, 5e-324, 2.5e-300])
    def test_small_probability_roundtrips(self, p):
        f = ProbBound(Until(Atom("a"), Atom("b"), 2), ">=", p)
        assert print_formula(f) == f"[a U{{<=2}} b]{{>={p!r}}}"
        assert parse(print_formula(f)) == f
        # an exponent is for probabilities only
        with pytest.raises(FormulaParseError, match="expected integer"):
            parse(f"[a U{{<=1e3}} b]{{>={p!r}}}")

    def test_roundtrip_random(self):
        rng = random.Random(20240917)
        for _ in range(500):
            f = random_formula(rng)
            assert parse(print_formula(f)) == f


class TestValidate:
    """Nodes check their own numbers when built, so ``parse`` refuses a bad
    window itself and no tree holds a bad number."""

    def test_probability_out_of_range(self):
        for p in (1.5, -0.1, float("nan"), "0.5", None):
            with pytest.raises(FormulaParseError,
                               match="probability out of range"):
                ProbBound(Atom("a"), ">=", p)
        for cmp in ("<=", "=", None):
            with pytest.raises(FormulaParseError, match="comparison"):
                ProbBound(Atom("a"), cmp, 0.5)
        assert ProbBound(Atom("a"), ">", 1).p == 1

    def test_leads_to_tmin_floor(self):
        with pytest.raises(FormulaParseError, match="1 <= tmin <= tmax"):
            LeadsTo(Atom("a"), Atom("b"), 0, 4)
        with pytest.raises(FormulaParseError, match=r"not \[0, 4\]"):
            parse("a ~>{>=0,<=4}{>=0.5} b")

    def test_gene_regulation_formula_is_clean(self):
        f = parse("(a_up & b_down) U{<=inf} c_up ~>{>=1,<=4}{>=0.9} d_up")
        assert (f.path.tmin, f.path.tmax, f.path.left.tmax) == (1, 4, INFINITY)

    def test_window_ordering(self):
        with pytest.raises(FormulaParseError, match=r"not \[5, 2\]"):
            LeadsTo(Atom("a"), Atom("b"), 5, 2)
        with pytest.raises(FormulaParseError, match="1 <= tmin <= tmax"):
            parse("a ~>{>=5,<=2}{>=0.5} b")
        for tmin in (True, 1.0, "1", INFINITY):
            with pytest.raises(FormulaParseError, match="1 <= tmin <= tmax"):
                LeadsTo(Atom("a"), Atom("b"), tmin, INFINITY)
        assert LeadsTo(Atom("a"), Atom("b"), 3, 3).tmax == 3

    def test_negative_time_bound(self):
        for t in (-1, 1.5, True, float("nan"), "3", None):
            for make in (lambda t: Until(Atom("a"), Atom("b"), t),
                         lambda t: Until(Atom("a"), Atom("b"), t, True),
                         lambda t: LeadsTo(Atom("a"), Atom("b"), 1, t)):
                with pytest.raises(FormulaParseError, match="time bound"):
                    make(t)
        assert Until(Atom("a"), Atom("b"), 0).tmax == 0
        assert Until(Atom("a"), Atom("b"), INFINITY, True).tmax == INFINITY

    def test_refusal_names_the_value(self):
        # the inner node refuses, so the conjunction is never built
        with pytest.raises(FormulaParseError, match="out of range: 2.0"):
            And(Atom("x"), ProbBound(Atom("a"), ">=", 2.0))

    def test_valid_random_formulas(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng)
            assert parse(print_formula(f)) == f


def test_bare_quantifier_letter_is_an_atom():
    assert parse("A") == Atom("A")
    assert parse("F") == Atom("F")
