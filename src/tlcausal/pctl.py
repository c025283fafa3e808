"""Probabilistic temporal logic formulæ: syntax tree, parser, printer.

State formulæ are atoms, boolean combinations, and probability-bounded path
formulæ.  Path formulæ are the bounded until ``U`` and its weak form ``W``
(the "unless": the left operand may persist for the whole bound without the
right ever holding), one node :class:`Until` with ``weak`` set for ``W``, and
the windowed ``~>`` ("leads-to": whenever the left side holds, the right side
follows within ``[tmin, tmax]`` ticks).

Concrete grammar (whitespace-insensitive)::

    formula := term [ "~>" "{" ">=" INT "," "<=" TIME "}" pbound term ]
    term    := state [ ("U" | "W") tbound state ]
    state   := boolean expression, precedence  !  >  &  >  |  >  ->
               ("->" is right-associative, "&"/"|" left-associative)
    primary := "true" | "false" | IDENT | "!" primary | "(" formula ")"
             | "[" term "]" pbound | quant
    quant   := ("A" | "E") [("F" | "G") [tbound]] unary
             | ("F" | "G") [tbound] [pbound] unary
    tbound  := "{" "<=" TIME "}"
    pbound  := "{" (">=" | ">") FLOAT "}"
    TIME    := INT | "inf"
    FLOAT   := INT [ "." INT ] [ ("e" | "E") [ "+" | "-" ] INT ]

``IDENT`` is ``[A-Za-z_][A-Za-z0-9_]*``, ``INT`` a run of ASCII digits, and
``FLOAT``, in ASCII digits too, lies in [0, 1] and may carry an exponent.
``true`` and ``false`` are built-in atoms.  ``U W A E F G`` act as operators
only where an operator can appear, so single-letter variable names (common in
spike-train data) still parse as atoms in operand positions.

Quantifier sugar expands on parsing:

    A f  ->  [f]{>=1}          E f  ->  [f]{>0}
    F f  ->  [true U{<=inf} f]{>=1}
    G f  ->  [f W{<=inf} false]{>=1}

``G`` expands through the weak until: with the strong until the expansion
``f U false`` would be unsatisfiable, so "holds forever" needs ``W``.
A probability bound whose inner formula is a plain state formula (as produced
by ``A f``) is read as a degenerate path of length zero.

Nodes check their numbers when built, ``parse`` or not, and raise
:class:`FormulaParseError` on a bad one, so no tree holds one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .errors import FormulaParseError

__all__ = [
    "Formula", "StateFormula", "PathFormula",
    "Atom", "Not", "And", "Or", "Implies", "ProbBound",
    "Until", "LeadsTo",
    "TimeBound", "INFINITY", "TRUE", "FALSE",
    "parse", "print_formula",
]

#: A time bound is a nonnegative integer tick count or ``INFINITY``.
TimeBound = Union[int, float]
INFINITY: TimeBound = math.inf


class Formula:
    """Base class for all formula nodes.  Instances are immutable."""

    __slots__ = ()

    def __str__(self):
        return print_formula(self)


class StateFormula(Formula):
    __slots__ = ()


class PathFormula(Formula):
    __slots__ = ()


@dataclass(frozen=True)
class Atom(StateFormula):
    name: str


@dataclass(frozen=True)
class Not(StateFormula):
    operand: Formula


@dataclass(frozen=True)
class And(StateFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(StateFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(StateFormula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ProbBound(StateFormula):
    """``[path]{cmp p}``: the path probability satisfies the comparison.

    ``path`` may also be a state formula, read as a zero-length path whose
    probability is 1 where the formula holds and 0 elsewhere.
    """

    path: Formula
    comparison: str  # ">=" or ">"
    p: float

    def __post_init__(self):
        if self.comparison not in (">=", ">"):
            raise FormulaParseError(
                f"comparison must be '>=' or '>', not {self.comparison!r}")
        if not (isinstance(self.p, (int, float)) and 0.0 <= self.p <= 1.0):
            raise FormulaParseError(f"probability out of range: {self.p!r}")


@dataclass(frozen=True)
class Until(PathFormula):
    """``left U{<=tmax} right``: right within tmax ticks, left holding before;
    with ``weak``, ``left W{<=tmax} right``, or left holds the whole bound."""

    left: Formula
    right: Formula
    tmax: TimeBound
    weak: bool = False

    def __post_init__(self):
        _check_time(self.tmax)


@dataclass(frozen=True)
class LeadsTo(PathFormula):
    """``left ~>{>=tmin,<=tmax} right``: whenever left holds, right follows
    after at least ``tmin`` and at most ``tmax`` ticks.  Operands may be state
    formulæ or bare until path formulæ, strong or weak."""

    left: Formula
    right: Formula
    tmin: int
    tmax: TimeBound

    def __post_init__(self):
        _check_time(self.tmax)
        if not (type(self.tmin) is int and 1 <= self.tmin <= self.tmax):
            raise FormulaParseError(
                f"leads-to window needs 1 <= tmin <= tmax, not "
                f"[{self.tmin!r}, {self.tmax!r}]")


def _check_time(t):
    if not (t == INFINITY or (type(t) is int and t >= 0)):
        raise FormulaParseError(
            f"time bound must be a nonnegative integer or inf, not {t!r}")


TRUE = Atom("true")
FALSE = Atom("false")


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>~>|->|<=|>=|>|!|&|\||\(|\)|\[|\]|\{|\}|,)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER | IDENT | OP | EOF
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_QUANTIFIERS = {"A", "E", "F", "G"}
_PATH_OPS = {"U", "W"}
# The binary connectives, loosest first: (node, symbol, right-associative).
_BINARY = ((Implies, "->", True), (Or, "|", False), (And, "&", False))


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    # -- token helpers

    @property
    def cur(self):
        return self.tokens[self.i]

    def peek(self, ahead=1):
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self):
        tok = self.cur
        self.i += 1
        return tok

    def at_op(self, text):
        return self.cur.kind == "OP" and self.cur.text == text

    def expect_op(self, text):
        if not self.at_op(text):
            raise FormulaParseError(
                f"expected {text!r}, found {self.cur.text or 'end of input'!r}",
                self.cur.pos)
        return self.advance()

    def fail(self, message):
        raise FormulaParseError(message, self.cur.pos)

    # -- literals

    def parse_int(self, what):
        tok = self.cur
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            self.fail(f"expected integer {what}")
        self.advance()
        return int(tok.text)

    def parse_time(self):
        tok = self.cur
        if tok.kind == "IDENT" and tok.text == "inf":
            self.advance()
            return INFINITY
        return self.parse_int("time bound")

    def parse_prob(self):
        tok = self.cur
        if tok.kind != "NUMBER":
            self.fail("expected probability literal")
        value = float(tok.text)
        if not 0.0 <= value <= 1.0:
            raise FormulaParseError(
                f"probability literal out of range: {tok.text}", tok.pos)
        self.advance()
        return value

    # -- braced bounds

    def brace_starts(self, comparators):
        """True when the upcoming tokens are '{' followed by one of the
        comparators (distinguishes a time bound from a probability bound)."""
        return (self.at_op("{") and self.peek().kind == "OP"
                and self.peek().text in comparators)

    def parse_tbound(self):
        self.expect_op("{")
        self.expect_op("<=")
        t = self.parse_time()
        self.expect_op("}")
        return t

    def parse_pbound(self):
        self.expect_op("{")
        if not (self.cur.kind == "OP" and self.cur.text in (">=", ">")):
            self.fail("expected '>=' or '>' in probability bound")
        cmp = self.advance().text
        p = self.parse_prob()
        self.expect_op("}")
        return cmp, p

    # -- grammar

    def parse_formula(self):
        left = self.parse_term()
        if self.at_op("~>"):
            self.advance()
            self.expect_op("{")
            self.expect_op(">=")
            tmin = self.parse_int("window lower bound")
            self.expect_op(",")
            self.expect_op("<=")
            tmax = self.parse_time()
            self.expect_op("}")
            cmp, p = self.parse_pbound()
            right = self.parse_term()
            return ProbBound(LeadsTo(left, right, tmin, tmax), cmp, p)
        if isinstance(left, PathFormula):
            self.fail("path formula needs a probability bound "
                      "('[...]{>=p}') or a leads-to continuation")
        return left

    def parse_term(self):
        left = self.parse_binary()
        if self.cur.kind == "IDENT" and self.cur.text in _PATH_OPS:
            op = self.advance().text
            tmax = self.parse_tbound()
            right = self.parse_binary()
            return Until(left, right, tmax, op == "W")
        return left

    def parse_binary(self, level=0):
        """The connectives of ``_BINARY[level:]``, then unary operands."""
        if level == len(_BINARY):
            return self.parse_unary()
        cls, symbol, right_assoc = _BINARY[level]
        left = self.parse_binary(level + 1)
        while self.at_op(symbol):
            self.advance()
            left = cls(left, self.parse_binary(level + (not right_assoc)))
        return left

    def parse_unary(self):
        if self.at_op("!"):
            self.advance()
            return Not(self.parse_unary())
        return self.parse_primary()

    def _ident_is_quantifier(self):
        """An A/E/F/G token acts as a quantifier only when followed by
        something that can start its operand; otherwise it is an atom.
        ``A U{...`` reads the A as an atom: the U there is a path operator."""
        if self.cur.kind != "IDENT" or self.cur.text not in _QUANTIFIERS:
            return False
        nxt = self.peek()
        if nxt.kind == "IDENT":
            if (nxt.text in _PATH_OPS and self.peek(2).kind == "OP"
                    and self.peek(2).text == "{"):
                return False
            return True
        return nxt.kind == "OP" and nxt.text in ("!", "(", "[", "{")

    def parse_primary(self):
        tok = self.cur
        if self.at_op("("):
            self.advance()
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        if self.at_op("["):
            self.advance()
            inner = self.parse_term()
            self.expect_op("]")
            cmp, p = self.parse_pbound()
            return ProbBound(inner, cmp, p)
        if self._ident_is_quantifier():
            return self.parse_quant()
        if tok.kind == "IDENT":
            self.advance()
            return Atom(tok.text)
        self.fail(f"expected a formula, found {tok.text or 'end of input'!r}")

    def parse_quant(self):
        """``A``/``E`` bound a unary operand or an ``F``/``G``, which then
        takes no bound of its own; ``F``/``G`` default to ``{>=1}``."""
        q = outer = self.advance().text
        bound = {"A": (">=", 1.0), "E": (">", 0.0)}.get(outer)
        if bound is not None:
            if not (self._ident_is_quantifier()
                    and self.cur.text in ("F", "G")):
                return ProbBound(self.parse_unary(), *bound)
            q = self.advance().text
        tmax = self.parse_tbound() if self.brace_starts(("<=",)) else INFINITY
        if self.brace_starts((">=", ">")):
            if bound is not None:
                self.fail(f"'{q}' under '{outer}' cannot carry its own "
                          "probability bound")
            bound = self.parse_pbound()
        operand = self.parse_unary()
        path = (Until(TRUE, operand, tmax) if q == "F"
                else Until(operand, FALSE, tmax, True))
        return ProbBound(path, *(bound or (">=", 1.0)))


def parse(text):
    """Parse a formula string into its syntax tree.

    Raises :class:`FormulaParseError` on syntax errors (with position), on
    probability literals outside [0, 1] and on leads-to windows without
    ``1 <= tmin <= tmax``.
    """
    parser = _Parser(text)
    formula = parser.parse_formula()
    if parser.cur.kind != "EOF":
        parser.fail(f"unexpected trailing input {parser.cur.text!r}")
    return formula


# ---------------------------------------------------------------------------
# Printer

def _prec(f):
    """Binding strength: a connective's level in ``_BINARY``, then ``!``,
    then every other node."""
    for level, (cls, _, _) in enumerate(_BINARY):
        if isinstance(f, cls):
            return level
    return len(_BINARY) + (not isinstance(f, Not))


def _fmt_time(t):
    return "inf" if t == INFINITY else str(int(t))


def _fmt_pbound(cmp, p):
    return "{%s%r}" % (cmp, float(p))


def _fmt_state(f, min_prec):
    text = print_formula(f)
    if isinstance(f, ProbBound) and isinstance(f.path, LeadsTo):
        return "(" + text + ")"  # leads-to binds loosest; isolate in operands
    if _prec(f) < min_prec:
        return "(" + text + ")"
    return text


def _fmt_operand(f):
    """An operand of U / W / ~> or the inside of brackets: bare path text
    for a nested until (legal only under a leads-to), state text with
    parens around embedded leads-to bounds."""
    if isinstance(f, Until):
        return print_formula(f)
    return _fmt_state(f, 0)


def _fmt_leads_to(lead, bound=""):
    return "%s ~>{>=%d,<=%s}%s %s" % (
        _fmt_operand(lead.left), lead.tmin, _fmt_time(lead.tmax), bound,
        _fmt_operand(lead.right))


def print_formula(f):
    """Render a formula in canonical concrete syntax.

    For any state formula, ``parse(print_formula(f))`` reproduces ``f``
    node for node.  Bare path formulæ render without an enclosing bound
    (useful for messages) and are not round-trippable on their own.
    """
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _fmt_state(f.operand, len(_BINARY))
    for level, (cls, symbol, right_assoc) in enumerate(_BINARY):
        if isinstance(f, cls):  # the associative side may go bare
            return "%s %s %s" % (
                _fmt_state(f.left, level + right_assoc), symbol,
                _fmt_state(f.right, level + (not right_assoc)))
    if isinstance(f, ProbBound):
        bound = _fmt_pbound(f.comparison, f.p)
        if isinstance(f.path, LeadsTo):
            return _fmt_leads_to(f.path, bound)
        return "[%s]%s" % (_fmt_operand(f.path), bound)
    if isinstance(f, Until):
        return "%s %s{<=%s} %s" % (
            _fmt_operand(f.left), "W" if f.weak else "U",
            _fmt_time(f.tmax), _fmt_operand(f.right))
    if isinstance(f, LeadsTo):
        # a bare leads-to has no probability bound; printable for debugging
        return _fmt_leads_to(f)
    raise TypeError(f"not a formula node: {f!r}")
