"""
Writing and checking temporal logic formulæ
===========================================

A tour of the formula language: atoms, boolean connectives, bounded
until/unless, probability bounds, and the windowed leads-to operator.
"""

from tlcausal import FormulaParseError, parse, print_formula

# Atoms are plain identifiers; boolean structure looks like C.
f = parse("a_up & !b_down -> c_up")
print("parsed:   ", f)

# Bounded until: b within 5 ticks, a holding in the meantime, with
# probability at least 0.8.
f = parse("[a U{<=5} b]{>=0.8}")
print("until:    ", f)

# The weak form (W) lets a persist the whole bound without b ever holding.
f = parse("[a W{<=5} b]{>=0.8}")
print("unless:   ", f)

# The leads-to operator is the workhorse for causal hypotheses: whenever
# the left side holds, the right side follows within the tick window.
f = parse("spike_A ~>{>=20,<=40}{>=0.9} spike_B")
print("leads-to: ", f)

# Quantifier shorthand expands at parse time.
print()
print("A f  ->", parse("A f"))
print("E f  ->", parse("E f"))
print("F f  ->", parse("F f"))
print("G f  ->", parse("G f"))

# Compound causes are fine on either side of the window: this is the shape
# used for jointly-regulated gene modules.
f = parse("(a_up & b_down) U{<=inf} c_up ~>{>=1,<=4}{>=0.9} d_up")
print()
print("compound: ", f)

# print_formula is the canonical renderer; parsing it back reproduces the
# tree node for node.
assert parse(print_formula(f)) == f

# Formulae are checked as they are built: a leads-to window needs
# 1 <= tmin <= tmax, a probability lies in [0, 1], so parse refuses these.
print()
for text in ("a ~>{>=0,<=4}{>=0.5} b", "a ~>{>=5,<=2}{>=0.5} b",
             "[a U{<=3} b]{>=1.5}"):
    try:
        parse(text)
    except FormulaParseError as exc:
        print(f"refused {text!r}: {exc}")
