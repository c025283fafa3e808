"""Seeded random formula generator for round-trip testing.

Produces structurally valid state formulæ, including probability-bounded
untils, leads-to forms with path operands, and atoms that collide with
operator letters (A, E, F, G, U, W) to stress the parser's disambiguation.
"""

import random

from tlcausal.pctl import (INFINITY, And, Atom, Implies, LeadsTo, Not, Or,
                           ProbBound, Until)

ATOM_POOL = ("a", "b", "c", "d", "a_up", "b_down", "x1", "y_2",
             "A", "E", "F", "G", "U", "W", "true", "false")


def random_time(rng):
    return INFINITY if rng.random() < 0.25 else rng.randrange(0, 9)


def random_prob(rng):
    # the small ones print with an exponent
    return rng.choice((0.0, 1.0, 0.5, 1e-05, 5e-324, 2.5e-300,
                       round(rng.random(), 4)))


def random_state(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        return Atom(rng.choice(ATOM_POOL))
    kind = rng.randrange(6)
    if kind == 0:
        return Not(random_state(rng, depth - 1))
    if kind == 1:
        return And(random_state(rng, depth - 1), random_state(rng, depth - 1))
    if kind == 2:
        return Or(random_state(rng, depth - 1), random_state(rng, depth - 1))
    if kind == 3:
        return Implies(random_state(rng, depth - 1),
                       random_state(rng, depth - 1))
    if kind == 4:
        return ProbBound(random_path_or_state(rng, depth - 1),
                         rng.choice((">=", ">")), random_prob(rng))
    tmin = rng.randrange(1, 5)
    tmax = INFINITY if rng.random() < 0.2 else tmin + rng.randrange(0, 5)
    return ProbBound(
        LeadsTo(random_path_or_state(rng, depth - 1),
                random_path_or_state(rng, depth - 1), tmin, tmax),
        rng.choice((">=", ">")), random_prob(rng))


def random_path_or_state(rng, depth):
    if depth > 0 and rng.random() < 0.35:
        weak = rng.random() >= 0.5
        return Until(random_state(rng, depth - 1),
                     random_state(rng, depth - 1), random_time(rng), weak)
    return random_state(rng, depth)


def random_formula(seed_or_rng, depth=4):
    rng = (seed_or_rng if isinstance(seed_or_rng, random.Random)
           else random.Random(seed_or_rng))
    return random_state(rng, depth)
