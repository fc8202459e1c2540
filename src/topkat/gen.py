"""Seeded random generation of terms, relations, and interpretations.

Used by the test suite and the experiment scripts; everything is driven
by an explicit `random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random

from .relmodel import Relation, RelInterpretation
from .syntax import Act, Alphabet, Dot, Not, ONE, Plus, Star, Term, Test, TOP, ZERO


def random_test_term(rng: random.Random, alphabet: Alphabet, max_depth: int) -> Term:
    leaves: list[Term] = [ZERO, ONE] + [Test(b) for b in alphabet.tests]
    if max_depth <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.4:
        return rng.choice(leaves)
    if roll < 0.6:
        return Not(random_test_term(rng, alphabet, max_depth - 1))
    op = Plus if roll < 0.8 else Dot
    return op(random_test_term(rng, alphabet, max_depth - 1),
              random_test_term(rng, alphabet, max_depth - 1))


def random_term(rng: random.Random, alphabet: Alphabet, max_depth: int,
                allow_top: bool = False) -> Term:
    leaves: list[Term] = [ZERO, ONE]
    leaves += [Act(p) for p in alphabet.actions]
    leaves += [Test(b) for b in alphabet.tests]
    if allow_top:
        leaves.append(TOP)
    if max_depth <= 0:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(leaves)
    if roll < 0.55:
        return Plus(random_term(rng, alphabet, max_depth - 1, allow_top),
                    random_term(rng, alphabet, max_depth - 1, allow_top))
    if roll < 0.8:
        return Dot(random_term(rng, alphabet, max_depth - 1, allow_top),
                   random_term(rng, alphabet, max_depth - 1, allow_top))
    if roll < 0.92:
        return Star(random_term(rng, alphabet, max_depth - 1, allow_top))
    return Not(random_test_term(rng, alphabet, min(2, max_depth - 1)))


def random_relation(rng: random.Random, n: int) -> Relation:
    return Relation(n, rng.getrandbits(n * n))


def random_interpretation(rng: random.Random, n: int,
                          alphabet: Alphabet) -> RelInterpretation:
    actions = {name: random_relation(rng, n) for name in alphabet.actions}
    tests = {name: Relation.diagonal(n, rng.getrandbits(n)) for name in alphabet.tests}
    return RelInterpretation(n, actions, tests)
