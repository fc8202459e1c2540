"""Seeded random generation of terms, relations, and interpretations.

Used by the test suite and the experiment scripts; everything is driven
by an explicit `random.Random` so runs are reproducible.
"""

from __future__ import annotations

import random

from .relmodel import Relation, RelInterpretation
from .syntax import Act, Alphabet, Dot, Not, ONE, Plus, Star, Term, Test, TOP, ZERO


# (bound, constructor) pairs: a node is the first whose bound exceeds its
# roll; None draws a leaf.
_TEST_SHAPES = ((0.4, None), (0.6, Not), (0.8, Plus), (1.0, Dot))
_SHAPES = ((0.35, None), (0.55, Plus), (0.8, Dot), (0.92, Star), (1.0, Not))


def random_test_term(rng: random.Random, alphabet: Alphabet, max_depth: int) -> Term:
    return _grow(rng, alphabet, max_depth, tests=True, allow_top=False)


def random_term(rng: random.Random, alphabet: Alphabet, max_depth: int,
                allow_top: bool = False) -> Term:
    return _grow(rng, alphabet, max_depth, tests=False, allow_top=allow_top)


def _grow(rng: random.Random, alphabet: Alphabet, max_depth: int, tests: bool,
          allow_top: bool) -> Term:
    """Draw a term top-down, left before right: a stack holds the nodes
    still to draw, as (test-only, depth), and the (constructor, arity)
    steps that build a node from the last terms made."""
    made: list[Term] = []
    stack: list[tuple] = [(tests, max_depth)]
    while stack:
        first, second = stack.pop()
        if isinstance(first, type):
            made.append(first(*reversed([made.pop() for _ in range(second)])))
            continue
        tests, depth = first, second
        acts = () if tests else alphabet.actions
        leaves = [ZERO, ONE, *map(Act, acts), *map(Test, alphabet.tests)]
        leaves += [TOP] if allow_top and not tests else []
        roll = rng.random() if depth > 0 else 0.0
        op = next(op for bound, op in (_TEST_SHAPES if tests else _SHAPES) if roll < bound)
        if op is None:
            made.append(rng.choice(leaves))
            continue
        if op is Not:
            kids = [(True, depth - 1 if tests else min(2, depth - 1))]
        else:
            kids = [(tests, depth - 1)] * (1 if op is Star else 2)
        stack.append((op, len(kids)))
        stack.extend(reversed(kids))
    return made[0]


def random_relation(rng: random.Random, n: int) -> Relation:
    return Relation(n, rng.getrandbits(n * n))


def random_interpretation(rng: random.Random, n: int,
                          alphabet: Alphabet) -> RelInterpretation:
    actions = {name: random_relation(rng, n) for name in alphabet.actions}
    tests = {name: Relation.diagonal(n, rng.getrandbits(n)) for name in alphabet.tests}
    return RelInterpretation(n, actions, tests)
