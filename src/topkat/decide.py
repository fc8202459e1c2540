"""Equivalence of top-free terms over guarded-string languages.

Uses Antimirov-style partial derivatives (sets of terms as determinized
states) and a breadth-first bisimulation with eagerly merged classes.
Inequivalence comes with a shortest distinguishing guarded string,
re-verified by membership before it is returned.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

from .errors import TopNotAllowedError, TopkatError
from .semantics import Atom, GuardedString, all_atoms
from .syntax import (
    Act, Alphabet, Dot, Not, One, ONE, Plus, Star, Term, Test, Zero, ZERO,
    check_over, contains_top, occurring,
)


@dataclass(frozen=True)
class Equivalent:
    pass


@dataclass(frozen=True)
class Witness:
    """A guarded string accepted by exactly one of the compared terms."""

    string: GuardedString
    side: str  # "left" | "right"


Verdict = Union[Equivalent, Witness]

StateSet = frozenset  # of Term


def light_normalize(t: Term) -> Term:
    """Flatten nested sums, drop 0 summands, collapse products with 0/1."""
    match t:
        case Plus():
            parts: list[Term] = []
            stack = [t]
            while stack:
                node = stack.pop()
                if isinstance(node, Plus):
                    stack.append(node.right)
                    stack.append(node.left)
                else:
                    parts.append(light_normalize(node))
            parts = [p for p in parts if p != ZERO]
            if not parts:
                return ZERO
            out = parts[0]
            for p in parts[1:]:
                out = Plus(out, p)
            return out
        case Dot(left, right):
            return _sdot(light_normalize(left), light_normalize(right))
        case Star(arg):
            return Star(light_normalize(arg))
        case Not(arg):
            return Not(light_normalize(arg))
        case _:
            return t


def _sdot(left: Term, right: Term) -> Term:
    if left == ZERO or right == ZERO:
        return ZERO
    if left == ONE:
        return right
    if right == ONE:
        return left
    return Dot(left, right)


class _Engine:
    """Per-invocation memo tables for epsilon and derivative computation."""

    def __init__(self) -> None:
        self._eps: dict[tuple[Term, Atom], bool] = {}
        self._der: dict[tuple[Term, Atom, str], frozenset[Term]] = {}

    def epsilon(self, t: Term, atom: Atom) -> bool:
        key = (t, atom)
        cached = self._eps.get(key)
        if cached is not None:
            return cached
        match t:
            case Zero() | Act():
                value = False
            case One() | Star():
                value = True
            case Test(name):
                value = atom.value(name)
            case Not(arg):
                value = not self.epsilon(arg, atom)
            case Plus(left, right):
                value = self.epsilon(left, atom) or self.epsilon(right, atom)
            case Dot(left, right):
                value = self.epsilon(left, atom) and self.epsilon(right, atom)
            case _:
                raise TopNotAllowedError("cannot accept atoms for T")
        self._eps[key] = value
        return value

    def deriv(self, t: Term, atom: Atom, act: str) -> frozenset[Term]:
        key = (t, atom, act)
        cached = self._der.get(key)
        if cached is not None:
            return cached
        match t:
            case Zero() | One() | Test() | Not():
                value = frozenset()
            case Act(name):
                value = frozenset((ONE,)) if name == act else frozenset()
            case Plus(left, right):
                value = self.deriv(left, atom, act) | self.deriv(right, atom, act)
            case Dot(left, right):
                parts = {_sdot(d, right) for d in self.deriv(left, atom, act)}
                if self.epsilon(left, atom):
                    parts |= self.deriv(right, atom, act)
                value = frozenset(p for p in parts if p != ZERO)
            case Star(arg):
                value = frozenset(d for d in (_sdot(x, t) for x in self.deriv(arg, atom, act))
                                  if d != ZERO)
            case _:
                raise TopNotAllowedError("cannot differentiate T")
        self._der[key] = value
        return value

    def step(self, states: StateSet, atom: Atom, act: str) -> StateSet:
        out: set[Term] = set()
        for t in states:
            out |= self.deriv(t, atom, act)
        return frozenset(out)

    def accepts(self, states: StateSet, atom: Atom) -> bool:
        return any(self.epsilon(t, atom) for t in states)


def epsilon(t: Term, atom: Atom) -> bool:
    """True iff the single-atom string <atom> is in t's language."""
    return _Engine().epsilon(t, atom)


def deriv(t: Term, atom: Atom, act: str) -> frozenset[Term]:
    """Partial derivative: the set D with  atom act s in L(t)  iff  s in L(D)."""
    return _Engine().deriv(t, atom, act)


def member(s: GuardedString, t: Term) -> bool:
    """Decide s in L(t) by folding derivatives over the action steps."""
    if contains_top(t):
        raise TopNotAllowedError("membership is defined for top-free terms")
    engine = _Engine()
    states: StateSet = frozenset((light_normalize(t),))
    for atom, act in zip(s.atoms, s.acts):
        states = engine.step(states, atom, act)
        if not states:
            return False
    return engine.accepts(states, s.last_atom)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        root = x
        while root in self.parent:
            root = self.parent[root]
        while x in self.parent:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def equivalent(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide language equality of two top-free terms.

    Breadth-first exploration of state-set pairs with union-find merging;
    the returned witness is shortest, with ties broken by atom bit order
    and then declared action order.
    """
    for t in (t1, t2):
        if contains_top(t):
            raise TopNotAllowedError("equivalence is decided on top-free terms")
        check_over(t, alphabet)
    atoms = all_atoms(alphabet)
    occ = occurring(t1)[0] | occurring(t2)[0]
    acts = [a for a in alphabet.actions if a in occ]

    engine = _Engine()
    start = (frozenset((light_normalize(t1),)), frozenset((light_normalize(t2),)))
    parents: dict[tuple, tuple | None] = {start: None}
    classes = _UnionFind()
    queue: deque[tuple] = deque((start,))

    while queue:
        pair = queue.popleft()
        left, right = pair
        if classes.find(left) == classes.find(right):
            continue
        for atom in atoms:
            a1, a2 = engine.accepts(left, atom), engine.accepts(right, atom)
            if a1 != a2:
                witness = _reconstruct(parents, pair, atom)
                m1, m2 = member(witness, t1), member(witness, t2)
                if m1 == m2:
                    raise TopkatError(
                        "internal error: unsound witness "
                        f"{witness.render()!r} for {pair!r}")
                return Witness(witness, "left" if m1 else "right")
        classes.union(left, right)
        for atom in atoms:
            for act in acts:
                successor = (engine.step(left, atom, act), engine.step(right, atom, act))
                if successor not in parents:
                    parents[successor] = (pair, atom, act)
                    queue.append(successor)
    return Equivalent()


def _reconstruct(parents: dict, pair: tuple, final_atom: Atom) -> GuardedString:
    steps: list[tuple[Atom, str]] = []
    node = pair
    while parents[node] is not None:
        node, atom, act = parents[node]
        steps.append((atom, act))
    steps.reverse()
    atoms = tuple(a for a, _ in steps) + (final_atom,)
    acts = tuple(p for _, p in steps)
    return GuardedString(atoms, acts)


def leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 (as t1 + t2 = t2); a witness lies in L(t1) \\ L(t2)."""
    return equivalent(Plus(t1, t2), t2, alphabet)
