"""Equivalence of top-free terms over guarded-string languages.

Uses Antimirov-style partial derivatives (sets of terms as determinized
states) and a breadth-first bisimulation with eagerly merged classes.
Atoms are bits of an int mask, and the engine knows a test only by the
mask of atoms where it holds.  A pair of state sets steps once per atom
class: the atoms that no derivative guard of its states tells apart
(Pous, "Symbolic Algorithms for Language Equivalence and KAT", POPL 2015,
with bit masks in place of BDDs).  Inequivalence comes with a shortest
distinguishing guarded string, re-verified by membership before it is
returned.
"""

from __future__ import annotations

from collections import deque
from typing import Union

from .errors import InternalError, TopNotAllowedError
from .semantics import GuardedString, all_atoms
from .syntax import (
    Act, Alphabet, Dot, Not, One, ONE, Plus, Star, Term, Test, Value, Zero, ZERO,
    check_over, contains_top, postorder, prune_alphabet, render,
)


class Equivalent(Value):
    __slots__ = ()


class Witness(Value):
    """A guarded string accepted by exactly one of the compared terms, the
    "left" or the "right" one, as `side` says."""

    __slots__ = ("string", "side")


Verdict = Union[Equivalent, Witness]

StateSet = frozenset  # of Term


def _sdot(left: Term, right: Term) -> Term:
    if left is ZERO or right is ZERO:
        return ZERO
    return right if left is ONE else left if right is ONE else Dot(left, right)


class _Engine:
    """Per-invocation memo of one fact per term over `count` atoms, given
    each test's mask (bit i for atom i) and no atoms: the mask of atoms at
    which the term accepts, and its linear form, one map from each
    (action, partial derivative) pair to the mask of atoms for which the
    term steps by that action to that derivative.  The cases are those of
    the atom-by-atom derivative (1 for an action, union for `+`, `d r`
    plus D(r) where l accepts for `l r`, `d s*` for `s*`, composites
    equal to 0 dropped), so every derivative set and state is the same as
    atom by atom; a fact is built from its children's in one `postorder`
    loop, and a test's is one lookup.  The guard masks of a state set's
    linear forms split the atoms into classes; atoms of one class have
    the same `step` for every action.
    """

    def __init__(self, count: int, tests: dict[str, int]) -> None:
        self.full = (1 << count) - 1
        self._tests = tests
        self._facts: dict[Term, tuple[int, dict[tuple[str, Term], int]]] = {}

    def facts(self, t: Term) -> tuple[int, dict[tuple[str, Term], int]]:
        if t not in self._facts:
            for s in postorder(t):
                if s not in self._facts:
                    self._facts[s] = self._fact(s)
        return self._facts[t]

    def _fact(self, t: Term) -> tuple[int, dict[tuple[str, Term], int]]:
        facts = self._facts
        parts: list = []  # ((action, derivative), mask) pairs
        match t:
            case Zero():
                acc = 0
            case One():
                acc = self.full
            case Test(name):
                acc = self._tests[name]
            case Not(arg):
                acc = self.full & ~facts[arg][0]
            case Act(name):
                acc, parts = 0, [((name, ONE), self.full)]
            case Plus(left, right):
                acc = facts[left][0] | facts[right][0]
                parts = [*facts[left][1].items(), *facts[right][1].items()]
            case Dot(left, right):
                (acc_l, lf_l), (acc_r, lf_r) = facts[left], facts[right]
                acc = acc_l & acc_r
                parts = [((act, _sdot(d, right)), m) for (act, d), m in lf_l.items()]
                parts += [(key, m & acc_l) for key, m in lf_r.items()]
            case Star(arg):
                acc = self.full
                parts = [((act, _sdot(d, t)), m) for (act, d), m in facts[arg][1].items()]
            case _:
                raise TopNotAllowedError("T has no derivatives; eliminate it first")
        linear: dict[tuple[str, Term], int] = {}
        for key, mask in parts:
            if mask and key[1] is not ZERO:
                linear[key] = linear.get(key, 0) | mask
        return acc, linear

    def step(self, states: StateSet, i: int, act: str) -> StateSet:
        """The derivatives of the states for atom i and the action."""
        return frozenset(d for t in states for (a, d), mask in self.facts(t)[1].items()
                         if a == act and mask >> i & 1)

    def accepts(self, states: StateSet) -> int:
        """The mask of the atoms at which some state accepts."""
        acc = 0
        for t in states:
            acc |= self.facts(t)[0]
        return acc


def member(s: GuardedString, t: Term) -> bool:
    """Decide s in L(t) by folding derivatives over the action steps."""
    if contains_top(t):
        raise TopNotAllowedError("membership is defined for top-free terms")
    index = {atom: i for i, atom in enumerate(dict.fromkeys(s.atoms))}
    steps = [(index[atom], act) for atom, act in zip(s.atoms, s.acts)]
    tests = {name: sum(1 << i for atom, i in index.items() if atom.value(name))
             for name in dict.fromkeys(u.name for u in postorder(t) if type(u) is Test)}
    return _member(_Engine(len(index), tests), t, steps, index[s.last_atom])


def _member(engine: _Engine, t: Term, steps: list[tuple[int, str]], last: int) -> bool:
    """Whether t accepts the string of (atom index, action) steps ending in atom `last`."""
    states: StateSet = frozenset((t,))
    for i, act in steps:
        states = engine.step(states, i, act)
        if not states:
            return False
    return bool(engine.accepts(states) >> last & 1)


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
    and then declared action order (`semantics.gs_sort_key`).  It is the
    least separating string in that order: had the union-find or the
    seen-check skipped a pair on its path, an earlier-popped pair would
    give a smaller separating string.  So witness and verdict depend only
    on the two languages, and rewriting the terms beforehand changes neither.

    A popped pair steps once per atom class, in the order of each class's
    least atom, and records that atom as the parent.  This gives the same
    queue and parents as stepping atom by atom: the atoms of a class agree
    on every derivative guard of the pair's states, so they have the same
    successor for every action, and atom by atom nothing new is enqueued
    at an atom that is not the least of its class (its successors were met
    at the least one, where first parent wins).  The witness's last atom
    is the lowest bit of `differ` either way.
    """
    for t in (t1, t2):
        if contains_top(t):
            raise TopNotAllowedError("equivalence is decided on top-free terms")
        check_over(t, alphabet)
    atoms = all_atoms(alphabet)
    acts = prune_alphabet(alphabet, t1, t2).actions
    # in the all_atoms order, test j of k holds on every other run of
    # 2^(k-1-j) atoms: a repunit of period twice the run times one run
    full, tests = (1 << len(atoms)) - 1, {}
    for j, name in enumerate(alphabet.tests):
        run = 1 << len(alphabet.tests) - 1 - j
        tests[name] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)

    engine = _Engine(len(atoms), tests)
    start = (frozenset((t1,)), frozenset((t2,)))
    parents: dict[tuple, tuple | None] = {start: None}
    classes = _UnionFind()
    queue: deque[tuple] = deque((start,))

    while queue:
        pair = queue.popleft()
        left, right = pair
        if classes.find(left) == classes.find(right):
            continue
        differ = engine.accepts(left) ^ engine.accepts(right)
        if differ:
            steps = _path(parents, pair)
            last = (differ & -differ).bit_length() - 1  # least atom where one side accepts
            witness = GuardedString(tuple(atoms[i] for i, _ in steps) + (atoms[last],),
                                    tuple(act for _, act in steps))
            m1, m2 = (_member(engine, t, steps, last) for t in (t1, t2))
            if m1 == m2:
                raise InternalError(f"unsound witness {witness.render()!r} for "
                                    f"{render(t1)!r} and {render(t2)!r}")
            return Witness(witness, "left" if m1 else "right")
        classes.union(left, right)
        guards = {mask for t in left | right for mask in engine.facts(t)[1].values()}
        rest = engine.full
        while rest:
            least = rest & -rest
            atom_class = rest
            for mask in guards:
                atom_class &= mask if mask & least else ~mask
            rest ^= atom_class
            i = least.bit_length() - 1
            for act in acts:
                successor = (engine.step(left, i, act), engine.step(right, i, act))
                if successor not in parents:
                    parents[successor] = (pair, i, act)
                    queue.append(successor)
    return Equivalent()


def _path(parents: dict, pair: tuple) -> list[tuple[int, str]]:
    """The (atom index, action) steps from the start pair to the pair."""
    steps: list[tuple[int, str]] = []
    while parents[pair] is not None:
        pair, i, act = parents[pair]
        steps.append((i, act))
    steps.reverse()
    return steps


def leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 (as t1 + t2 = t2); a witness lies in L(t1) \\ L(t2)."""
    return equivalent(Plus(t1, t2), t2, alphabet)
