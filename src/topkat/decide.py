"""Equivalence of TopKAT terms over guarded-string languages.

Uses Antimirov-style partial derivatives (sets of terms as determinized
states) and a breadth-first bisimulation with eagerly merged classes.
T accepts at every atom and steps to itself by every action, as its
sum-star reduct does (Zhang, de Amorim and Gaboardi, POPL 2022).  Atoms
are bits of an int mask, and the engine knows a test only by the mask of
atoms where it holds.  A pair of state sets steps once per atom class:
the atoms that no derivative guard of its states tells apart (Pous,
"Symbolic Algorithms for Language Equivalence and KAT", POPL 2015, with
bit masks in place of BDDs).  Inequivalence comes with a shortest
distinguishing guarded string, re-checked by membership.
"""

from __future__ import annotations

from collections import deque
from typing import Union

from .errors import InternalError, TopNotAllowedError
from .semantics import GuardedString, all_atoms
from .syntax import (
    Act, Alphabet, Dot, Not, One, ONE, Plus, Star, Term, Test, Top, Value, Zero, ZERO,
    check_over, postorder, render,
)


class Equivalent(Value):
    __slots__ = ()


class Witness(Value):
    """A guarded string accepted by exactly one of the compared terms, the
    "left" or the "right" one, as `side` says."""

    __slots__ = ("string", "side")


Verdict = Union[Equivalent, Witness]

StateSet = frozenset  # of Term


class _Engine:
    """Per-invocation memo over `count` atoms, given each test's mask (bit
    i for atom i) and the actions T steps by, and no atoms.  A term's accepting atoms
    are one mask, from its `postorder` walk, or from its parts for a
    derivative built here.  A state's linear form maps each (action,
    partial derivative) pair to the mask of atoms at which the state so
    steps.  One walk of the state's head builds it, carrying the rest as a
    continuation c (Antimirov, TCS 1996): D(a, c) = {(a, c)}, D(T, c) =
    {(a, T c) for every action a}, D(l + r, c) = D(l, c) + D(r, c),
    D(l r, c) = D(l, r c) + acc(l) D(r, c), D(s*, c) = D(s, s* c).
    So a derivative shares its tail with its state and costs one new node.
    The walk skips test-only subterms and 0 continuations, and meets each
    (subterm, continuation) pair once per atom.
    """

    def __init__(self, count: int, tests: dict[str, int], actions: tuple[str, ...] = ()) -> None:
        self.full = (1 << count) - 1
        self._tests, self._actions = tests, actions
        self._acc: dict[Term, int] = {}
        self._linear: dict[Term, dict[tuple[str, Term], int]] = {}

    def accepts(self, states: StateSet) -> int:
        """The mask of the atoms at which some state accepts."""
        acc, accepting = self._acc, 0
        for t in states:
            for s in () if t in acc else postorder(t):
                match s:
                    case Zero() | Act():
                        acc[s] = 0
                    case One() | Star() | Top():
                        acc[s] = self.full
                    case Test(name):
                        acc[s] = self._tests[name]
                    case Not(arg):
                        acc[s] = self.full & ~acc[arg]
                    case Plus(left, right):
                        acc[s] = acc[left] | acc[right]
                    case Dot(left, right):
                        acc[s] = acc[left] & acc[right]
            accepting |= acc[t]
        return accepting

    def _sdot(self, r: Term, c: Term) -> Term:
        """r c, with 0 and 1 absorbed and its accepting mask kept; c is not 0."""
        d = ZERO if r is ZERO else c if r is ONE else r if c is ONE else Dot(r, c)
        if d not in self._acc:
            self._acc[d] = self._acc[r] & self._acc[c]
        return d

    def linear(self, t: Term) -> dict[tuple[str, Term], int]:
        """The state's linear form, built once."""
        if t not in self._linear:
            self.accepts((t,))  # the masks of t's subterms
            acc, linear, walked, stack = self._acc, {}, {}, [(t, ONE, self.full)]
            while stack:
                s, c, mask = stack.pop()
                mask &= ~walked.get((s, c), 0)
                if not mask or s.test_only or c is ZERO:
                    continue
                walked[s, c] = walked.get((s, c), 0) | mask
                match s:
                    case Act(name):
                        linear[name, c] = linear.get((name, c), 0) | mask
                    case Top():
                        d = self._sdot(s, c)
                        for name in self._actions:
                            linear[name, d] = linear.get((name, d), 0) | mask
                    case Plus(left, right):
                        stack += (right, c, mask), (left, c, mask)
                    case Dot(left, right):
                        stack.append((right, c, mask & acc[left]))
                        if not left.test_only:
                            stack.append((left, self._sdot(right, c), mask))
                    case Star(arg) if not arg.test_only:
                        stack.append((arg, self._sdot(s, c), mask))
            self._linear[t] = linear
        return self._linear[t]

    def step(self, states: StateSet, i: int, act: str) -> StateSet:
        """The derivatives of the states for atom i and the action."""
        return frozenset(d for t in states for (a, d), mask in self.linear(t).items()
                         if a == act and mask >> i & 1)


def member(s: GuardedString, t: Term) -> bool:
    """Decide s in L(t) by folding derivatives over the action steps."""
    if t.has_top:
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
    """Decide language equality; T is every guarded string over the alphabet.

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
    is the lowest bit of `differ` either way.  Only the actions in the
    pair's linear forms are stepped, in declared order: any other leads to
    the pair of empty sets, which never separates and has no successors,
    so skipping it moves no other pair in the queue.
    """
    for t in (t1, t2):
        check_over(t, alphabet)
    atoms = all_atoms(alphabet)
    order = {act: n for n, act in enumerate(alphabet.actions)}
    # in the all_atoms order, test j of k holds on every other run of
    # 2^(k-1-j) atoms: a repunit of period twice the run times one run
    full, tests = (1 << len(atoms)) - 1, {}
    for j, name in enumerate(alphabet.tests):
        run = 1 << len(alphabet.tests) - 1 - j
        tests[name] = full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)

    engine = _Engine(len(atoms), tests, alphabet.actions)
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
            steps, node = [], pair
            while parents[node] is not None:
                node, i, act = parents[node]
                steps.append((i, act))
            steps.reverse()
            last = (differ & -differ).bit_length() - 1  # least atom where one side accepts
            witness = GuardedString(tuple(atoms[i] for i, _ in steps) + (atoms[last],),
                                    tuple(act for _, act in steps))
            m1, m2 = (_member(engine, t, steps, last) for t in (t1, t2))
            if m1 == m2:
                raise InternalError(f"unsound witness {witness.render()!r} for "
                                    f"{render(t1)!r} and {render(t2)!r}")
            return Witness(witness, "left" if m1 else "right")
        classes.union(left, right)
        forms = [engine.linear(t) for t in left | right]
        guards = {mask for form in forms for mask in form.values()}
        acts = sorted({act for form in forms for act, _ in form}, key=order.__getitem__)
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


def leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 (as t1 + t2 = t2); a witness lies in L(t1) \\ L(t2)."""
    return equivalent(Plus(t1, t2), t2, alphabet)
