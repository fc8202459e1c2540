"""Finite relational models: evaluation, (co)domain, converse, and search.

Relations over a carrier {0..n-1} are stored as n*n bitmasks, which keeps
the exhaustive searches over all interpretations cheap.  T evaluates to
the complete relation (the relational-TopKAT reading).

Searches are sound refuters only: a countermodel disproves the property,
absence of one proves nothing beyond the explored budget.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import ResourceLimitError, UndeclaredIdentifierError
from .syntax import (
    Act, Alphabet, Dot, Not, One, Plus, Star, Term, Test, Top, Zero,
    contains_top, prune_alphabet,
)


@dataclass(frozen=True)
class Relation:
    """A relation over {0..n-1}; bit i*n+j set iff (i,j) is related."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0 or self.mask >= 1 << (self.n * self.n):
            raise ValueError("relation mask out of range for carrier size")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> Relation:
        mask = 0
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i},{j}) outside carrier of size {n}")
            mask |= 1 << (i * n + j)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> Relation:
        return cls(n, 0)

    @classmethod
    def identity(cls, n: int) -> Relation:
        mask = 0
        for i in range(n):
            mask |= 1 << (i * n + i)
        return cls(n, mask)

    @classmethod
    def diagonal(cls, n: int, bits: int) -> Relation:
        """The sub-identity holding at every i whose bit i is set in bits."""
        mask = 0
        for i in range(n):
            if bits >> i & 1:
                mask |= 1 << (i * n + i)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> Relation:
        return cls(n, (1 << (n * n)) - 1)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.n) for j in range(self.n)
                     if self.mask >> (i * self.n + j) & 1)

    def union(self, other: Relation) -> Relation:
        return Relation(self.n, self.mask | other.mask)

    def compose(self, other: Relation) -> Relation:
        n = self.n
        row_mask = (1 << n) - 1
        out = 0
        for i in range(n):
            row = self.mask >> (i * n) & row_mask
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc |= other.mask >> (j * n) & row_mask
                row >>= 1
                j += 1
            out |= acc << (i * n)
        return Relation(n, out)

    def star(self) -> Relation:
        result = Relation.identity(self.n)
        while True:
            grown = result.union(result.compose(self))
            if grown == result:
                return result
            result = grown

    def converse(self) -> Relation:
        out = 0
        for i, j in self.pairs:
            out |= 1 << (j * self.n + i)
        return Relation(self.n, out)

    def dom(self) -> frozenset[int]:
        row_mask = (1 << self.n) - 1
        return frozenset(i for i in range(self.n) if self.mask >> (i * self.n) & row_mask)

    def cod(self) -> frozenset[int]:
        return frozenset(j for j in range(self.n)
                         if any(self.mask >> (i * self.n + j) & 1 for i in range(self.n)))

    def subset_of(self, other: Relation) -> bool:
        return self.mask | other.mask == other.mask


@dataclass(frozen=True)
class RelInterpretation:
    """Relations for every primitive; test relations are sub-identity."""

    n: int
    action_map: Mapping[str, Relation]
    test_map: Mapping[str, Relation]

    def __post_init__(self) -> None:
        ident = Relation.identity(self.n)
        for rel in list(self.action_map.values()) + list(self.test_map.values()):
            if rel.n != self.n:
                raise ValueError("relation carrier size mismatch")
        for name, rel in self.test_map.items():
            if not rel.subset_of(ident):
                raise ValueError(f"test {name!r} is not a sub-identity relation")


def evaluate(t: Term, interp: RelInterpretation) -> Relation:
    """Compositional relational value of t; T is the complete relation."""
    n = interp.n
    match t:
        case Zero():
            return Relation.empty(n)
        case One():
            return Relation.identity(n)
        case Top():
            return Relation.full(n)
        case Act(name):
            try:
                return interp.action_map[name]
            except KeyError:
                raise UndeclaredIdentifierError(f"no relation for action {name!r}") from None
        case Test(name):
            try:
                return interp.test_map[name]
            except KeyError:
                raise UndeclaredIdentifierError(f"no relation for test {name!r}") from None
        case Not(arg):
            return Relation(n, Relation.identity(n).mask & ~evaluate(arg, interp).mask)
        case Plus(left, right):
            return evaluate(left, interp).union(evaluate(right, interp))
        case Dot(left, right):
            return evaluate(left, interp).compose(evaluate(right, interp))
        case Star(arg):
            return evaluate(arg, interp).star()
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class EncodingReport:
    """Truth values of both top-encoding biconditionals for one model."""

    dom_via_top: bool
    dom_direct: bool
    cod_via_top: bool
    cod_direct: bool

    @property
    def dom_agrees(self) -> bool:
        return self.dom_via_top == self.dom_direct

    @property
    def cod_agrees(self) -> bool:
        return self.cod_via_top == self.cod_direct


def check_encoding(interp: RelInterpretation, t1: Term, t2: Term) -> EncodingReport:
    """Evaluate R1 T >= R2 T against dom(R1) >= dom(R2), and the cod mirror."""
    r1, r2 = evaluate(t1, interp), evaluate(t2, interp)
    top = Relation.full(interp.n)
    return EncodingReport(
        dom_via_top=r2.compose(top).subset_of(r1.compose(top)),
        dom_direct=r2.dom() <= r1.dom(),
        cod_via_top=top.compose(r2).subset_of(top.compose(r1)),
        cod_direct=r2.cod() <= r1.cod(),
    )


# ---------------------------------------------------------------------------
# Countermodel search

ENUM_CEILING = 10_000_000

KINDS = ("equality", "leq", "dom_geq", "cod_geq")


@dataclass(frozen=True)
class SearchBudget:
    """Either exhaustive enumeration up to max_n, or seeded sampling."""

    exhaustive: bool = True
    samples: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.exhaustive and (self.samples is None or self.seed is None):
            raise ValueError("random search needs both samples and seed")

    def describe(self, max_n: int) -> str:
        if self.exhaustive:
            return f"exhaustive n<={max_n}"
        return f"{self.samples} samples n<={max_n} seed={self.seed}"


@dataclass(frozen=True)
class SearchHit:
    """A verified violating interpretation, plus what it violates."""

    interp: RelInterpretation
    kind: str
    violating_pair: tuple[int, int] | None = None
    violating_point: int | None = None


def _violation(kind: str, r1: Relation, r2: Relation) -> tuple | None:
    if kind == "equality":
        if r1 != r2:
            diff = min(set(r1.pairs) ^ set(r2.pairs))
            return ("pair", diff)
    elif kind == "leq":
        if not r1.subset_of(r2):
            return ("pair", min(set(r1.pairs) - set(r2.pairs)))
    elif kind == "dom_geq":
        if not r2.dom() <= r1.dom():
            return ("point", min(r2.dom() - r1.dom()))
    elif kind == "cod_geq":
        if not r2.cod() <= r1.cod():
            return ("point", min(r2.cod() - r1.cod()))
    else:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    return None


def _interpretations(actions: Sequence[str], tests: Sequence[str], max_n: int,
                     budget: SearchBudget, ceiling: int) -> Iterator[RelInterpretation]:
    if budget.exhaustive:
        total = sum((1 << (n * n)) ** len(actions) * (1 << n) ** len(tests)
                    for n in range(1, max_n + 1))
        if total > ceiling:
            raise ResourceLimitError(
                f"exhaustive search would enumerate {total} interpretations, "
                f"over the ceiling of {ceiling}")
        for n in range(1, max_n + 1):
            act_space = [range(1 << (n * n))] * len(actions)
            test_space = [range(1 << n)] * len(tests)
            for masks in itertools.product(*act_space, *test_space):
                action_map = {name: Relation(n, masks[i]) for i, name in enumerate(actions)}
                test_map = {name: Relation.diagonal(n, masks[len(actions) + i])
                            for i, name in enumerate(tests)}
                yield RelInterpretation(n, action_map, test_map)
    else:
        rng = random.Random(budget.seed)
        for _ in range(budget.samples):
            n = rng.randint(1, max_n)
            action_map = {name: Relation(n, rng.getrandbits(n * n)) for name in actions}
            test_map = {name: Relation.diagonal(n, rng.getrandbits(n)) for name in tests}
            yield RelInterpretation(n, action_map, test_map)


def search_countermodel(kind: str, t1: Term, t2: Term, alphabet: Alphabet,
                        max_n: int, budget: SearchBudget,
                        ceiling: int = ENUM_CEILING) -> SearchHit | None:
    """First interpretation violating the stated comparison, else None.

    Enumeration order is fixed (carrier size, then actions in declared
    order, then tests, each mask ascending), so "first" is deterministic.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    pruned = prune_alphabet(alphabet, t1, t2)
    for interp in _interpretations(pruned.actions, pruned.tests, max_n, budget, ceiling):
        found = _violation(kind, evaluate(t1, interp), evaluate(t2, interp))
        if found is not None:
            shape, where = found
            return SearchHit(interp, kind,
                             violating_pair=where if shape == "pair" else None,
                             violating_point=where if shape == "point" else None)
    return None


def falsify_implication(hyps: Sequence[tuple[Term, Term]], goal: tuple[Term, Term],
                        alphabet: Alphabet, max_n: int, budget: SearchBudget,
                        ceiling: int = ENUM_CEILING) -> SearchHit | None:
    """Search for a model of all hypotheses violating the goal.

    Hypotheses and goal are pairs (u, v) read as `T u <= T v`, i.e. as the
    codomain inclusion cod(u) <= cod(v).  Sound refuter only.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    pairs = list(hyps) + [goal]
    for u, v in pairs:
        if contains_top(u) or contains_top(v):
            raise ValueError("comparison sides must be top-free")
    every = [t for pair in pairs for t in pair]
    pruned = prune_alphabet(alphabet, *every)
    for interp in _interpretations(pruned.actions, pruned.tests, max_n, budget, ceiling):
        if any(not evaluate(u, interp).cod() <= evaluate(v, interp).cod()
               for u, v in hyps):
            continue
        u, v = goal
        escaped = evaluate(u, interp).cod() - evaluate(v, interp).cod()
        if escaped:
            return SearchHit(interp, "cod_geq", violating_point=min(escaped))
    return None
