"""Reduction of TopKAT terms to plain KAT over an extended alphabet.

T is rewritten to the sum-of-all-actions star over the alphabet extended
with one reserved action, decided there with `decide`, and mapped back by
re-interpreting the reserved action as T.
"""

from __future__ import annotations

import functools

from .decide import Verdict, equivalent, leq
from .syntax import (
    Act, Alphabet, Plus, Star, Term, TOP, Top, Value,
    check_over, prune_alphabet, rebuild,
)

TOP_ACTION = "__top__"

class ExtendedAlphabet(Value):
    """A base alphabet plus the reserved action TOP_ACTION standing in for T."""

    __slots__ = ("base",)

    def _check(self) -> None:
        if TOP_ACTION in self.base.actions or TOP_ACTION in self.base.tests:
            raise ValueError(f"{TOP_ACTION!r} must not be declared in the base alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.base.actions + (TOP_ACTION,), self.base.tests)

    def sum_star(self) -> Term:
        """The largest element of the extended KAT: (a1 + ... + ak + top)*."""
        return Star(functools.reduce(Plus, map(Act, self.alphabet.actions)))


def reduce(t: Term, alphabet: Alphabet) -> Term:
    """Replace every T with the extended sum-star; homomorphic elsewhere."""
    check_over(t, alphabet)
    if not t.has_top:
        return t
    sum_star = ExtendedAlphabet(alphabet).sum_star()
    return rebuild(t, lambda s: sum_star if isinstance(s, Top) else s)


def embed_back(t: Term) -> Term:
    """Map the reserved action back to T; homomorphic on everything else."""
    return rebuild(t, lambda s: TOP if s == Act(TOP_ACTION) else s)


def _reducts(t1: Term, t2: Term, alphabet: Alphabet) -> tuple[Term, Term, Alphabet]:
    """Both reducts over the alphabet pruned to the terms' primitives, and
    the extended alphabet they are decided over.

    Pruning first keeps the reserved sum-star to the relevant actions.
    `reduce` checks each term over the pruned alphabet, which keeps exactly
    the declared names that occur, so an undeclared or mis-sorted name
    fails at the same node, with the same message, as over the full one.
    """
    pruned = prune_alphabet(alphabet, t1, t2)
    return reduce(t1, pruned), reduce(t2, pruned), ExtendedAlphabet(pruned).alphabet


def topkat_equivalent(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide a TopKAT equation by deciding the reducts as plain KAT.

    Witnesses are guarded strings over the extended alphabet.
    """
    return equivalent(*_reducts(t1, t2, alphabet))


def topkat_leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 in TopKAT; a witness lies in L(r(t1)) \\ L(r(t2))."""
    return leq(*_reducts(t1, t2, alphabet))
