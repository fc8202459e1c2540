"""The reduction of TopKAT to plain KAT over an extended alphabet.

T is the sum-star of every action over the alphabet extended with one
reserved action (Zhang, de Amorim and Gaboardi, POPL 2022).  `decide`
steps T as that sum-star; `reduce` writes it out, `embed_back` undoes it.
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
        return Star(functools.reduce(Plus, map(Act, self.base.actions + (TOP_ACTION,))))


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


def _extended(t1: Term, t2: Term, alphabet: Alphabet) -> Alphabet:
    """The extension of the alphabet pruned to both terms' names.  Each
    term is checked over the pruned alphabet, so an undeclared or
    mis-sorted name, the reserved action too, fails at the same node, with
    the same message, as over the full one."""
    pruned = prune_alphabet(alphabet, t1, t2)
    for t in (t1, t2):
        check_over(t, pruned)
    return ExtendedAlphabet(pruned).alphabet


def topkat_equivalent(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide a TopKAT equation as its reducts' plain KAT equation.

    Witnesses are guarded strings over the extended alphabet.
    """
    return equivalent(t1, t2, _extended(t1, t2, alphabet))


def topkat_leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 in TopKAT; a witness lies in L(r(t1)) \\ L(r(t2))."""
    return leq(t1, t2, _extended(t1, t2, alphabet))
