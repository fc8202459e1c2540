"""The TopKAT deciders.

A TopKAT term reduces to a plain KAT term over the alphabet extended
with one reserved action: T becomes the sum-star of every action of the
extension (Zhang, de Amorim and Gaboardi, POPL 2022).  The deciders hand
the terms to `decide` unchanged, over the extended alphabet, and `decide`
steps T as that sum-star, so no reduct is ever built; the `reduce`
command only prints one, through `render`.
"""

from __future__ import annotations

from .decide import Verdict, equivalent, leq
from .syntax import Alphabet, Term, check_over, prune_alphabet

TOP_ACTION = "__top__"


def _extended(t1: Term, t2: Term, alphabet: Alphabet) -> Alphabet:
    """The extension of the alphabet pruned to both terms' names.  Each
    term is checked over the pruned alphabet, so an undeclared or
    mis-sorted name, the reserved action too, fails at the same node, with
    the same message, as over the full one.  A pruned alphabet that
    declares the reserved action is refused."""
    pruned = prune_alphabet(alphabet, t1, t2)
    for t in (t1, t2):
        check_over(t, pruned)
    if TOP_ACTION in pruned.actions or TOP_ACTION in pruned.tests:
        raise ValueError(f"{TOP_ACTION!r} must not be declared in the base alphabet")
    return Alphabet(pruned.actions + (TOP_ACTION,), pruned.tests)


def topkat_equivalent(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide a TopKAT equation as its reducts' plain KAT equation.

    Witnesses are guarded strings over the extended alphabet.
    """
    return equivalent(t1, t2, _extended(t1, t2, alphabet))


def topkat_leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 in TopKAT; a witness lies in L(r(t1)) \\ L(r(t2))."""
    return leq(t1, t2, _extended(t1, t2, alphabet))
