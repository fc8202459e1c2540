"""The TopKAT deciders: `decide` over the alphabet pruned to the terms.

A TopKAT term reduces to a plain KAT term over the alphabet extended
with one reserved action: T becomes the sum-star of every action of the
extension (Zhang, de Amorim and Gaboardi, POPL 2022).  `decide` steps T
as that sum-star and supplies the reserved action, so no reduct and no
extended alphabet is built; the `reduce` command only prints the reduct.
"""

from __future__ import annotations

from .decide import TOP_ACTION, Verdict, equivalent, leq  # noqa: F401 (TOP_ACTION: read here)
from .syntax import Alphabet, Term, prune_alphabet


def topkat_equivalent(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide a TopKAT equation as its reducts' plain KAT equation; a
    witness may step by the reserved action."""
    return equivalent(t1, t2, prune_alphabet(alphabet, t1, t2))


def topkat_leq(t1: Term, t2: Term, alphabet: Alphabet) -> Verdict:
    """Decide t1 <= t2 in TopKAT; a witness lies in L(r(t1)) \\ L(r(t2))."""
    return leq(t1, t2, prune_alphabet(alphabet, t1, t2))
