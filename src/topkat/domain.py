"""Codomain/domain comparison of top-free terms, with countermodels.

A failed comparison is witnessed by a guarded string over the extended
alphabet, which is then turned into a finite relational interpretation
whose carrier is the atom-aligned prefixes (codomain case) or suffixes
(domain case) of the witness.  Every countermodel is re-verified by
relational evaluation before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .decide import Equivalent, member
from .errors import TopkatError, TopNotAllowedError
from .reduction import ExtendedAlphabet, reduce, topkat_leq
from .relmodel import Relation, RelInterpretation, evaluate
from .semantics import GuardedString, satisfies
from .syntax import Alphabet, Dot, Term, Test, TOP, contains_top, prune_alphabet, reverse


@dataclass(frozen=True)
class Provable:
    pass


@dataclass(frozen=True)
class RelCountermodel:
    """A finite relational interpretation refuting the comparison.

    Carrier elements are guarded strings; `carrier[i]` labels the numeric
    element i of `interp`.  The violating point lies in exactly one side's
    (co)domain, and `witness` is the underlying language-level witness.
    """

    interp: RelInterpretation
    carrier: tuple[GuardedString, ...]
    violating_point: GuardedString
    witness: GuardedString
    side: str  # which compared term's (co)domain contains the point

    @property
    def violating_index(self) -> int:
        return self.carrier.index(self.violating_point)


ComparisonVerdict = Union[Provable, RelCountermodel]


def _require_top_free(t1: Term, t2: Term) -> None:
    for t in (t1, t2):
        if contains_top(t):
            raise TopNotAllowedError(
                "term contains T: (co)domain comparison is only complete "
                "for top-free terms")


def cod_geq(t1: Term, t2: Term, alphabet: Alphabet) -> ComparisonVerdict:
    """Does cod(t1) contain cod(t2) in every relational model?

    Decided as T t2 <= T t1 over the extended alphabet; a failure yields
    a verified prefix-model countermodel.
    """
    _require_top_free(t1, t2)
    verdict = topkat_leq(Dot(TOP, t2), Dot(TOP, t1), alphabet)
    if isinstance(verdict, Equivalent):
        return Provable()
    return build_cod_countermodel(verdict.string, t1, t2, alphabet)


def dom_geq(t1: Term, t2: Term, alphabet: Alphabet) -> ComparisonVerdict:
    """Does dom(t1) contain dom(t2) in every relational model?

    Decided as t2 T <= t1 T; cross-checked against the codomain decision
    on the reversed terms, which must agree.
    """
    _require_top_free(t1, t2)
    verdict = topkat_leq(Dot(t2, TOP), Dot(t1, TOP), alphabet)
    mirrored = topkat_leq(Dot(TOP, reverse(t2)), Dot(TOP, reverse(t1)), alphabet)
    if isinstance(verdict, Equivalent) != isinstance(mirrored, Equivalent):
        raise TopkatError("internal error: domain decision disagrees with "
                          "the reversed codomain decision")
    if isinstance(verdict, Equivalent):
        return Provable()
    return build_dom_countermodel(verdict.string, t1, t2, alphabet)


def build_cod_countermodel(w: GuardedString, t1: Term, t2: Term,
                           alphabet: Alphabet) -> RelCountermodel:
    """Prefix model: carrier = atom-aligned prefixes of w, one per atom.

    Each action relates consecutive prefixes along its steps in w; each
    test holds at the prefixes whose last atom satisfies it.  The full
    witness then lies in cod(t2)'s value but not in cod(t1)'s.
    """
    return _build_countermodel(w, t1, t2, alphabet, domain=False)


def build_dom_countermodel(w: GuardedString, t1: Term, t2: Term,
                           alphabet: Alphabet) -> RelCountermodel:
    """Suffix model: carrier = atom-aligned suffixes of w, tests keyed on
    first atoms; the full witness lies in dom(t2)'s value only."""
    return _build_countermodel(w, t1, t2, alphabet, domain=True)


def _build_countermodel(w: GuardedString, t1: Term, t2: Term, alphabet: Alphabet,
                        domain: bool) -> RelCountermodel:
    """The suffix (domain) or prefix (codomain) model of witness w.

    Element j is keyed on atom j of w, the first atom of suffix j and the
    last atom of prefix j; each action step of w relates j to j + 1.
    """
    ext = ExtendedAlphabet(prune_alphabet(alphabet, t1, t2))
    smaller, larger = (Dot(t2, TOP), Dot(t1, TOP)) if domain else (Dot(TOP, t2), Dot(TOP, t1))
    if not member(w, reduce(smaller, ext.base)) or member(w, reduce(larger, ext.base)):
        raise ValueError(f"not a separating witness: {w.render()!r}")
    n = len(w.atoms)
    if domain:
        carrier, point = [GuardedString(w.atoms[j:], w.acts[j:]) for j in range(n)], 0
    else:
        carrier, point = [GuardedString(w.atoms[:j + 1], w.acts[:j]) for j in range(n)], n - 1
    action_map = {
        name: Relation.from_pairs(n, [(j, j + 1) for j, act in enumerate(w.acts) if act == name])
        for name in ext.alphabet.actions
    }
    test_map = {
        name: Relation.from_pairs(
            n, [(j, j) for j, atom in enumerate(w.atoms) if satisfies(atom, Test(name))])
        for name in ext.base.tests
    }
    interp = RelInterpretation(n, action_map, test_map)
    reach = Relation.dom if domain else Relation.cod
    if point not in reach(evaluate(t2, interp)) or point in reach(evaluate(t1, interp)):
        raise TopkatError(f"internal error: {'suffix' if domain else 'prefix'} "
                          "countermodel failed verification")
    return RelCountermodel(interp, tuple(carrier), carrier[point], w, "right")
