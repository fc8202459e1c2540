"""Codomain/domain comparison of top-free terms, with countermodels.

A comparison is decided as one TopKAT inequation.  A failure's witness, a
guarded string over the extended alphabet that the decision re-checked,
is turned into a finite relational interpretation whose carrier is its
atom-aligned prefixes (codomain case) or suffixes (domain case), and the
countermodel is verified by relational evaluation before being returned.
"""

from __future__ import annotations

from typing import Union

from .decide import Equivalent
from .errors import InternalError, TopNotAllowedError
from .reduction import TOP_ACTION, topkat_leq
from .relmodel import Relation, RelInterpretation, evaluate
from .semantics import GuardedString
from .syntax import Alphabet, Dot, Term, TOP, Value, contains_top, prune_alphabet


class Provable(Value):
    __slots__ = ()


class RelCountermodel(Value):
    """A finite relational interpretation refuting the comparison.

    Carrier elements are guarded strings; `carrier[i]` labels the numeric
    element i of `interp`.  The violating point lies in the `side` term's
    (co)domain only, and `witness` is the underlying language-level witness.
    """

    __slots__ = ("interp", "carrier", "violating_point", "witness", "side")

    @property
    def violating_index(self) -> int:
        return self.carrier.index(self.violating_point)


ComparisonVerdict = Union[Provable, RelCountermodel]


def cod_geq(t1: Term, t2: Term, alphabet: Alphabet) -> ComparisonVerdict:
    """Does cod(t1) contain cod(t2) in every relational model?

    Decided as T t2 <= T t1 over the extended alphabet; a failure yields
    a verified prefix-model countermodel.
    """
    return _compare(t1, t2, alphabet, domain=False)


def dom_geq(t1: Term, t2: Term, alphabet: Alphabet) -> ComparisonVerdict:
    """Does dom(t1) contain dom(t2) in every relational model?

    Decided as the single inequation t2 T <= t1 T; a failure yields a
    verified suffix-model countermodel.  That this agrees with `cod_geq`
    on the reversed terms is checked by the tests, not on every call.
    """
    return _compare(t1, t2, alphabet, domain=True)


def _compare(t1: Term, t2: Term, alphabet: Alphabet, domain: bool) -> ComparisonVerdict:
    """Decide pad(t2) <= pad(t1), T padded on the right (domain) or left.

    The witness needs no membership check of its own: `equivalent(Plus(rs,
    rl), rl)`, for the reducts rs, rl of pad(t2), pad(t1), returns it as its
    left side only after re-checking that it lies in L(rs) \\ L(rl) on its
    own engine, over these same interned reducts and pruned alphabet.
    """
    for t in (t1, t2):
        if contains_top(t):
            raise TopNotAllowedError(
                "term contains T: (co)domain comparison is only complete "
                "for top-free terms")
    pad = (lambda t: Dot(t, TOP)) if domain else (lambda t: Dot(TOP, t))
    verdict = topkat_leq(pad(t2), pad(t1), alphabet)
    if isinstance(verdict, Equivalent):
        return Provable()
    build = build_dom_countermodel if domain else build_cod_countermodel
    return build(verdict.string, t1, t2, alphabet)


def build_cod_countermodel(w: GuardedString, t1: Term, t2: Term,
                           alphabet: Alphabet) -> RelCountermodel:
    """Prefix model: carrier = atom-aligned prefixes of w, one per atom.

    Each action relates consecutive prefixes along its steps in w; each
    test holds at the prefixes whose last atom satisfies it.  The full
    witness then lies in cod(t2)'s value but not in cod(t1)'s.
    """
    return _countermodel(w, t1, t2, alphabet, domain=False)


def build_dom_countermodel(w: GuardedString, t1: Term, t2: Term,
                           alphabet: Alphabet) -> RelCountermodel:
    """Suffix model: carrier = atom-aligned suffixes of w, tests keyed on
    first atoms; the full witness lies in dom(t2)'s value only."""
    return _countermodel(w, t1, t2, alphabet, domain=True)


def _countermodel(w: GuardedString, t1: Term, t2: Term, alphabet: Alphabet,
                  domain: bool) -> RelCountermodel:
    """The suffix (domain) or prefix (codomain) model of witness w.

    Element j is keyed on atom j of w, the first atom of suffix j and the
    last atom of prefix j; each action step of w relates j to j + 1.  The
    point is in a term's (co)domain iff w is in its padded reduct.
    """
    pruned = prune_alphabet(alphabet, t1, t2)
    n = len(w.atoms)
    if domain:
        carrier, point = [GuardedString(w.atoms[j:], w.acts[j:]) for j in range(n)], 0
    else:
        carrier, point = [GuardedString(w.atoms[:j + 1], w.acts[:j]) for j in range(n)], n - 1
    action_map = {
        name: Relation.from_pairs(n, [(j, j + 1) for j, act in enumerate(w.acts) if act == name])
        for name in pruned.actions + (TOP_ACTION,)
    }
    test_map = {
        name: Relation.from_pairs(
            n, [(j, j) for j, atom in enumerate(w.atoms) if atom.value(name)])
        for name in pruned.tests
    }
    interp = RelInterpretation(n, action_map, test_map)
    reach = Relation.dom if domain else Relation.cod
    if point not in reach(evaluate(t2, interp)) or point in reach(evaluate(t1, interp)):
        raise InternalError(f"{'suffix' if domain else 'prefix'} "
                            "countermodel failed verification")
    return RelCountermodel(interp, tuple(carrier), carrier[point], w, "right")
