import random

import pytest

from conftest import ALPHABET
from topkat.decide import Witness
from topkat.domain import (
    Provable, RelCountermodel, build_cod_countermodel, build_dom_countermodel, cod_geq,
    dom_geq,
)
from topkat.errors import TopNotAllowedError
from topkat.gen import random_term
from topkat.reduction import ExtendedAlphabet, prune_alphabet, reduce, topkat_leq
from topkat.relmodel import SearchBudget, evaluate, search_countermodel
from topkat.semantics import all_strings_bounded, fuse, lang_bounded
from topkat.syntax import Alphabet, Dot, TOP, parse, reverse


AL_PB = Alphabet(("p",), ("b",))
EXHAUSTIVE = SearchBudget(exhaustive=True)


def test_cod_geq_provable_with_exhaustive_cross_check():
    assert isinstance(cod_geq(parse("p", AL_PB), parse("p b", AL_PB), AL_PB), Provable)
    assert search_countermodel("cod_geq", parse("p", AL_PB), parse("p b", AL_PB),
                               AL_PB, 2, EXHAUSTIVE) is None


def test_cod_geq_countermodel_is_verified():
    verdict = cod_geq(parse("p b", AL_PB), parse("p", AL_PB), AL_PB)
    assert isinstance(verdict, RelCountermodel)
    idx = verdict.violating_index
    assert idx in evaluate(parse("p", AL_PB), verdict.interp).cod()
    assert idx not in evaluate(parse("p b", AL_PB), verdict.interp).cod()
    assert len(verdict.carrier) == verdict.witness.num_actions + 1


def test_comparisons_reject_top():
    with pytest.raises(TopNotAllowedError, match="top-free"):
        cod_geq(parse("p T p", AL_PB), parse("p", AL_PB), AL_PB)
    with pytest.raises(TopNotAllowedError):
        dom_geq(parse("p", AL_PB), parse("T", AL_PB), AL_PB)


def test_dom_geq_examples():
    assert isinstance(dom_geq(parse("p", AL_PB), parse("b p", AL_PB), AL_PB), Provable)
    assert search_countermodel("dom_geq", parse("p", AL_PB), parse("b p", AL_PB),
                               AL_PB, 2, EXHAUSTIVE) is None
    verdict = dom_geq(parse("b p", AL_PB), parse("p", AL_PB), AL_PB)
    assert isinstance(verdict, RelCountermodel)
    assert 0 in evaluate(parse("p", AL_PB), verdict.interp).dom()
    assert 0 not in evaluate(parse("b p", AL_PB), verdict.interp).dom()
    assert verdict.violating_point == verdict.witness
    assert len(verdict.carrier) == verdict.witness.num_actions + 1


def test_dom_geq_agrees_with_reversed_cod_geq():
    rng = random.Random(67)
    for _ in range(60):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        direct = dom_geq(t1, t2, ALPHABET)
        mirrored = cod_geq(reverse(t1), reverse(t2), ALPHABET)
        assert isinstance(direct, Provable) == isinstance(mirrored, Provable)


# Each countermodel direction: its builder, how a compared term is padded
# with T for the decision, and where the violating point lies.
DIRECTIONS = {
    "cod": (build_cod_countermodel, lambda t: Dot(TOP, t), lambda n: n - 1),
    "dom": (build_dom_countermodel, lambda t: Dot(t, TOP), lambda n: 0),
}


def _check_countermodel_shape(direction):
    build, pad, violating = DIRECTIONS[direction]
    t1, t2 = parse("p b", AL_PB), parse("p", AL_PB)
    verdict = topkat_leq(pad(t2), pad(t1), AL_PB)
    assert isinstance(verdict, Witness)
    w = verdict.string
    model = build(w, t1, t2, AL_PB)
    assert len(model.carrier) == w.num_actions + 1
    assert model.violating_index == violating(len(model.carrier))
    assert model.violating_point == w
    # carrier element i is keyed on the witness's i-th atom: the last atom
    # of a prefix, the first atom of a suffix
    for i, s in enumerate(model.carrier):
        assert (s.last_atom if direction == "cod" else s.first_atom) == w.atoms[i]
    # the carrier grows one step at a time and primitive steps only move forward
    for name, rel in model.interp.action_map.items():
        assert all(j == i + 1 for i, j in rel.pairs), name
    for name, rel in model.interp.test_map.items():
        assert all(i == j for i, j in rel.pairs), name


def _check_rejects_non_witness(direction):
    build, pad, _ = DIRECTIONS[direction]
    t1, t2 = parse("p b", AL_PB), parse("p", AL_PB)
    good = topkat_leq(pad(t2), pad(t1), AL_PB).string
    with pytest.raises(ValueError, match="witness"):
        build(good, t2, t1, AL_PB)  # sides swapped


def test_build_cod_countermodel_shape():
    _check_countermodel_shape("cod")


def test_build_dom_countermodel_shape():
    _check_countermodel_shape("dom")


def test_build_cod_countermodel_rejects_non_witness():
    _check_rejects_non_witness("cod")


def test_build_dom_countermodel_rejects_non_witness():
    _check_rejects_non_witness("dom")


def test_bounded_prefix_image_matches_reduct_language():
    rng = random.Random(71)
    for _ in range(15):
        t = random_term(rng, AL_PB, 3)
        pruned = prune_alphabet(AL_PB, t)
        ext = ExtendedAlphabet(pruned)
        for n in range(3):
            image = set()
            for s in all_strings_bounded(ext.alphabet, n):
                for s2 in lang_bounded(t, pruned, n - s.num_actions):
                    fused = fuse(s, s2)
                    if fused is not None:
                        image.add(fused)
            direct = lang_bounded(reduce(Dot(TOP, t), pruned), ext.alphabet, n)
            assert image == direct


def test_incompleteness_frontier():
    al = Alphabet(("p",), ())
    # the comparison deciders refuse terms containing T ...
    with pytest.raises(TopNotAllowedError):
        cod_geq(parse("p T p", al), parse("p", al), al)
    # ... the TopKAT decision refutes p T p T >= p T ...
    assert isinstance(topkat_leq(parse("p T", al), parse("p T p T", al), al), Witness)
    # ... and yet p T p >= p has no relational countermodel at n <= 2
    assert search_countermodel("leq", parse("p", al), parse("p T p", al),
                               al, 2, EXHAUSTIVE) is None


def test_domain_comparison_means_containment_not_equality():
    # dom(p) >= dom(b p) is provable although the doms are not always equal
    assert isinstance(dom_geq(parse("p", AL_PB), parse("b p", AL_PB), AL_PB), Provable)
    assert search_countermodel("dom_geq", parse("b p", AL_PB), parse("p", AL_PB),
                               AL_PB, 2, EXHAUSTIVE) is not None
