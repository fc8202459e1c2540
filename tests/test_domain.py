import random

import pytest

from conftest import ALPHABET, extended, fuse, reduce, reverse, sum_star
from topkat import decide, syntax
from topkat.decide import Witness, member
from topkat.domain import (
    Provable, RelCountermodel, build_cod_countermodel, build_dom_countermodel, cod_geq,
    dom_geq,
)
from topkat.errors import TopNotAllowedError, TopkatError, UndeclaredIdentifierError
from topkat.gen import random_term
from topkat.reduction import prune_alphabet, topkat_equivalent, topkat_leq
from topkat.relmodel import SearchBudget, evaluate, search_countermodel
from topkat.semantics import lang_bounded
from topkat.syntax import Act, Alphabet, Dot, TOP, parse


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
    assert verdict.carrier[verdict.violating_index] == verdict.witness
    assert len(verdict.carrier) == verdict.witness.num_actions + 1


def test_dom_geq_agrees_with_reversed_cod_geq():
    # dom_geq decides one inequation; this duality is its cross-check
    rng = random.Random(67)
    provable, lengths = 0, set()
    for _ in range(60):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        direct = dom_geq(t1, t2, ALPHABET)
        mirrored = cod_geq(reverse(t1), reverse(t2), ALPHABET)
        assert isinstance(direct, Provable) == isinstance(mirrored, Provable)
        if isinstance(direct, Provable):
            provable += 1
        else:
            # reversing strings maps one shortest difference onto the other
            assert direct.witness.num_actions == mirrored.witness.num_actions
            lengths.add(direct.witness.num_actions)
    assert 0 < provable < 60
    assert len(lengths) > 1


@pytest.mark.parametrize("compare", [cod_geq, dom_geq])
def test_each_comparison_makes_one_decision(monkeypatch, compare):
    calls, engines = [], []
    decision = decide.equivalent
    monkeypatch.setattr(decide, "equivalent",
                        lambda *args: calls.append(args[:2]) or decision(*args))

    class CountingEngine(decide._Engine):
        def __init__(self, *args):
            engines.append(1)
            super().__init__(*args)

    monkeypatch.setattr(decide, "_Engine", CountingEngine)
    # cod(p b) and dom(b p) lie inside those of p, and not conversely
    narrow = parse({cod_geq: "p b", dom_geq: "b p"}[compare], AL_PB)
    wide = parse("p", AL_PB)
    for t1, t2, verdict in ((wide, narrow, Provable), (narrow, wide, RelCountermodel)):
        calls.clear()
        engines.clear()
        assert isinstance(compare(t1, t2, AL_PB), verdict)
        assert len(calls) == 1
        # the decision re-checks its witness on its own engine; the
        # countermodel is built from that witness without another check
        assert len(engines) == 1
        # the engine steps T itself: the padded terms reach it unrewritten
        assert all(t.has_top for t in calls[0])


# An identifier error names the first bad node of the term decided on the
# smaller side: t1 for the TopKAT deciders, t2 for the comparisons.
IDENTIFIER_ERRORS = [
    (Dot(Act("x"), syntax.Test("c")), syntax.Test("d"),
     "undeclared action 'x'", "undeclared test 'd'"),
    (Act("b"), syntax.Test("p"), "undeclared action 'b'", "undeclared test 'p'"),
    (syntax.Test("p"), Act("b"), "undeclared test 'p'", "undeclared action 'b'"),
]


@pytest.mark.parametrize("t1, t2, topkat_message, comparison_message", IDENTIFIER_ERRORS)
def test_identifier_errors_name_the_first_bad_node(t1, t2, topkat_message,
                                                   comparison_message):
    for decide_topkat in (topkat_equivalent, topkat_leq):
        with pytest.raises(UndeclaredIdentifierError, match=f"^{topkat_message}$"):
            decide_topkat(t1, t2, AL_PB)
    for compare in (cod_geq, dom_geq):
        with pytest.raises(UndeclaredIdentifierError, match=f"^{comparison_message}$"):
            compare(t1, t2, AL_PB)


def test_an_undeclared_name_beside_top():
    for decide_topkat in (topkat_equivalent, topkat_leq):
        with pytest.raises(UndeclaredIdentifierError, match="^undeclared action 'x'$"):
            decide_topkat(Act("x"), TOP, AL_PB)
    for compare in (cod_geq, dom_geq):
        with pytest.raises(TopNotAllowedError, match="top-free"):
            compare(Act("x"), TOP, AL_PB)


# Each countermodel direction: its comparison, its builder, how a compared
# term is padded with T for the decision, and where the violating point lies.
DIRECTIONS = {
    "cod": (cod_geq, build_cod_countermodel, lambda t: Dot(TOP, t), lambda n: n - 1),
    "dom": (dom_geq, build_dom_countermodel, lambda t: Dot(t, TOP), lambda n: 0),
}


def _check_countermodel_shape(direction):
    compare, _, pad, violating = DIRECTIONS[direction]
    t1, t2 = parse("p b", AL_PB), parse("p", AL_PB)
    model = compare(t1, t2, AL_PB)
    assert isinstance(model, RelCountermodel)
    w = model.witness
    assert w == topkat_leq(pad(t2), pad(t1), AL_PB).string
    assert len(model.carrier) == w.num_actions + 1
    assert model.violating_index == violating(len(model.carrier))
    assert model.carrier[model.violating_index] == w
    # carrier element i is keyed on the witness's i-th atom: the last atom
    # of a prefix, the first atom of a suffix
    for i, s in enumerate(model.carrier):
        assert (s.last_atom if direction == "cod" else s.atoms[0]) == w.atoms[i]
    # the carrier grows one step at a time and primitive steps only move forward
    for name, rel in model.interp.action_map.items():
        assert all(j == i + 1 for i, j in rel.pairs), name
    for name, rel in model.interp.test_map.items():
        assert all(i == j for i, j in rel.pairs), name


def _check_rejects_non_witness(direction):
    # without a membership check of its own, the relational verification
    # is what stops a string that does not separate the terms
    _, build, pad, _ = DIRECTIONS[direction]
    t1, t2 = parse("p b", AL_PB), parse("p", AL_PB)
    good = topkat_leq(pad(t2), pad(t1), AL_PB).string
    with pytest.raises(TopkatError, match="countermodel failed verification"):
        build(good, t2, t1, AL_PB)  # sides swapped


def test_build_cod_countermodel_shape():
    _check_countermodel_shape("cod")


def test_build_dom_countermodel_shape():
    _check_countermodel_shape("dom")


def test_build_cod_countermodel_rejects_non_witness():
    _check_rejects_non_witness("cod")


def test_build_dom_countermodel_rejects_non_witness():
    _check_rejects_non_witness("dom")


@pytest.mark.parametrize("direction", sorted(DIRECTIONS))
def test_countermodel_witness_separates_the_reducts(direction):
    # the membership check the comparisons no longer make, kept as an oracle
    compare, _, pad, _ = DIRECTIONS[direction]
    rng = random.Random(73)
    refuted = 0
    for _ in range(60):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        verdict = compare(t1, t2, ALPHABET)
        if isinstance(verdict, Provable):
            continue
        refuted += 1
        pruned = prune_alphabet(ALPHABET, t1, t2)
        w = verdict.witness
        assert member(w, reduce(pad(t2), pruned))
        assert not member(w, reduce(pad(t1), pruned))
    assert refuted >= 10


def test_bounded_prefix_image_matches_reduct_language():
    rng = random.Random(71)
    for _ in range(15):
        t = random_term(rng, AL_PB, 3)
        pruned = prune_alphabet(AL_PB, t)
        ext = extended(pruned)
        for n in range(3):
            image = set()
            for s in lang_bounded(sum_star(pruned), ext, n):
                for s2 in lang_bounded(t, pruned, n - s.num_actions):
                    fused = fuse(s, s2)
                    if fused is not None:
                        image.add(fused)
            direct = lang_bounded(reduce(Dot(TOP, t), pruned), ext, n)
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
