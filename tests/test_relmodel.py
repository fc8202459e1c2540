import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import ALPHABET
from topkat.errors import ResourceLimitError, UndeclaredIdentifierError
from topkat.gen import random_interpretation, random_relation, random_term
from topkat.relmodel import (
    Relation, RelInterpretation, SearchBudget, check_encoding, evaluate,
    falsify_implication, search_countermodel,
)
from topkat.syntax import Alphabet, parse


AL_PQ = Alphabet(("p", "q"), ())
EXHAUSTIVE = SearchBudget(exhaustive=True)


def interp(n, actions=None, tests=None):
    return RelInterpretation(n, actions or {}, tests or {})


relations = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.builds(Relation, st.just(n),
                        st.integers(min_value=0, max_value=(1 << (n * n)) - 1)))


def test_evaluate_top_is_complete_relation():
    model = interp(2)
    assert evaluate(parse("T", ALPHABET), model) == Relation.full(2)
    assert len(evaluate(parse("T", ALPHABET), model).pairs) == 4


def test_evaluate_star_is_reflexive_transitive_closure():
    model = interp(2, actions={"p": Relation.from_pairs(2, [(0, 1)])})
    got = evaluate(parse("p*", AL_PQ), model)
    assert got == Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)])


def test_evaluate_contradiction_is_empty():
    for diag in range(4):
        model = interp(2, tests={"b": Relation(2, (diag & 1) | ((diag >> 1) << 3))})
        assert evaluate(parse("b !b", ALPHABET), model) == Relation.empty(2)


def test_evaluate_requires_interpretation():
    with pytest.raises(UndeclaredIdentifierError):
        evaluate(parse("p", ALPHABET), interp(2))


@given(relations)
def test_dom_cod_converse(r):
    assert r.converse().converse() == r
    assert r.converse().dom() == r.cod()
    assert r.converse().cod() == r.dom()
    if r.pairs:
        i, j = r.pairs[0]
        assert i in r.dom() and j in r.cod()


def test_dom_cod_on_singleton():
    r = Relation.from_pairs(3, [(1, 2)])
    assert r.dom() == frozenset({1})
    assert r.cod() == frozenset({2})


@given(relations)
def test_star_is_union_of_powers(r):
    power = Relation.identity(r.n)
    union = power
    for _ in range(r.n):
        power = power.compose(r)
        union = union.union(power)
    assert r.star() == union


def test_evaluate_monotone_in_action_relations():
    rng = random.Random(53)
    for _ in range(60):
        t = random_term(rng, ALPHABET, 3)
        n = rng.randint(1, 3)
        small = random_interpretation(rng, n, ALPHABET)
        grown = RelInterpretation(
            n,
            {name: rel.union(random_relation(rng, n))
             for name, rel in small.action_map.items()},
            dict(small.test_map))
        assert evaluate(t, small).subset_of(evaluate(t, grown))


def test_check_encoding_trivial_cases():
    rng = random.Random(59)
    model = random_interpretation(rng, 3, ALPHABET)
    report = check_encoding(model, parse("p", ALPHABET), parse("0", ALPHABET))
    assert report.dom_via_top and report.cod_via_top
    report = check_encoding(model, parse("p q", ALPHABET), parse("p q", ALPHABET))
    assert report.dom_direct and report.cod_direct


def test_check_encoding_biconditionals_hold_on_random_models():
    rng = random.Random(61)
    for _ in range(1000):
        n = rng.randint(2, 4)
        model = random_interpretation(rng, n, ALPHABET)
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        report = check_encoding(model, t1, t2)
        assert report.dom_agrees and report.cod_agrees


def test_search_respects_relational_validity_of_ptp():
    hit = search_countermodel("leq", parse("p", AL_PQ), parse("p T p", AL_PQ),
                              AL_PQ, 2, EXHAUSTIVE)
    assert hit is None


def test_search_finds_first_countermodel_in_enumeration_order():
    hit = search_countermodel("leq", parse("p", AL_PQ), parse("q", AL_PQ),
                              AL_PQ, 1, EXHAUSTIVE)
    assert hit is not None
    assert hit.interp.n == 1
    assert hit.interp.action_map["p"].pairs == ((0, 0),)
    assert hit.interp.action_map["q"].pairs == ()
    assert hit.violating_pair == (0, 0)


def test_search_cod_geq_finds_countermodel():
    hit = search_countermodel("cod_geq", parse("p b", ALPHABET), parse("p", ALPHABET),
                              ALPHABET, 2, EXHAUSTIVE)
    assert hit is not None
    r1 = evaluate(parse("p b", ALPHABET), hit.interp)
    r2 = evaluate(parse("p", ALPHABET), hit.interp)
    assert hit.violating_point in r2.cod() - r1.cod()


def test_search_equality_kind():
    hit = search_countermodel("equality", parse("p", AL_PQ), parse("p + q", AL_PQ),
                              AL_PQ, 1, EXHAUSTIVE)
    assert hit is not None
    assert evaluate(parse("p", AL_PQ), hit.interp) \
        != evaluate(parse("p + q", AL_PQ), hit.interp)


def test_search_random_mode_is_reproducible():
    budget = SearchBudget(exhaustive=False, samples=300, seed=99)
    first = search_countermodel("leq", parse("p", AL_PQ), parse("q", AL_PQ),
                                AL_PQ, 2, budget)
    second = search_countermodel("leq", parse("p", AL_PQ), parse("q", AL_PQ),
                                 AL_PQ, 2, budget)
    assert first == second
    assert first is not None


def test_search_budget_requires_seed():
    with pytest.raises(ValueError):
        SearchBudget(exhaustive=False, samples=10)


@pytest.mark.parametrize("samples", [0, -5])
def test_search_budget_requires_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        SearchBudget(exhaustive=False, samples=samples, seed=1)


def test_exhaustive_ceiling():
    wide = Alphabet(("p", "q", "r"), ())
    with pytest.raises(ResourceLimitError, match="134221832 interpretations"):
        search_countermodel("leq", parse("p q r", wide), parse("p", wide),
                            wide, 3, SearchBudget(exhaustive=True, ceiling=10_000))


def test_test_relations_must_be_sub_identity():
    with pytest.raises(ValueError):
        RelInterpretation(2, {}, {"b": Relation.from_pairs(2, [(0, 1)])})


def test_falsify_implication_sequencing_instance():
    one = parse("1", AL_PQ)
    p, q = parse("p", AL_PQ), parse("q", AL_PQ)
    hit = falsify_implication(
        [(p, one), (q, one)], (parse("p q", AL_PQ), one), AL_PQ, 2, EXHAUSTIVE)
    assert hit is None


def test_falsify_implication_empty_hypotheses():
    hit = falsify_implication([], (parse("p", AL_PQ), parse("q", AL_PQ)),
                              AL_PQ, 2, EXHAUSTIVE)
    assert hit is not None
    r_p = evaluate(parse("p", AL_PQ), hit.interp)
    r_q = evaluate(parse("q", AL_PQ), hit.interp)
    assert not r_p.cod() <= r_q.cod()


def test_falsify_implication_unsatisfiable_hypothesis():
    hit = falsify_implication([(parse("1", AL_PQ), parse("0", AL_PQ))],
                              (parse("p", AL_PQ), parse("q", AL_PQ)),
                              AL_PQ, 2, EXHAUSTIVE)
    assert hit is None
