import random
import sys

import pytest

from topkat import decide
from topkat.decide import Equivalent, Witness, member
from topkat.domain import cod_geq
from topkat.errors import ParseError, SortError, TopNotAllowedError
from topkat.gen import random_term, random_test_term
from topkat.logic import (
    Triple, check_triple, rule_instance, split_triple_line,
)
from topkat.reduction import topkat_equivalent, topkat_leq
from topkat.relmodel import SearchBudget, evaluate, falsify_implication, search_countermodel
from topkat.syntax import Alphabet, Dot, Not, TOP, ZERO, parse


AL_PB = Alphabet(("p",), ("b", "c"))
EXHAUSTIVE = SearchBudget(exhaustive=True)


def triple(kind, pre, prog, post, alphabet=AL_PB):
    return Triple(kind, parse(pre, alphabet), parse(prog, alphabet), parse(post, alphabet))


def test_triple_validation():
    with pytest.raises(SortError):
        triple("hoare", "p", "p", "b")
    with pytest.raises(TopNotAllowedError):
        triple("incorrectness", "b", "p T", "c")
    with pytest.raises(ValueError):
        triple("partial", "b", "p", "c")


def test_check_triple_decides_what_its_docstring_states(monkeypatch):
    calls, decision = [], decide.equivalent
    for module in (m for name, m in sys.modules.items() if name.startswith("topkat")):
        if getattr(module, "equivalent", None) is decision:
            monkeypatch.setattr(module, "equivalent",
                                lambda *args: calls.append(1) or decision(*args))
    rng, seen = random.Random(83), set()
    for _ in range(100):
        pre, prog, post = (random_test_term(rng, AL_PB, 2), random_term(rng, AL_PB, 2),
                           random_test_term(rng, AL_PB, 2))
        reach = Dot(pre, prog)
        hoare = topkat_equivalent(Dot(reach, Not(post)), ZERO, AL_PB)
        cod_post, cod_reach = Dot(TOP, post), Dot(TOP, reach)
        expected = {("hoare", "under"): hoare, ("hoare", "as-printed"): hoare,
                    ("incorrectness", "under"): topkat_leq(cod_post, cod_reach, AL_PB),
                    ("incorrectness", "as-printed"): topkat_leq(cod_reach, cod_post, AL_PB)}
        for (kind, direction), verdict in expected.items():
            calls.clear()
            assert check_triple(Triple(kind, pre, prog, post), AL_PB, direction) == verdict
            assert len(calls) == 1
            seen.add(type(verdict))
    assert seen == {Equivalent, Witness}


def test_check_triple_hoare():
    assert isinstance(check_triple(triple("hoare", "b", "p", "1"), AL_PB), Equivalent)
    assert isinstance(check_triple(triple("hoare", "b", "b p c", "c"), AL_PB), Equivalent)
    refuted = check_triple(triple("hoare", "b", "p", "c"), AL_PB)
    assert not isinstance(refuted, Equivalent)
    assert member(refuted.string, parse("b p !c", AL_PB))


def test_hoare_triples_count_only_the_tests_that_occur():
    wide = Alphabet(("p", "q"), tuple(f"b{i}" for i in range(11)))  # over the atom cap
    assert isinstance(check_triple(triple("hoare", "b0", "p b1", "b1 + b0", wide), wide),
                      Equivalent)
    refuted = check_triple(triple("hoare", "b3", "p", "b10", wide), wide)
    assert refuted.string.atoms[0].tests == ("b3", "b10")
    assert member(refuted.string, parse("b3 p !b10", wide))


def test_check_triple_incorrectness():
    assert isinstance(check_triple(triple("incorrectness", "1", "p", "0"), AL_PB),
                      Equivalent)
    assert isinstance(check_triple(triple("incorrectness", "b", "b p", "0"), AL_PB),
                      Equivalent)
    refuted = check_triple(triple("incorrectness", "1", "p", "1"), AL_PB)
    assert isinstance(refuted, Witness)
    assert refuted.string.num_actions == 0  # an atom outside the codomain


def test_check_triple_as_printed_direction_differs():
    tr = triple("incorrectness", "1", "p", "1")
    under = check_triple(tr, AL_PB)
    printed = check_triple(tr, AL_PB, direction="as-printed")
    assert isinstance(under, Witness)
    assert isinstance(printed, Equivalent)  # cod(1 p) <= cod(1) holds trivially


def test_incorrectness_verdicts_match_relational_search_at_n2():
    rng = random.Random(73)
    checked_refuted = 0
    for _ in range(200):
        tr = Triple("incorrectness",
                    random_test_term(rng, AL_PB, 2),
                    random_term(rng, AL_PB, 2),
                    random_test_term(rng, AL_PB, 2))
        verdict = check_triple(tr, AL_PB)
        prog = Dot(tr.pre, tr.prog)
        if isinstance(verdict, Equivalent):
            assert search_countermodel("cod_geq", prog, tr.post, AL_PB,
                                       2, EXHAUSTIVE) is None
        else:
            checked_refuted += 1
            model = cod_geq(prog, tr.post, AL_PB)
            assert model.witness == verdict.string
            idx = model.violating_index
            assert idx in evaluate(tr.post, model.interp).cod()
            assert idx not in evaluate(prog, model.interp).cod()
    assert checked_refuted > 0


def test_hoare_verdicts_match_relational_cod_inclusion_at_n2():
    rng = random.Random(79)
    for _ in range(200):
        tr = Triple("hoare",
                    random_test_term(rng, AL_PB, 2),
                    random_term(rng, AL_PB, 2),
                    random_test_term(rng, AL_PB, 2))
        verdict = check_triple(tr, AL_PB)
        if isinstance(verdict, Equivalent):
            # no n<=2 model may reach a state outside the postcondition
            hit = search_countermodel(
                "leq", Dot(Dot(tr.pre, tr.prog), Not(tr.post)),
                parse("0", AL_PB), AL_PB, 2, EXHAUSTIVE)
            assert hit is None
        else:
            assert member(verdict.string, Dot(Dot(tr.pre, tr.prog), Not(tr.post)))


def test_rule_instance_shapes():
    one = parse("1", AL_PB)
    p = parse("p", AL_PB)
    hyps, goal = rule_instance("sequencing", [one, one, one, p, p])
    assert len(hyps) == 2 and goal == (parse("1 p p", AL_PB), one)
    with pytest.raises(ValueError, match="5 terms"):
        rule_instance("sequencing", [one, p])
    with pytest.raises(SortError):
        rule_instance("choice", [p, one, p, p])
    with pytest.raises(ValueError, match="unknown rule"):
        rule_instance("frame", [one])


def test_rule_parameters_must_be_top_free():
    one, p = parse("1", AL_PB), parse("p", AL_PB)
    with pytest.raises(TopNotAllowedError, match="^rule parameters must be top-free$"):
        rule_instance("choice", [one, one, TOP, p])


def test_check_triple_rejects_an_unknown_direction():
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$") as caught:
        check_triple(triple("incorrectness", "b", "p", "c"), AL_PB, direction="sideways")
    assert type(caught.value) is ValueError


def test_named_rules_survive_exhaustive_search():
    one = parse("1", AL_PB)
    b, c = parse("b", AL_PB), parse("c", AL_PB)
    p = parse("p", AL_PB)
    for rule, terms in (("sequencing", [b, c, one, p, p]), ("choice", [b, c, p, p]),
                        ("consequence", [b, one, c, one, p])):
        assert falsify_implication(*rule_instance(rule, terms), AL_PB, 2, EXHAUSTIVE) is None


def test_broken_rule_is_refuted():
    al = Alphabet(("p", "q"), ())
    hit = falsify_implication([], (parse("p", al), parse("q", al)), al, 2, EXHAUSTIVE)
    assert hit is not None


def test_triple_parsing():
    def parse_line(line):
        kind, *parts = split_triple_line(line)
        return Triple(kind, *(parse(part, AL_PB) for part in parts))

    assert split_triple_line("hoare {b} p;p {c}") == ("hoare", "b", " p;p ", "c")
    assert parse_line("hoare {b} p;p {c}") == triple("hoare", "b", "p p", "c")
    assert parse_line("incorrectness [b] p [c]").kind == "incorrectness"
    with pytest.raises(ParseError):
        split_triple_line("hoare [b] p [c]")
