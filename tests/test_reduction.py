import json
import random

import pytest

from conftest import ALPHABET, embed_back, extended, reduce, sum_star
from topkat import reduction, syntax
from topkat.cli import main
from topkat.decide import Equivalent, Witness, equivalent, leq, member
from topkat.errors import UndeclaredIdentifierError
from topkat.gen import random_term
from topkat.reduction import TOP_ACTION, prune_alphabet, topkat_equivalent, topkat_leq
from topkat.syntax import Act, Alphabet, Dot, TOP, parse, render


AL_P = Alphabet(("p",), ())


def test_reduce_examples():
    assert render(reduce(parse("T", AL_P), AL_P)) == "(p + __top__)*"
    assert reduce(parse("p b", ALPHABET), ALPHABET) == parse("p b", ALPHABET)
    assert render(reduce(parse("T p T", AL_P), AL_P)) \
        == "(p + __top__)* p (p + __top__)*"


def test_reduce_output_is_top_free():
    rng = random.Random(31)
    from topkat.syntax import contains_top
    for _ in range(50):
        t = random_term(rng, ALPHABET, 4, allow_top=True)
        assert not contains_top(reduce(t, ALPHABET))


def test_embed_back_examples():
    assert embed_back(Act(TOP_ACTION)) == TOP
    assert embed_back(parse("p", AL_P)) == parse("p", AL_P)
    assert embed_back(sum_star(AL_P)) == parse("(p + T)*", AL_P)


def test_round_trip_is_topkat_equivalent():
    rng = random.Random(37)
    for _ in range(100):
        t = random_term(rng, ALPHABET, 4, allow_top=True)
        back = embed_back(reduce(t, ALPHABET))
        assert isinstance(topkat_equivalent(back, t, ALPHABET), Equivalent)


def test_top_is_largest():
    ext = extended(ALPHABET)
    top_reduct = reduce(TOP, ALPHABET)
    rng = random.Random(41)
    for _ in range(50):
        t = random_term(rng, ext, 4)
        assert isinstance(leq(t, top_reduct, ext), Equivalent)


def test_topkat_equivalent_same_reduct():
    t = embed_back(reduce(parse("T", AL_P), AL_P))
    assert isinstance(topkat_equivalent(parse("T", AL_P), t, AL_P), Equivalent)


def test_topkat_leq_examples():
    assert isinstance(topkat_leq(parse("p", AL_P), parse("T", AL_P), AL_P), Equivalent)
    assert isinstance(
        topkat_leq(parse("T p", ALPHABET), parse("T (p + q)", ALPHABET), ALPHABET),
        Equivalent)
    assert isinstance(topkat_leq(parse("p", AL_P), parse("p T p", AL_P), AL_P), Witness)


def test_incompleteness_instance():
    # p T p T >= p T is not provable, while the converse direction is
    assert isinstance(topkat_leq(parse("p T", AL_P), parse("p T p T", AL_P), AL_P),
                      Witness)
    assert isinstance(topkat_leq(parse("p T p T", AL_P), parse("p T", AL_P), AL_P),
                      Equivalent)


def test_topkat_monotone_in_bounded_language():
    # cross-check T p <= T (p + q) on bounded languages over the extended alphabet
    pruned = prune_alphabet(ALPHABET, parse("T p", ALPHABET), parse("T (p + q)", ALPHABET))
    ext = extended(pruned)
    from topkat.semantics import lang_bounded
    r1 = reduce(parse("T p", ALPHABET), pruned)
    r2 = reduce(parse("T (p + q)", ALPHABET), pruned)
    for n in range(3):
        assert lang_bounded(r1, ext, n) <= lang_bounded(r2, ext, n)


def test_conservative_over_top_free_terms():
    rng = random.Random(43)
    for _ in range(60):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        plain = equivalent(t1, t2, ALPHABET)
        lifted = topkat_equivalent(t1, t2, ALPHABET)
        assert isinstance(plain, Equivalent) == isinstance(lifted, Equivalent)


def test_pruning_does_not_change_verdicts():
    wide = Alphabet(("p", "q", "r"), ("b", "c", "d"))
    rng = random.Random(47)
    narrow_terms = Alphabet(("p",), ("b",))
    for _ in range(40):
        t1 = random_term(rng, narrow_terms, 3, allow_top=True)
        t2 = random_term(rng, narrow_terms, 3, allow_top=True)
        assert isinstance(topkat_equivalent(t1, t2, wide), Equivalent) \
            == isinstance(topkat_equivalent(t1, t2, narrow_terms), Equivalent)


def test_witness_verifies_on_reducts():
    v = topkat_leq(parse("T", AL_P), parse("T p", AL_P), AL_P)
    assert isinstance(v, Witness)
    pruned = prune_alphabet(AL_P, parse("T", AL_P), parse("T p", AL_P))
    assert member(v.string, reduce(parse("T", AL_P), pruned))
    assert not member(v.string, reduce(Dot(TOP, parse("p", AL_P)), pruned))


def test_extended_alphabet_guards_reserved_name():
    # declared and used, the reserved name would clash with T's stand-in;
    # declared but unused, it is pruned away before the extension
    p = Act("p")
    for declared, reserved in ((Alphabet(("p", TOP_ACTION), ()), Act(TOP_ACTION)),
                               (Alphabet(("p",), (TOP_ACTION,)), syntax.Test(TOP_ACTION))):
        for decision in (topkat_equivalent, topkat_leq):
            for t1, t2 in ((reserved, TOP), (p, Dot(p, reserved))):
                with pytest.raises(ValueError, match="^'__top__' must not be declared"
                                                     " in the base alphabet$"):
                    decision(t1, t2, declared)
            assert isinstance(decision(p, Dot(p, TOP) if decision is topkat_leq else p,
                                       declared), Equivalent)
        assert reduction._extended(p, TOP, declared) == Alphabet(("p", TOP_ACTION), ())


def test_reduce_with_no_declared_actions():
    empty = Alphabet((), ())
    assert render(reduce(parse("T", empty), empty)) == "__top__*"
    assert isinstance(topkat_equivalent(parse("T T", empty), parse("T", empty), empty),
                      Equivalent)


@pytest.mark.parametrize("tests", [(), ("b",), ("b", "c", "d")])
def test_the_engine_decides_top_as_its_reduct(tests):
    # the engine steps T itself; deciding the written-out reducts is the oracle
    alphabet = Alphabet(("p", "q"), tests)
    rng = random.Random(53 + len(tests))
    witnesses = 0
    for _ in range(150):
        t1, t2 = (random_term(rng, alphabet, 4, allow_top=True) for _ in range(2))
        pruned = prune_alphabet(alphabet, t1, t2)
        ext = extended(pruned)
        r1, r2 = reduce(t1, pruned), reduce(t2, pruned)
        for native, oracle in ((equivalent, equivalent), (leq, leq),
                               (topkat_equivalent, equivalent), (topkat_leq, leq)):
            verdict = native(t1, t2, ext if native in (equivalent, leq) else alphabet)
            assert verdict == oracle(r1, r2, ext)
            witnesses += isinstance(verdict, Witness)
    assert 0 < witnesses < 600


@pytest.mark.parametrize("decision", [topkat_equivalent, topkat_leq])
def test_the_reserved_action_is_undeclared_in_a_topkat_decision(decision):
    # only T stands for the reserved action: written out, it is undeclared,
    # on either side, though the decision runs over the extended alphabet
    reserved = Act(TOP_ACTION)
    for t1, t2 in ((reserved, TOP), (TOP, Dot(parse("p", AL_P), reserved))):
        with pytest.raises(UndeclaredIdentifierError, match="^undeclared action '__top__'$"):
            decision(t1, t2, AL_P)


# (actions, tests, the actions the terms draw from): names that contain T,
# no actions at all, and declared actions that no term uses, since the
# sum-star runs over the whole declared alphabet
PRINTER_ALPHABETS = [
    (("p", "q"), ("b", "c"), ("p", "q")),
    ((), ("b",), ()),
    (("p",), (), ("p",)),
    (("p", "q", "r"), (), ("q",)),
    (("T1", "a_T"), ("Tb",), ("T1", "a_T")),
    (("T1", "a_T", "p"), ("Tb",), ("a_T",)),
]


@pytest.mark.parametrize("actions, tests, drawn", PRINTER_ALPHABETS)
def test_the_reduce_command_prints_the_reduct(capsys, actions, tests, drawn):
    alphabet = Alphabet(actions, tests)
    flags = ["--actions", ",".join(actions), "--tests", ",".join(tests)]
    rng = random.Random(59 + len(actions) + len(tests))
    with_top = 0
    for _ in range(250):
        t = random_term(rng, Alphabet(drawn, tests), 5, allow_top=True)
        with_top += t.has_top
        reduct = render(reduce(t, alphabet))
        assert main(["reduce", *flags, render(t)]) == 0
        assert capsys.readouterr().out == reduct + "\n"
        assert main(["reduce", "--json", *flags, render(t)]) == 0
        assert json.loads(capsys.readouterr().out) == {"v": 1, "reduct": reduct}
    assert with_top >= 50
