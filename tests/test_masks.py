"""Node facts and name masks against walks.

Each term node records the names it mentions as two bit masks, and
`check_over` and `prune_alphabet` read them instead of walking the term.
The references here are the walks those functions made before: each mask
decodes to the names a `postorder` walk finds, `check_over` raises what
the walk raises, and `prune_alphabet` keeps what the walk keeps.  The
node's other facts are checked the same way: its kids are its fields that
are terms, and `test_only` and `has_top` say what a walk of it meets.
"""

import importlib
import pickle
import pkgutil

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import rebuild, reverse, terms
import topkat
from topkat import syntax
from topkat.cli import main
from topkat.errors import TopkatError, UndeclaredIdentifierError
from topkat.syntax import Act, Alphabet, check_over, postorder, prune_alphabet

WIDE = Alphabet(("p", "q", "r"), ("b", "c", "d"))
NAMES = WIDE.actions + WIDE.tests


def walk_names(*ts):
    subs = postorder(*ts)
    return ({s.name for s in subs if isinstance(s, Act)},
            {s.name for s in subs if isinstance(s, syntax.Test)})


def walk_check_over(t, alphabet):
    for s in postorder(t):
        if isinstance(s, Act) and s.name not in alphabet.actions:
            raise UndeclaredIdentifierError(f"undeclared action {s.name!r}")
        if isinstance(s, syntax.Test) and s.name not in alphabet.tests:
            raise UndeclaredIdentifierError(f"undeclared test {s.name!r}")


def decode(mask):
    return {name for name, bit in syntax._NAME_BITS.items() if mask & bit}


def outcome(check, *args):
    try:
        check(*args)
    except TopkatError as error:
        return type(error), str(error)
    return None


# Any alphabet over the names of WIDE: a name may be missing, or declared
# with the other sort.
alphabets = st.permutations(NAMES).map(tuple).flatmap(lambda names: st.tuples(
    st.integers(0, len(names)), st.integers(0, len(names))).map(
        lambda cuts: Alphabet(names[:min(cuts)], names[min(cuts):max(cuts)])))


@given(terms(WIDE, allow_top=True))
def test_every_node_masks_the_names_a_walk_finds(t):
    for s in postorder(t):
        assert (decode(s.acts), decode(s.tests)) == walk_names(s)


@given(st.one_of(terms(WIDE), terms(WIDE, allow_top=True)))
def test_every_node_holds_the_facts_a_walk_finds(t):
    for s in postorder(t):
        fields = map(s.__getattribute__, type(s).__match_args__)
        assert s.kids == tuple(f for f in fields if isinstance(f, syntax.Term))
        met = {type(node) for node in postorder(s)}
        assert s.test_only == met.isdisjoint({Act, syntax.Top, syntax.Star})
        assert s.has_top == (syntax.Top in met)


class Pair(syntax.Term):
    """An operator class that lists its operands in `__slots__` only."""

    __slots__ = ("left", "right")


def test_a_new_node_class_needs_no_hook_for_its_operands():
    p, b, top = Act("p"), syntax.Test("b"), syntax.TOP
    pb = syntax.Dot(p, b)
    t = Pair(pb, top)
    assert t.kids == (pb, top)
    assert postorder(t) == [p, b, pb, top, t]
    assert rebuild(t, lambda s: syntax.ONE if s is top else s) == Pair(pb, syntax.ONE)
    assert reverse(t) == Pair(syntax.Dot(b, p), top)
    assert (decode(t.acts), decode(t.tests)) == ({"p"}, {"b"})
    assert t.has_top and not Pair(p, b).has_top
    assert Pair(b, syntax.ONE).test_only and not Pair(p, b).test_only
    assert pickle.loads(pickle.dumps(t)) is t


@given(terms(WIDE, allow_top=True), alphabets)
def test_check_over_raises_what_the_walk_raises(t, alphabet):
    assert outcome(check_over, t, alphabet) == outcome(walk_check_over, t, alphabet)


def test_check_over_names_a_missing_or_missorted_name_as_the_walk_does():
    t = syntax.parse("p (b + q c)* r d", WIDE)
    cases = [Alphabet(("p", "q"), ("b", "c", "d")),  # r missing
             Alphabet(("p", "q", "r"), ("b", "d")),  # c missing
             Alphabet(("p", "q", "r", "c"), ("b", "d")),  # c is an action
             Alphabet(("p", "r"), ("q", "b", "c", "d")),  # q is a test
             Alphabet((), ())]
    for alphabet in cases:
        expected = outcome(walk_check_over, t, alphabet)
        assert expected is not None
        assert outcome(check_over, t, alphabet) == expected
    assert outcome(check_over, t, WIDE) is None


@given(terms(WIDE, allow_top=True), terms(WIDE), alphabets)
def test_prune_alphabet_keeps_what_the_walk_finds_in_declared_order(t1, t2, alphabet):
    acts, tests = walk_names(t1, t2)
    pruned = prune_alphabet(alphabet, t1, t2)
    assert pruned == Alphabet(tuple(n for n in alphabet.actions if n in acts),
                              tuple(n for n in alphabet.tests if n in tests))
    assert (pruned.act_mask, pruned.test_mask) == (
        alphabet.act_mask & t1.acts | alphabet.act_mask & t2.acts,
        alphabet.test_mask & t1.tests | alphabet.test_mask & t2.tests)


def test_an_alphabet_knows_each_sort_and_survives_pickling():
    alphabet = Alphabet(("p", "q"), ("b",))
    assert [alphabet.sort_of(n) for n in ("p", "q", "b", "r", "T")] == [
        "action", "action", "test", None, None]
    copy = pickle.loads(pickle.dumps(alphabet))
    assert copy == alphabet and (copy.act_mask, copy.test_mask) == (
        alphabet.act_mask, alphabet.test_mask)
    assert decode(alphabet.act_mask) == {"p", "q"} and decode(alphabet.test_mask) == {"b"}


# The walks left in a query: the decider's facts, one walk per term it has
# not met (a compared term or a new derivative), and one `evaluate` per
# compared term to verify a countermodel.  Validation, pruning and top-free
# reducts read the node facts: walking the terms for them made these counts
# 9, 10, 13 and 12.  The decider steps T itself: one `rebuild` per term with
# T, which the padded terms of a (co)domain comparison have, made the last
# three 4, 6 and 5.
WALKS = [
    (["decide", "b + 1", "1"], 1),
    (["leq", "T p", "p T"], 2),
    (["cod-geq", "p b", "p"], 4),
    (["dom-geq", "b p", "p"], 3),
]


@pytest.mark.parametrize("argv, walks", WALKS)
def test_walks_per_query(monkeypatch, capsys, argv, walks):
    calls = []

    def counted(*ts):
        calls.append(ts)
        return postorder(*ts)

    for info in pkgutil.iter_modules(topkat.__path__):
        if info.name.startswith("_"):  # __main__ runs the CLI on import
            continue
        module = importlib.import_module(f"topkat.{info.name}")
        if getattr(module, "postorder", None) is postorder:
            monkeypatch.setattr(module, "postorder", counted)
    assert main(argv + ["--tests", "b"]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == walks


# The alphabets built in a query: the declared one, the pruned one when
# pruning drops a name (the test b of the leq query and of the last two),
# and the pruned one's extension by the reserved action, over which the
# terms are decided.  Building an extension for each T's sum-star made the
# first four counts 2, 5, 4, 4.  A refuted comparison prunes once, for its
# decision and its countermodel: pruning again for the countermodel made
# the last two 4.
ALPHABET_BUILDS = [
    (["decide", "b + 1", "1"], 2),
    (["leq", "T p", "p T"], 3),
    (["cod-geq", "p b", "p"], 2),
    (["dom-geq", "b p", "p"], 2),
    (["cod-geq", "p", "p q"], 3),
    (["dom-geq", "p", "q p"], 3),
]


@pytest.mark.parametrize("argv, builds", ALPHABET_BUILDS)
def test_alphabet_builds_per_query(monkeypatch, capsys, argv, builds):
    calls, check = [], syntax.Alphabet._check
    monkeypatch.setattr(syntax.Alphabet, "_check",
                        lambda self: calls.append(self) or check(self))
    assert main(argv + ["--tests", "b"]) in (0, 1)
    capsys.readouterr()
    assert len(calls) == builds
