import itertools
import random

import pytest
from hypothesis import given

from conftest import ALPHABET, fuse, terms, boolean_terms
from topkat.errors import ParseError, ResourceLimitError, SortError, TopNotAllowedError
from topkat.gen import random_term
from topkat.semantics import (
    Atom, GuardedString, all_atoms, gs_sort_key,
    STRING_CAP, lang_bounded, parse_guarded_string,
)
from topkat.syntax import Alphabet, Dot, Not, Plus, parse


def atom(bits, tests=("b", "c")):
    return Atom(tuple(tests), tuple(bits))


def test_atoms_are_interned_and_immutable():
    first, second = all_atoms(ALPHABET), all_atoms(ALPHABET)
    assert first is second  # one cached tuple per tests tuple
    assert all(a is b for a, b in zip(first, second))
    assert parse_guarded_string("[b&!c]", ALPHABET).atoms[0] is atom((True, False))
    with pytest.raises(AttributeError):
        first[0].bits = (True, True)


def test_all_atoms_orders_and_counts():
    empty = Alphabet((), ())
    assert all_atoms(empty) == (Atom((), ()),)
    one = Alphabet((), ("b",))
    assert [a.bits for a in all_atoms(one)] == [(False,), (True,)]
    assert len(all_atoms(Alphabet((), ("b", "c")))) == 4


def test_all_atoms_cap():
    assert len(all_atoms(Alphabet((), tuple(f"t{i}" for i in range(10))))) == 1024
    big = Alphabet((), tuple(f"t{i}" for i in range(11)))
    with pytest.raises(ResourceLimitError, match="11 tests exceed the atom cap of 10"):
        all_atoms(big)


def satisfies(a, t):
    """Whether the atom satisfies the test-only term: its one-atom string
    lies in the term's language."""
    return GuardedString((a,), ()) in lang_bounded(t, ALPHABET, 0)


def test_satisfies():
    a = atom((True, False))
    assert satisfies(a, parse("b !c", ALPHABET))
    assert not satisfies(a, parse("c", ALPHABET))
    for bits in itertools.product((False, True), repeat=2):
        assert satisfies(atom(bits), parse("b + !b", ALPHABET))
        assert not satisfies(atom(bits), parse("0", ALPHABET))
    with pytest.raises(SortError):
        Not(parse("p", ALPHABET))


def test_satisfies_names_a_deep_term_without_recursing():
    # only a test-only term has a truth value: negating 3000 nested
    # sequences is refused, and the message renders the operand
    with pytest.raises(SortError, match="^negation requires a test-only term, got 'p p p "):
        Not(parse("p " * 3000, ALPHABET))


@given(boolean_terms())
def test_satisfies_respects_boolean_rewrites(t):
    for a in all_atoms(ALPHABET):
        match t:
            case Plus(l, r):
                assert satisfies(a, t) == satisfies(a, Plus(r, l))
                assert satisfies(a, Not(t)) == satisfies(a, Dot(Not(l), Not(r)))
            case Dot(l, r):
                assert satisfies(a, Not(t)) == satisfies(a, Plus(Not(l), Not(r)))
            case Not(x):
                assert satisfies(a, Not(t)) == satisfies(a, x)
            case _:
                pass


def test_fuse():
    a0, a1 = all_atoms(Alphabet(("p", "q"), ("b",)))[:2]
    unit = GuardedString((a0,), ())
    s = GuardedString((a0, a1), ("p",))
    assert fuse(unit, s) == s
    assert fuse(s, unit) is None  # boundary mismatch: ends a1, starts a0
    assert fuse(s, GuardedString((a0, a1), ("q",))) is None
    t = GuardedString((a1, a0), ("q",))
    assert fuse(s, t) == GuardedString((a0, a1, a0), ("p", "q"))


def test_fuse_associative_where_defined():
    al = Alphabet(("p",), ("b",))
    strings = sorted(lang_bounded(parse("p*", al), al, 2), key=gs_sort_key(al))
    for s1, s2, s3 in itertools.islice(itertools.product(strings, repeat=3), 2000):
        left = fuse(s1, s2) and fuse(fuse(s1, s2), s3)
        right = fuse(s2, s3) and fuse(s1, fuse(s2, s3))
        assert left == right


def test_lang_bounded_identity_is_all_atoms():
    al = Alphabet(("p",), ("b",))
    got = lang_bounded(parse("1", al), al, 2)
    assert got == frozenset(GuardedString((a,), ()) for a in all_atoms(al))


def test_lang_bounded_single_action():
    al = Alphabet(("p",), ("b",))
    got = lang_bounded(parse("p", al), al, 1)
    atoms = all_atoms(al)
    assert got == frozenset(GuardedString((a, b), ("p",)) for a in atoms for b in atoms)
    assert lang_bounded(parse("p", al), al, 0) == frozenset()


def test_lang_bounded_star_by_hand():
    al = Alphabet(("p",), ())
    e = all_atoms(al)[0]
    got = lang_bounded(parse("p*", al), al, 2)
    assert got == frozenset({
        GuardedString((e,), ()),
        GuardedString((e, e), ("p",)),
        GuardedString((e, e, e), ("p", "p")),
    })


def test_lang_bounded_refuses_more_than_the_string_cap():
    nine = Alphabet(("p",), tuple("bcdefghij"))
    assert len(all_atoms(nine)) ** 2 > STRING_CAP
    with pytest.raises(ResourceLimitError, match="guarded strings"):
        lang_bounded(parse("p", nine), nine, 1)
    assert len(lang_bounded(parse("p", nine), nine, 0)) == 0


def test_lang_bounded_rejects_top():
    with pytest.raises(TopNotAllowedError):
        lang_bounded(parse("T", ALPHABET), ALPHABET, 1)


def test_lang_bounded_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="^max_actions must be >= 0$") as caught:
        lang_bounded(parse("p", ALPHABET), ALPHABET, -1)
    assert type(caught.value) is ValueError


@given(terms())
def test_lang_bounded_monotone_and_bounded(t):
    smaller = lang_bounded(t, ALPHABET, 1)
    larger = lang_bounded(t, ALPHABET, 2)
    assert smaller <= larger
    assert all(s.num_actions <= 2 for s in larger)


def test_lang_bounded_dot_is_fusion():
    rng = random.Random(11)
    for _ in range(30):
        t1, t2 = random_term(rng, ALPHABET, 3), random_term(rng, ALPHABET, 3)
        n = 3
        combined = lang_bounded(parse("0", ALPHABET), ALPHABET, 0) | {
            fused
            for s1 in lang_bounded(t1, ALPHABET, n)
            for s2 in lang_bounded(t2, ALPHABET, n - s1.num_actions)
            if (fused := fuse(s1, s2)) is not None and fused.num_actions <= n
        }
        from topkat.syntax import Dot
        assert combined == lang_bounded(Dot(t1, t2), ALPHABET, n)


def test_star_is_union_of_fusion_powers():
    rng = random.Random(13)
    from topkat.syntax import Star
    n = 2
    for _ in range(15):
        t = random_term(rng, ALPHABET, 2)
        body = lang_bounded(t, ALPHABET, n)
        power = frozenset(GuardedString((a,), ()) for a in all_atoms(ALPHABET))
        union = set(power)
        for _ in range(n + 1):
            power = frozenset(
                fused for s1 in power for s2 in body
                if (fused := fuse(s1, s2)) is not None and fused.num_actions <= n)
            union |= power
        assert union == lang_bounded(Star(t), ALPHABET, n)


def test_textual_form_roundtrip():
    al = Alphabet(("p",), ("b", "c"))
    s = GuardedString((atom((True, False)), atom((False, False))), ("p",))
    assert s.render() == "[b&!c] p [!b&!c]"
    assert parse_guarded_string(s.render(), al) == s
    assert parse_guarded_string("[]", Alphabet(("p",), ())).render() == "[]"


def test_textual_form_errors():
    al = Alphabet(("p",), ("b",))
    with pytest.raises(ParseError):
        parse_guarded_string("[b] p", al)          # ends in an action
    with pytest.raises(ParseError):
        parse_guarded_string("[] p []", al)        # atom misses b
    with pytest.raises(ParseError):
        parse_guarded_string("[b] r [b]", al)      # undeclared action
    with pytest.raises(ParseError):
        parse_guarded_string("[b&b] p [b]", al)    # duplicate literal


ALTERNATE = "guarded string must alternate atoms and actions, starting and ending with an atom"


@pytest.mark.parametrize("text, message, position", [
    ("", ALTERNATE, 0),
    ("[b&c] p", ALTERNATE, 7),
    ("[b&c] ?", "unexpected character in guarded string", 6),  # the '?' itself
    ("[b&c] [b&c]", "expected an action, found an atom", 6),
    ("p", "expected an atom, found 'p'", 0),
    ("[b&c] p q", "expected an atom, found 'q'", 8),
    ("[b&c] r [b&c]", "undeclared action 'r'", 6),
    ("[b&d]", "undeclared test 'd' in atom", 0),
    ("[b&b&c]", "test 'b' assigned twice in atom", 0),
    ("[b]", "atom does not assign 'c'", 0),
    ("[b&c", "unexpected character in guarded string", 0),  # an unclosed atom
])
def test_each_textual_form_error_names_its_position(text, message, position):
    with pytest.raises(ParseError) as caught:
        parse_guarded_string(text, ALPHABET)
    assert caught.value.position == position
    assert str(caught.value) == f"{message} (at position {position})"


def test_gs_sort_key_orders_by_length_then_content():
    al = Alphabet(("p", "q"), ("b",))
    strings = sorted(lang_bounded(parse("(p + q)*", al), al, 1),
                     key=gs_sort_key(al))
    rendered = [s.render() for s in strings]
    assert rendered[:2] == ["[!b]", "[b]"]
    assert rendered[2] == "[!b] p [!b]"
    assert all(strings[i].num_actions <= strings[i + 1].num_actions
               for i in range(len(strings) - 1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Atom(("b",), (True, False))
    a = Atom((), ())
    with pytest.raises(ValueError):
        GuardedString((a, a), ())
    with pytest.raises(ValueError):
        GuardedString((), ())
