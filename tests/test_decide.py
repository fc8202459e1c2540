import random
import sys
from collections import deque

import pytest

from conftest import ALPHABET
from topkat import decide
from topkat.decide import Equivalent, Witness, equivalent, leq, member
from topkat.errors import InternalError, SortError, TopNotAllowedError, UndeclaredIdentifierError
from topkat.gen import random_term
from topkat.reduction import TOP_ACTION, topkat_equivalent
from topkat.semantics import GuardedString, all_atoms, gs_sort_key, lang_bounded
from topkat.syntax import Alphabet, Dot, ONE, Plus, Star, TOP, ZERO, parse, prune_alphabet


AL_P = Alphabet(("p",), ())
AL_PQ = Alphabet(("p", "q"), ())
AL_PB = Alphabet(("p",), ("b",))


def test_epsilon_rules():
    for a in all_atoms(ALPHABET):
        unit = GuardedString((a,), ())
        assert member(unit, parse("p*", ALPHABET))
        assert not member(unit, parse("b !b", ALPHABET))
        # cross-check against the zero-action bounded language
        expected = unit in lang_bounded(parse("1 + p", ALPHABET), ALPHABET, 0)
        assert member(unit, parse("1 + p", ALPHABET)) == expected


def test_deriv_on_primitives():
    engine = decide._Engine(1, {})
    assert engine.step((parse("p", AL_PQ),), 0, "p") == frozenset((ONE,))
    assert engine.step((parse("p", AL_PQ),), 0, "q") == frozenset()


def test_deriv_of_composition_matches_language():
    t = parse("p q", AL_PQ)
    for a in all_atoms(AL_PQ):
        derived = decide._Engine(1, {}).step((t,), 0, "p")
        via_deriv = frozenset().union(*(lang_bounded(d, AL_PQ, 1) for d in derived))
        expected = frozenset(
            GuardedString(s.atoms[1:], s.acts[1:])
            for s in lang_bounded(t, AL_PQ, 2)
            if s.atoms[0] == a and s.acts and s.acts[0] == "p")
        assert via_deriv == expected


def test_member_basics():
    a = all_atoms(AL_PQ)[0]
    assert member(GuardedString((a,), ()), ONE)
    assert not member(GuardedString((a, a), ("p",)), parse("q", AL_PQ))
    with pytest.raises(TopNotAllowedError):
        member(GuardedString((a,), ()), parse("T", AL_PQ))


def test_member_rejects_atoms_that_leave_a_test_unassigned():
    a = all_atoms(AL_PB)[1]  # assigns b only
    assert member(GuardedString((a, a), ("p",)), parse("b p b", AL_PB))
    with pytest.raises(SortError, match="^atom does not assign 'c'$"):
        member(GuardedString((a,), ()), parse("b + c", ALPHABET))


def test_member_agrees_with_bounded_language():
    rng = random.Random(17)
    every_string = lang_bounded(parse("p*", AL_PB), AL_PB, 2)
    for _ in range(60):
        t = random_term(rng, AL_PB, 3)
        lang = lang_bounded(t, AL_PB, 2)
        for s in every_string:
            assert member(s, t) == (s in lang)


def test_equivalent_unfolding():
    assert isinstance(equivalent(parse("p*", AL_PB), parse("1 + p p*", AL_PB), AL_PB),
                      Equivalent)
    assert isinstance(equivalent(parse("p*", AL_PB), parse("1 + p* p", AL_PB), AL_PB),
                      Equivalent)
    assert isinstance(equivalent(parse("b !b", AL_PB), parse("0", AL_PB), AL_PB),
                      Equivalent)


def test_equivalent_witness_is_shortest_and_one_sided():
    v = equivalent(parse("p", AL_PQ), parse("q", AL_PQ), AL_PQ)
    assert isinstance(v, Witness)
    assert v.string.render() == "[] p []"
    assert v.side == "left"
    assert member(v.string, parse("p", AL_PQ))
    assert not member(v.string, parse("q", AL_PQ))


def test_star_laws():
    assert isinstance(equivalent(parse("p* p*", AL_PB), parse("p*", AL_PB), AL_PB),
                      Equivalent)
    assert isinstance(equivalent(parse("p**", AL_PB), parse("p*", AL_PB), AL_PB),
                      Equivalent)


def test_denesting_and_sliding_with_oracle():
    denest_l, denest_r = parse("(p + q)*", AL_PQ), parse("p* (q p*)*", AL_PQ)
    slide_l, slide_r = parse("(p q)* p", AL_PQ), parse("p (q p)*", AL_PQ)
    assert isinstance(equivalent(denest_l, denest_r, AL_PQ), Equivalent)
    assert isinstance(equivalent(slide_l, slide_r, AL_PQ), Equivalent)
    for n in range(5):
        assert lang_bounded(denest_l, AL_PQ, n) == lang_bounded(denest_r, AL_PQ, n)
        assert lang_bounded(slide_l, AL_PQ, n) == lang_bounded(slide_r, AL_PQ, n)


def test_leq():
    assert isinstance(leq(parse("1", AL_PB), parse("p*", AL_PB), AL_PB), Equivalent)
    v = leq(parse("p*", AL_PB), parse("p", AL_PB), AL_PB)
    assert isinstance(v, Witness)
    assert member(v.string, parse("p*", AL_PB))
    assert not member(v.string, parse("p", AL_PB))
    rng = random.Random(19)
    for _ in range(25):
        t = random_term(rng, ALPHABET, 3)
        assert isinstance(leq(t, t, ALPHABET), Equivalent)


def test_witnesses_are_deterministic_and_minimal():
    rng = random.Random(23)
    pairs = []
    for _ in range(60):
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        # the plain pair, then units, zeros and right-nested sums around it
        pairs += [(t1, t2), (Plus(ZERO, t1), t2), (Dot(ONE, t1), Dot(t2, ONE)),
                  (Plus(t1, Plus(ZERO, t2)), t2)]
    for t1, t2 in pairs:
        first = equivalent(t1, t2, ALPHABET)
        second = equivalent(t1, t2, ALPHABET)
        assert first == second
        if isinstance(first, Witness):
            n = first.string.num_actions
            for shorter in range(n):
                assert (lang_bounded(t1, ALPHABET, shorter)
                        == lang_bounded(t2, ALPHABET, shorter))
            separating = [s for s in lang_bounded(t1, ALPHABET, n) ^ lang_bounded(t2, ALPHABET, n)
                          if s.num_actions == n]
            assert first.string == min(separating, key=gs_sort_key(ALPHABET))


def test_equivalent_reads_top_as_topkat_equivalent_does():
    # over ({p}, {}), T is not p*: T also steps by the reserved action,
    # which no alphabet names, and the decider supplies it
    t, p_star = parse("T", AL_P), parse("p*", AL_P)
    verdict = equivalent(t, p_star, AL_P)
    assert verdict == topkat_equivalent(t, p_star, AL_P)
    assert isinstance(verdict, Witness) and verdict.side == "left"
    assert verdict.string.render() == f"[] {TOP_ACTION} []"


def test_the_engine_steps_top_to_itself_by_every_action():
    engine = decide._Engine(2, {}, ("p", "q"))
    assert engine.accepts(frozenset({TOP})) == engine.full == 0b11
    assert engine.linear(TOP) == {("p", TOP): 0b11, ("q", TOP): 0b11}


@pytest.mark.parametrize("left, right, error", [
    ("p q", "T", UndeclaredIdentifierError),  # q is undeclared in AL_PB
    ("T", "p q", UndeclaredIdentifierError),
    ("p c", "T b", UndeclaredIdentifierError),
    ("b", "q", UndeclaredIdentifierError),
    ("p", "p b", None),
])
def test_equivalent_raises_the_first_error_term_by_term(left, right, error):
    # terms over the wider alphabet, checked against AL_PB = ({p}, {b})
    t1, t2 = parse(left, ALPHABET), parse(right, ALPHABET)
    if error is None:
        assert isinstance(equivalent(t1, t2, AL_PB), Witness)
        return
    with pytest.raises(error):
        equivalent(t1, t2, AL_PB)


def test_equivalent_rejects_a_name_of_the_wrong_sort():
    # p parsed as an action, declared only as a test
    t = parse("p", AL_PQ)
    with pytest.raises(UndeclaredIdentifierError, match="undeclared action 'p'"):
        equivalent(t, t, Alphabet((), ("p",)))


def test_state_sets_stay_canonical():
    # duplicates collapse: derivative of p + p is the singleton {1}
    engine = decide._Engine(1, {})
    assert engine.step((parse("p + p", AL_PQ),), 0, "p") == frozenset((ONE,))
    assert engine.step((Dot(parse("p", AL_PQ), ONE),), 0, "p") == frozenset((ONE,))


def test_empty_alphabet_edge_cases():
    empty = Alphabet((), ())
    v = equivalent(parse("1", empty), parse("0", empty), empty)
    assert isinstance(v, Witness) and v.string.render() == "[]"
    assert isinstance(equivalent(parse("0*", empty), parse("1", empty), empty),
                      Equivalent)
    assert isinstance(equivalent(parse("!0", empty), parse("1", empty), empty),
                      Equivalent)


def test_concurrent_checks_agree():
    from concurrent.futures import ThreadPoolExecutor
    for alphabet in (ALPHABET, Alphabet(("p", "q"), ("b", "c", "d", "e", "f"))):
        rng = random.Random(83)
        pairs = [(random_term(rng, alphabet, 3), random_term(rng, alphabet, 3))
                 for _ in range(24)]
        # the threads race on the intern table, building the same derivatives
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda pair: equivalent(*pair, alphabet), pairs))
        finally:
            sys.setswitchinterval(interval)
        sequential = [equivalent(t1, t2, alphabet) for t1, t2 in pairs]
        assert sequential == threaded


def _per_atom_equivalent(t1, t2, alphabet):
    """The bisimulation stepping atom by atom, as `equivalent` did before
    atom classes: the reference for verdicts, sides and witnesses."""
    atoms = all_atoms(alphabet)
    acts = prune_alphabet(alphabet, t1, t2).actions
    engine = decide._Engine(len(atoms), {
        name: sum(1 << i for i, atom in enumerate(atoms) if atom.value(name))
        for name in alphabet.tests})
    start = (frozenset((t1,)), frozenset((t2,)))
    parents = {start: None}
    classes = decide._UnionFind()
    queue = deque((start,))
    while queue:
        pair = queue.popleft()
        left, right = pair
        if classes.find(left) == classes.find(right):
            continue
        differ = engine.accepts(left) ^ engine.accepts(right)
        if differ:
            steps = []
            while parents[pair] is not None:
                pair, atom, act = parents[pair]
                steps.append((atom, act))
            steps.reverse()
            last = atoms[(differ & -differ).bit_length() - 1]
            string = GuardedString(tuple(a for a, _ in steps) + (last,),
                                   tuple(act for _, act in steps))
            return Witness(string, "left" if member(string, t1) else "right")
        classes.union(left, right)
        for i, atom in enumerate(atoms):
            for act in acts:
                successor = (engine.step(left, i, act), engine.step(right, i, act))
                if successor not in parents:
                    parents[successor] = (pair, atom, act)
                    queue.append(successor)
    return Equivalent()


def _agrees_with_per_atom(t1, t2, alphabet):
    got, want = equivalent(t1, t2, alphabet), _per_atom_equivalent(t1, t2, alphabet)
    assert got == want
    if isinstance(want, Witness):
        assert got.side == want.side
        assert got.string.render() == want.string.render()
    return isinstance(want, Witness)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_atom_classes_match_the_per_atom_search(k):
    alphabet = Alphabet(("p", "q"), tuple(f"b{i}" for i in range(k)))
    rng = random.Random(400 + k)
    witnesses = 0
    for n in range(200):
        t1, t2 = random_term(rng, alphabet, 3), random_term(rng, alphabet, 3)
        # inclusions and stars too, so that equivalent pairs and longer witnesses occur
        pair = [(t1, t2), (Plus(t1, t2), t2), (Star(t1), Star(Plus(t1, t2))),
                (Dot(Star(t1), t2), Star(Plus(t1, t2)))][n % 4]
        witnesses += _agrees_with_per_atom(*pair, alphabet)
    assert 0 < witnesses < 200


def _guard(k, bits):
    return " ".join(("" if bits >> i & 1 else "!") + f"b{i}" for i in range(k))


@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_atom_classes_match_the_per_atom_search_on_guarded_families(k):
    tests = tuple(f"b{i}" for i in range(k))
    alphabet = Alphabet(("p", "q"), tests)
    rng = random.Random(k)
    g1, g2 = rng.sample(range(1 << k), 2)
    A, B, M = _guard(k, g1), _guard(k, g2), _guard(k, g1 ^ 1 << rng.randrange(k))
    x, loop = f"({A} p + {B} q)", f"({' '.join(tests)} p + !b0 q)"
    pairs = [
        (f"{loop}*", f"{loop}* {loop}*"),  # guarded loop
        (f"{x}*", f"({A} p)* ({B} q ({A} p)*)*"),  # denesting
        (f"({A} p {B} q)* {A} p", f"{A} p ({B} q {A} p)*"),  # sliding
        (f"{x}*", f"({M} p)* ({B} q ({M} p)*)*"),
        (f"({A} p {B} q)* {M} p", f"{A} p ({B} q {A} p)*"),
        (f"{loop}*", f"1 + ({M} p + !b0 q) {loop}*"),
    ]
    verdicts = [_agrees_with_per_atom(parse(l, alphabet), parse(r, alphabet), alphabet)
                for l, r in pairs]
    assert verdicts == [False, False, False, True, True, True]


def test_a_guarded_loop_steps_once_per_atom_class(monkeypatch):
    calls = []
    step = decide._Engine.step
    monkeypatch.setattr(decide._Engine, "step",
                        lambda self, *args: calls.append(1) or step(self, *args))
    counts = {}
    for k in (4, 10):
        tests = tuple(f"b{i}" for i in range(k))
        alphabet = Alphabet(("p", "q"), tests)
        x = f"({' '.join(tests)} p + !b0 q)"
        calls.clear()
        verdict = equivalent(parse(f"{x}*", alphabet), parse(f"{x}* {x}*", alphabet), alphabet)
        assert isinstance(verdict, Equivalent)
        counts[k] = len(calls)
    # two pairs popped x three classes (every test, !b0, the rest) x two actions
    # x two sides, at any k; atom by atom it was 2 x 2^k x 2 x 2 (128 and 8192)
    assert counts[4] == counts[10] == 24


def test_test_masks_follow_the_atom_order(monkeypatch):
    masks = []
    engine = decide._Engine
    monkeypatch.setattr(decide, "_Engine",
                        lambda count, tests, actions: masks.append(tests)
                        or engine(count, tests, actions))
    for k in (0, 1, 3, 10):
        alphabet = Alphabet(("p",), tuple(f"b{i}" for i in range(k)))
        masks.clear()
        equivalent(parse("p", alphabet), parse("p", alphabet), alphabet)
        atoms = all_atoms(alphabet)
        assert masks == [{name: sum(1 << i for i, a in enumerate(atoms) if a.value(name))
                          for name in alphabet.tests}]


@pytest.mark.parametrize("p, q, merged", [(5, 7, 11), (47, 53, 99)])
def test_the_union_find_merges_each_pair_once(monkeypatch, p, q, merged):
    # (a^p)* (1 + a + ... + a^(p-1)) is a*; its states count the a's modulo
    # p.  Merging classes pairs p + q - 1 of them; pairing states alone
    # would visit all lcm(p, q): 35 and 2491.
    alphabet = Alphabet(("a",), ())

    def counting_up_to(n):
        power = lambda m: " ".join(["a"] * m) or "1"
        return parse(f"({power(n)})* ({' + '.join(power(m) for m in range(n))})", alphabet)

    unions = []
    union = decide._UnionFind.union
    monkeypatch.setattr(decide._UnionFind, "union",
                        lambda self, x, y: unions.append(1) or union(self, x, y))
    verdict = equivalent(counting_up_to(p), counting_up_to(q), alphabet)
    assert isinstance(verdict, Equivalent) and len(unions) == merged


def test_an_unsound_witness_names_deep_terms_without_recursing(monkeypatch):
    monkeypatch.setattr(decide, "_member", lambda *args: True)  # both sides accept
    deep = parse("p " * 3000, AL_PQ)
    with pytest.raises(InternalError, match=r"^unsound witness '\[\] p \[\]' for 'p' and 'p p "):
        equivalent(parse("p", AL_PQ), deep, AL_PQ)
