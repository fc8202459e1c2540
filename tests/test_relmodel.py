import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from conftest import ALPHABET, encoding_sides
from topkat.errors import ResourceLimitError, TopNotAllowedError, UndeclaredIdentifierError
from topkat.gen import random_interpretation, random_relation, random_term
from topkat.relmodel import (
    KINDS, Relation, RelInterpretation, SearchBudget, SearchHit,
    evaluate, falsify_implication, search_countermodel,
)
from topkat import cli, relmodel, syntax
from topkat.syntax import Alphabet, parse, postorder, prune_alphabet


AL_PQ = Alphabet(("p", "q"), ())
EXHAUSTIVE = SearchBudget(exhaustive=True)


def interp(n, actions=None, tests=None):
    return RelInterpretation(n, actions or {}, tests or {})


relations = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.builds(Relation, st.just(n),
                        st.integers(min_value=0, max_value=(1 << (n * n)) - 1)))


def test_evaluate_top_is_complete_relation():
    model = interp(2)
    assert evaluate(parse("T", ALPHABET), model) == Relation(2, 0b1111)
    assert len(evaluate(parse("T", ALPHABET), model).pairs) == 4


def test_evaluate_star_is_reflexive_transitive_closure():
    model = interp(2, actions={"p": Relation.from_pairs(2, [(0, 1)])})
    got = evaluate(parse("p*", AL_PQ), model)
    assert got == Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1)])


def test_evaluate_contradiction_is_empty():
    for diag in range(4):
        model = interp(2, tests={"b": Relation(2, (diag & 1) | ((diag >> 1) << 3))})
        assert evaluate(parse("b !b", ALPHABET), model) == Relation(2, 0)


def test_evaluate_on_the_empty_carrier_is_the_empty_relation():
    # zero-width lanes: every block constant is 0
    t = parse("(p + !b) T (q* 0) 1", ALPHABET)  # every node class, and T
    empty = Relation(0, 0)
    model = interp(0, {a: empty for a in ALPHABET.actions},
                   {b: empty for b in ALPHABET.tests})
    assert evaluate(t, model) == empty
    assert evaluate(parse("T", ALPHABET), model) == empty


def test_evaluate_requires_interpretation():
    with pytest.raises(UndeclaredIdentifierError):
        evaluate(parse("p", ALPHABET), interp(2))


@given(relations)
def test_dom_cod_converse(r):
    converse = Relation.from_pairs(r.n, [(j, i) for i, j in r.pairs])
    assert Relation.from_pairs(r.n, [(j, i) for i, j in converse.pairs]) == r
    assert converse.dom() == r.cod()
    assert converse.cod() == r.dom()
    if r.pairs:
        i, j = r.pairs[0]
        assert i in r.dom() and j in r.cod()


def test_relation_rejects_a_negative_carrier():
    with pytest.raises(ValueError, match="carrier size"):
        Relation(-1, 1)
    with pytest.raises(ValueError, match="carrier size"):
        Relation(-1, 0)


@pytest.mark.parametrize("n, bits", [(2, 0b100), (2, -1), (0, 1), (3, 8)])
def test_diagonal_rejects_bits_outside_the_carrier(n, bits):
    with pytest.raises(ValueError, match="out of range"):
        Relation.diagonal(n, bits)


def test_diagonal_of_in_range_bits():
    assert Relation.diagonal(0, 0) == Relation(0, 0)
    assert Relation.diagonal(2, 0b10).pairs == ((1, 1),)
    assert Relation.diagonal(3, 0b111) == Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2)])


def test_pairs_dom_and_cod_follow_the_bits():
    # bit i*n + j is the pair (i, j); pairs come in order of their bit
    rng = random.Random(29)
    for n in range(8):
        for mask in [0, (1 << n * n) - 1] + [rng.getrandbits(n * n) for _ in range(20)]:
            r = Relation(n, mask)
            bits = [(i, j) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1]
            assert r.pairs == tuple(bits)
            assert r.dom() == frozenset(i for i, _ in bits)
            assert r.cod() == frozenset(j for _, j in bits)


def test_dom_cod_on_singleton():
    r = Relation.from_pairs(3, [(1, 2)])
    assert r.dom() == frozenset({1})
    assert r.cod() == frozenset({2})


@given(relations)
def test_star_is_union_of_powers(r):
    # r* = 1 + r + r r + ... + r^n: paths longer than n repeat a point
    model = interp(r.n, actions={"p": r})
    powers = ["1"] + [" ".join(["p"] * k) for k in range(1, r.n + 1)]
    union = evaluate(parse(" + ".join(powers), AL_PQ), model)
    assert evaluate(parse("p*", AL_PQ), model) == union


def test_evaluate_monotone_in_action_relations():
    rng = random.Random(53)
    for _ in range(60):
        t = random_term(rng, ALPHABET, 3)
        n = rng.randint(1, 3)
        small = random_interpretation(rng, n, ALPHABET)
        grown = RelInterpretation(
            n,
            {name: Relation(n, rel.mask | random_relation(rng, n).mask)
             for name, rel in small.action_map.items()},
            dict(small.test_map))
        assert set(evaluate(t, small).pairs) <= set(evaluate(t, grown).pairs)


def test_check_encoding_trivial_cases():
    rng = random.Random(59)
    model = random_interpretation(rng, 3, ALPHABET)
    holds = ((True, True), (True, True))
    assert encoding_sides(model, parse("p", ALPHABET), parse("0", ALPHABET)) == holds
    assert encoding_sides(model, parse("p q", ALPHABET), parse("p q", ALPHABET)) == holds


def test_check_encoding_biconditionals_hold_on_random_models():
    rng = random.Random(61)
    for _ in range(1000):
        n = rng.randint(2, 4)
        model = random_interpretation(rng, n, ALPHABET)
        t1 = random_term(rng, ALPHABET, 3)
        t2 = random_term(rng, ALPHABET, 3)
        (dom_via_top, dom_direct), (cod_via_top, cod_direct) = encoding_sides(model, t1, t2)
        assert dom_via_top == dom_direct and cod_via_top == cod_direct


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


@pytest.mark.parametrize("extra", [{"samples": 3, "seed": 1}, {"samples": 3}, {"seed": 1}],
                         ids=["samples-and-seed", "samples", "seed"])
def test_an_exhaustive_budget_refuses_samples_and_seed(extra):
    with pytest.raises(ValueError, match="exhaustive"):
        SearchBudget(exhaustive=True, **extra)


@pytest.mark.parametrize("samples", [0, -5])
def test_search_budget_requires_a_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        SearchBudget(exhaustive=False, samples=samples, seed=1)


@pytest.mark.parametrize("ceiling", [-1, -5])
def test_search_budget_rejects_a_negative_ceiling(ceiling):
    with pytest.raises(ValueError, match="ceiling"):
        SearchBudget(exhaustive=True, ceiling=ceiling)


def test_exhaustive_ceiling():
    wide = Alphabet(("p", "q", "r"), ())
    with pytest.raises(ResourceLimitError, match="134221832 interpretations"):
        search_countermodel("leq", parse("p q r", wide), parse("p", wide),
                            wide, 3, SearchBudget(exhaustive=True, ceiling=10_000))


@pytest.mark.parametrize("argv", [
    ["search", "--kind", "leq", "--samples", "1", "--seed", "1", "p", "q"],
    ["search", "--kind", "leq", "--exhaustive", "0", "1"],  # one model per size: no ceiling
    ["rule", "consequence", "a", "b", "c", "d", "a", "--tests", "a,b,c,d",
     "--samples", "1", "--seed", "1"],
], ids=["sampled", "exhaustive-without-primitives", "rule"])
def test_a_search_past_the_relation_cap_is_refused_up_front(argv, capsys):
    # a relation on a million points would have 10^12 bits
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--max-states", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0 and peak < 1_000_000
    assert (code, capsys.readouterr()) == (3, ("", (
        "error: a relation on 1000000 points has 1000000000000 bits, "
        "over the cap of 1048576\n")))


def test_the_relation_cap_admits_1024_points():
    assert relmodel.RELATION_CAP == 1024 * 1024
    budget = SearchBudget(exhaustive=False, samples=1, seed=1)
    t1, t2 = parse("p", AL_PQ), parse("p + q", AL_PQ)
    assert search_countermodel("leq", t1, t2, AL_PQ, 1024, budget) is None
    with pytest.raises(ResourceLimitError, match="1025 points has 1050625 bits"):
        search_countermodel("leq", t1, t2, AL_PQ, 1025, budget)


def test_test_relations_must_be_sub_identity():
    with pytest.raises(ValueError):
        RelInterpretation(2, {}, {"b": Relation.from_pairs(2, [(0, 1)])})


P, Q = parse("p", AL_PQ), parse("q", AL_PQ)


@pytest.mark.parametrize("call, message", [
    (lambda: Relation(2, 16), "^relation mask out of range for carrier size$"),
    (lambda: Relation.from_pairs(2, [(0, 2)]), r"^pair \(0,2\) outside carrier of size 2$"),
    (lambda: RelInterpretation(2, {"p": Relation(3, 0)}, {}),
     "^relation carrier size mismatch$"),
    (lambda: search_countermodel("subset", P, Q, AL_PQ, 2, EXHAUSTIVE),
     "^unknown kind 'subset'; expected one of "),
    (lambda: search_countermodel("leq", P, Q, AL_PQ, 0, EXHAUSTIVE), "^max_n must be >= 1$"),
    (lambda: falsify_implication([], (P, Q), AL_PQ, 0, EXHAUSTIVE), "^max_n must be >= 1$"),
], ids=["mask", "pair", "carrier", "kind", "search-max-n", "falsify-max-n"])
def test_malformed_arguments_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message) as caught:
        call()
    assert type(caught.value) is ValueError


def test_a_search_takes_one_mode(capsys):
    code = cli.main(["search", "--kind", "leq", "--exhaustive", "--samples", "3", "p", "q"])
    assert (code, capsys.readouterr()) == (
        2, ("", "error: choose either --exhaustive or --samples, not both\n"))


def test_falsify_implication_sequencing_instance():
    one = parse("1", AL_PQ)
    p, q = parse("p", AL_PQ), parse("q", AL_PQ)
    hit = falsify_implication(
        [(p, one), (q, one)], (parse("p q", AL_PQ), one), AL_PQ, 2, EXHAUSTIVE)
    assert hit is None


def test_falsify_implication_empty_hypotheses():
    p, q = parse("p", AL_PQ), parse("q", AL_PQ)
    for budget in (EXHAUSTIVE, SearchBudget(exhaustive=False, samples=40, seed=5)):
        hit = falsify_implication([], (p, q), AL_PQ, 2, budget)
        assert hit is not None
        assert not evaluate(p, hit.interp).cod() <= evaluate(q, hit.interp).cod()
        # with no hypotheses, T p <= T q is the comparison cod(q) >= cod(p)
        assert hit == search_countermodel("cod_geq", q, p, AL_PQ, 2, budget)


def test_falsify_implication_unsatisfiable_hypothesis():
    hit = falsify_implication([(parse("1", AL_PQ), parse("0", AL_PQ))],
                              (parse("p", AL_PQ), parse("q", AL_PQ)),
                              AL_PQ, 2, EXHAUSTIVE)
    assert hit is None


@pytest.mark.parametrize("where", ["hypothesis", "goal"])
def test_falsify_implication_rejects_top_as_a_topkat_error(where):
    p, p_top = parse("p", AL_PQ), parse("p T", AL_PQ)
    hyps, goal = ([(p, p_top)], (p, p)) if where == "hypothesis" else ([], (p_top, p))
    with pytest.raises(TopNotAllowedError, match="^comparison sides must be top-free$"):
        falsify_implication(hyps, goal, AL_PQ, 2, EXHAUSTIVE)


def test_exhaustive_search_without_a_hit_builds_no_relation(monkeypatch):
    built = []
    for cls in (Relation, RelInterpretation):
        def counting(self, original=cls._check, name=cls.__name__):
            built.append(name)
            original(self)
        monkeypatch.setattr(cls, "_check", counting)
    assert search_countermodel("leq", parse("p", AL_PQ), parse("p T p", AL_PQ),
                               AL_PQ, 2, EXHAUSTIVE) is None
    assert built == []
    hit = search_countermodel("leq", parse("p", AL_PQ), parse("q", AL_PQ),
                              AL_PQ, 2, EXHAUSTIVE)
    assert hit is not None
    assert built == ["Relation", "Relation", "RelInterpretation"]


# ---------------------------------------------------------------------------
# Reference semantics and search, written over sets of pairs and validated
# `Relation` values, for differential tests of the mask code.

def reference_evaluate(t, model):
    """The relational value of t as a set of pairs, from the definitions."""
    n = model.n
    ident = frozenset((i, i) for i in range(n))

    def compose(r, s):
        return frozenset((i, k) for i, j in r for j2, k in s if j == j2)

    value = {}
    for u in postorder(t):
        match u:
            case syntax.Zero():
                value[u] = frozenset()
            case syntax.One():
                value[u] = ident
            case syntax.Top():
                value[u] = frozenset(itertools.product(range(n), repeat=2))
            case syntax.Act(name):
                value[u] = frozenset(model.action_map[name].pairs)
            case syntax.Test(name):
                value[u] = frozenset(model.test_map[name].pairs)
            case syntax.Not(arg):
                value[u] = ident - value[arg]
            case syntax.Plus(left, right):
                value[u] = value[left] | value[right]
            case syntax.Dot(left, right):
                value[u] = compose(value[left], value[right])
            case syntax.Star(arg):
                closure = ident
                while (grown := closure | compose(closure, value[arg])) != closure:
                    closure = grown
                value[u] = closure
    return value[t]


def reference_interpretations(alphabet, max_n, budget):
    """The documented order: carrier size, then actions in declared order,
    then tests, each mask ascending; or the seeded draws of sampled mode."""
    actions, tests = alphabet.actions, alphabet.tests

    def model(n, masks):
        return RelInterpretation(
            n, {a: Relation(n, m) for a, m in zip(actions, masks)},
            {b: Relation.diagonal(n, m) for b, m in zip(tests, masks[len(actions):])})

    if budget.exhaustive:
        for n in range(1, max_n + 1):
            spaces = [range(1 << (n * n))] * len(actions) + [range(1 << n)] * len(tests)
            for masks in itertools.product(*spaces):
                yield model(n, masks)
    else:
        for n, *masks in replayed_draws(alphabet, max_n, budget):
            yield model(n, masks)


def replayed_draws(alphabet, max_n, budget):
    """Sampled mode's draws as (n, action masks..., test bits...) tuples:
    n, then n*n bits per action and n bits per test, from the seed."""
    rng = random.Random(budget.seed)
    draws = []
    for _ in range(budget.samples):
        n = rng.randint(1, max_n)
        acts = [rng.getrandbits(n * n) for _ in alphabet.actions]
        draws.append((n, *acts, *(rng.getrandbits(n) for _ in alphabet.tests)))
    return draws


def reference_violation(kind, r1, r2):
    if kind in ("equality", "leq"):
        diff = r1 ^ r2 if kind == "equality" else r1 - r2
        return (min(diff), None) if diff else None
    side = 0 if kind == "dom_geq" else 1  # dom projects pairs on i, cod on j
    escaped = {pair[side] for pair in r2} - {pair[side] for pair in r1}
    return (None, min(escaped)) if escaped else None


def reference_search(kind, hyps, goal, alphabet, max_n, budget):
    every = [t for pair in [*hyps, goal] for t in pair]
    for model in reference_interpretations(prune_alphabet(alphabet, *every), max_n, budget):
        def violated(pair):
            return reference_violation(kind, *(reference_evaluate(t, model) for t in pair))
        if any(violated(pair) for pair in hyps):
            continue
        found = violated(goal)
        if found is not None:
            return SearchHit(model, *found)
    return None


def test_evaluate_matches_the_set_of_pairs_reference():
    rng = random.Random(67)
    for _ in range(500):
        t = random_term(rng, ALPHABET, 4, allow_top=True)
        model = random_interpretation(rng, rng.randint(1, 3), ALPHABET)
        assert set(evaluate(t, model).pairs) == reference_evaluate(t, model)


BUDGETS = [(2, EXHAUSTIVE), (3, SearchBudget(exhaustive=False, samples=150, seed=5))]


@pytest.mark.parametrize("kind", ["equality", "leq", "dom_geq", "cod_geq"])
@pytest.mark.parametrize("max_n, budget", BUDGETS, ids=["exhaustive", "sampled"])
def test_search_hit_matches_the_reference_search(kind, max_n, budget):
    rng = random.Random(71)
    hits = 0
    for _ in range(40):
        t1, t2 = (random_term(rng, ALPHABET, 3, allow_top=True) for _ in range(2))
        got = search_countermodel(kind, t1, t2, ALPHABET, max_n, budget)
        assert got == reference_search(kind, [], (t1, t2), ALPHABET, max_n, budget)
        hits += got is not None
    assert hits > 0


@pytest.mark.parametrize("max_n, budget", BUDGETS, ids=["exhaustive", "sampled"])
def test_falsify_implication_matches_the_reference_search(max_n, budget):
    rng = random.Random(73)
    hits = 0
    for _ in range(40):
        hyps = [(random_term(rng, ALPHABET, 2), random_term(rng, ALPHABET, 2))
                for _ in range(rng.randint(0, 2))]
        u, v = random_term(rng, ALPHABET, 3), random_term(rng, ALPHABET, 3)
        got = falsify_implication(hyps, (u, v), ALPHABET, max_n, budget)
        # the goal (u, v) reads cod(u) <= cod(v): cod_geq violated with v first
        want = reference_search("cod_geq", [(b, a) for a, b in hyps], (v, u),
                                ALPHABET, max_n, budget)
        assert got == want
        hits += got is not None
    assert hits > 0


# ---------------------------------------------------------------------------
# Sampled search searches small carrier sizes whole and skips the draws of
# those without a hit.  Over tests only and a few points, draws repeat
# heavily: each budget below draws at least ten times as many samples as
# there are interpretations.

TESTS_ONLY = [  # (alphabet, max_n, samples): interpretations sum 2^(n * tests)
    (Alphabet((), ("b", "c")), 3, 900),  # 4 + 16 + 64 = 84
    (Alphabet((), ("b", "c", "d")), 2, 800),  # 8 + 64 = 72
    (Alphabet((), ("b", "c", "d", "e")), 2, 2800),  # 16 + 256 = 272
]


def rare_claim(alphabet):
    """T <= T !(b c ...) T: violated only where every point passes every
    test, so the first hit tends to come after repeated draws."""
    every_test = " ".join(alphabet.tests)
    return parse("T", alphabet), parse(f"T !({every_test}) T", alphabet)


def draw_of(hit, alphabet):
    """The hit's interpretation as a replayed draw: (n, masks..., bits...)."""
    interp = hit.interp
    bits = [sum(1 << i for i, _ in interp.test_map[b].pairs) for b in alphabet.tests]
    return (interp.n, *(interp.action_map[a].mask for a in alphabet.actions), *bits)


def repeats_before(hit, alphabet, max_n, budget):
    """How many draws before the hit's first draw repeat an earlier one."""
    draws = replayed_draws(alphabet, max_n, budget)
    index = draws.index(draw_of(hit, alphabet))
    return index - len(set(draws[:index]))


@pytest.mark.parametrize("alphabet, max_n, samples", TESTS_ONLY,
                         ids=["2-tests", "3-tests", "4-tests"])
def test_sampled_search_with_repeated_draws_matches_the_reference(alphabet, max_n,
                                                                 samples):
    rng = random.Random(83)
    hits = late = 0
    for seed in range(4):
        budget = SearchBudget(exhaustive=False, samples=samples, seed=seed)
        claims = [[random_term(rng, alphabet, 3, allow_top=True) for _ in range(2)],
                  rare_claim(alphabet)]
        for (t1, t2), kind in itertools.product(claims, KINDS):
            got = search_countermodel(kind, t1, t2, alphabet, max_n, budget)
            assert got == reference_search(kind, [], (t1, t2), alphabet, max_n, budget)
            if got is not None:
                hits += 1
                late += repeats_before(got, prune_alphabet(alphabet, t1, t2),
                                       max_n, budget) > 0
    assert hits > 0 and late > 0


@pytest.mark.parametrize("alphabet, max_n, samples", TESTS_ONLY,
                         ids=["2-tests", "3-tests", "4-tests"])
def test_sampled_falsify_with_repeated_draws_matches_the_reference(alphabet, max_n,
                                                                  samples):
    rng = random.Random(89)
    hits = late = 0
    for seed in range(8):
        budget = SearchBudget(exhaustive=False, samples=samples, seed=seed)
        random_hyps = [(random_term(rng, alphabet, 2), random_term(rng, alphabet, 2))
                       for _ in range(rng.randint(0, 2))]
        random_goal = (random_term(rng, alphabet, 3), random_term(rng, alphabet, 3))
        # the goal cod(1) <= cod(0) always fails, so a hit is as rare as the
        # hypotheses cod(1) <= cod(b): every point passes every test
        all_tests_hold = [(parse("1", alphabet), parse(b, alphabet)) for b in alphabet.tests]
        rare_goal = (parse("1", alphabet), parse("0", alphabet))
        for hyps, (u, v) in [(random_hyps, random_goal), (all_tests_hold, rare_goal)]:
            got = falsify_implication(hyps, (u, v), alphabet, max_n, budget)
            want = reference_search("cod_geq", [(b, a) for a, b in hyps], (v, u),
                                    alphabet, max_n, budget)
            assert got == want
            if got is not None:
                hits += 1
                every = [t for pair in [*hyps, (u, v)] for t in pair]
                late += repeats_before(got, prune_alphabet(alphabet, *every),
                                       max_n, budget) > 0
    assert hits > 0 and late > 0


def count_lanes(monkeypatch):
    """The sizes of the interpretations `_run` evaluates, one per lane."""
    sizes = []
    original = relmodel._run

    def counting(program, n, lanes, leaves):
        sizes.extend([n] * lanes)
        return original(program, n, lanes, leaves)

    monkeypatch.setattr(relmodel, "_run", counting)
    return sizes


def test_sampled_rule_skips_the_draws_of_hitless_sizes(monkeypatch, capsys):
    # 4000 samples cover the 16 + 256 interpretations of 1 and 2 points, not
    # the 4096 of 3: the two small sizes are searched whole, hold no
    # refutation and cost none of their draws; every 3-point draw is
    # evaluated, repeats included
    lanes = count_lanes(monkeypatch)
    code = cli.main(["rule", "consequence", "a", "b", "c", "d", "a", "--tests", "a,b,c,d",
                     "--samples", "4000", "--seed", "120", "--max-states", "3"])
    assert (code, capsys.readouterr().out) == (
        0, "no refutation found (budget 4000 samples n<=3 seed=120)\nseed: 120\n")
    budget = SearchBudget(exhaustive=False, samples=4000, seed=120)
    three = [draw for draw in replayed_draws(Alphabet((), ("a", "b", "c", "d")), 3, budget)
             if draw[0] == 3]
    assert lanes == [1] * 16 + [2] * 256 + [3] * len(three)
    assert len(set(three)) < len(three)


def test_sampled_search_with_nine_bit_fields_skips_the_draws_of_hitless_sizes(monkeypatch):
    # one action and one test: 4 + 64 interpretations of 1 and 2 points,
    # within the samples, and 4096 of 3, beyond them; a 3-point draw's
    # action field does not fit in a byte
    budget = SearchBudget(exhaustive=False, samples=3000, seed=3)
    lanes = count_lanes(monkeypatch)
    t1, t2 = parse("(p b)*", AL_PB), parse("1 + p b (p b)*", AL_PB)
    assert search_countermodel("equality", t1, t2, AL_PB, 3, budget) is None
    three = [draw for draw in replayed_draws(AL_PB, 3, budget) if draw[0] == 3]
    assert lanes == [1] * 4 + [2] * 64 + [3] * len(three)
    assert len(set(three)) < len(three)


CONSEQUENCE = ["rule", "consequence", "a", "b", "c", "d", "a", "--tests", "a,b,c,d",
               "--max-states", "3"]


def test_sampled_rule_covering_the_space_draws_nothing(monkeypatch, capsys):
    # 5967 samples cover the 4368 interpretations: the exhaustive pass
    # evaluates each once and finds no refutation, so no draw can be one
    calls = []

    class Counting(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(relmodel.random, "Random", Counting)
    lanes = count_lanes(monkeypatch)
    assert cli.main(CONSEQUENCE + ["--samples", "5967", "--seed", "120"]) == 0
    assert capsys.readouterr().out.endswith(
        "no refutation found (budget 5967 samples n<=3 seed=120)\nseed: 120\n")
    assert calls == [] and len(lanes) == 4368


def test_covering_budget_is_not_held_to_the_ceiling(capsys):
    # a billion samples over 4368 interpretations: the exhaustive pass answers,
    # and the ceiling, which bounds exhaustive enumeration, is not applied
    start = time.perf_counter()
    code = cli.main(CONSEQUENCE + ["--samples", "1000000000", "--seed", "1",
                                   "--ceiling", "10"])
    assert time.perf_counter() - start < 1.0
    assert (code, capsys.readouterr().out) == (
        0, "no refutation found (budget 1000000000 samples n<=3 seed=1)\nseed: 1\n")
    code = cli.main(CONSEQUENCE + ["--samples", "4368", "--seed", "1", "--ceiling", "0"])
    assert code == 0 and "no refutation found" in capsys.readouterr().out


def test_small_space_with_a_hit_reports_the_first_drawn_hit():
    # 18 interpretations up to 2 points, 100 samples: the exhaustive pass finds
    # a hit, so the draws run and report theirs, not the enumeration's first
    budget = SearchBudget(exhaustive=False, samples=100, seed=1)
    t1, t2 = parse("p p", AL_P), parse("p", AL_P)
    got = search_countermodel("leq", t1, t2, AL_P, 2, budget)
    assert got == reference_search("leq", [], (t1, t2), AL_P, 2, budget)
    first = search_countermodel("leq", t1, t2, AL_P, 2, EXHAUSTIVE)
    assert draw_of(got, AL_P) == (2, 7) and draw_of(first, AL_P) == (2, 6)


def unpacked(blocks):
    """The draws in `_draw_blocks`' blocks, in order, as (n, fields) pairs;
    no group is wider than _BLOCK_BITS or than one lane."""
    draws = []
    for block in blocks:
        placed = {}
        for n, positions, leaves in block:
            width = n * n
            assert len(positions) * width <= max(relmodel._BLOCK_BITS, width)
            for lane, position in enumerate(positions):
                placed[position] = (n, [leaf >> lane * width & (1 << width) - 1
                                        for leaf in leaves])
        draws += [placed[position] for position in sorted(placed)]
    return draws


@pytest.mark.parametrize("max_n", range(1, 9))
def test_draws_replay_randint_exactly(max_n):
    # n is drawn without randint, and at max_n = 1 it still consumes a bit
    # per draw; a skipped size's fields, over 32 bits each from n = 6, are
    # consumed by one call as wide as the words they use
    for seed, (actions, tests) in itertools.product(range(-5, 60), [(1, 0), (0, 2), (2, 1)]):
        skip = {n for n in range(1, max_n + 1) if (seed + n) % 3 == 0}
        rng = random.Random(seed)
        want = []
        for _ in range(20):
            n = rng.randint(1, max_n)
            fields = [rng.getrandbits(n * n) for _ in range(actions)]
            fields += [rng.getrandbits(n) for _ in range(tests)]
            if n not in skip:
                want.append((n, fields))
        got = unpacked(relmodel._draw_blocks(seed, 20, max_n, actions, tests, skip))
        assert got == want


def test_sampled_draws_on_forty_points_are_not_remembered():
    # every one of 2000 draws of up to 40 points is yielded, in blocks of at
    # most two, and none is kept
    tracemalloc.start()
    try:
        draws = sum(len(positions) for block in relmodel._draw_blocks(7, 2000, 40, 1, 1, set())
                    for _, positions, _ in block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == 2000 and peak < 50_000


# ---------------------------------------------------------------------------
# Exhaustive search evaluates every interpretation in product order, in
# aligned blocks whose lanes are built arithmetically from the block's start.

AL_PB = Alphabet(("p",), ("b",))

# Claims whose first hit needs three points, with the hit's carrier size.
THREE_POINT_CLAIMS = [
    ("equality", "p*", "1 + p", 3),
    ("equality", "(b p)*", "1 + b p", 3),
    ("leq", "p p", "p + 1", 3),
    ("leq", "p* p", "p + 1", 3),
    ("leq", "p p p", "1 + p + p p", None),
    ("dom_geq", "b p b + b p !b p b p !b", "b p !b p b", 3),
    ("cod_geq", "b p b + !b p b p !b p b", "b p !b p b", 3),
    ("cod_geq", "T b", "p b", None),
]


@pytest.mark.parametrize("kind, left, right, size", THREE_POINT_CLAIMS)
def test_exhaustive_three_point_search_matches_the_reference(kind, left, right, size):
    t1, t2 = parse(left, AL_PB), parse(right, AL_PB)
    got = search_countermodel(kind, t1, t2, AL_PB, 3, EXHAUSTIVE)
    assert got == reference_search(kind, [], (t1, t2), AL_PB, 3, EXHAUSTIVE)
    assert (got and got.interp.n) == size


@pytest.mark.parametrize("hyps, size", [([], 3), ([("p b", "p")], 3),
                                         ([("!b p", "0")], None), ([("p", "b")], None)],
                         ids=["none", "holds", "no-edge-from-not-b", "edges-into-b"])
def test_exhaustive_three_point_falsify_matches_the_reference(hyps, size):
    hyps = [(parse(u, AL_PB), parse(v, AL_PB)) for u, v in hyps]
    u, v = parse("b p !b p b", AL_PB), parse("b p b + !b p b p !b p b", AL_PB)
    got = falsify_implication(hyps, (u, v), AL_PB, 3, EXHAUSTIVE)
    want = reference_search("cod_geq", [(b, a) for a, b in hyps], (v, u),
                            AL_PB, 3, EXHAUSTIVE)
    assert got == want
    assert (got and got.interp.n) == size


@pytest.mark.parametrize("kind", ["equality", "leq", "dom_geq", "cod_geq"])
def test_exhaustive_search_up_to_three_points_matches_the_reference(kind):
    rng = random.Random(79)
    for _ in range(6):
        t1, t2 = (random_term(rng, AL_PB, 3, allow_top=True) for _ in range(2))
        got = search_countermodel(kind, t1, t2, AL_PB, 3, EXHAUSTIVE)
        assert got == reference_search(kind, [], (t1, t2), AL_PB, 3, EXHAUSTIVE)


def test_sampled_search_on_forty_points_matches_the_reference():
    # a table of 2^n diagonals, or of all n*n-bit masks, cannot be built at n = 40
    budget = SearchBudget(exhaustive=False, samples=4, seed=11)
    claims = [("leq", "b p", "p"), ("equality", "p (p + b)", "p p + p b"),
              ("cod_geq", "p", "p b"), ("leq", "p", "b p")]
    for kind, left, right in claims:
        t1, t2 = parse(left, AL_PB), parse(right, AL_PB)
        got = search_countermodel(kind, t1, t2, AL_PB, 40, budget)
        assert got == reference_search(kind, [], (t1, t2), AL_PB, 40, budget)
    assert got is not None and got.interp.n > 20


@pytest.mark.parametrize("kind, left, right", [
    ("equality", "b", "b b"), ("leq", "b + !b", "b"), ("dom_geq", "b", "1"),
    ("leq", "0", "1"), ("leq", "T", "1"), ("cod_geq", "1", "T"),
])
def test_search_over_tests_or_no_primitives_matches_the_reference(kind, left, right,
                                                                  monkeypatch):
    # 2^(n*n) masks at n = 13 could not be built; 2^n test rows can
    sizes = count_lanes(monkeypatch)
    t1, t2 = parse(left, AL_PB), parse(right, AL_PB)
    got = search_countermodel(kind, t1, t2, AL_PB, 13, EXHAUSTIVE)
    assert got == reference_search(kind, [], (t1, t2), AL_PB, 13, EXHAUSTIVE)
    # every size before the hit's is evaluated whole, 2^n or one lane; each
    # hit here is its size's first interpretation, a block of one lane
    tests = len(prune_alphabet(AL_PB, t1, t2).tests)
    last = got.interp.n if got else 13
    assert [sizes.count(n) for n in range(1, last + 1)] == (
        [1 << n * tests for n in range(1, last)] + [1 if got else 1 << last * tests])
    assert got is None or all(rel.mask == 0 for rel in got.interp.test_map.values())


def test_one_action_and_one_test_evaluate_each_of_4164_interpretations_once(monkeypatch):
    sizes = count_lanes(monkeypatch)
    t1, t2 = parse("b p", AL_PB), parse("p", AL_PB)
    # the ceiling counts every interpretation, 4 + 64 + 4096
    with pytest.raises(ResourceLimitError, match="enumerate 4164 interpretations"):
        search_countermodel("leq", t1, t2, AL_PB, 3, SearchBudget(ceiling=4163))
    assert search_countermodel("leq", t1, t2, AL_PB, 3, SearchBudget(ceiling=4164)) is None
    assert [sizes.count(n) for n in (1, 2, 3)] == [4, 64, 4096]


@pytest.mark.parametrize("actions, tests", [(0, 0), (1, 0), (0, 2), (2, 1)])
def test_product_blocks_unpack_to_the_product_order(actions, tests):
    # every lane unpacked, against itertools.product with tests as bare rows
    want = ((n, *masks) for n in (1, 2, 3) for masks in itertools.product(
        *[range(1 << n * n)] * actions, *[range(1 << n)] * tests))
    straddles = False
    for block in relmodel._product_blocks(actions, tests, (1, 2, 3)):
        [(n, positions, leaves)] = block
        width = n * n
        assert len(positions) * width <= relmodel._BLOCK_BITS
        fields = [[leaf >> lane * width & (1 << width) - 1 for lane in positions]
                  for leaf in leaves]
        got = list(zip([n] * len(positions), *fields))
        assert got == list(itertools.islice(want, len(got)))
        # lane numbers wider than the last field reach into the one before it
        straddles |= len(leaves) > 1 and len(got) > 1 << (n if tests else width)
    assert next(want, None) is None
    assert straddles == (actions + tests > 1)


@pytest.mark.parametrize("actions, tests, sizes", [(0, 1, range(1, 14)), (1, 0, (1, 2, 3)),
                                                   (0, 0, (64, 65))])
def test_product_blocks_are_as_wide_as_their_size_allows(actions, tests, sizes):
    # each size's widest block is half its space, or as many lanes as fit in
    # _BLOCK_BITS rounded down to a power of two: 64 lanes at 7 points but
    # 16 at 13; a 65-point lane alone is wider than _BLOCK_BITS
    widest = {}
    for [(n, positions, _)] in relmodel._product_blocks(actions, tests, sizes):
        widest[n] = max(widest.get(n, 0), len(positions))
        assert len(positions) * n * n <= max(relmodel._BLOCK_BITS, n * n)
    for n in sizes:
        fit = max(1, relmodel._BLOCK_BITS // (n * n))
        space = 1 << n * n * actions + n * tests
        assert widest[n] == min(max(1, space // 2), 1 << fit.bit_length() - 1)


# ---------------------------------------------------------------------------
# A search runs its program once per block: interpretations of one carrier
# size side by side in one int, one n*n-bit lane each.

def pack(width, masks):
    """The masks side by side, one width-bit lane each, the first lowest."""
    return sum(mask << lane * width for lane, mask in enumerate(masks))


@pytest.mark.parametrize("lanes", [1, 2, 7, 64])
def test_each_lane_of_a_block_is_its_interpretation_run_alone(lanes):
    rng = random.Random(101 + lanes)
    actions, tests = ALPHABET.actions, ALPHABET.tests
    for _ in range(6):
        t1, t2 = (random_term(rng, ALPHABET, 4, allow_top=True) for _ in range(2))
        program, slot = relmodel._compile(postorder(t1, t2), actions, tests)
        for n in range(1, 5):
            width, lane_mask = n * n, (1 << n * n) - 1
            test_rows = [[rng.getrandbits(n) for _ in tests] for _ in range(lanes)]
            models = [[rng.getrandbits(width) for _ in actions]
                      + [relmodel._diagonal(n, row) for row in rows] for rows in test_rows]
            leaves = [pack(width, column) for column in zip(*models)]
            # sampled mode packs the bare test rows, then spreads the block
            for i, column in enumerate(zip(*test_rows), start=len(actions)):
                assert relmodel._diagonal(n, pack(width, column), lanes) == leaves[i]
            block = relmodel._run(program, n, lanes, leaves)
            flags = {kind: relmodel._flags(kind, n, lanes, block[slot[t1]], block[slot[t2]])
                     for kind in KINDS}
            for lane, masks in enumerate(models):
                alone = relmodel._run(program, n, 1, masks)
                assert [value >> lane * width & lane_mask for value in block] == alone
                for kind in KINDS:
                    found = relmodel._violation(kind, n, alone[slot[t1]], alone[slot[t2]])
                    assert flags[kind] >> lane * width & 1 == (found is not None)
            assert all(flags[kind] >> lanes * width == 0 for kind in KINDS)


AL_P = Alphabet(("p",), ())


def test_sampled_block_reports_the_earlier_draw_over_a_smaller_carrier(monkeypatch):
    # 1 and 2 points (2 + 16 interpretations, within the samples) are
    # searched whole up to their first hits, each in the second block of
    # one; both have hits, so their draws run.  Draw 0 is the empty relation
    # on one point, no hit; the second block of draws holds draws 1 and 2,
    # both hits, the larger carrier drawn first
    budget = SearchBudget(exhaustive=False, samples=50, seed=18)
    assert replayed_draws(AL_P, 3, budget)[:3] == [(1, 0), (3, 229), (2, 3)]
    sizes = count_lanes(monkeypatch)
    t1, t2 = parse("p", AL_P), parse("0", AL_P)
    got = search_countermodel("leq", t1, t2, AL_P, 3, budget)
    assert got == reference_search("leq", [], (t1, t2), AL_P, 3, budget)
    assert draw_of(got, AL_P) == (3, 229)
    assert sizes == [1, 1, 2, 2] + [1, 3, 2]


def test_sampled_hit_at_the_first_draw_evaluates_one_lane(monkeypatch):
    # after 1 and 2 points are searched whole, up to their first hits
    budget = SearchBudget(exhaustive=False, samples=50, seed=0)
    assert replayed_draws(AL_P, 3, budget)[0] == (2, 12)
    sizes = count_lanes(monkeypatch)
    t1, t2 = parse("p", AL_P), parse("0", AL_P)
    got = search_countermodel("leq", t1, t2, AL_P, 3, budget)
    assert got == reference_search("leq", [], (t1, t2), AL_P, 3, budget)
    assert draw_of(got, AL_P) == (2, 12) and sizes == [1, 1, 2, 2] + [2]


@pytest.mark.parametrize("kind, left, right, size",
                         [claim for claim in THREE_POINT_CLAIMS if claim[3]])
def test_exhaustive_hit_in_a_later_lane_matches_the_reference(kind, left, right, size,
                                                             monkeypatch):
    blocks = []
    original = relmodel._run

    def recording(program, n, lanes, leaves):
        blocks.append((n, lanes, leaves))
        return original(program, n, lanes, leaves)

    monkeypatch.setattr(relmodel, "_run", recording)
    t1, t2 = parse(left, AL_PB), parse(right, AL_PB)
    got = search_countermodel(kind, t1, t2, AL_PB, 3, EXHAUSTIVE)
    assert got == reference_search(kind, [], (t1, t2), AL_PB, 3, EXHAUSTIVE)
    pruned = prune_alphabet(AL_PB, t1, t2)
    hit = (*(got.interp.action_map[a].mask for a in pruned.actions),
           *(got.interp.test_map[b].mask for b in pruned.tests))
    n, lanes, leaves = blocks[-1]
    width = n * n
    packed = [tuple(leaf >> lane * width & (1 << width) - 1 for leaf in leaves)
              for lane in range(lanes)]
    assert n == size and packed.index(hit) > 0
