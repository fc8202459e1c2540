"""Terms of any length and nesting depth get a verdict from every subcommand.

Every pass over a term is a loop over `syntax.postorder`, so no input can
exhaust the interpreter stack.  Each call must give a verdict (exit 0 or
1), or exit 3 naming a declared cap: the atom cap, the string cap of
`lang`, or the search ceiling.  What a decision walks and builds grows
linearly in the length of a sequence and in the depth of a nested star,
which the growth tests pin with counts rather than clocks.
"""

import copy
import pickle
import tracemalloc

import pytest

from conftest import rebuild, reverse
from topkat import decide, syntax
from topkat.cli import COMMANDS, main
from topkat.logic import Triple, check_triple
from topkat.syntax import Alphabet, parse, postorder, render


def _alternating(depth: int) -> str:
    text = "p"
    for i in range(depth):
        text = f"({text} + q)" if i % 2 else f"(p {text})"
    return text


DEEP = {
    "sequence": " ".join(["p", "q"] * 5000),  # 10^4 actions
    "sum": " + ".join(["p", "q"] * 5000),  # 10^4 terms
    "parens": "(" * 1000 + "p" + ")" * 1000,
    "alternating": _alternating(1000),
    "negations": "!" * 2000 + "b",
    "stars": "p" + "*" * 2000,
}
CAPS = ("atom cap", "guarded strings within the action bound", "over the ceiling")


def _argv(command: str, term: str, tmp_path) -> list[str]:
    triples = tmp_path / "triples.txt"
    triples.write_text(f"hoare {{b}} {term} {{b}}\nincorrectness [b] {term} [b]\n",
                       encoding="utf-8")
    search = ["--exhaustive", "--max-states", "1"]
    return {
        "lang": ["lang", "--max-actions", "1", term],
        "member": ["member", term, "[b] p [b]"],
        "reduce": ["reduce", term],
        "triple": ["triple", "--file", str(triples)],
        "search": ["search", "--kind", "equality", *search, term, "p"],
        "rule": ["rule", "sequencing", "b", "b", "b", term, "p", *search],
    }.get(command, [command, term, "p"]) + ["--tests", "b"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("shape", DEEP)
def test_every_command_takes_any_depth(capsys, tmp_path, shape, command):
    code = main(_argv(command, DEEP[shape], tmp_path))
    out, err = capsys.readouterr()
    assert "recursion" not in err.lower()
    if code == 3:
        assert out == "" and any(cap in err for cap in CAPS), err
    else:
        assert code in (0, 1) and err == "", (code, err)


@pytest.mark.parametrize("shape", DEEP)
def test_deep_terms_round_trip(shape):
    alphabet = Alphabet(("p", "q"), ("b",))
    t = parse(DEEP[shape], alphabet)
    assert parse(render(t), alphabet) is t
    assert reverse(reverse(t)) is t
    assert rebuild(t, lambda s: s) is t
    order = postorder(t)
    position = {s: i for i, s in enumerate(order)}
    assert len(position) == len(order) and order[-1] is t
    assert all(position[k] < position[s] for s in order for k in s.kids)


def test_deep_terms_are_their_own_copies():
    alphabet = Alphabet(("p", "q"), ("b",))
    sequence, stars = parse(DEEP["sequence"], alphabet), parse(DEEP["stars"], alphabet)
    for t in (sequence, stars):
        assert copy.copy(t) is t and copy.deepcopy(t) is t
    b = parse("b", alphabet)
    triple = Triple("hoare", b, sequence, b)
    assert copy.copy(triple) == triple and copy.deepcopy(triple) == triple


def test_deep_terms_print_at_any_depth():
    alphabet = Alphabet(("p", "q"), ("b",))
    text = repr(parse(DEEP["sequence"], alphabet))
    # 9999 nodes "Dot(left=..., right=...)" around 10^4 leaves "Act(name='p')"
    assert text.startswith("Dot(left=Dot(left=")
    assert len(text) == 9999 * len("Dot(left=, right=)") + 10_000 * len("Act(name='p')")


def test_deep_terms_pickle_to_themselves():
    alphabet = Alphabet(("p", "q"), ("b",))
    sequence, stars = parse(DEEP["sequence"], alphabet), parse(DEEP["stars"], alphabet)
    for t in (sequence, stars):
        assert pickle.loads(pickle.dumps(t)) is t
    b = parse("b", alphabet)
    triple = Triple("hoare", b, sequence, b)
    assert pickle.loads(pickle.dumps(triple)) == triple


def test_a_long_chain_of_distinct_actions_reduces_in_bounded_memory(capsys):
    # Every node records its names as bit masks, n^2/2 bits along a chain
    # of n distinct names: about 13 MB here, with each name's own bit.
    # One set of names per node would hold n^2/2 set entries, over 400 MB.
    term = " ".join(f"chain{i}" for i in range(10_000))
    tracemalloc.start()
    try:
        code = main(["reduce", term])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, term + "\n", "")
    assert peak < 64 * 2**20, peak


def test_a_triple_over_distinct_actions_decides_in_bounded_memory(capsys, tmp_path):
    # The parsed sequence nests to the left; its first derivative is the
    # rest nested to the right, and every later one is a tail of that, so
    # the decision builds about n nodes.  Rebuilding the rest of the
    # sequence at each step held about n^2/2, some 1.9 GB at n = 2000.
    triples = tmp_path / "triples.txt"
    program = " ".join(f"a{i}" for i in range(10_000))
    triples.write_text(f"hoare {{b}} {program} {{b}}\n", encoding="utf-8")
    tracemalloc.start()
    try:
        code = main(["triple", "--tests", "b", "--file", str(triples)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "line 1: hoare not provable\n", "")
    assert peak < 128 * 2**20, peak


def _hoare(program: str, actions) -> None:
    alphabet = Alphabet(tuple(actions), ("b",))
    b = parse("b", alphabet)
    check_triple(Triple("hoare", b, parse(program, alphabet), b), alphabet)


def _nested_star(k: int) -> None:
    alphabet, s = Alphabet(("p", "q"), ()), "p"
    for _ in range(k):
        s = f"({s})* q"
    decide.equivalent(parse(f"({s})*", alphabet), parse(f"({s})* ({s})*", alphabet), alphabet)


def _stars(k: int) -> None:
    alphabet = Alphabet(("p",), ())
    decide.equivalent(parse("p" + "*" * k, alphabet), parse("p*", alphabet), alphabet)


def _star_plus(k: int) -> None:
    alphabet, t = Alphabet(("p", "q"), ()), "p"
    for i in range(k):
        t = f"({t} + q)" if i % 2 else f"({t})*"
    decide.equivalent(parse(t, alphabet), parse("p*", alphabet), alphabet)


# Each case: what is counted (calls of a function, or the length of what
# it returns), the decision at size n, and n.  The derivatives of a
# state share its tail, each state is walked once, and a walk meets each
# (subterm, continuation) pair once per atom; so doubling n about doubles
# each count.  Where derivatives were fresh left-nested terms the first
# three counts grew fourfold, and without the per-walk map so do the last two.
GROWTH = {
    "acceptance walk, (p q)^n": (
        decide, "postorder", len, lambda n: _hoare(" ".join(["p q"] * n), "pq"), 500),
    "terms built, a0 ... a(n-1)": (
        syntax, "_build", None,
        lambda n: _hoare(" ".join(f"a{i}" for i in range(n)), [f"a{i}" for i in range(n)]), 250),
    "terms built, nested star": (syntax, "_build", None, _nested_star, 50),
    "continuations built, p with n stars": (decide._Engine, "_sdot", None, _stars, 1000),
    "continuations built, star-plus nest": (decide._Engine, "_sdot", None, _star_plus, 1000),
}


def _counting_up_to(m: int, alphabet: Alphabet) -> syntax.Term:
    power = lambda n: " ".join(["p"] * n) or "1"
    return parse(f"({power(m)})* ({' + '.join(map(power, range(m)))})", alphabet)


@pytest.mark.parametrize("m", [10, 40])
def test_the_union_find_keeps_two_counters_linear(monkeypatch, m):
    # (p^m)* (1 + p + ... + p^(m-1)) is p*; its states count the p's
    # modulo m.  Against the same shape at m + 1, merging classes steps 4m
    # times.  Skipping only pairs whose sides are equal steps 2m(m + 1)
    # times, 220 and 3280, and gives the same counts on every corpus query.
    alphabet, calls = Alphabet(("p",), ()), []
    step = decide._Engine.step
    monkeypatch.setattr(decide._Engine, "step",
                        lambda self, *args: calls.append(1) or step(self, *args))
    verdict = decide.equivalent(_counting_up_to(m, alphabet), _counting_up_to(m + 1, alphabet),
                                alphabet)
    assert isinstance(verdict, decide.Equivalent) and len(calls) == 4 * m


@pytest.mark.parametrize("case", GROWTH)
def test_the_decider_grows_linearly(monkeypatch, case):
    owner, name, measure, decision, n = GROWTH[case]
    original, total = getattr(owner, name), [0]

    def counted(*args):
        result = original(*args)
        total[0] += measure(result) if measure else 1
        return result

    monkeypatch.setattr(owner, name, counted)
    counts = []
    for size in (n, 2 * n):
        total[0] = 0
        decision(size)
        counts.append(total[0])
    assert 0 < counts[1] <= 2.2 * counts[0], counts
