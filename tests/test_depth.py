"""Terms of any length and nesting depth get a verdict from every subcommand.

Every pass over a term is a loop over `syntax.postorder`, so no input can
exhaust the interpreter stack.  Each call must give a verdict (exit 0 or
1), or exit 3 naming a declared cap: the atom cap, the string cap of
`lang`, or the search ceiling.
"""

import copy
import tracemalloc

import pytest

from topkat.cli import COMMANDS, main
from topkat.logic import Triple
from topkat.syntax import Alphabet, parse, postorder, render, reverse


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


def _argv(command: str, term: str, tmp_path, shape: str) -> list[str]:
    # A Hoare triple over the 10^4-action sequence with a satisfiable
    # precondition explores 10^4 derivative levels, each a fresh
    # left-nested term: quadratic time, not a question of depth.
    pre = "0" if shape == "sequence" else "b"
    triples = tmp_path / "triples.txt"
    triples.write_text(f"hoare {{{pre}}} {term} {{b}}\nincorrectness [b] {term} [b]\n",
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
    code = main(_argv(command, DEEP[shape], tmp_path, shape))
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
