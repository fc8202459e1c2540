"""The CLI's exit contract under seeded random invocations of every
subcommand, well-formed and malformed: the code is 0-3 and no exception
escapes, stderr is written iff the code is 2 or 3, `--json` output is
versioned JSON, and every `decide` witness between top-free terms lies
in exactly one side's bounded language."""

import json
import random

from topkat.cli import COMMANDS, main
from topkat.gen import random_term, random_test_term
from topkat.logic import RULES
from topkat.semantics import all_atoms, lang_bounded, parse_guarded_string
from topkat.syntax import Alphabet, contains_top, parse, prune_alphabet, render

AL = Alphabet(("p", "q"), ("b", "c"))
SEED = 8
CASES = 600
TEST_PARAMS = {"a", "b", "c", "a_weak", "b_weak"}  # the rules' test-only parameters
BAD_TERMS = ["p +", "(p", "p )", "#", "!p", "!(q*)", "", "p T", "__x", "T"]


def term(rng: random.Random, top: bool = False, depth: int = 3) -> str:
    return render(random_term(rng, AL, depth, allow_top=top))


def guard(rng: random.Random) -> str:
    return render(random_test_term(rng, AL, 2))


def guarded_string(rng: random.Random) -> str:
    atoms = [atom.render() for atom in all_atoms(AL)]
    parts = [rng.choice(atoms)]
    for _ in range(rng.randint(0, 2)):
        parts += [rng.choice(AL.actions), rng.choice(atoms)]
    return " ".join(parts)


def search_mode(rng: random.Random) -> list[str]:
    if rng.random() < 0.5:
        return ["--exhaustive", "--max-states", "1"]
    return ["--samples", str(rng.randint(1, 30)), "--seed", str(rng.randint(0, 9)),
            "--max-states", "2"]


def well_formed(rng: random.Random, name: str, triples) -> list[str]:
    top = rng.random() < 0.3
    if name in ("decide", "leq"):
        args = [term(rng, top), term(rng, top)]
    elif name in ("cod-geq", "dom-geq"):
        args = [term(rng), term(rng)] + (["--numeric"] if rng.random() < 0.5 else [])
    elif name == "reduce":
        args = [term(rng, True)]
    elif name == "lang":
        args = [term(rng, depth=2), "--max-actions", str(rng.randint(0, 2))]
    elif name == "member":
        args = [term(rng), guarded_string(rng)]
    elif name == "triple":
        kind, left, right = rng.choice([("hoare", "{", "}"), ("incorrectness", "[", "]")])
        args = ["--file", triples(f"{kind} {left}{guard(rng)}{right} {term(rng)} "
                                  f"{left}{guard(rng)}{right}\n")]
    elif name == "search":
        kind = rng.choice(["equality", "leq", "dom-geq", "cod-geq"])
        args = [term(rng, depth=2), term(rng, depth=2), "--kind", kind] + search_mode(rng)
    else:
        rule = rng.choice(sorted(RULES))
        args = [rule] + [guard(rng) if param in TEST_PARAMS else term(rng, depth=2)
                         for param in RULES[rule]] + search_mode(rng)
    return [name, *args, "--tests", "b,c"] + (["--json"] if rng.random() < 0.5 else [])


def malformed(rng: random.Random, argv: list[str]) -> list[str]:
    argv = list(argv)
    where = rng.randrange(1, len(argv) + 1)
    mutation = rng.randrange(6)
    if mutation == 0:
        del argv[where - 1]
    elif mutation == 1:
        argv.insert(where, "--bogus")
    elif mutation == 2:
        argv[where - 1:where] = [rng.choice(BAD_TERMS)]
    elif mutation == 3:
        argv += rng.choice([["--max-states", "-1"], ["--samples", "0"], ["--max-actions", "x"],
                            ["--tests", "p"], ["--actions", "q"], ["--file", "/nonexistent"],
                            ["--ceiling", "0"]])
    elif mutation == 4:
        argv.insert(where, rng.choice(BAD_TERMS))
    else:
        argv[0] = rng.choice(["nonsense", "", "decide"])
    return argv


def check_witness(argv: list[str], out: str) -> None:
    t1, t2 = (parse(text, AL) for text in argv[1:3])
    if contains_top(t1) or contains_top(t2):
        return
    pruned = prune_alphabet(AL, t1, t2)
    if "--json" in argv:
        text = json.loads(out)["witness"]
    else:
        text = out.split("witness: ")[1].split("\n")[0]
    witness = parse_guarded_string(text, pruned)
    inside = [witness in lang_bounded(t, pruned, witness.num_actions) for t in (t1, t2)]
    assert inside.count(True) == 1, (argv, text)


def test_every_invocation_keeps_the_exit_contract(capsys, tmp_path):
    def triples(text: str) -> str:
        path = tmp_path / f"triples{len(list(tmp_path.iterdir()))}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    rng = random.Random(SEED)
    codes = set()
    for case in range(CASES):
        argv = well_formed(rng, list(COMMANDS)[case % len(COMMANDS)], triples)
        bad = rng.random() < 0.35
        if bad:
            argv = malformed(rng, argv)
        code = main(argv)
        out, err = capsys.readouterr()
        codes.add(code)
        assert code in (0, 1, 2, 3), argv
        assert bool(err) == (code >= 2), (argv, code, err)
        assert not err.startswith("error: internal error"), (argv, err)
        if "--json" in argv and code < 2:
            assert json.loads(out)["v"] == 1, argv
        if argv[0] == "decide" and code == 1 and not bad:
            check_witness(argv, out)
    assert codes == {0, 1, 2, 3}
