import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from topkat import decide, logic
from topkat.cli import COMMANDS, Command, main
from topkat.relmodel import Relation, RelInterpretation, SearchHit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exit_codes(capsys):
    code, out, _ = run(capsys, "decide", "--tests", "b", "b + !b", "1")
    assert code == 0 and out == "equivalent\n"
    code, out, _ = run(capsys, "decide", "--tests", "", "p", "q")
    assert code == 1 and out.startswith("not equivalent\nwitness: ")


def test_leq_checks_first_arg_dominates_second(capsys):
    code, out, _ = run(capsys, "leq", "--tests", "", "p T p T", "p T")
    assert code == 1 and "witness: [] p []" in out
    code, out, _ = run(capsys, "leq", "--tests", "", "p T", "p T p T")
    assert code == 0 and out == "provable\n"


def test_json_mode_is_versioned(capsys):
    code, out, _ = run(capsys, "leq", "--json", "--tests", "", "T", "p")
    assert code == 0
    payload = json.loads(out)
    assert payload["v"] == 1 and payload["verdict"] == "provable"
    code, out, _ = run(capsys, "decide", "--json", "--tests", "", "p", "q")
    payload = json.loads(out)
    assert payload["verdict"] == "not-equivalent"
    assert payload["witness"] == "[] p []"
    assert payload["side"] in ("left", "right")


def test_cod_geq_json_countermodel_schema(capsys):
    code, out, _ = run(capsys, "cod-geq", "--json", "--tests", "b", "p b", "p")
    assert code == 1
    payload = json.loads(out)
    model = payload["countermodel"]
    assert set(model) == {"carrier", "relations", "violating_point", "witness", "side"}
    assert model["side"] == "right"
    assert len(model["carrier"]) == len(model["witness"].split()) // 2 + 1
    assert "__top__" in model["relations"]


def test_undeclared_identifier_with_explicit_actions(capsys):
    code, _, err = run(capsys, "decide", "--tests", "", "--actions", "p", "p", "q")
    assert code == 2 and "undeclared" in err


def test_actions_are_inferred_in_first_occurrence_order(capsys):
    code, out, _ = run(capsys, "reduce", "--tests", "", "T q p")
    assert code == 0 and out == "(q + p + __top__)* q p\n"


def test_member(capsys):
    code, out, _ = run(capsys, "member", "--tests", "b", "p*", "[b] p [!b]")
    assert code == 0 and out == "member\n"
    code, out, _ = run(capsys, "member", "--tests", "b", "p b", "[b] p [!b]")
    assert code == 1 and out == "not member\n"


def test_lang_sorted_output(capsys):
    code, out, _ = run(capsys, "lang", "--tests", "b", "--max-actions", "0", "1")
    assert code == 0 and out == "[!b]\n[b]\n"


def test_lang_refuses_an_oversized_language(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "lang", "--tests", "b,c,d", "--max-actions", "16", "(p + q)*")
    assert code == 3 and out == "" and "250000 guarded strings" in err
    assert time.perf_counter() - start < 5


def test_file_input(tmp_path, capsys):
    path = tmp_path / "terms.txt"
    path.write_text("p*\n1 + p p*\n", encoding="utf-8")
    code, out, _ = run(capsys, "decide", "--tests", "", "--file", str(path))
    assert code == 0 and out == "equivalent\n"
    code, _, err = run(capsys, "decide", "--tests", "", "--file", str(path), "p*")
    assert code == 2 and "not both" in err


def test_triple_file(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    path.write_text("hoare {b} p {1}\nincorrectness [1] p [1]\n", encoding="utf-8")
    code, out, _ = run(capsys, "triple", "--file", str(path), "--tests", "b")
    assert code == 1
    assert out == "line 1: hoare provable\nline 2: incorrectness not provable\n"
    code, out, _ = run(capsys, "triple", "--file", str(path), "--tests", "b",
                       "--direction", "as-printed", "--json")
    payload = json.loads(out)
    assert [r["verdict"] for r in payload["results"]] == ["provable", "provable"]


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
def test_triple_file_without_triples_is_a_usage_error(tmp_path, capsys, mode):
    path = tmp_path / "specs.txt"
    path.write_text("# no triples here\n\n   # nor here\n", encoding="utf-8")
    code, out, err = run(capsys, "triple", "--file", str(path), "--tests", "b", *mode)
    assert code == 2 and out == "" and "no triples" in err


def test_search_modes_and_seed_echo(capsys):
    code, out, _ = run(capsys, "search", "--kind", "leq", "--max-states", "2",
                       "--exhaustive", "--tests", "", "p T p", "p")
    assert code == 0 and out == "no countermodel\n"
    code, out, _ = run(capsys, "search", "--kind", "leq", "--max-states", "2",
                       "--samples", "50", "--seed", "5", "--json",
                       "--tests", "", "q", "p")
    payload = json.loads(out)
    assert payload["seed"] == 5
    assert code in (0, 1)
    code, _, err = run(capsys, "search", "--kind", "leq", "--samples", "10",
                       "--tests", "", "p", "q")
    assert code == 2 and "--seed" in err
    code, _, err = run(capsys, "search", "--kind", "leq", "--tests", "", "p", "q")
    assert code == 2 and "search mode" in err


def test_search_ceiling_exit_code(capsys):
    code, _, err = run(capsys, "search", "--kind", "leq", "--max-states", "3",
                       "--exhaustive", "--ceiling", "1000", "--tests", "",
                       "p q r", "p")
    assert code == 3 and "ceiling" in err


@pytest.mark.parametrize("command", [["search", "--kind", "leq", "p", "q"],
                                     ["rule", "choice", "a", "b", "p", "q"]],
                         ids=["search", "rule"])
def test_negative_ceiling_is_malformed_and_zero_is_a_limit(capsys, command):
    base = command + ["--exhaustive", "--tests", "a,b"]
    code, out, err = run(capsys, *base, "--ceiling", "-5")
    assert code == 2 and out == "" and "ceiling must be >= 0" in err
    code, out, err = run(capsys, *base, "--ceiling", "0")
    assert code == 3 and out == "" and "over the ceiling of 0" in err
    # sampled mode checks the ceiling too, though draws are not held to it
    sampled = command + ["--samples", "10", "--seed", "1", "--tests", "a,b"]
    code, out, err = run(capsys, *sampled, "--ceiling", "-5")
    assert code == 2 and out == "" and "ceiling must be >= 0" in err
    code, out, err = run(capsys, *sampled, "--ceiling", "0")
    assert code in (0, 1) and out and err == ""


def test_rule_honours_the_ceiling(capsys):
    code, out, err = run(capsys, "rule", "choice", "--tests", "a,b", "a", "b", "p", "q",
                         "--exhaustive", "--max-states", "2", "--ceiling", "10")
    assert code == 3 and out == "" and "ceiling" in err


def test_oversized_exhaustive_budget_is_refused_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--kind", "leq", "--tests", "a", "p", "q",
                         "--exhaustive", "--max-states", "1500")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and "ceiling" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_search_needs_at_least_one_sample(capsys, samples):
    code, out, err = run(capsys, "search", "--kind", "leq", "--samples", samples,
                         "--seed", "1", "--tests", "", "p", "q")
    assert code == 2 and out == "" and "samples" in err


def test_rule_subcommand(capsys):
    code, out, _ = run(capsys, "rule", "sequencing", "1", "1", "1", "p", "p",
                       "--exhaustive", "--max-states", "2", "--tests", "")
    assert code == 0 and out == "no refutation found (budget exhaustive n<=2)\n"
    code, _, err = run(capsys, "rule", "sequencing", "1", "1", "--exhaustive",
                       "--tests", "")
    assert code == 2 and "5 terms" in err


def test_rule_json_without_refutation(capsys):
    code, out, _ = run(capsys, "rule", "choice", "b", "c", "p", "p", "--tests", "b,c",
                       "--exhaustive", "--json")
    assert code == 0
    assert out == '{"v": 1, "verdict": "no-refutation", "budget": "exhaustive n<=2"}\n'
    code, out, _ = run(capsys, "rule", "choice", "b", "c", "p", "p", "--tests", "b,c",
                       "--samples", "50", "--seed", "3", "--json")
    assert code == 0
    assert out == ('{"v": 1, "verdict": "no-refutation", '
                   '"budget": "50 samples n<=2 seed=3", "seed": 3}\n')


# The built-in rules are sound, so a refuted rule is only reachable with a
# hand-built hit in place of the search result.
REFUTING_HIT = SearchHit(
    RelInterpretation(2, {"p": Relation.from_pairs(2, [(0, 1)])},
                      {"b": Relation.from_pairs(2, [(0, 0)]), "c": Relation(2, 0)}),
    "cod_geq", None, 1)
REFUTED_MODEL = ('"countermodel": {"carrier": ["0", "1"], "relations": '
                 '{"p": [[0, 1]], "b": [[0, 0]], "c": []}, "violating_point": "1"}')
REFUTED_HUMAN = ("refuted\ncarrier:\n  0 = 0\n  1 = 1\nrelations:\n  p = {(0,1)}\n"
                 "  b = {(0,0)}\n  c = {}\nviolating point: 1\n")


def test_rule_refuted_output(capsys, monkeypatch):
    real = logic.check_rule_instance

    def refuted(*args):
        report = real(*args)
        return logic.RuleReport(report.rule, report.hyps, report.goal, REFUTING_HIT,
                                report.budget)

    monkeypatch.setattr(logic, "check_rule_instance", refuted)
    rule = ("rule", "choice", "b", "c", "p", "p", "--tests", "b,c")
    code, out, _ = run(capsys, *rule, "--exhaustive", "--json")
    assert code == 1
    assert out == ('{"v": 1, "verdict": "refuted", ' + REFUTED_MODEL
                   + ', "budget": "exhaustive n<=2"}\n')
    code, out, _ = run(capsys, *rule, "--samples", "50", "--seed", "3", "--json")
    assert code == 1
    assert out == ('{"v": 1, "verdict": "refuted", "seed": 3, ' + REFUTED_MODEL
                   + ', "budget": "50 samples n<=2 seed=3"}\n')
    code, out, _ = run(capsys, *rule, "--exhaustive")
    assert code == 1 and out == REFUTED_HUMAN
    code, out, _ = run(capsys, *rule, "--samples", "50", "--seed", "3")
    assert code == 1 and out == REFUTED_HUMAN + "seed: 3\n"


def test_flags_may_follow_or_precede_terms(capsys):
    terms = ("a", "b", "c", "p", "q")
    flags = ("--tests", "a,b,c", "--exhaustive", "--max-states", "1")
    first = run(capsys, "rule", "sequencing", *terms, *flags)
    assert first[0] == 0 and first[1] == "no refutation found (budget exhaustive n<=1)\n"
    assert run(capsys, "rule", "sequencing", *flags, *terms) == first
    assert run(capsys, "rule", "sequencing", "a", "b", "--tests", "a,b,c", "c", "p",
               "--exhaustive", "q", "--max-states", "1") == first
    member = run(capsys, "member", "--tests", "b", "p*", "[b] p [!b]")
    assert member[:2] == (0, "member\n")
    assert run(capsys, "member", "p*", "--tests", "b", "[b] p [!b]") == member
    code, _, err = run(capsys, "rule", "sequencing", *terms, *flags, "--bogus")
    assert code == 2 and "--bogus" in err
    code, _, err = run(capsys, "decide", "--bogus", "p", "p")
    assert code == 2 and "--bogus" in err


def test_deep_term_gets_a_verdict(capsys):
    code, out, err = run(capsys, "decide", " ".join(["p"] * 1200), "p")
    assert (code, out, err) == (1, "not equivalent\nwitness: [] p []\nside: right\n", "")


def test_usage_errors(capsys):
    assert run(capsys, "decide", "--tests", "", "p")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    code, _, err = run(capsys, "decide", "--tests", "b,b", "b", "b")
    assert code == 2


def test_identical_invocations_are_byte_identical(capsys):
    first = run(capsys, "cod-geq", "--json", "--tests", "b,c", "p b", "p c + q")
    second = run(capsys, "cod-geq", "--json", "--tests", "b,c", "p b", "p c + q")
    assert first == second


@pytest.mark.parametrize("argv", [("--help",), *((name, "--help") for name in COMMANDS), ()],
                         ids=lambda argv: " ".join(argv) or "bare")
def test_help_and_bare_invocation(capsys, argv):
    code, out, _ = run(capsys, *argv)
    if not argv:
        assert code == 2 and out == ""
    elif len(argv) == 1:
        assert code == 0 and len(COMMANDS) == 10
        for name, command in COMMANDS.items():
            assert re.search(rf"^  {name} +{re.escape(command.help)}$", out, re.M)
    else:
        assert code == 0 and out.startswith(f"usage: topkat {argv[0]} ")


def test_an_unsound_witness_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(decide, "_member", lambda *args: True)  # both sides accept
    code, out, err = run(capsys, "decide", "--tests", "", "p", "q")
    assert (code, out) == (3, "")
    assert err.startswith("error: internal error: unsound witness '[] p []' for ")
    assert err.count("\n") == 1


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def failing(*args):
        raise KeyError("p")

    decide_command = COMMANDS["decide"]
    monkeypatch.setitem(COMMANDS, "decide", Command(decide_command.help, failing,
                                                    decide_command.terms, decide_command.args,
                                                    decide_command.read))
    assert run(capsys, "decide", "p", "q") == (3, "", "error: internal error: KeyError: 'p'\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, lines, exit_code", [
    (["lang", "--tests", "b,c", "--max-actions", "4", "(p+q)*"], 1, 0),  # about 700 kB
    (["decide", "p", "q"], 0, 1),
], ids=["lang-reads-one-line", "decide-reads-none"])
def test_a_reader_that_leaves_early_keeps_the_exit_code(argv, lines, exit_code, unbuffered):
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(pathlib.Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "topkat", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines):
            assert child.stdout.readline().startswith(b"[")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert (child.returncode, err) == (exit_code, b"")


def readme_examples():
    """The `topkat` lines of README's usage block with a `# exit N` comment,
    on the line itself or on the next, as (argv, N)."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    usage = readme.read_text(encoding="utf-8").split("## Command-line usage")[1]
    lines = usage.split("```sh\n")[1].split("```")[0].splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        exit_code = re.search(r"# exit (\d)", line) or re.match(r"\s+# exit (\d)", after)
        if line.startswith("topkat ") and exit_code:
            examples.append((shlex.split(line, comments=True)[1:], int(exit_code[1])))
    return examples


@pytest.mark.parametrize("argv, exit_code", readme_examples(),
                         ids=lambda x: x[0] if isinstance(x, list) else None)
def test_readme_usage_examples_exit_as_documented(capsys, argv, exit_code):
    assert run(capsys, *argv)[0] == exit_code


def test_readme_usage_examples_include_the_continued_search_line():
    assert [argv[0] for argv, _ in readme_examples()] == ["decide", "leq", "search", "cod-geq"]
