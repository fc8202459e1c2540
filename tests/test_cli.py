import argparse
import gc
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

import topkat
from conftest import child_env
from topkat import cli, decide, relmodel
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


@pytest.mark.parametrize("direction, verdicts", [
    ("under", ["not provable", "not provable", "provable", "not provable"]),
    ("as-printed", ["provable", "not provable", "provable", "not provable"]),
])
def test_triple_verdicts_evaluate_no_relational_model(tmp_path, capsys, monkeypatch,
                                                      direction, verdicts):
    # an incorrectness verdict is its decided inequation; a countermodel of
    # the long line would be evaluated on 401 points
    calls, evaluate = [], relmodel.evaluate
    for module in (m for name, m in sys.modules.items() if name.startswith("topkat")):
        if getattr(module, "evaluate", None) is evaluate:
            monkeypatch.setattr(module, "evaluate",
                                lambda *args: calls.append(1) or evaluate(*args))
    path = tmp_path / "specs.txt"
    path.write_text("incorrectness [1] p [1]\nincorrectness [b] p [c]\nhoare {b} p {1}\n"
                    f"incorrectness [1] {' '.join(['p'] * 400)} [b]\n", encoding="utf-8")
    kinds = ["incorrectness", "incorrectness", "hoare", "incorrectness"]
    out = "".join(f"line {n}: {kind} {verdict}\n"
                  for n, (kind, verdict) in enumerate(zip(kinds, verdicts), 1))
    assert run(capsys, "triple", "--tests", "b,c", "--direction", direction,
               "--file", str(path)) == (1, out, "")
    assert calls == []


def test_comment_and_blank_lines_of_a_triple_file_are_skipped_but_counted(tmp_path, capsys):
    path = tmp_path / "specs.txt"
    path.write_text("# comment\n\nhoare {1} p {1}\nincorrectness [1] p [1]\n", encoding="utf-8")
    assert run(capsys, "triple", "--file", str(path)) == (
        1, "line 3: hoare provable\nline 4: incorrectness not provable\n", "")


def test_hoare_lines_count_only_the_tests_that_occur(tmp_path, capsys):
    # eleven declared tests exceed the atom cap; each line uses at most two
    path = tmp_path / "specs.txt"
    tests = ",".join(f"b{i}" for i in range(11))
    for line, want in (("hoare {b0} p b10 {b10}", (0, "line 1: hoare provable\n")),
                       ("hoare {b0} p {b0}", (1, "line 1: hoare not provable\n"))):
        path.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "triple", "--file", str(path), "--tests", tests)
        assert (code, out, err) == (*want, "")


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["human", "json"])
def test_triple_file_without_triples_is_a_usage_error(tmp_path, capsys, mode):
    path = tmp_path / "specs.txt"
    path.write_text("# no triples here\n\n   # nor here\n", encoding="utf-8")
    code, out, err = run(capsys, "triple", "--file", str(path), "--tests", "b", *mode)
    assert code == 2 and out == "" and "no triples" in err


ELEVEN = [f"b{i}" for i in range(11)]


@pytest.mark.parametrize("argv, text, message, code", [
    (["decide"], "p\n(q\n", "line 2: unexpected end of input (at position 2)", 2),
    (["triple", "--tests", "b"], "hoare {b} p {b}\n# a comment\nhoare {b} p ++ q {b}\n",
     "line 3: unexpected '+' (at position 4)", 2),
    (["triple", "--tests", "b"], "hoare {T} p {b}\n",
     "line 1: precondition must be a test-only term", 2),
    (["triple", "--tests", "b"], "\nhoare {b} p q\n", "line 2: not a triple: 'hoare {b} p q'", 2),
    # a line that parses but uses more tests than the atom cap allows
    (["triple", "--tests", ",".join(ELEVEN)],
     f"hoare {{b0}} p {{b0}}\nhoare {{{' '.join(ELEVEN)}}} p {{b0}}\n",
     "line 2: 11 tests exceed the atom cap of 10 (2^11 atoms)", 3),
], ids=["term-parse", "triple-parse", "triple-sort", "not-a-triple", "triple-too-large"])
def test_an_error_in_a_file_line_names_the_line(tmp_path, capsys, argv, text, message, code):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, *argv, "--file", str(path)) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                       "\u2029"], ids=lambda sep: f"U+{ord(sep):04X}")
def test_triple_lines_are_numbered_as_term_lines_are(tmp_path, capsys, separator):
    # str.splitlines() would end a line at each of these; a file's lines end
    # only at LF, CR LF and CR
    path = tmp_path / "specs.txt"
    path.write_text(f"hoare {{b}} p {{b}}{separator}\nhoare {{b}} p ++ q {{b}}\n", encoding="utf-8")
    assert run(capsys, "triple", "--tests", "b", "--file", str(path)) == (
        2, "", "error: line 2: unexpected '+' (at position 4)\n")


def test_a_positional_term_error_names_no_line(capsys):
    assert run(capsys, "decide", "p", "(q") == (
        2, "", "error: unexpected end of input (at position 2)\n")


@pytest.mark.parametrize("argv, text", [
    (["decide"], "p*\n1 + p p*\n"),
    (["triple", "--tests", "b"], "hoare {b} p {b}\nincorrectness [1] p [1]\n"),
], ids=["terms", "triples"])
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, argv, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    code, out, err = run(capsys, *argv, "--file", str(plain))
    assert code in (0, 1) and out and err == ""
    assert run(capsys, *argv, "--file", str(marked)) == (code, out, err)


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


@pytest.mark.parametrize("command", [["search", "--kind", "equality", "p", "p"],
                                     ["rule", "choice", "--tests", "a,b", "a", "b", "p", "q"]],
                         ids=["search", "rule"])
def test_an_exhaustive_search_refuses_a_seed(capsys, command):
    code, out, err = run(capsys, *command, "--exhaustive", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: choose either --exhaustive or --seed, not both\n"


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
    None, 1)
REFUTED_MODEL = ('"countermodel": {"carrier": ["0", "1"], "relations": '
                 '{"p": [[0, 1]], "b": [[0, 0]], "c": []}, "violating_point": "1"}')
REFUTED_HUMAN = ("refuted\ncarrier:\n  0 = 0\n  1 = 1\nrelations:\n  p = {(0,1)}\n"
                 "  b = {(0,0)}\n  c = {}\nviolating point: 1\n")


def test_rule_refuted_output(capsys, monkeypatch):
    real = relmodel.falsify_implication

    def refuted(*args):
        assert real(*args) is None
        return REFUTING_HIT

    monkeypatch.setattr(relmodel, "falsify_implication", refuted)
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


def test_main_builds_only_the_commands_parser(capsys, monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    triples = tmp_path / "specs.txt"
    triples.write_text("hoare {b} p {b}\n", encoding="utf-8")
    run(capsys, "decide", "p", "p")  # builds the shared parser, if no test has yet
    for argv in (["decide", "p", "q"], ["search", "--kind", "leq", "--exhaustive", "p", "q"],
                 ["triple", "--file", str(triples), "--tests", "b"]):
        built.clear()
        assert run(capsys, *argv)[0] in (0, 1)
        assert built == [f"topkat {argv[0]}"]
    built.clear()
    assert run(capsys, "--help")[0] == 0 and built == []
    assert cli.build_parser() is cli.build_parser()


CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
WORK_PREFIX = "perfbench/_work/"


def corpus_queries(directory: pathlib.Path, workload: str) -> list[tuple[list[str], int]]:
    """(argv, exit code) of every query of a benchmark corpus, with the
    corpus's files written to `directory`."""
    corpus = json.loads((CORPUS_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    directory.mkdir()
    for name, text in corpus["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    return [([str(directory / arg[len(WORK_PREFIX):]) if arg.startswith(WORK_PREFIX) else arg
              for arg in query["argv"]], query["code"]) for query in corpus["queries"]]


def test_the_shared_parser_parses_alike_from_several_threads(tmp_path):
    argvs = [argv for workload in ("desk-mix", "wide-guards", "relsearch")
             for argv, _ in corpus_queries(tmp_path / workload, workload)]
    parse = cli.build_parser().parse_args
    serial = [parse(argv) for argv in argvs]
    with ThreadPoolExecutor(4) as pool:
        assert list(pool.map(parse, argvs)) == serial


def test_main_gives_every_corpus_exit_code_from_several_threads(capsys, tmp_path):
    queries = [query for workload in ("wide-guards", "relsearch")
               for query in corpus_queries(tmp_path / workload, workload)]
    with ThreadPoolExecutor(4) as pool:
        codes = list(pool.map(main, [argv for argv, _ in queries]))
    capsys.readouterr()
    assert codes == [code for _, code in queries]


@pytest.mark.parametrize("columns, wrapped", [("40", True), ("200", False)])
def test_help_follows_the_terminal_width_once_the_parser_is_built(capsys, monkeypatch,
                                                                  columns, wrapped):
    cli.build_parser()
    monkeypatch.setenv("COLUMNS", columns)
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert bool(re.search(r"^  COMMAND +one of the commands\n +below$", out, re.M)) == wrapped
    assert ("one of the commands below" in out) != wrapped


def fresh_parser(name: str) -> argparse.ArgumentParser:
    """The command's parser as argparse builds it, with no usage preset."""
    parser = cli._Parser(prog=f"topkat {name}", description=COMMANDS[name].help)
    for names, options in cli.COMMON_ARGS + COMMANDS[name].args:
        parser.add_argument(*names, **options)
    return parser


def test_every_text_follows_the_terminal_width_once_the_usage_is_kept(capsys, monkeypatch):
    # one process, back to a width whose usages are already kept
    for columns in ("40", "200", "80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for name in COMMANDS:
            for argv in ([name, "--bogus"], [name, "--help"], [name]):
                kept = run(capsys, *argv)
                with monkeypatch.context() as fresh:
                    fresh.setattr(cli, "_command_parser", fresh_parser)
                    assert kept == run(capsys, *argv), (columns, argv)


def test_a_command_formats_its_usage_at_most_once_between_identical_calls(capsys, monkeypatch):
    formatted = []
    format_usage = argparse.ArgumentParser.format_usage
    monkeypatch.setattr(argparse.ArgumentParser, "format_usage",
                        lambda self: formatted.append(1) or format_usage(self))
    monkeypatch.setenv("COLUMNS", "97")
    counts = []
    for _ in range(2):
        formatted.clear()
        assert run(capsys, "cod-geq", "--tests", "b", "p b", "p")[0] == 1
        counts.append(len(formatted))
    assert counts[0] <= 1 and counts[1] == 0


@pytest.mark.parametrize("argv, exit_code", [
    (["decide", "p", "q"], 1),
    (["search", "--kind", "leq", "--exhaustive", "p", "q"], 1),
    (["decide", "--help"], 0),
    (["decide", "--bogus", "p", "p"], 2),
], ids=["decide", "search", "help", "usage-error"])
def test_a_call_reads_the_terminal_once(capsys, monkeypatch, argv, exit_code):
    cli.build_parser()  # shared: its one build reads the terminal too
    reads = []
    get_terminal_size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *args: reads.append(args) or get_terminal_size(*args))
    assert run(capsys, *argv)[0] == exit_code
    assert reads == [()]


@pytest.mark.parametrize("argv, exit_code, formats_text", [
    (["decide", "p", "q"], 1, False),
    (["decide", "--bogus", "p", "p"], 2, True),
    (["decide", "--help"], 0, True),
], ids=["verdict", "usage-error", "help"])
def test_a_calls_parser_is_freed_without_the_cyclic_collector(capsys, monkeypatch, argv,
                                                               exit_code, formats_text):
    # each action's container is a group of the parser, which holds the
    # action list: a cycle.  A usage or help text's formatter, a cycle of
    # argparse's own, holds the action list too, so a verdict frees it all
    groups, actions = [], []
    command_parser = cli._command_parser

    def watched(name):
        parser = command_parser(name)
        groups.extend(map(weakref.ref, [parser, *parser._action_groups]))
        actions.extend(map(weakref.ref, parser._actions))
        return parser

    monkeypatch.setattr(cli, "_command_parser", watched)
    main(argv)  # keeps the command's usage
    groups.clear()
    actions.clear()
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = main(argv)
        groups_alive = sum(part() is not None for part in groups)
        actions_alive = sum(part() is not None for part in actions)
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert (code, len(groups), groups_alive) == (exit_code, 3, 0)
    assert actions and (actions_alive == 0 or formats_text)


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


@pytest.mark.parametrize("error, message", [
    (MemoryError(), "error: out of memory\n"),
    # no pass over a term recurses, so a RecursionError is a fault in topkat
    (RecursionError("maximum recursion depth exceeded"),
     "error: internal error: RecursionError: maximum recursion depth exceeded\n"),
], ids=["memory", "recursion"])
def test_running_out_of_memory_is_a_limit_and_recursing_a_fault(capsys, monkeypatch,
                                                                 error, message):
    def failing(*args):
        raise error

    monkeypatch.setattr(cli, "topkat_equivalent", failing)
    assert run(capsys, "decide", "p", "p") == (3, "", message)


def test_building_the_json_falls_under_the_same_guard(capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(json, "dumps", failing)
    assert run(capsys, "decide", "--json", "p", "p") == (3, "", "error: out of memory\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, lines, exit_code", [
    (["lang", "--tests", "b,c", "--max-actions", "4", "(p+q)*"], 1, 0),  # about 700 kB
    (["decide", "p", "q"], 0, 1),
    (["--help"], 0, 0),  # argparse's exits are flushed under the same guard
    (["decide", "--help"], 0, 0),
], ids=["lang-reads-one-line", "decide-reads-none", "help-reads-none", "decide-help-reads-none"])
def test_a_reader_that_leaves_early_keeps_the_exit_code(argv, lines, exit_code, unbuffered):
    # an empty PYTHONUNBUFFERED counts as unset
    child = subprocess.Popen([sys.executable, "-m", "topkat", *argv],
                             env=child_env(PYTHONUNBUFFERED="1" if unbuffered else ""),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines):
            assert child.stdout.readline().startswith(b"[")
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert (child.returncode, err) == (exit_code, b"")


def test_a_child_imports_the_topkat_these_tests_import(tmp_path):
    done = subprocess.run([sys.executable, "-c", "import topkat; print(topkat.__file__)"],
                          cwd=tmp_path, env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert pathlib.Path(done.stdout.strip()).resolve() == pathlib.Path(topkat.__file__).resolve()


# `-m topkat.cli` runs cli.py as __main__, so it needs the guard at its end
@pytest.mark.parametrize("module", ["topkat", "topkat.cli"])
def test_either_module_run_keeps_the_exit_contract(module):
    done = subprocess.run([sys.executable, "-m", module, "decide", "p", "q"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "not equivalent\nwitness: [] p []\nside: left\n", "")


STREAM_COMMANDS = [
    ("equivalent", ["decide", "p", "p"], 0),
    ("not-equivalent", ["decide", "p", "q"], 1),
    ("usage-error", ["decide", "p", "p +"], 2),
    ("help", ["--help"], 0),
    ("argparse-usage", ["decide", "--bogus", "p", "p"], 2),
]


# closed: the descriptor is closed before start; full: it is /dev/full;
# object-closed: `sys.stdout` or `sys.stderr` is a closed file object, as
# a caller of `main` may leave it
@pytest.mark.parametrize("argv, exit_code, fd, how", [
    pytest.param(argv, exit_code, fd, how, id=f"{name}-{('stdout', 'stderr')[fd - 1]}-{how}")
    for name, argv, exit_code in STREAM_COMMANDS for fd in (1, 2)
    for how in ("closed", "full", "object-closed")
])
def test_a_stream_that_cannot_be_written_keeps_the_exit_code(capsys, monkeypatch, argv, exit_code,
                                                             fd, how):
    if how == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    if how == "object-closed":
        stream = ("stdout", "stderr")[fd - 1]
        command = [sys.executable, "-c", f"import sys; sys.{stream}.close(); "
                   "from topkat.cli import main; sys.exit(main(sys.argv[1:]))", *argv]
    else:
        redirect = f"{fd}>&-" if how == "closed" else f"{fd}>/dev/full"
        command = ["sh", "-c", f'exec "$0" -m topkat "$@" {redirect}', sys.executable, *argv]
    child = subprocess.run(command, env=child_env(COLUMNS="80"), capture_output=True, timeout=60)
    assert child.returncode == exit_code
    assert b"Traceback" not in child.stdout and b"Traceback" not in child.stderr
    if fd == 2:  # stdout holds the verdict's lines and nothing else
        monkeypatch.setenv("COLUMNS", "80")
        assert child.stdout.decode() == run(capsys, *argv)[1]


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
