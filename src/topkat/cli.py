"""Command-line interface.

Comparison subcommands take their two terms in the order the inequality
is usually written: `leq T1 T2` decides T1 >= T2, and `cod-geq T1 T2`
decides cod(T1) >= cod(T2).  Exit codes: 0 the property is provable (or
no countermodel/refutation was found), 1 it is not (a witness or
countermodel is emitted), 2 usage or input error, 3 a resource cap was
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import decide, domain, logic, relmodel
from .errors import InternalError, ResourceLimitError, TopkatError
from .reduction import reduce, topkat_equivalent, topkat_leq
from .relmodel import SearchBudget, SearchHit
from .semantics import lang_bounded, parse_guarded_string, render_sorted
from .syntax import Alphabet, Value, declare_alphabet, parse, render, scan_identifiers

# A handler takes the parsed arguments, the alphabet and the parsed terms,
# and returns the human-readable lines, the JSON payload and the exit code.
Output = tuple[list[str], dict, int]


class UsageError(TopkatError):
    pass


def _split_names(flag: str | None) -> tuple[str, ...]:
    return tuple(name.strip() for name in (flag or "").split(",") if name.strip())


def _build_alphabet(args, texts: list[str]) -> Alphabet:
    tests = _split_names(args.tests)
    if args.actions is not None:
        actions = _split_names(args.actions)
    else:
        declared = set(tests)
        actions = tuple(dict.fromkeys(
            ident for text in texts for ident in scan_identifiers(text)
            if ident not in declared))
    return declare_alphabet(actions, tests)


def _read_terms(args, expected: int | None) -> list[str]:
    texts = list(args.terms)
    if getattr(args, "file", None) is not None:
        if texts:
            raise UsageError("give terms positionally or via --file, not both")
        with open(args.file, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle if line.strip()]
    if expected is not None and len(texts) != expected:
        raise UsageError(f"expected {expected} term(s), got {len(texts)}")
    return texts


def _read_triples(args, expected: int | None) -> list[str]:
    """The pre, program and post texts of every triple in the file, in
    order; each triple's line number and kind go to `args.lines`."""
    with open(args.file, encoding="utf-8") as handle:
        split = [(lineno, *logic.split_triple_line(line))
                 for lineno, line in logic.split_triple_file(handle.read())]
    if not split:
        raise UsageError(f"no triples in {args.file}")
    args.lines = [(lineno, kind) for lineno, kind, *_ in split]
    return [text for _, _, *texts in split for text in texts]


def _countermodel_payload(carrier: list[str], interp, extra: dict) -> dict:
    relations = {name: [list(pair) for pair in rel.pairs]
                 for name, rel in {**interp.action_map, **interp.test_map}.items()}
    return {"carrier": carrier, "relations": relations, **extra}


def _countermodel_lines(carrier: list[str], interp) -> list[str]:
    lines = ["carrier:"]
    lines += [f"  {i} = {label}" for i, label in enumerate(carrier)]
    lines.append("relations:")
    for name, rel in {**interp.action_map, **interp.test_map}.items():
        body = " ".join(f"({i},{j})" for i, j in rel.pairs)
        lines.append(f"  {name} = {{{body}}}")
    return lines


def _budget(args) -> SearchBudget:
    if args.exhaustive and args.samples is not None:
        raise UsageError("choose either --exhaustive or --samples, not both")
    if args.exhaustive:
        return SearchBudget(exhaustive=True, ceiling=args.ceiling)
    if args.samples is None:
        raise UsageError("choose a search mode: --exhaustive or --samples N --seed S")
    if args.seed is None:
        raise UsageError("--samples requires --seed")
    return SearchBudget(exhaustive=False, samples=args.samples, seed=args.seed,
                        ceiling=args.ceiling)


def _verdict_payload(verdict: decide.Verdict, ok_word: str, bad_word: str,
                     side: str | None = None) -> Output:
    if isinstance(verdict, decide.Equivalent):
        return [ok_word], {"verdict": ok_word}, 0
    w, side = verdict.string.render(), side or verdict.side
    human = [bad_word, f"witness: {w}", f"side: {side}"]
    return human, {"verdict": bad_word.replace(" ", "-"), "witness": w, "side": side}, 1


def _comparison_payload(args, cm: domain.ComparisonVerdict) -> Output:
    if isinstance(cm, domain.Provable):
        return ["provable"], {"verdict": "provable"}, 0
    carrier = [s.render() for s in cm.carrier]
    witness, point = cm.witness.render(), cm.violating_point.render()
    labels = [str(i) for i in range(len(carrier))] if args.numeric else carrier
    human = ["not provable", f"witness: {witness}", *_countermodel_lines(labels, cm.interp),
             f"violating point: {cm.violating_index}" + ("" if args.numeric else f" = {point}")]
    payload = {"verdict": "not-provable", "witness": witness,
               "countermodel": _countermodel_payload(carrier, cm.interp, {
                   "violating_point": point, "witness": witness, "side": cm.side})}
    return human, payload, 1


def _search_payload(hit: SearchHit | None, budget: SearchBudget,
                    rule_budget: str | None) -> Output:
    """Output of `search`, or of `rule` given the rule's budget description."""
    seed: dict = {} if budget.exhaustive else {"seed": budget.seed}
    seed_line = [] if budget.exhaustive else [f"seed: {budget.seed}"]
    if hit is None:
        if rule_budget is None:
            return ["no countermodel"] + seed_line, {"verdict": "no-countermodel", **seed}, 0
        return ([f"no refutation found (budget {rule_budget})"] + seed_line,
                {"verdict": "no-refutation", "budget": rule_budget, **seed}, 0)
    carrier = [str(i) for i in range(hit.interp.n)]
    extra: dict = {}
    found = "countermodel" if rule_budget is None else "refuted"
    human = [found] + _countermodel_lines(carrier, hit.interp)
    if hit.violating_point is not None:
        extra["violating_point"] = str(hit.violating_point)
        human.append(f"violating point: {hit.violating_point}")
    if hit.violating_pair is not None:
        extra["violating_pair"] = list(hit.violating_pair)
        human.append(f"violating pair: ({hit.violating_pair[0]},{hit.violating_pair[1]})")
    payload = {"verdict": found, **seed,
               "countermodel": _countermodel_payload(carrier, hit.interp, extra)}
    if rule_budget is not None:
        payload["budget"] = rule_budget
    return human + seed_line, payload, 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_decide(args, alphabet, t1, t2) -> Output:
    return _verdict_payload(topkat_equivalent(t1, t2, alphabet), "equivalent", "not equivalent")


def _cmd_leq(args, alphabet, upper, lower) -> Output:
    # the witness lies in the lower term's language only, i.e. the right argument
    return _verdict_payload(topkat_leq(lower, upper, alphabet), "provable", "not provable", "right")


def _cmd_cod_geq(args, alphabet, t1, t2) -> Output:
    return _comparison_payload(args, domain.cod_geq(t1, t2, alphabet))


def _cmd_dom_geq(args, alphabet, t1, t2) -> Output:
    return _comparison_payload(args, domain.dom_geq(t1, t2, alphabet))


def _cmd_reduce(args, alphabet, t) -> Output:
    reduct = render(reduce(t, alphabet))
    return [reduct], {"reduct": reduct}, 0


def _cmd_lang(args, alphabet, t) -> Output:
    ordered = render_sorted(lang_bounded(t, alphabet, args.max_actions), alphabet)
    return ordered, {"strings": ordered}, 0


def _cmd_member(args, alphabet, t) -> Output:
    inside = decide.member(parse_guarded_string(args.string, alphabet), t)
    return (["member" if inside else "not member"],
            {"verdict": "member" if inside else "not-member"}, 0 if inside else 1)


def _cmd_triple(args, alphabet, *terms) -> Output:
    human, results = [], []
    for i, (lineno, kind) in enumerate(args.lines):
        tr = logic.Triple(kind, *terms[3 * i:3 * i + 3])
        verdict = logic.check_triple(tr, alphabet, direction=args.direction)
        word = ("provable" if isinstance(verdict, (decide.Equivalent, domain.Provable))
                else "not provable")
        human.append(f"line {lineno}: {kind} {word}")
        results.append({"line": lineno, "kind": kind, "verdict": word.replace(" ", "-")})
    code = int(any(r["verdict"] != "provable" for r in results))
    return human, {"verdict": ("provable", "not-provable")[code], "results": results}, code


def _cmd_search(args, alphabet, t1, t2) -> Output:
    kind = args.kind.replace("-", "_")
    if kind == "leq":
        # CLI order is (claimed larger, claimed smaller)
        t1, t2 = t2, t1
    budget = _budget(args)
    hit = relmodel.search_countermodel(kind, t1, t2, alphabet, args.max_states, budget)
    return _search_payload(hit, budget, None)


def _cmd_rule(args, alphabet, *terms) -> Output:
    budget = _budget(args)
    report = logic.check_rule_instance(args.name, terms, alphabet, args.max_states, budget)
    return _search_payload(report.hit, budget, report.budget)


# ---------------------------------------------------------------------------
# The command table


def _arg(*names: str, **options) -> tuple[tuple[str, ...], dict]:
    """The arguments of one `add_argument` call."""
    return names, options


COMMON_ARGS = (
    _arg("--tests", default="", help="comma-separated test identifiers"),
    _arg("--actions", default=None,
         help="comma-separated action identifiers (default: inferred from the terms)"),
    _arg("--json", action="store_true", help="emit a JSON object"),
)
TERM_ARGS = (
    _arg("terms", nargs="*", metavar="TERM"),
    _arg("--file", default=None, help="read the term(s) from a file, one per line"),
)
NUMERIC_ARG = _arg("--numeric", action="store_true",
                   help="label carrier elements 0..n-1 instead of guarded strings")
SEARCH_ARGS = (
    _arg("--max-states", type=int, default=2, help="largest carrier size to try (default 2)"),
    _arg("--exhaustive", action="store_true",
         help="enumerate every interpretation up to --max-states"),
    _arg("--samples", type=int, default=None, help="number of random interpretations to try"),
    _arg("--seed", type=int, default=None,
         help="seed for random sampling (required with --samples)"),
    _arg("--ceiling", type=int, default=relmodel.ENUM_CEILING,
         help="refuse exhaustive searches larger than this"),
)


class Command(Value):
    """One subcommand: `main` reads its term texts with `read`, checking
    there are `terms` of them (None: the handler checks), parses them and
    passes them to `handler`; `args` follow the common flags."""

    __slots__ = ("help", "handler", "terms", "args", "read")

    def __init__(self, help: str, handler: Callable[..., Output], terms: int | None = 2,
                 args: tuple = TERM_ARGS, read: Callable[..., list[str]] = _read_terms) -> None:
        super().__init__(help, handler, terms, args, read)


COMMANDS: dict[str, Command] = {
    "decide": Command("decide TERM1 = TERM2 in TopKAT", _cmd_decide),
    "leq": Command("decide TERM1 >= TERM2 in TopKAT", _cmd_leq),
    "cod-geq": Command("decide cod(TERM1) >= cod(TERM2) over all relational models",
                       _cmd_cod_geq, args=TERM_ARGS + (NUMERIC_ARG,)),
    "dom-geq": Command("decide dom(TERM1) >= dom(TERM2) over all relational models",
                       _cmd_dom_geq, args=TERM_ARGS + (NUMERIC_ARG,)),
    "reduce": Command("print the top-free reduct of TERM", _cmd_reduce, 1),
    "lang": Command("dump the bounded guarded-string language", _cmd_lang, 1, TERM_ARGS + (
        _arg("--max-actions", type=int, required=True,
             help="largest number of actions per string"),)),
    "member": Command("is the guarded string in TERM's language?", _cmd_member, 1, TERM_ARGS + (
        _arg("string", metavar="GSTRING", help="guarded string, e.g. '[b&!c] p [b&c]'"),)),
    "triple": Command("check Hoare/incorrectness triples from a file", _cmd_triple, None, (
        _arg("--file", required=True, help="triples, one per line"),
        _arg("--direction", choices=logic.DIRECTIONS, default="under",
             help="incorrectness encoding orientation (default under)"),
    ), read=_read_triples),
    "search": Command("search finite relational countermodels", _cmd_search, 2, TERM_ARGS + (
        _arg("--kind", required=True, choices=["equality", "leq", "dom-geq", "cod-geq"],
             help="comparison to refute (term order as in the other subcommands)"),
    ) + SEARCH_ARGS),
    "rule": Command("try to refute a proof-rule instance", _cmd_rule, None, (
        _arg("name", choices=sorted(logic.RULES), help="rule to instantiate"),
        _arg("terms", nargs="*", metavar="TERM",
             help="instantiation, in the rule's parameter order"),
    ) + SEARCH_ARGS),
}


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: a command name and that command's arguments,
    which `main` parses with the command's own parser."""
    width = max(map(len, COMMANDS)) + 2
    parser = argparse.ArgumentParser(
        prog="topkat", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Decide KAT/TopKAT (in)equalities, compare (co)domains, and extract\n"
                    "finite relational countermodels.",
        epilog="commands:\n" + "\n".join(f"  {name:<{width}}{command.help}"
                                         for name, command in COMMANDS.items()))
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND",
                        help="one of the commands below")
    parser.add_argument("args", nargs=argparse.REMAINDER, metavar="ARG",
                        help="terms and flags of the command (see topkat COMMAND --help)")
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"topkat {name}", description=COMMANDS[name].help)
    for names, options in COMMON_ARGS + COMMANDS[name].args:
        parser.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        top = build_parser().parse_args(argv)
        # terms may come before, between or after the flags
        args = _command_parser(top.command).parse_intermixed_args(top.args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    command = COMMANDS[top.command]
    try:
        texts = command.read(args, command.terms)
        alphabet = _build_alphabet(args, texts + [args.string] if "string" in args else texts)
        human, payload, code = command.handler(
            args, alphabet, *(parse(text, alphabet) for text in texts))
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return 3
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        # too deep or too large to decide: no verdict was computed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (TopkatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in topkat itself: no verdict was computed
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    lines = [json.dumps({"v": 1, **payload})] if args.json else human
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: the verdict's code stands, and
        # the flush at exit writes to /dev/null instead of failing again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
