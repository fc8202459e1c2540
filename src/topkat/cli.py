"""Command-line interface.

Comparison subcommands take their two terms in the order the inequality
is usually written: `leq T1 T2` decides T1 >= T2, and `cod-geq T1 T2`
decides cod(T1) >= cod(T2).  Exit codes: 0 the property is provable (or
no countermodel/refutation was found), 1 it is not (a witness or
countermodel is emitted), 2 usage or input error, 3 no verdict was
computed: a resource cap was exceeded, or topkat hit an internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
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


def _on_line(lineno: int | None, build: Callable, *fields):
    """build(*fields), its input error naming their file line, if any."""
    try:
        return build(*fields)
    except TopkatError as exc:
        exc.args = (f"line {lineno}: {exc}",) if lineno else exc.args
        raise


def _read_terms(args, expected: int | None) -> list[tuple[int | None, str]]:
    """Each term's file line (None: given positionally) and text.  Only LF,
    CR LF and CR end a file line, not a form feed or a Unicode line
    separator; a leading byte-order mark and blank lines are dropped, and
    each line is stripped."""
    lines = [(None, text) for text in getattr(args, "terms", ())]
    if getattr(args, "file", None) is not None:
        if lines:
            raise ValueError("give terms positionally or via --file, not both")
        with open(args.file, encoding="utf-8-sig") as handle:
            lines = [(n, line.strip()) for n, line in enumerate(handle, 1) if line.strip()]
    if expected is not None and len(lines) != expected:
        raise ValueError(f"expected {expected} term(s), got {len(lines)}")
    return lines


def _read_triple_file(args, expected: int | None) -> list[tuple[int, str]]:
    """The line and text of each triple's pre, program and post, in file
    order, skipping #-comment lines; each triple's line number and kind go
    to `args.lines`."""
    split = [(lineno, *_on_line(lineno, logic.split_triple_line, line))
             for lineno, line in _read_terms(args, None) if not line.startswith("#")]
    if not split:
        raise ValueError(f"no triples in {args.file}")
    args.lines = [(lineno, kind) for lineno, kind, *_ in split]
    return [(lineno, text) for lineno, _, *texts in split for text in texts]


def _countermodel(carrier: list[str], labels: list[str], interp,
                  extra: dict) -> tuple[list[str], dict]:
    """A countermodel's human lines, which name carrier element i `labels[i]`,
    and its JSON, which names it `carrier[i]` and ends with `extra`."""
    lines = ["carrier:", *(f"  {i} = {label}" for i, label in enumerate(labels)), "relations:"]
    relations = {}
    for name, rel in {**interp.action_map, **interp.test_map}.items():
        relations[name] = pairs = [list(pair) for pair in rel.pairs]
        body = " ".join(f"({i},{j})" for i, j in pairs)
        lines.append(f"  {name} = {{{body}}}")
    return lines, {"carrier": carrier, "relations": relations, **extra}


def _budget(args) -> SearchBudget:
    if args.exhaustive and args.samples is not None:
        raise ValueError("choose either --exhaustive or --samples, not both")
    if args.exhaustive and args.seed is not None:
        raise ValueError("choose either --exhaustive or --seed, not both")
    if args.exhaustive:
        return SearchBudget(exhaustive=True, ceiling=args.ceiling)
    if args.samples is None:
        raise ValueError("choose a search mode: --exhaustive or --samples N --seed S")
    if args.seed is None:
        raise ValueError("--samples requires --seed")
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
    carrier, witness = [s.render() for s in cm.carrier], cm.witness.render()
    lines, model = _countermodel(
        carrier, [str(i) for i in range(len(carrier))] if args.numeric else carrier, cm.interp,
        {"violating_point": witness, "witness": witness, "side": "right"})
    human = ["not provable", f"witness: {witness}", *lines,
             f"violating point: {cm.violating_index}" + ("" if args.numeric else f" = {witness}")]
    return human, {"verdict": "not-provable", "witness": witness, "countermodel": model}, 1


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
    extra: dict = {}
    where = []
    if hit.violating_point is not None:
        extra["violating_point"] = str(hit.violating_point)
        where.append(f"violating point: {hit.violating_point}")
    if hit.violating_pair is not None:
        extra["violating_pair"] = list(hit.violating_pair)
        where.append(f"violating pair: ({hit.violating_pair[0]},{hit.violating_pair[1]})")
    carrier = [str(i) for i in range(hit.interp.n)]
    lines, model = _countermodel(carrier, carrier, hit.interp, extra)
    found = "countermodel" if rule_budget is None else "refuted"
    payload = {"verdict": found, **seed, "countermodel": model}
    if rule_budget is not None:
        payload["budget"] = rule_budget
    return [found, *lines, *where, *seed_line], payload, 1


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
        tr = _on_line(lineno, logic.Triple, kind, *terms[3 * i:3 * i + 3])
        verdict = _on_line(lineno, logic.check_triple, tr, alphabet, args.direction)
        word = "provable" if isinstance(verdict, decide.Equivalent) else "not provable"
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
    budget, n = _budget(args), args.max_states
    hit = relmodel.falsify_implication(*logic.rule_instance(args.name, terms), alphabet, n, budget)
    return _search_payload(hit, budget, f"exhaustive n<={n}" if budget.exhaustive
                           else f"{budget.samples} samples n<={n} seed={budget.seed}")


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
    """One subcommand: `main` reads the (file line, text) of its terms with
    `read`, checking there are `terms` of them (None: the handler checks),
    parses them and passes them to `handler`; `args` follow the common flags."""

    __slots__ = ("help", "handler", "terms", "args", "read")

    def __init__(self, help: str, handler: Callable[..., Output], terms: int | None = 2,
                 args: tuple = TERM_ARGS, read: Callable[..., list] = _read_terms) -> None:
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
    ), read=_read_triple_file),
    "search": Command("search finite relational countermodels", _cmd_search, 2, TERM_ARGS + (
        _arg("--kind", required=True, choices=[k.replace("_", "-") for k in relmodel.KINDS],
             help="comparison to refute (term order as in the other subcommands)"),
    ) + SEARCH_ARGS),
    "rule": Command("try to refute a proof-rule instance", _cmd_rule, None, (
        _arg("name", choices=sorted(logic.RULES), help="rule to instantiate"),
        _arg("terms", nargs="*", metavar="TERM",
             help="instantiation, in the rule's parameter order"),
    ) + SEARCH_ARGS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: a command name and that command's arguments,
    which `main` parses with the command's own parser.  It is built once
    per process and shared: callers parse with it and never add to it.
    Help still wraps to the terminal's width, which argparse reads when it
    formats, not when it builds."""
    width = max(map(len, COMMANDS)) + 2
    parser = _Parser(
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


class _Parser(argparse.ArgumentParser):  # writes through `_written`, usage never to stdout
    def print_usage(self, file=None) -> None:
        self._print_message(self.format_usage(), file)

    def _print_message(self, message: str, file=None) -> None:
        _written(file or sys.stderr, [message.removesuffix("\n")] if message else [], 0)


_USAGES: dict[tuple[str, int], str] = {}  # (command, columns): usage; racing misses agree


def _command_parser(name: str) -> argparse.ArgumentParser:
    """A new parser per call: `parse_intermixed_args` changes its parser
    while it parses, so a shared one would need a lock.  It would also
    format the usage on every call, so the usage is kept per terminal
    width, as argparse formats it, with `%` doubled for its %-formatting."""
    columns = shutil.get_terminal_size().columns  # read once: each formatter gets argparse's width
    parser = _Parser(prog=f"topkat {name}", description=COMMANDS[name].help,
                     formatter_class=functools.partial(argparse.HelpFormatter, width=columns - 2))
    for names, options in COMMON_ARGS + COMMANDS[name].args:
        parser.add_argument(*names, **options)
    key = name, columns
    if key not in _USAGES:
        _USAGES[key] = parser.format_usage()[7:].replace("%", "%%")
    parser.usage = _USAGES[key]
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        top = build_parser().parse_args(argv)
        parser = _command_parser(top.command)
        try:  # terms may come before, between or after the flags
            args = parser.parse_intermixed_args(top.args)
        finally:  # each action's group holds the action list, a cycle left to the GC
            for action in parser._actions:
                action.container = None
    except SystemExit as exc:  # usage or help text, already written
        return _written(sys.stdout, [], exc.code if isinstance(exc.code, int) else 2)
    command = COMMANDS[top.command]
    try:
        lines = command.read(args, command.terms)
        alphabet = _build_alphabet(args, [t for _, t in lines] + [getattr(args, "string", "")])
        human, payload, code = command.handler(
            args, alphabet, *(_on_line(n, parse, text, alphabet) for n, text in lines))
        if args.json:
            import json  # here, since most calls print human lines
            human = [json.dumps({"v": 1, **payload})]
        return _written(sys.stdout, human, code)
    except InternalError as exc:
        error, code = f"internal error: {exc}", 3
    except MemoryError:  # its traceback holds the memory until this clause ends: build nothing
        error, code = "out of memory", 3
    except ResourceLimitError as exc:  # too large to decide: no verdict was computed
        error, code = str(exc), 3
    except (TopkatError, ValueError, OSError) as exc:
        error, code = str(exc), 2
    except Exception as exc:  # a fault in topkat itself: no verdict was computed
        error, code = f"internal error: {type(exc).__name__}: {exc}", 3
    return _written(sys.stderr, [f"error: {error}"], code)


def _written(stream, lines: list[str], code: int) -> int:
    """code, once lines and whatever `stream` holds are written.  A stream
    that cannot be written leaves the code as it stands: one closed before
    start (None) or by the caller, one that is full, and one whose reader left early."""
    if stream is None:
        return code
    try:
        for line in lines:
            print(line, file=stream)
        stream.flush()
    except (OSError, ValueError):  # the flush at exit writes to /dev/null, not failing again
        if not stream.closed:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
