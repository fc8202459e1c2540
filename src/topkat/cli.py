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
import sys

from . import decide, domain, logic, relmodel
from .errors import ResourceLimitError, TopkatError
from .reduction import reduce, topkat_equivalent, topkat_leq
from .relmodel import SearchBudget, SearchHit
from .semantics import GuardedString, gs_sort_key, lang_bounded, parse_guarded_string
from .syntax import Alphabet, declare_alphabet, parse, render, scan_identifiers


class UsageError(TopkatError):
    pass


def _split_names(flag: str | None) -> tuple[str, ...]:
    if not flag:
        return ()
    return tuple(name.strip() for name in flag.split(",") if name.strip())


def _build_alphabet(args, texts: list[str]) -> Alphabet:
    tests = _split_names(args.tests)
    if args.actions is not None:
        actions = _split_names(args.actions)
    else:
        actions = tuple(dict.fromkeys(
            ident for text in texts for ident in scan_identifiers(text)
            if ident not in tests))
    return declare_alphabet(actions, tests)


def _read_terms(args, expected: int) -> list[str]:
    texts = list(args.terms or [])
    if args.file is not None:
        if texts:
            raise UsageError("give terms positionally or via --file, not both")
        with open(args.file, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle if line.strip()]
    if len(texts) != expected:
        raise UsageError(f"expected {expected} term(s), got {len(texts)}")
    return texts


def _emit(args, human: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps({"v": 1, **payload}))
    else:
        for line in human:
            print(line)


def _countermodel_payload(carrier: list[str], interp, extra: dict) -> dict:
    relations = {name: [list(pair) for pair in rel.pairs]
                 for name, rel in list(interp.action_map.items()) + list(interp.test_map.items())}
    return {"carrier": carrier, "relations": relations, **extra}


def _countermodel_lines(carrier: list[str], interp) -> list[str]:
    lines = ["carrier:"]
    lines += [f"  {i} = {label}" for i, label in enumerate(carrier)]
    lines.append("relations:")
    for name, rel in list(interp.action_map.items()) + list(interp.test_map.items()):
        body = " ".join(f"({i},{j})" for i, j in rel.pairs)
        lines.append(f"  {name} = {{{body}}}")
    return lines


def _budget(args) -> SearchBudget:
    if args.exhaustive and args.samples is not None:
        raise UsageError("choose either --exhaustive or --samples, not both")
    if args.exhaustive:
        return SearchBudget(exhaustive=True)
    if args.samples is None:
        raise UsageError("choose a search mode: --exhaustive or --samples N --seed S")
    if args.seed is None:
        raise UsageError("--samples requires --seed")
    return SearchBudget(exhaustive=False, samples=args.samples, seed=args.seed)


def _verdict_payload(equal: bool, ok_word: str, bad_word: str,
                     witness_verdict) -> tuple[list[str], dict, int]:
    if equal:
        return [ok_word], {"verdict": ok_word}, 0
    w: GuardedString = witness_verdict.string
    human = [bad_word, f"witness: {w.render()}", f"side: {witness_verdict.side}"]
    payload = {"verdict": bad_word.replace(" ", "-"), "witness": w.render(),
               "side": witness_verdict.side}
    return human, payload, 1


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_decide(args) -> int:
    texts = _read_terms(args, 2)
    alphabet = _build_alphabet(args, texts)
    t1, t2 = (parse(text, alphabet) for text in texts)
    verdict = topkat_equivalent(t1, t2, alphabet)
    human, payload, code = _verdict_payload(
        isinstance(verdict, decide.Equivalent), "equivalent", "not equivalent", verdict)
    _emit(args, human, payload)
    return code


def _cmd_leq(args) -> int:
    texts = _read_terms(args, 2)
    alphabet = _build_alphabet(args, texts)
    upper, lower = (parse(text, alphabet) for text in texts)
    verdict = topkat_leq(lower, upper, alphabet)
    if isinstance(verdict, decide.Equivalent):
        _emit(args, ["provable"], {"verdict": "provable"})
        return 0
    w = verdict.string
    # the witness lies in the lower term's language only, i.e. the right argument
    _emit(args, ["not provable", f"witness: {w.render()}", "side: right"],
          {"verdict": "not-provable", "witness": w.render(), "side": "right"})
    return 1


def _cmd_comparison(args, op) -> int:
    texts = _read_terms(args, 2)
    alphabet = _build_alphabet(args, texts)
    t1, t2 = (parse(text, alphabet) for text in texts)
    verdict = op(t1, t2, alphabet)
    if isinstance(verdict, domain.Provable):
        _emit(args, ["provable"], {"verdict": "provable"})
        return 0
    cm: domain.RelCountermodel = verdict
    carrier = [s.render() for s in cm.carrier]
    human = ["not provable", f"witness: {cm.witness.render()}"]
    if args.numeric:
        human += _countermodel_lines([str(i) for i in range(len(carrier))], cm.interp)
        human.append(f"violating point: {cm.violating_index}")
    else:
        human += _countermodel_lines(carrier, cm.interp)
        human.append(f"violating point: {cm.violating_index} = {cm.violating_point.render()}")
    payload = {"verdict": "not-provable", "witness": cm.witness.render(),
               "countermodel": _countermodel_payload(carrier, cm.interp, {
                   "violating_point": cm.violating_point.render(),
                   "witness": cm.witness.render(),
                   "side": cm.side,
               })}
    _emit(args, human, payload)
    return 1


def _cmd_reduce(args) -> int:
    texts = _read_terms(args, 1)
    alphabet = _build_alphabet(args, texts)
    reduct = reduce(parse(texts[0], alphabet), alphabet)
    _emit(args, [render(reduct)], {"reduct": render(reduct)})
    return 0


def _cmd_lang(args) -> int:
    texts = _read_terms(args, 1)
    alphabet = _build_alphabet(args, texts)
    strings = lang_bounded(parse(texts[0], alphabet), alphabet, args.max_actions)
    ordered = sorted(strings, key=lambda s: gs_sort_key(s, alphabet))
    _emit(args, [s.render() for s in ordered], {"strings": [s.render() for s in ordered]})
    return 0


def _cmd_member(args) -> int:
    texts = _read_terms(args, 1)
    alphabet = _build_alphabet(args, texts + [args.string])
    t = parse(texts[0], alphabet)
    s = parse_guarded_string(args.string, alphabet)
    inside = decide.member(s, t)
    _emit(args, ["member" if inside else "not member"],
          {"verdict": "member" if inside else "not-member"})
    return 0 if inside else 1


def _cmd_triple(args) -> int:
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    numbered_lines = [(lineno, *logic.split_triple_line(line))
                      for lineno, line in logic.split_triple_file(text)]
    term_texts = [part for _, _, *parts in numbered_lines for part in parts]
    alphabet = _build_alphabet(args, term_texts)
    human, results, code = [], [], 0
    for lineno, kind, pre, prog, post in numbered_lines:
        tr = logic.Triple(kind, parse(pre, alphabet), parse(prog, alphabet),
                          parse(post, alphabet))
        verdict = logic.check_triple(tr, alphabet, direction=args.direction)
        ok = isinstance(verdict, (decide.Equivalent, domain.Provable))
        word = "provable" if ok else "not provable"
        human.append(f"line {lineno}: {kind} {word}")
        results.append({"line": lineno, "kind": kind,
                        "verdict": word.replace(" ", "-")})
        if not ok:
            code = 1
    _emit(args, human, {"verdict": "provable" if code == 0 else "not-provable",
                        "results": results})
    return code


def _search_payload(hit: SearchHit | None, budget: SearchBudget,
                    rule_budget: str | None) -> tuple[list[str], dict, int]:
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


def _cmd_search(args) -> int:
    texts = _read_terms(args, 2)
    alphabet = _build_alphabet(args, texts)
    t1, t2 = (parse(text, alphabet) for text in texts)
    kind = args.kind.replace("-", "_")
    if kind == "leq":
        # CLI order is (claimed larger, claimed smaller)
        t1, t2 = t2, t1
    budget = _budget(args)
    hit = relmodel.search_countermodel(kind, t1, t2, alphabet, args.max_states,
                                       budget, ceiling=args.ceiling)
    human, payload, code = _search_payload(hit, budget, None)
    _emit(args, human, payload)
    return code


def _cmd_rule(args) -> int:
    texts = list(args.terms)
    alphabet = _build_alphabet(args, texts)
    terms = [parse(text, alphabet) for text in texts]
    budget = _budget(args)
    report = logic.check_rule_instance(args.name, terms, alphabet,
                                       args.max_states, budget)
    human, payload, code = _search_payload(report.hit, budget, report.budget)
    _emit(args, human, payload)
    return code


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(sub, terms: int | None) -> None:
    sub.add_argument("--tests", default="", help="comma-separated test identifiers")
    sub.add_argument("--actions", default=None,
                     help="comma-separated action identifiers "
                          "(default: inferred from the terms)")
    sub.add_argument("--json", action="store_true", help="emit a JSON object")
    if terms is not None:
        sub.add_argument("terms", nargs="*", metavar="TERM")
        sub.add_argument("--file", default=None,
                         help="read the term(s) from a file, one per line")


def _add_search_flags(sub) -> None:
    sub.add_argument("--max-states", type=int, default=2,
                     help="largest carrier size to try (default 2)")
    sub.add_argument("--exhaustive", action="store_true",
                     help="enumerate every interpretation up to --max-states")
    sub.add_argument("--samples", type=int, default=None,
                     help="number of random interpretations to try")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for random sampling (required with --samples)")
    sub.add_argument("--ceiling", type=int, default=relmodel.ENUM_CEILING,
                     help="refuse exhaustive searches larger than this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topkat",
        description="Decide KAT/TopKAT (in)equalities, compare (co)domains, "
                    "and extract finite relational countermodels.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("decide", help="decide TERM1 = TERM2 in TopKAT")
    _add_common(sub, terms=2)
    sub.set_defaults(handler=_cmd_decide)

    sub = subs.add_parser("leq", help="decide TERM1 >= TERM2 in TopKAT")
    _add_common(sub, terms=2)
    sub.set_defaults(handler=_cmd_leq)

    sub = subs.add_parser("cod-geq", help="decide cod(TERM1) >= cod(TERM2) "
                                          "over all relational models")
    _add_common(sub, terms=2)
    sub.add_argument("--numeric", action="store_true",
                     help="label carrier elements 0..n-1 instead of guarded strings")
    sub.set_defaults(handler=lambda args: _cmd_comparison(args, domain.cod_geq))

    sub = subs.add_parser("dom-geq", help="decide dom(TERM1) >= dom(TERM2) "
                                          "over all relational models")
    _add_common(sub, terms=2)
    sub.add_argument("--numeric", action="store_true",
                     help="label carrier elements 0..n-1 instead of guarded strings")
    sub.set_defaults(handler=lambda args: _cmd_comparison(args, domain.dom_geq))

    sub = subs.add_parser("reduce", help="print the top-free reduct of TERM")
    _add_common(sub, terms=1)
    sub.set_defaults(handler=_cmd_reduce)

    sub = subs.add_parser("lang", help="dump the bounded guarded-string language")
    _add_common(sub, terms=1)
    sub.add_argument("--max-actions", type=int, required=True,
                     help="largest number of actions per string")
    sub.set_defaults(handler=_cmd_lang)

    sub = subs.add_parser("member", help="is the guarded string in TERM's language?")
    _add_common(sub, terms=1)
    sub.add_argument("string", metavar="GSTRING",
                     help="guarded string, e.g. '[b&!c] p [b&c]'")
    sub.set_defaults(handler=_cmd_member)

    sub = subs.add_parser("triple", help="check Hoare/incorrectness triples from a file")
    _add_common(sub, terms=None)
    sub.add_argument("--file", required=True, help="triples, one per line")
    sub.add_argument("--direction", choices=logic.DIRECTIONS, default="under",
                     help="incorrectness encoding orientation (default under)")
    sub.set_defaults(handler=_cmd_triple)

    sub = subs.add_parser("search", help="search finite relational countermodels")
    _add_common(sub, terms=2)
    sub.add_argument("--kind", required=True,
                     choices=["equality", "leq", "dom-geq", "cod-geq"],
                     help="comparison to refute (term order as in the other "
                          "subcommands)")
    _add_search_flags(sub)
    sub.set_defaults(handler=_cmd_search)

    sub = subs.add_parser("rule", help="try to refute a proof-rule instance")
    _add_common(sub, terms=None)
    sub.add_argument("name", choices=sorted(logic.RULES),
                     help="rule to instantiate")
    sub.add_argument("terms", nargs="*", metavar="TERM",
                     help="instantiation, in the rule's parameter order")
    _add_search_flags(sub)
    sub.set_defaults(handler=_cmd_rule)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str] | None):
    """Parse argv with terms before, between or after the flags: argparse
    fills TERM from the first run of positionals only, so the terms left
    over are appended in order (GSTRING stays the last positional)."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        if "terms" not in vars(args) or any(arg.startswith("-") for arg in extra):
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if "string" in vars(args):
            *args.terms, args.string = args.terms + [args.string] + extra
        else:
            args.terms += extra
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ResourceLimitError, RecursionError, MemoryError) as exc:
        # too deep or too large to decide: no verdict was computed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (TopkatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
