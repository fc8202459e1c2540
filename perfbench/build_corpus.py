#!/usr/bin/env python3
"""Build the benchmark's expected-output corpus from the current topkat.

    python3 perfbench/build_corpus.py [--workload NAME]

For each workload a fixed pool of queries is generated from POOL_SEED,
run once through `topkat.cli.main`, and its exit code and stdout are
recorded in `perfbench/corpus/<workload>.json`.  Every verdict is first
cross-checked against an oracle that does not use `topkat.decide`:

- witnesses must lie on exactly one side, by `semantics.lang_bounded`;
- claimed equivalences and inclusions must hold on bounded languages;
- countermodels are re-read from the printed output and checked with
  `relmodel.evaluate`;
- provable (co)domain claims must survive a relational countermodel
  search on small carriers;
- triple files print only verdict words, so a refuted incorrectness
  triple's countermodel is rebuilt with `domain.cod_geq` and checked
  with `relmodel.evaluate`.

A query whose verdict an oracle contradicts stops the build.  A query
that exits 2 or 3, or whose verdict no bounded oracle can confirm, is
dropped and replaced by the next one the generator yields.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
from topkat import cli, domain, logic, reduction, relmodel, semantics  # noqa: E402
from topkat.gen import random_term, random_test_term  # noqa: E402
from topkat.syntax import (  # noqa: E402
    Act, Alphabet, Dot, Not, ONE, Plus, Star, Top, contains_top, parse, render,
    scan_identifiers,
)

POOL_SEED = 20240429


class Unconfirmed(Exception):
    """No bounded oracle could confirm the verdict; drop the query."""


class OracleMismatch(Exception):
    """An oracle contradicts the recorded verdict: topkat is wrong."""


# ---------------------------------------------------------------------------
# Reading the CLI's alphabet and output back


def flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


BOOL_FLAGS = {"--exhaustive", "--json", "--numeric"}


def positionals(argv) -> list[str]:
    """The subcommand's positional arguments (every other flag takes a value)."""
    out, args = [], iter(argv[1:])
    for arg in args:
        if arg.startswith("--"):
            if arg not in BOOL_FLAGS:
                next(args)
        else:
            out.append(arg)
    return out


def cli_alphabet(texts, tests_flag) -> Alphabet:
    """The alphabet `topkat.cli` infers: declared tests, actions in order of
    first occurrence."""
    tests = tuple(t for t in tests_flag.split(",") if t) if tests_flag else ()
    actions = tuple(dict.fromkeys(i for text in texts for i in scan_identifiers(text)
                                  if i not in tests))
    return Alphabet(actions, tests)


def ext_alphabet(alphabet: Alphabet, *terms) -> Alphabet:
    return reduction.ExtendedAlphabet(reduction.prune_alphabet(alphabet, *terms)).alphabet


def reduct(t, alphabet: Alphabet, *context):
    return reduction.reduce(t, reduction.prune_alphabet(alphabet, *context))


def parse_output(stdout: str) -> dict:
    """Verdict fields from either output mode."""
    text = stdout.strip()
    if text.startswith("{"):
        data = json.loads(text)
        cm = data.get("countermodel")
        if cm is not None:
            data["relations"] = {k: [tuple(p) for p in v] for k, v in cm["relations"].items()}
            data["carrier"] = cm["carrier"]
            vp = cm.get("violating_point")
            if vp is not None:
                data["point"] = (cm["carrier"].index(vp) if vp in cm["carrier"]
                                 else int(vp))
            if "violating_pair" in cm:
                data["pair"] = tuple(cm["violating_pair"])
        return data
    lines = text.splitlines()
    data: dict = {"verdict": lines[0].replace(" ", "-")}
    carrier, relations = [], {}
    for line in lines[1:]:
        if line.startswith("witness: "):
            data["witness"] = line[len("witness: "):]
        elif line.startswith("side: "):
            data["side"] = line[len("side: "):]
        elif m := re.fullmatch(r"  (\d+) = (.*)", line):
            carrier.append(m.group(2))
        elif m := re.fullmatch(r"  (\w+) = \{(.*)\}", line):
            relations[m.group(1)] = [tuple(map(int, p)) for p in
                                     re.findall(r"\((\d+),(\d+)\)", m.group(2))]
        elif m := re.match(r"violating point: (\d+)", line):
            data["point"] = int(m.group(1))
        elif m := re.match(r"violating pair: \((\d+),(\d+)\)", line):
            data["pair"] = (int(m.group(1)), int(m.group(2)))
    if relations:
        data["carrier"], data["relations"] = carrier, relations
    return data


def read_model(data: dict, tests) -> relmodel.RelInterpretation:
    n = len(data["carrier"])
    acts = {k: relmodel.Relation.from_pairs(n, v) for k, v in data["relations"].items()
            if k not in tests}
    tsts = {k: relmodel.Relation.from_pairs(n, v) for k, v in data["relations"].items()
            if k in tests}
    return relmodel.RelInterpretation(n, acts, tsts)


# ---------------------------------------------------------------------------
# Oracles (none of them imports or calls topkat.decide)

LANG_BOUND = 2


def in_lang(w_text: str, t, alphabet: Alphabet) -> bool:
    w = semantics.parse_guarded_string(w_text, alphabet)
    return w in semantics.lang_bounded(t, alphabet, w.num_actions)


def check_witness(w_text, inside, outside, alphabet):
    if not in_lang(w_text, inside, alphabet) or in_lang(w_text, outside, alphabet):
        raise OracleMismatch(f"witness {w_text!r} is not on exactly one side")


def check_bounded(smaller, larger, alphabet, equal: bool, bound: int = LANG_BOUND):
    lo = semantics.lang_bounded(smaller, alphabet, bound)
    hi = semantics.lang_bounded(larger, alphabet, bound)
    if (lo != hi) if equal else not lo <= hi:
        raise OracleMismatch("bounded languages disagree with a provable verdict")


def lang_bound(alphabet: Alphabet, *terms) -> int:
    """Bound for `check_bounded`: T's sum-star over 2^k atoms grows as
    (2^k)^(2 * bound), so wide alphabets with T are checked to one action."""
    return 1 if len(alphabet.tests) > 4 and any(map(contains_top, terms)) else LANG_BOUND


def no_small_countermodel(kind, t1, t2, alphabet):
    """No relational countermodel on at most two elements (exhaustively), or,
    where that space is too large, among 3000 sampled models on at most three."""
    acts, tsts = reduction.prune_alphabet(alphabet, t1, t2).actions, \
        reduction.prune_alphabet(alphabet, t1, t2).tests
    space = sum((1 << n * n) ** len(acts) * (1 << n) ** len(tsts) for n in (1, 2))
    if space <= 50_000:
        max_n, budget = 2, relmodel.SearchBudget(exhaustive=True)
    else:
        max_n, budget = 3, relmodel.SearchBudget(exhaustive=False, samples=3000, seed=0)
    if relmodel.search_countermodel(kind, t1, t2, alphabet, max_n, budget) is not None:
        raise OracleMismatch(f"{kind} claimed provable but a small model refutes it")


def check_cm(data, kind, t1, t2, tests):
    """The printed countermodel puts its point in side 2's (co)domain only."""
    interp = read_model(data, tests)
    r1, r2 = relmodel.evaluate(t1, interp), relmodel.evaluate(t2, interp)
    proj = (lambda r: r.cod()) if kind == "cod" else (lambda r: r.dom())
    point = data["point"]
    if point not in proj(r2) or point in proj(r1):
        raise OracleMismatch("printed countermodel does not violate the comparison")


def oracle_decide(argv, code, out):
    t1s, t2s = positionals(argv)
    al = cli_alphabet([t1s, t2s], flag(argv, "--tests"))
    t1, t2 = parse(t1s, al), parse(t2s, al)
    ext = ext_alphabet(al, t1, t2)
    r1, r2 = reduct(t1, al, t1, t2), reduct(t2, al, t1, t2)
    data = parse_output(out)
    if code == 0:
        check_bounded(r1, r2, ext, equal=True, bound=lang_bound(al, t1, t2))
    else:
        inside, outside = (r1, r2) if data["side"] == "left" else (r2, r1)
        check_witness(data["witness"], inside, outside, ext)


def oracle_leq(argv, code, out):
    upper_s, lower_s = positionals(argv)
    al = cli_alphabet([upper_s, lower_s], flag(argv, "--tests"))
    upper, lower = parse(upper_s, al), parse(lower_s, al)
    ext = ext_alphabet(al, upper, lower)
    ru, rl = reduct(upper, al, upper, lower), reduct(lower, al, upper, lower)
    if code == 0:
        check_bounded(rl, ru, ext, equal=False, bound=lang_bound(al, upper, lower))
    else:
        check_witness(parse_output(out)["witness"], rl, ru, ext)


def oracle_comparison(kind):
    def check(argv, code, out):
        t1s, t2s = positionals(argv)
        tests_flag = flag(argv, "--tests")
        al = cli_alphabet([t1s, t2s], tests_flag)
        t1, t2 = parse(t1s, al), parse(t2s, al)
        if code == 0:
            no_small_countermodel(f"{kind}_geq", t1, t2, al)
        else:
            check_cm(parse_output(out), kind, t1, t2, al.tests)
    return check


def oracle_member(argv, code, out):
    ts, ws = positionals(argv)
    al = cli_alphabet([ts, ws], flag(argv, "--tests"))
    if in_lang(ws, parse(ts, al), al) != (code == 0):
        raise OracleMismatch("membership verdict disagrees with lang_bounded")


def oracle_reduce(argv, code, out):
    ts, = positionals(argv)
    al = cli_alphabet([ts], flag(argv, "--tests"))
    t = parse(ts, al)
    names = al.actions + (reduction.TOP_ACTION,)
    sum_star = Star(functools.reduce(Plus, [Act(a) for a in names]))

    def subst(t):
        if isinstance(t, Top):
            return sum_star
        if isinstance(t, (Not, Star)):
            return type(t)(subst(t.arg))
        if isinstance(t, (Plus, Dot)):
            return type(t)(subst(t.left), subst(t.right))
        return t

    expected = render(subst(t))
    got = parse_output(out).get("reduct", out.strip())
    if code != 0 or got != expected or contains_top(parse(got, Alphabet(names, al.tests))):
        raise OracleMismatch(f"reduct {got!r} is not {expected!r}")


def oracle_triple(files):
    def check(argv, code, out):
        text = files[Path(flag(argv, "--file")).name]
        lines = [ln for ln in text.splitlines() if ln.strip()]
        texts = [part for ln in lines for part in logic.split_triple_line(ln)[1:]]
        al = cli_alphabet(texts, flag(argv, "--tests"))
        words = re.findall(r"line \d+: \w+ (provable|not provable)", out)
        if not words:
            words = [r["verdict"].replace("-", " ") for r in json.loads(out)["results"]]
        for line, word in zip(lines, words):
            kind, pre, prog, post = logic.split_triple_line(line)
            b, p, c = parse(pre, al), parse(prog, al), parse(post, al)
            if kind == "hoare":
                bad = Dot(Dot(b, p), Not(c))
                if word == "provable":
                    if semantics.lang_bounded(bad, al, LANG_BOUND):
                        raise OracleMismatch(f"hoare line {line!r} has a bounded violation")
                elif not any(semantics.lang_bounded(bad, al, k) for k in range(4)):
                    raise Unconfirmed(line)
            elif word == "provable":
                no_small_countermodel("cod_geq", Dot(b, p), c, al)
            else:
                cm = domain.cod_geq(Dot(b, p), c, al)
                if isinstance(cm, domain.Provable):
                    raise OracleMismatch(f"incorrectness line {line!r} is provable")
                r1 = relmodel.evaluate(Dot(b, p), cm.interp).cod()
                r2 = relmodel.evaluate(c, cm.interp).cod()
                if cm.violating_index not in r2 or cm.violating_index in r1:
                    raise OracleMismatch(f"incorrectness line {line!r}: bad countermodel")
    return check


def oracle_search(argv, code, out):
    t1s, t2s = positionals(argv)
    al = cli_alphabet([t1s, t2s], flag(argv, "--tests"))
    t1, t2 = parse(t1s, al), parse(t2s, al)
    kind = flag(argv, "--kind").replace("-", "_")
    if kind == "leq":
        t1, t2 = t2, t1
    if code == 0:
        if kind in ("equality", "leq"):
            check_bounded(t1, t2, al, equal=kind == "equality")
        return
    data = parse_output(out)
    interp = read_model(data, al.tests)
    r1, r2 = relmodel.evaluate(t1, interp), relmodel.evaluate(t2, interp)
    if kind == "equality":
        ok = data["pair"] in set(r1.pairs) ^ set(r2.pairs)
    elif kind == "leq":
        ok = data["pair"] in set(r1.pairs) - set(r2.pairs)
    else:
        proj = (lambda r: r.cod()) if kind == "cod_geq" else (lambda r: r.dom())
        ok = data["point"] in proj(r2) - proj(r1)
    if not ok:
        raise OracleMismatch("search countermodel does not violate the comparison")


def oracle_rule(argv, code, out):
    if code == 0:
        return  # the three rules are sound; no hit is the only correct answer
    name, *texts = positionals(argv)
    al = cli_alphabet(texts, flag(argv, "--tests"))
    hyps, goal = logic.rule_instance(name, [parse(t, al) for t in texts])
    interp = read_model(parse_output(out), al.tests)
    cod = lambda t: relmodel.evaluate(t, interp).cod()  # noqa: E731
    if not all(cod(u) <= cod(v) for u, v in hyps) or cod(goal[0]) <= cod(goal[1]):
        raise OracleMismatch("rule refutation is not a model of the hypotheses")


# ---------------------------------------------------------------------------
# Generators.  Each yields (stratum, argv, files) candidates forever.


def kat_equation(rng, x, y, z):
    """A pair of terms equal in KAT (and so in TopKAT)."""
    shapes = [
        (Star(x), Plus(ONE, Dot(x, Star(x)))),
        (Star(x), Dot(Star(x), Star(x))),
        (Dot(Star(Dot(x, y)), x), Dot(x, Star(Dot(y, x)))),
        (Star(Plus(x, y)), Dot(Star(x), Star(Dot(y, Star(x))))),
        (Dot(x, Plus(y, z)), Plus(Dot(x, y), Dot(x, z))),
        (Plus(x, y), Plus(y, x)),
        (Star(Star(x)), Star(x)),
        (Plus(x, x), x),
    ]
    return rng.choice(shapes)


def desk_mix(rng: random.Random):
    actions = ("p", "q")
    triple_no = itertools.count()
    while True:
        tests = ("b", "c", "d")[:rng.choice((2, 3))]
        al = Alphabet(actions, tests)
        tflag = ["--tests", ",".join(tests)]
        json_flag = ["--json"] if rng.random() < 0.25 else []
        term = lambda top=False, depth=6: random_term(rng, al, depth, allow_top=top)  # noqa: E731
        small = lambda top=False: term(top, 3)  # noqa: E731
        holds = rng.random() < 0.3
        kind = rng.choice(["decide", "leq", "cod-geq", "dom-geq", "member", "reduce",
                           "triple"])
        if kind == "decide":
            pair = (kat_equation(rng, small(True), small(True), small(True)) if holds
                    else (term(True), term(True)))
            yield kind, ["decide", *map(render, pair), *tflag, *json_flag], {}
        elif kind == "leq":
            lower, other = term(True), term(True)
            upper = rng.choice([Plus(other, lower), Dot(lower, Star(other)),
                                Dot(lower, Top())]) if holds else other
            yield kind, ["leq", render(upper), render(lower), *tflag, *json_flag], {}
        elif kind in ("cod-geq", "dom-geq"):
            x, y = term(), term()
            if holds:
                pair = (y, Dot(x, y)) if kind == "cod-geq" else (x, Dot(x, y))
            else:
                pair = (x, y)
            extra = ["--numeric"] if rng.random() < 0.3 else []
            yield kind, [kind, *map(render, pair), *tflag, *json_flag, *extra], {}
        elif kind == "member":
            t = term()
            if holds:
                strings = sorted(s.render() for s in semantics.lang_bounded(t, al, 2))
                if not strings:
                    continue
                w = rng.choice(strings)
            else:
                atoms = semantics.all_atoms(al)
                k = rng.randint(0, 2)
                w = " ".join([rng.choice(atoms).render()] + [
                    f"{rng.choice(actions)} {rng.choice(atoms).render()}" for _ in range(k)])
            yield kind, ["member", render(t), w, *tflag, *json_flag], {}
        elif kind == "reduce":
            t = term(True)
            if not contains_top(t):
                t = Dot(t, Top())
            yield kind, ["reduce", render(t), *tflag, *json_flag], {}
        else:
            lines = []
            for _ in range(3):
                pre, post = (random_test_term(rng, al, 2) for _ in range(2))
                prog = term(depth=4)
                if rng.random() < 0.5:
                    lines.append(f"hoare {{{render(pre)}}} {render(prog)} {{{render(post)}}}")
                else:
                    lines.append(f"incorrectness [{render(pre)}] {render(prog)} "
                                 f"[{render(post)}]")
            name = f"desk-{next(triple_no):04d}.txt"
            path = str((bench.WORK_DIR / name).relative_to(bench.ROOT))
            yield kind, ["triple", "--file", path, *tflag, *json_flag], {
                name: "\n".join(lines) + "\n"}


def guard(k: int, bits: int) -> str:
    """A guard fixing all k tests: the atom `bits` written as a test term."""
    return " ".join(("" if bits >> i & 1 else "!") + f"b{i}" for i in range(k))


# family -> (number of tests, build(A, B, M, x) -> argv head or triple lines),
# where A and B are the two guards, M a one-literal mutation of A, x the loop body
WIDE_FAMILIES = {
    "eq-unroll": (8, lambda A, B, M, x: ["decide", f"{x}*", f"1 + {x} {x}*"]),
    "eq-denest": (8, lambda A, B, M, x: ["decide", f"{x}*", f"({A} p)* ({B} q ({A} p)*)*"]),
    "eq-idem": (7, lambda A, B, M, x: ["decide", f"{x}*", f"{x}* {x}*"]),
    "eq-slide": (6, lambda A, B, M, x: ["decide", f"({A} p {B} q)* {A} p",
                                        f"{A} p ({B} q {A} p)*"]),
    "mut-unroll": (7, lambda A, B, M, x: ["decide", f"{x}*", f"1 + ({M} p + {B} q) {x}*"]),
    "mut-denest": (7, lambda A, B, M, x: ["decide", f"{x}*", f"({M} p)* ({B} q ({M} p)*)*"]),
    "leq-unroll": (7, lambda A, B, M, x: ["leq", f"{x}*", f"{x} {x}*"]),
    "leq-sub": (8, lambda A, B, M, x: ["leq", f"{x}*", f"({A} p)*"]),
    "leq-mut": (8, lambda A, B, M, x: ["leq", f"{x}*", f"({M} p)*"]),
    "leq-top": (7, lambda A, B, M, x: ["leq", f"T {x}*", f"{x}*"]),
    "hoare-file": (7, lambda A, B, M, x: [
        f"hoare {{{A}}} ({A} p)* !({A}) {{!({A})}}",
        f"hoare {{{B}}} ({A} p)* {{{B}}}",
        f"hoare {{{A}}} {x}* {{{A}}}"]),
    "incorrectness-file": (7, lambda A, B, M, x: [
        f"incorrectness [{A}] {x}* [{A}]",
        f"incorrectness [{A}] {A} p [{B}]"]),
}


def wide_guards(rng: random.Random):
    triple_no = itertools.count()
    while True:
        for family, (k, build) in WIDE_FAMILIES.items():
            g1, g2 = rng.sample(range(1 << k), 2)
            mutant = g1 ^ (1 << rng.randrange(k))
            if mutant == g2:
                continue
            A, B, M = guard(k, g1), guard(k, g2), guard(k, mutant)
            x = f"({A} p + {B} q)"
            tflag = ["--tests", ",".join(f"b{i}" for i in range(k))]
            built = build(A, B, M, x)
            if family.endswith("-file"):
                name = f"wide-{next(triple_no):04d}.txt"
                path = str((bench.WORK_DIR / name).relative_to(bench.ROOT))
                yield family, ["triple", "--file", path, *tflag], {
                    name: "\n".join(built) + "\n"}
            else:
                yield family, [*built, *tflag], {}


def relsearch(rng: random.Random):
    one = Alphabet(("p",), ("b",))
    two = Alphabet(("p", "q"), ("b", "c"))
    while True:
        stratum = rng.choice(["exhaustive-eq", "exhaustive-cmp", "samples", "rule", "hit"])
        if stratum == "exhaustive-eq":
            x, y, z = (random_term(rng, one, 2) for _ in range(3))
            t1, t2 = kat_equation(rng, x, y, z)
            yield stratum, ["search", "--kind", "equality", "--exhaustive", "--max-states",
                            "3", render(t1), render(t2), "--tests", "b"], {}
        elif stratum == "exhaustive-cmp":
            x, y = (random_term(rng, one, 3) for _ in range(2))
            kind = rng.choice(["leq", "cod-geq", "dom-geq"])
            pair = {"leq": (Plus(x, y), x), "cod-geq": (y, Dot(x, y)),
                    "dom-geq": (x, Dot(x, y))}[kind]
            yield stratum, ["search", "--kind", kind, "--exhaustive", "--max-states", "3",
                            *map(render, pair), "--tests", "b"], {}
        elif stratum == "samples":
            x, y, z = (random_term(rng, two, 2) for _ in range(3))
            t1, t2 = kat_equation(rng, x, y, z)
            samples = 1000
            yield stratum, ["search", "--kind", "equality", "--samples", str(samples),
                            "--seed", str(rng.randrange(1000)), "--max-states", "3",
                            render(t1), render(t2), "--tests", "b,c"], {}
        elif stratum == "rule":
            name = rng.choice(["sequencing", "choice", "consequence"])
            n_tests = {"sequencing": 3, "choice": 2, "consequence": 4}[name]
            tests = ("a", "b", "c", "d")[:n_tests]
            al = Alphabet(("p", "q"), tests)
            progs = [render(random_term(rng, al, 2)) for _ in range(2)]
            # terms before flags: `rule NAME --tests ... TERMS` exits 2 (argparse)
            params = {"sequencing": [*tests, *progs], "choice": [*tests, *progs],
                      "consequence": [*tests, progs[0]]}[name]
            yield stratum, ["rule", name, *params, "--tests", ",".join(tests),
                            "--samples", "1000", "--seed",
                            str(rng.randrange(1000)), "--max-states", "3"], {}
        else:
            x, y = (random_term(rng, two, 3) for _ in range(2))
            yield stratum, ["search", "--kind", rng.choice(["equality", "cod-geq"]),
                            "--samples", "400", "--seed", str(rng.randrange(1000)),
                            "--max-states", "3", render(x), render(y), "--tests", "b,c"], {}


# workload -> (generator, per-pass draws per stratum, pool size per stratum)
SPECS = {
    "desk-mix": (desk_mix, {"decide": 40, "leq": 40, "cod-geq": 30, "dom-geq": 30,
                            "member": 40, "reduce": 30, "triple": 20}, 5),
    "wide-guards": (wide_guards, {name: 1 for name in WIDE_FAMILIES}, 4),
    "relsearch": (relsearch, {"exhaustive-eq": 3, "exhaustive-cmp": 3, "samples": 2,
                              "rule": 3, "hit": 1}, 6),
}

ORACLES = {
    "decide": oracle_decide, "leq": oracle_leq, "cod-geq": oracle_comparison("cod"),
    "dom-geq": oracle_comparison("dom"), "member": oracle_member, "reduce": oracle_reduce,
    "search": oracle_search, "rule": oracle_rule,
}


# Relsearch queries are kept to a band of `Relation` constructions, a
# machine-independent proxy for evaluation work (about 3 us each, so the
# band is roughly 85-125 ms per query); sampled queries are rescaled to
# the target.  A narrow band keeps the median among densely packed sizes.
WORK_BAND = (28_000, 42_000)
WORK_TARGET = 35_000


def sized_relsearch(stratum, argv, counter):
    """Run a relsearch candidate at its kept size; None if it is dropped."""
    with counter:
        _, code, stdout = bench.run_query(cli, argv)
    if stratum == "hit":
        return (code, stdout) if code == 1 else None
    if "--samples" in argv and code == 0 and counter.count:
        i = argv.index("--samples") + 1
        argv[i] = str(max(1, round(int(argv[i]) * WORK_TARGET / counter.count)))
        with counter:
            _, code, stdout = bench.run_query(cli, argv)
    if code == 0 and WORK_BAND[0] <= counter.count <= WORK_BAND[1]:
        return code, stdout
    return None


def build(workload: str) -> dict:
    gen, per_pass, pool_factor = SPECS[workload]
    rng = random.Random(f"{POOL_SEED}:{workload}")
    want = {s: n * pool_factor for s, n in per_pass.items()}
    files: dict[str, str] = {}
    queries: list[dict] = []
    have = dict.fromkeys(want, 0)
    bench.WORK_DIR.mkdir(exist_ok=True)
    counter = _RelationCounter()
    for stratum, argv, new_files in gen(rng):
        if all(have[s] >= want[s] for s in want):
            break
        if have[stratum] >= want[stratum]:
            continue
        for name, text in new_files.items():
            (bench.WORK_DIR / name).write_text(text, encoding="utf-8")
        if workload == "relsearch":
            kept = sized_relsearch(stratum, argv, counter)
            if kept is None:
                continue
            code, stdout = kept
        else:
            _, code, stdout = bench.run_query(cli, argv)
        if code not in (0, 1):
            continue
        oracle = (oracle_triple(new_files) if argv[0] == "triple" else ORACLES[argv[0]])
        try:
            oracle(argv, code, stdout)
        except Unconfirmed:
            continue
        files.update(new_files)
        queries.append({"id": f"{workload}-{len(queries):04d}", "stratum": stratum,
                        "argv": argv, "code": code, "stdout": stdout})
        have[stratum] += 1
    queries.sort(key=lambda q: (q["stratum"], q["id"]))
    return {"workload": workload, "pool_seed": POOL_SEED, "per_pass": per_pass,
            "files": files, "queries": queries}


class _RelationCounter:
    """Counts `Relation` constructions while active."""

    def __init__(self) -> None:
        self.count = 0

    def __enter__(self):
        self.count = 0
        self._orig = relmodel.Relation.__post_init__

        def counting(rel):
            self.count += 1
            self._orig(rel)

        relmodel.Relation.__post_init__ = counting
        return self

    def __exit__(self, *exc):
        relmodel.Relation.__post_init__ = self._orig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS, action="append")
    args = parser.parse_args()
    for workload in args.workload or bench.WORKLOADS:
        corpus = build(workload)
        bench.CORPUS_DIR.mkdir(exist_ok=True)
        with open(bench.corpus_path(workload), "w", encoding="utf-8") as handle:
            json.dump(corpus, handle, indent=0, sort_keys=True)
            handle.write("\n")
        codes = [q["code"] for q in corpus["queries"]]
        bench.log(f"{workload}: {len(codes)} queries, {codes.count(1)} exit 1")


if __name__ == "__main__":
    main()
