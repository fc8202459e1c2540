"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All randomness is seeded; expected values are either forced by
the algebra or cross-checked against the independent bounded-language
and finite-model oracles.
"""

import random
import time

from conftest import embed_back, encoding_sides, extended, fuse, reduce, reverse, sum_star
from topkat.cli import main as cli_main
from topkat.decide import Equivalent, equivalent, leq, member
from topkat.domain import Provable, RelCountermodel, cod_geq, dom_geq
from topkat.gen import random_interpretation, random_relation, random_term
from topkat.reduction import prune_alphabet, topkat_equivalent
from topkat.relmodel import Relation, SearchBudget, evaluate, search_countermodel
from topkat.semantics import lang_bounded
from topkat.syntax import Alphabet, Dot, TOP, parse

ALPH = Alphabet(("p", "q"), ("b", "c"))
EXHAUSTIVE = SearchBudget(exhaustive=True)


def report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_01_reduction_round_trip():
    rng = random.Random(0xA1)
    ok = True
    for _ in range(1000):
        t = random_term(rng, ALPH, 5, allow_top=True)
        back = embed_back(reduce(t, ALPH))
        ok = ok and isinstance(topkat_equivalent(back, t, ALPH), Equivalent)
    report("1 (reduction round-trip, 1000 terms)", ok)


def test_criterion_02_top_reduct_is_largest():
    rng = random.Random(0xA2)
    ext = extended(ALPH)
    top_reduct = reduce(TOP, ALPH)
    ok = True
    for _ in range(200):
        t = random_term(rng, ext, 5)
        ok = ok and isinstance(leq(t, top_reduct, ext), Equivalent)
    report("2 (largest element, 200 terms)", ok)


def test_criterion_03_oracle_agreement():
    rng = random.Random(0xA3)
    ok = True
    for _ in range(500):
        t1 = random_term(rng, ALPH, 4)
        t2 = random_term(rng, ALPH, 4)
        verdict = equivalent(t1, t2, ALPH)
        if isinstance(verdict, Equivalent):
            for n in range(4):
                ok = ok and lang_bounded(t1, ALPH, n) == lang_bounded(t2, ALPH, n)
        else:
            w = verdict.string
            ok = ok and member(w, t1) != member(w, t2)
            n = w.num_actions
            ok = ok and ((w in lang_bounded(t1, ALPH, n))
                         != (w in lang_bounded(t2, ALPH, n)))
    report("3 (oracle agreement, 500 pairs)", ok)


def test_criterion_04_incompleteness_instance():
    code_leq = cli_main(["leq", "--tests", "", "p T p T", "p T"])
    code_search = cli_main(["search", "--kind", "leq", "--max-states", "2",
                            "--exhaustive", "--tests", "", "p T p", "p"])
    report("4 (p T p T >= p T refuted AND p T p >= p relationally valid)",
           code_leq == 1 and code_search == 0)


def test_criterion_05_codomain_completeness_mechanics():
    rng = random.Random(0xA5)
    ok = True
    for i in range(100):
        t1 = random_term(rng, ALPH, 3)
        t2 = random_term(rng, ALPH, 3)
        verdict = cod_geq(t1, t2, ALPH)
        if isinstance(verdict, Provable):
            ok = ok and search_countermodel("cod_geq", t1, t2, ALPH, 2,
                                            EXHAUSTIVE) is None
            sampled = SearchBudget(exhaustive=False, samples=1000, seed=i)
            ok = ok and search_countermodel("cod_geq", t1, t2, ALPH, 3,
                                            sampled) is None
        else:
            assert isinstance(verdict, RelCountermodel)
            idx = verdict.violating_index
            ok = ok and idx in evaluate(t2, verdict.interp).cod()
            ok = ok and idx not in evaluate(t1, verdict.interp).cod()
    report("5 (codomain countermodels verify; provables survive search)", ok)


def test_criterion_06_domain_codomain_duality():
    rng = random.Random(0xA6)
    ok = True
    for _ in range(200):
        t1 = random_term(rng, ALPH, 3)
        t2 = random_term(rng, ALPH, 3)
        via_dom = dom_geq(t1, t2, ALPH)
        via_cod = cod_geq(reverse(t1), reverse(t2), ALPH)
        ok = ok and isinstance(via_dom, Provable) == isinstance(via_cod, Provable)
    for _ in range(1000):
        r = random_relation(rng, rng.randint(1, 4))
        converse = Relation.from_pairs(r.n, [(j, i) for i, j in r.pairs])
        ok = ok and converse.dom() == r.cod()
    report("6 (dom/cod duality, 200 pairs + 1000 relations)", ok)


def test_criterion_07_bounded_prefix_image_equality():
    rng = random.Random(0xA7)
    ok = True
    alphabets = [Alphabet(("p",), ("b",)), Alphabet(("p", "q"), ())]
    for i in range(50):
        base = alphabets[i % 2]
        t = random_term(rng, base, 3)
        pruned = prune_alphabet(base, t)
        ext = extended(pruned)
        for n in range(4):
            image = set()
            for s in lang_bounded(sum_star(pruned), ext, n):
                for s2 in lang_bounded(t, pruned, n - s.num_actions):
                    fused = fuse(s, s2)
                    if fused is not None:
                        image.add(fused)
            direct = lang_bounded(reduce(Dot(TOP, t), pruned), ext, n)
            ok = ok and image == direct
    report("7 (bounded prefix-image equality, 50 terms, n <= 3)", ok)


def test_criterion_08_encoding_biconditionals():
    rng = random.Random(0xA8)
    ok = True
    for _ in range(1000):
        n = rng.choice((2, 3))
        interp = random_interpretation(rng, n, ALPH)
        t1 = random_term(rng, ALPH, 3)
        t2 = random_term(rng, ALPH, 3)
        (dom_via_top, dom_direct), (cod_via_top, cod_direct) = encoding_sides(interp, t1, t2)
        ok = ok and dom_via_top == dom_direct and cod_via_top == cod_direct
    report("8 (encoding biconditionals, 1000 models)", ok)


def test_criterion_09_known_theorems():
    laws = [
        ("p*", "1 + p p*"),
        ("p*", "1 + p* p"),
        ("p* p*", "p*"),
        ("p**", "p*"),
        ("(p + q)*", "p* (q p*)*"),
        ("(p q)* p", "p (q p)*"),
    ]
    ok = True
    for lhs, rhs in laws:
        started = time.monotonic()
        verdict = equivalent(parse(lhs, ALPH), parse(rhs, ALPH), ALPH)
        elapsed = time.monotonic() - started
        ok = ok and isinstance(verdict, Equivalent) and elapsed < 1.0
    report("9 (unfolding, star laws, denesting, sliding; each < 1s)", ok)


GOLDEN = [
    (["decide", "--tests", "b", "b + !b", "1"], "equivalent\n", 0),
    (["decide", "--tests", "", "p", "q"],
     "not equivalent\nwitness: [] p []\nside: left\n", 1),
    (["decide", "--json", "--tests", "", "p", "q"],
     '{"v": 1, "verdict": "not-equivalent", "witness": "[] p []", "side": "left"}\n', 1),
    (["leq", "--tests", "", "p T p T", "p T"],
     "not provable\nwitness: [] p []\nside: right\n", 1),
    (["leq", "--tests", "", "T", "p"], "provable\n", 0),
    (["cod-geq", "--tests", "b", "p", "p b"], "provable\n", 0),
    (["cod-geq", "--tests", "b", "p b", "p"],
     "not provable\n"
     "witness: [!b] p [!b]\n"
     "carrier:\n"
     "  0 = [!b]\n"
     "  1 = [!b] p [!b]\n"
     "relations:\n"
     "  p = {(0,1)}\n"
     "  __top__ = {}\n"
     "  b = {}\n"
     "violating point: 1 = [!b] p [!b]\n", 1),
    (["dom-geq", "--tests", "b", "b p", "p"],
     "not provable\n"
     "witness: [!b] p [!b]\n"
     "carrier:\n"
     "  0 = [!b] p [!b]\n"
     "  1 = [!b]\n"
     "relations:\n"
     "  p = {(0,1)}\n"
     "  __top__ = {}\n"
     "  b = {}\n"
     "violating point: 0 = [!b] p [!b]\n", 1),
    (["reduce", "--actions", "p", "--tests", "", "T"], "(p + __top__)*\n", 0),
    (["lang", "--tests", "b", "--max-actions", "1", "p*"],
     "[!b]\n[b]\n[!b] p [!b]\n[!b] p [b]\n[b] p [!b]\n[b] p [b]\n", 0),
    (["member", "--tests", "b", "p*", "[b] p [!b]"], "member\n", 0),
    (["member", "--tests", "b", "p b", "[b] p [!b]"], "not member\n", 1),
    (["search", "--kind", "leq", "--max-states", "2", "--exhaustive",
      "--tests", "", "p T p", "p"], "no countermodel\n", 0),
    (["search", "--kind", "leq", "--max-states", "1", "--exhaustive",
      "--tests", "", "p", "q"],
     "countermodel\n"
     "carrier:\n"
     "  0 = 0\n"
     "relations:\n"
     "  p = {}\n"
     "  q = {(0,0)}\n"
     "violating pair: (0,0)\n", 1),
    (["rule", "sequencing", "1", "1", "1", "p", "p", "--exhaustive",
      "--max-states", "2", "--tests", ""],
     "no refutation found (budget exhaustive n<=2)\n", 0),
    (["decide", "--tests", "b", "!(p)", "1"], "", 2),
    (["lang", "--tests", "t0,t1,t2,t3,t4,t5,t6,t7,t8,t9,t10",
      "--max-actions", "0", "1"], "", 3),
]


def test_criterion_10_cli_golden_transcripts(tmp_path, capsys):
    table = list(GOLDEN)
    specs = tmp_path / "specs.txt"
    specs.write_text("hoare {b} p {1}\nincorrectness [1] p [1]\n", encoding="utf-8")
    table.append((["triple", "--file", str(specs), "--tests", "b"],
                  "line 1: hoare provable\nline 2: incorrectness not provable\n", 1))
    ok = True
    seen_codes = set()
    seen_commands = set()
    for argv, expected_out, expected_code in table:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        ok = ok and runs[0] == runs[1] == (expected_code, expected_out)
        seen_codes.add(expected_code)
        seen_commands.add(argv[0])
    ok = ok and seen_codes == {0, 1, 2, 3}
    ok = ok and seen_commands == {"decide", "leq", "cod-geq", "dom-geq", "reduce",
                                  "lang", "member", "triple", "search", "rule"}
    ok = ok and len(table) >= 12
    report(f"10 (CLI golden transcripts, {len(table)} invocations)", ok)
