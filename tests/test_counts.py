"""The count ledger: replay each benchmark corpus through `cli.main` in a
fresh process, so that every process-wide table starts empty, count the
work done, and compare the counts with the committed `counts.json`.  The
ledger also counts the worst known shapes, each at two sizes, so that a
row's growth reads off as a ratio.  Counts do not depend on the machine,
so a change in one is a change in the work; a change that moves a count
rewrites the file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

TESTS = Path(__file__).resolve().parent
CORPUS_DIR = TESTS.parent / "perfbench" / "corpus"

# wraps the counted functions; `counts` holds every count, `reset` zeroes them
COUNTED = """
import argparse, collections, contextlib, io, json, shutil, sys
from pathlib import Path
import topkat
from topkat import cli, decide, relmodel, syntax

counts = dict.fromkeys(["engine_steps", "linear_entries_scanned", "parsers_built",
                        "usages_formatted", "terminal_reads", "term_nodes_built",
                        "pairs_popped", "pairs_merged", "alphabets_built", "terms_checked",
                        "compose_calls"], 0)
step, init, check = decide._Engine.step, argparse.ArgumentParser.__init__, syntax.Term._check
format_usage, get_terminal_size = argparse.ArgumentParser.format_usage, shutil.get_terminal_size
union, compose = decide._UnionFind.union, relmodel._compose
alphabet_check, check_over = syntax.Alphabet._check, syntax.check_over

def reset():
    counts.update(dict.fromkeys(counts, 0))

def counted_step(self, states, *args):
    counts["engine_steps"] += 1
    derivatives = step(self, states, *args)
    counts["linear_entries_scanned"] += sum(len(self.linear(t)) for t in states)
    return derivatives

def counted_init(self, *args, **kwargs):
    counts["parsers_built"] += 1
    init(self, *args, **kwargs)

def counted_format_usage(self):
    counts["usages_formatted"] += 1
    return format_usage(self)

def counted_get_terminal_size(*args):
    counts["terminal_reads"] += 1
    return get_terminal_size(*args)

def counted_check(self):
    counts["term_nodes_built"] += 1
    check(self)

class CountedQueue(collections.deque):
    def popleft(self):
        counts["pairs_popped"] += 1
        return super().popleft()

def counted_union(self, *args):
    counts["pairs_merged"] += 1
    union(self, *args)

def counted_compose(*args):
    counts["compose_calls"] += 1
    return compose(*args)

def counted_alphabet_check(self):
    counts["alphabets_built"] += 1
    alphabet_check(self)

def counted_check_over(*args):
    counts["terms_checked"] += 1
    check_over(*args)

decide._Engine.step = counted_step
argparse.ArgumentParser.__init__ = counted_init
argparse.ArgumentParser.format_usage = counted_format_usage
shutil.get_terminal_size = counted_get_terminal_size
syntax.Term._check = counted_check
decide.deque = CountedQueue
decide._UnionFind.union = counted_union
relmodel._compose = counted_compose
syntax.Alphabet._check = counted_alphabet_check
for module in [m for name, m in sys.modules.items() if name.startswith("topkat.")]:
    if getattr(module, "check_over", None) is check_over:  # wherever it is imported
        module.check_over = counted_check_over
"""

# argv: the corpus file and a directory for its files; prints the counts as JSON
REPLAY = COUNTED + """
WORK = "perfbench/_work/"
corpus, directory = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), Path(sys.argv[2])
for name, text in corpus["files"].items():
    (directory / name).write_text(text, encoding="utf-8")
for query in corpus["queries"]:
    argv = [str(directory / arg[len(WORK):]) if arg.startswith(WORK) else arg
            for arg in query["argv"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
del counts["compose_calls"]
sys.__stdout__.write(json.dumps(counts))
"""

# (decision, t1, t2), with p^n for n copies of p and S for the nested
# star (…((p)* q)* …)* q with n stars, at each n in SIZES
FAMILIES = [("cod_geq", "p^n b", "p^n"), ("cod_geq", "p^n", "p^n b"),
            ("dom_geq", "b p^n", "p^n"), ("dom_geq", "p^n", "b p^n")]
NESTED_STAR = [("topkat_equivalent", "(S)*", "(S)* (S)*")]
SIZES = [50, 100]

# argv: families and SIZES as JSON; counts each decision, after parsing its
# terms with `--actions p,q --tests b`, and prints one row per (family, size)
FAMILY_ROWS = COUNTED + """
alphabet, rows = syntax.Alphabet(("p", "q"), ("b",)), {}
for name, text1, text2 in json.loads(sys.argv[1]):
    for n in json.loads(sys.argv[2]):
        nested = "p"
        for _ in range(n):
            nested = f"({nested})* q"
        t1, t2 = (syntax.parse(text.replace("p^n", " ".join(["p"] * n)).replace("S", nested),
                               alphabet) for text in (text1, text2))
        reset()
        getattr(topkat, name)(t1, t2, alphabet)
        rows[f"{name}({text1}, {text2}) n={n}"] = {
            key: counts[key] for key in ("engine_steps", "linear_entries_scanned",
                                         "pairs_popped", "term_nodes_built", "compose_calls")}
sys.__stdout__.write(json.dumps(rows))
"""


def _ledger():
    return json.loads((TESTS / "counts.json").read_text(encoding="utf-8"))


def _counted(script, *argv):
    child = subprocess.run([sys.executable, "-c", script, *argv], env=child_env(),
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


@pytest.mark.parametrize("workload", ["desk-mix", "wide-guards", "relsearch"])
def test_a_corpus_replay_does_the_work_the_ledger_records(tmp_path, workload):
    assert _counted(REPLAY, str(CORPUS_DIR / f"{workload}.json"), str(tmp_path)) == \
        _ledger()[workload]


def test_the_path_families_do_the_work_the_ledger_records():
    assert _counted(FAMILY_ROWS, json.dumps(FAMILIES), json.dumps(SIZES)) == \
        _ledger()["path families"]


def test_the_nested_star_does_the_work_the_ledger_records():
    assert _counted(FAMILY_ROWS, json.dumps(NESTED_STAR), json.dumps(SIZES)) == \
        _ledger()["nested star"]
