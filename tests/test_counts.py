"""The count ledger: replay each benchmark corpus through `cli.main` in a
fresh process, so that every process-wide table starts empty, count the
work done, and compare the counts with the committed `counts.json`.
Counts do not depend on the machine, so a change in one is a change in
the work; a change that moves a count rewrites the file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

TESTS = Path(__file__).resolve().parent
CORPUS_DIR = TESTS.parent / "perfbench" / "corpus"

# argv: the corpus file and a directory for its files; prints the counts as JSON
REPLAY = """
import argparse, contextlib, io, json, shutil, sys
from pathlib import Path
from topkat import cli, decide

corpus, directory = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), Path(sys.argv[2])
counts = dict.fromkeys(["engine_steps", "linear_entries_scanned", "parsers_built",
                        "usages_formatted", "terminal_reads"], 0)
step, init = decide._Engine.step, argparse.ArgumentParser.__init__
format_usage, get_terminal_size = argparse.ArgumentParser.format_usage, shutil.get_terminal_size
WORK = "perfbench/_work/"

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

decide._Engine.step = counted_step
argparse.ArgumentParser.__init__ = counted_init
argparse.ArgumentParser.format_usage = counted_format_usage
shutil.get_terminal_size = counted_get_terminal_size
for name, text in corpus["files"].items():
    (directory / name).write_text(text, encoding="utf-8")
for query in corpus["queries"]:
    argv = [str(directory / arg[len(WORK):]) if arg.startswith(WORK) else arg
            for arg in query["argv"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
sys.__stdout__.write(json.dumps(counts))
"""


@pytest.mark.parametrize("workload", ["desk-mix", "wide-guards", "relsearch"])
def test_a_corpus_replay_does_the_work_the_ledger_records(tmp_path, workload):
    child = subprocess.run(
        [sys.executable, "-c", REPLAY, str(CORPUS_DIR / f"{workload}.json"), str(tmp_path)],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    ledger = json.loads((TESTS / "counts.json").read_text(encoding="utf-8"))
    assert json.loads(child.stdout) == ledger[workload]
