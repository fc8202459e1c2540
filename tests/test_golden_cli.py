"""Replay every query of the desk-mix, wide-guards and relsearch benchmark corpora
through `cli.main` and compare each exit code and stdout byte for byte
with the committed corpus."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from topkat import cli

CORPUS_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
WORK_PREFIX = "perfbench/_work/"


@pytest.mark.parametrize("workload, size",
                         [("desk-mix", 1150), ("wide-guards", 48), ("relsearch", 72)],
                         ids=["desk-mix", "wide-guards", "relsearch"])
def test_corpus_replays_byte_identical(tmp_path, workload, size):
    corpus = json.loads((CORPUS_DIR / f"{workload}.json").read_text(encoding="utf-8"))
    for name, text in corpus["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    mismatched = []
    for query in corpus["queries"]:
        argv = [str(tmp_path / arg[len(WORK_PREFIX):]) if arg.startswith(WORK_PREFIX)
                else arg for arg in query["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if (code, out.getvalue()) != (query["code"], query["stdout"]):
            mismatched.append(query["id"])
    assert len(corpus["queries"]) == size
    assert mismatched == []
