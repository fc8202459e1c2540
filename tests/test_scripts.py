"""The experiment scripts under scripts/ run to completion on small inputs."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)


def test_incompleteness_frontier_runs():
    done = run_script("incompleteness_frontier.py", "--max-states", "2")
    assert done.returncode == 0, done.stderr
    assert "p T p T <= p T, equationally:" in done.stdout

