"""Core of the topkat benchmark: corpus plans, drift-corrected timing, checks.

Every query is an argv list fed to `topkat.cli.main` in-process, so the
timed path is the full CLI path minus interpreter start.  One client runs
the queries in a closed loop: each query starts when the previous one has
returned.

Machine speed drifts on shared hosts (CPU time tracks wall time, so
`process_time` does not help).  A fixed pure-Python reference kernel is
timed between queries, and every query time is scaled by
(NOMINAL_KERNEL_S / k) ** SPEED_ELASTICITY, where k is the mean of the
kernel samples just before and just after it.  Corrected times are
seconds at the nominal machine speed.

The speed switches between fast and slow phases, and a query's slowdown
is linear in the share of its time spent in each, so the correction
averages kernel samples: a median of them tracks the phases worse.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS_DIR = BENCH_DIR / "corpus"
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("desk-mix", "wide-guards", "relsearch")

# The reference kernel's duration in a fast phase of the machine the
# constants were set on; corrected times are expressed at this speed.
NOMINAL_KERNEL_S = 0.0010
KERNEL_LOOPS = 3_300
# Query time scales with kernel time to about this power across the
# machine's phases: run-level regressions of log raw query time on log
# kernel time gave slopes of 0.84 (desk-mix), 0.87 (wide-guards), 0.85
# and 0.97 (relsearch).  Correcting in full proportion over-corrects.
SPEED_ELASTICITY = 0.9
# Time the kernel whenever this much wall time has passed since the last
# sample, so that samples bracket the queries they correct closely (the
# machine's fast and slow phases last from tens of milliseconds up).
KERNEL_EVERY_S = 0.02

# p90 needs at least ten samples beyond it.
MIN_QUERIES = 100


def correction(kernel_s: float) -> float:
    """Factor taking a time measured at kernel time `kernel_s` to nominal speed."""
    return (NOMINAL_KERNEL_S / kernel_s) ** SPEED_ELASTICITY


def ref_kernel(loops: int = KERNEL_LOOPS) -> float:
    """Seconds for a fixed dict/tuple churn loop that never touches topkat.

    `gc` is off while it runs, so a large live heap from the queries
    cannot bill its collections to the kernel.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(loops):
            key = (i & 63, i & 7)
            prev = table.get(key)
            table[key] = (i,) if prev is None else (prev[-1], i)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Corpus and seeded plans


@dataclass(frozen=True)
class Query:
    qid: str
    stratum: str
    argv: tuple[str, ...]
    code: int
    stdout: str


@dataclass
class Corpus:
    workload: str
    per_pass: dict[str, int]
    files: dict[str, str]
    queries: list[Query]
    strata: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, q in enumerate(self.queries):
            self.strata.setdefault(q.stratum, []).append(i)
        cycles = {len(self.strata.get(name, ())) / count
                  for name, count in self.per_pass.items()}
        if len(cycles) != 1 or not next(iter(cycles)).is_integer() or self.cycle < 1:
            raise ValueError(f"{self.workload}: every stratum must hold the same "
                             "whole number of passes' worth of queries")

    @property
    def cycle(self) -> int:
        """Passes after which every query has been drawn exactly once."""
        return len(self.queries) // sum(self.per_pass.values())


def corpus_path(workload: str) -> Path:
    return CORPUS_DIR / f"{workload}.json"


def load_corpus(workload: str, path: Path | None = None) -> Corpus:
    with open(path or corpus_path(workload), encoding="utf-8") as handle:
        data = json.load(handle)
    queries = [Query(q["id"], q["stratum"], tuple(q["argv"]), q["code"], q["stdout"])
               for q in data["queries"]]
    return Corpus(data["workload"], data["per_pass"], data.get("files", {}), queries)


def materialize_files(corpus: Corpus) -> None:
    """Write the triple files the corpus argv lists name, under WORK_DIR."""
    if corpus.files:
        WORK_DIR.mkdir(exist_ok=True)
    for name, text in corpus.files.items():
        path = WORK_DIR / name
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            path.write_text(text, encoding="utf-8")


class Plan:
    """The seeded order in which a run draws corpus queries.

    A pass takes `per_pass[s]` queries from each stratum s and shuffles
    them, so every pass has the same mix.  Each stratum is dealt from a
    shuffled deck that is refilled only when empty, so each cycle of
    `corpus.cycle` passes draws every query exactly once.  Runs made of
    whole cycles therefore differ between seeds in order only, never in
    how often each query runs.
    """

    def __init__(self, corpus: Corpus, seed: int) -> None:
        self.corpus = corpus
        self.rng = random.Random(f"{corpus.workload}:{seed}")
        self.decks: dict[str, list[int]] = {name: [] for name in corpus.per_pass}

    def next_pass(self) -> list[int]:
        chosen: list[int] = []
        for name in sorted(self.corpus.per_pass):
            deck, pool = self.decks[name], self.corpus.strata[name]
            for _ in range(self.corpus.per_pass[name]):
                if not deck:
                    deck.extend(self.rng.sample(pool, len(pool)))
                chosen.append(deck.pop())
        self.rng.shuffle(chosen)
        return chosen


# ---------------------------------------------------------------------------
# Running queries


def run_query(cli, argv) -> tuple[float, int | None, str]:
    """Raw seconds, exit code (None if main raised) and captured stdout.

    `cli.main` is looked up per call, so an installed tracer is seen.
    """
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception:  # a crash is a failed query, not a benchmark abort
            code = None
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


class DriftClock:
    """Kernel samples taken between queries, and the correction they give.

    `window` counts the kernel samples taken so far; a query run after
    sample w belongs to window w and is corrected by samples w and w + 1,
    the ones that bracket it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = 0.0
        self.sample()

    @property
    def window(self) -> int:
        return len(self.samples) - 1

    def sample(self) -> None:
        self.samples.append(ref_kernel())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= KERNEL_EVERY_S:
            self.sample()

    def factor(self, window: int) -> float:
        return correction(statistics.fmean(self.samples[window:window + 2]))


@dataclass
class Timed:
    """One query's outcome; `window` ties it to its kernel samples."""

    index: int
    raw_s: float
    window: int
    ok: bool


def run_queries(cli, corpus: Corpus, order: list[int], clock: DriftClock,
                stop=None) -> list[Timed]:
    """Run the queries in order, sampling the kernel between them, until
    `stop(records so far)` is true or the order is exhausted."""
    out: list[Timed] = []
    for index in order:
        query = corpus.queries[index]
        window = clock.window
        raw, code, stdout = run_query(cli, query.argv)
        out.append(Timed(index, raw, window, code == query.code and stdout == query.stdout))
        clock.maybe_sample()
        if stop is not None and stop(out):
            break
    return out


def corrected(records: list[Timed], clock: DriftClock) -> list[float]:
    """Per-query corrected seconds.  Call after the closing kernel sample."""
    return [r.raw_s * clock.factor(r.window) for r in records]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
