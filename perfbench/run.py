#!/usr/bin/env python3
"""Run one benchmark workload against the topkat sources of this checkout.

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes the separate traced run that gives per-layer metrics.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A record of the run, with raw seconds and every kernel
sample, goes to perfbench/_runs/.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import tracing  # noqa: E402

RUNS_DIR = bench.BENCH_DIR / "_runs"
SETUP_CHILDREN = 15
SETUP_KERNELS = 3
WARMUP_S = 1.0

# Timed inside a fresh interpreter: importing the CLI and building its
# parser, which every `topkat` process does before its first verdict.
# The kernel is timed in the same child just before and just after, for
# the drift correction.
SETUP_CHILD = """\
import gc, time
KERNEL_LOOPS = {loops}
{kernel}
_kernels = [ref_kernel() for _ in range({reps})]
_start = time.perf_counter()
import topkat.cli
topkat.cli.build_parser()
_elapsed = time.perf_counter() - _start
_kernels += [ref_kernel() for _ in range({reps})]
import json, statistics
print(json.dumps({{"raw_s": _elapsed, "kernel_s": statistics.fmean(_kernels)}}))
"""


def measure_setup() -> list[dict]:
    code = SETUP_CHILD.format(loops=bench.KERNEL_LOOPS, reps=SETUP_KERNELS,
                              kernel=inspect.getsource(bench.ref_kernel))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(bench.SRC),
                                                      env.get("PYTHONPATH")]))
    out = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run([sys.executable, "-c", code], cwd=bench.ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        child = json.loads(done.stdout.splitlines()[-1])
        child["corrected_s"] = child["raw_s"] * bench.correction(child["kernel_s"])
        out.append(child)
    return out


def warm_up(cli, corpus: bench.Corpus, clock: bench.DriftClock) -> None:
    """Untimed queries from a fixed plan, so lazy set-up inside the process
    (regex compilation, first-call caches) is not billed to the first
    timed queries."""
    start = time.perf_counter()
    bench.run_queries(cli, corpus, bench.Plan(corpus, -1).next_pass(), clock,
                      stop=lambda done: time.perf_counter() - start >= WARMUP_S)


def timed_run(cli, corpus: bench.Corpus, seed: int, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    clock = bench.DriftClock()
    warm_up(cli, corpus, clock)
    plan = bench.Plan(corpus, seed)
    records: list[bench.Timed] = []
    start = time.perf_counter()
    # Whole cycles only, so every run times the same multiset of queries.
    while time.perf_counter() - start < seconds or len(records) < bench.MIN_QUERIES:
        for _ in range(corpus.cycle):
            records += bench.run_queries(cli, corpus, plan.next_pass(), clock)
    clock.sample()
    times = bench.corrected(records, clock)
    ok = sum(r.ok for r in records)
    metrics = {
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
                           "ms"),
        "ok_share": (ok / len(records), "share"),
        "setup_s": (statistics.median(c["corrected_s"] for c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    record = {
        "samples": len(times),
        "setup_children": setup,
        "kernel_s": clock.samples,
        "queries": [{"id": corpus.queries[r.index].qid, "raw_s": r.raw_s,
                     "window": r.window, "corrected_s": t, "ok": r.ok}
                    for r, t in zip(records, times)],
    }
    return _result(ok == len(records), len(records), len(records) - ok, metrics), record


def traced_run(cli, corpus: bench.Corpus, seed: int, seconds: float) -> tuple[dict, dict]:
    """Rounds of one fixed pass, each run untraced and then traced.

    Every traced round must give the same counts as the first; any
    difference makes the run incorrect.
    """
    clock = bench.DriftClock()
    warm_up(cli, corpus, clock)
    order = bench.Plan(corpus, seed).next_pass()
    tracer = tracing.Tracer()
    rounds: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        first = len(clock.samples)
        clock.sample()
        plain = bench.run_queries(cli, corpus, order, clock)
        tracer.reset()
        with tracer:
            traced = bench.run_queries(cli, corpus, order, clock)
        clock.sample()
        factor = bench.correction(statistics.fmean(clock.samples[first:]))
        layers = tracing.layer_metrics(tracer)
        rounds.append({
            "factor": factor,
            "overhead": sum(r.raw_s for r in traced) / sum(r.raw_s for r in plain),
            "layers": layers,
        })
        attempted += len(plain) + len(traced)
        failed += sum(not r.ok for r in plain + traced)
    counts = {k: v for k, v in rounds[0]["layers"].items() if k not in tracing.TIME_METRICS}
    exact = all({k: r["layers"][k] for k in counts} == counts for r in rounds)
    if not exact:
        bench.log("error: traced rounds of one plan gave different counts")
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.TIME_METRICS:
        per_query = [r["layers"][name] * r["factor"] * 1e3 / len(order) for r in rounds]
        metrics[name] = (statistics.median(per_query), "ms/query")
    for name, value in counts.items():
        metrics[name] = (value, "count")
    metrics["bench.round_queries"] = (len(order), "count")
    metrics["bench.ref_kernel_ms"] = (statistics.median(clock.samples) * 1e3, "ms")
    metrics["bench.trace_overhead"] = (statistics.median(r["overhead"] for r in rounds),
                                       "ratio")
    record = {"rounds": rounds, "kernel_s": clock.samples, "exact_counts": exact}
    return _result(failed == 0 and exact, attempted, failed, metrics), record


def _result(correct: bool, attempted: int, failed: int,
            metrics: dict[str, tuple[float, str]]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (bench.SRC / "topkat" / "cli.py").is_file():
        bench.log(f"error: no topkat sources under {bench.SRC}")
        return 2
    sys.path.insert(0, str(bench.SRC))
    from topkat import cli

    corpus = bench.load_corpus(args.workload)
    bench.materialize_files(corpus)
    run = traced_run if args.trace else timed_run
    result, record = run(cli, corpus, args.seed, args.seconds)

    RUNS_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RUNS_DIR / name, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "result": result, **record}, handle)
    for key, metric in result["metrics"].items():
        bench.log(f"{args.workload:12} {key:32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
