#!/usr/bin/env python3
"""Check that the benchmark is steady enough for the bounds it declares.

    python3 perfbench/steady.py --sets 2 --seeds 10 [--workload NAME ...]

Runs every workload once per seed, in fresh processes, and repeats the
whole set `--sets` times.  For each end-to-end metric it prints the
median, quartiles, min and max of each set, the quartile spread as a
share of the median, and how far the later sets' medians moved from the
first set's, against the metric's bound in BENCHMARK.json.

Bounds must be set from the movement between separate sets, not only
from the spread within one set: the benchmark's first version had a
tight spread inside each set while whole sets drifted apart.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or names
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    # results[set][workload][metric] -> values
    results: list[dict] = []
    for set_no in range(args.sets):
        per_set: dict = {w: {} for w in workloads}
        for offset in range(args.seeds):
            seed = args.first_seed + set_no * args.seeds + offset
            for workload in workloads:
                started = time.perf_counter()
                out = run_once(workload, seed, args.seconds, 0)
                if not out["correct"]:
                    print(f"INCORRECT: {workload} seed {seed}: {out['failed']} failed",
                          flush=True)
                for name, metric in out["metrics"].items():
                    per_set[workload].setdefault(name, []).append(metric["value"])
                print(f"set {set_no + 1} {workload} seed {seed} "
                      f"({time.perf_counter() - started:.0f} s)", file=sys.stderr, flush=True)
        results.append(per_set)

    worst_ok = True
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"{'metric':16} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'spread':>7} {'moved':>7} {'bound':>6}")
        for name, metric in bounds.items():
            first = None
            for set_no, per_set in enumerate(results):
                values = per_set[workload][name]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                moved = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first
                    if metric["better"] == "higher":
                        worse = -worse
                    moved = f"{worse:+.3f}"
                    worst_ok &= worse <= metric["bound"]
                if name != "setup_s":
                    worst_ok &= spread <= metric["bound"]
                print(f"{name:16} {set_no + 1:>3} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                      f"{min(values):10.5g} {max(values):10.5g} {spread:7.3f} "
                      f"{moved:>7} {metric['bound']:6.3f}")
    out_dir = BENCH_DIR / "_runs"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"steady-{int(time.time())}.json").write_text(json.dumps(results))
    print("\nwithin bounds" if worst_ok else "\nOUT OF BOUNDS")


if __name__ == "__main__":
    main()
