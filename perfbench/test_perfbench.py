"""Self-tests of the benchmark harness: `python3 -m pytest perfbench`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import tracing  # noqa: E402
from topkat import cli  # noqa: E402


def small_corpus(workload: str = "desk-mix", per_stratum: int = 2) -> bench.Corpus:
    """The first queries of each stratum, one of each drawn per pass."""
    full = bench.load_corpus(workload)
    picked = [full.queries[i] for idx in full.strata.values() for i in idx[:per_stratum]]
    corpus = bench.Corpus(workload, {s: 1 for s in full.strata}, full.files, picked)
    bench.materialize_files(corpus)
    return corpus


def argv_lists(corpus: bench.Corpus, seed: int, passes: int) -> list[tuple[str, ...]]:
    plan = bench.Plan(corpus, seed)
    return [corpus.queries[i].argv for _ in range(passes) for i in plan.next_pass()]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_one_seed_gives_identical_argv_lists(workload):
    corpus = bench.load_corpus(workload)
    assert argv_lists(corpus, 7, 3) == argv_lists(corpus, 7, 3)
    assert argv_lists(corpus, 7, 3) != argv_lists(corpus, 8, 3)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_pass_has_the_same_mix_and_a_cycle_draws_each_query_once(workload):
    corpus = bench.load_corpus(workload)
    plan = bench.Plan(corpus, 1)
    drawn = []
    for _ in range(corpus.cycle):
        one = plan.next_pass()
        mix = {s: sum(corpus.queries[i].stratum == s for i in one) for s in corpus.per_pass}
        assert mix == corpus.per_pass
        drawn += one
    assert sorted(drawn) == list(range(len(corpus.queries)))


def test_corpus_check_catches_a_corrupted_output():
    corpus = small_corpus()
    order = list(range(len(corpus.queries)))
    clean = bench.run_queries(cli, corpus, order, bench.DriftClock())
    assert all(r.ok for r in clean)

    bad = list(corpus.queries)
    bad[0] = dataclasses.replace(bad[0], stdout=bad[0].stdout.replace("\n", " \n", 1))
    bad[1] = dataclasses.replace(bad[1], code=1 - bad[1].code)
    corrupted = bench.Corpus(corpus.workload, corpus.per_pass, corpus.files, bad)
    records = bench.run_queries(cli, corrupted, order, bench.DriftClock())
    assert [r.ok for r in records] == [False, False] + [True] * (len(order) - 2)


def test_a_crash_counts_as_a_failed_query():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    _, code, _ = bench.run_query(Crashing, ["decide", "p", "p"])
    assert code is None


def _bindings():
    mods = tracing._modules()
    return {(name, attr): value for name, mod in mods.items()
            for attr, value in vars(mod).items()}


def test_tracer_restores_every_attribute_it_replaced():
    before = _bindings()
    from topkat import decide, reduction
    with tracing.Tracer():
        assert reduction.equivalent is not before[("reduction", "equivalent")]
        assert cli.topkat_equivalent.__wrapped__ is before[("cli", "topkat_equivalent")]
        assert decide.equivalent.__wrapped__ is reduction.equivalent.__wrapped__
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(KeyError):
        with tracing.Tracer():
            raise KeyError("x")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def _traced_counts(corpus):
    tracer = tracing.Tracer()
    with tracer:
        records = bench.run_queries(cli, corpus, list(range(len(corpus.queries))),
                                    bench.DriftClock())
    assert all(r.ok for r in records)
    metrics = tracing.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if k not in tracing.TIME_METRICS}


def test_traced_counts_repeat_exactly_and_self_time_adds_up():
    corpus = small_corpus()
    first = _traced_counts(corpus)
    assert first == _traced_counts(corpus)
    for name in ("syntax.parse_calls", "decide.equivalent_calls", "decide.atoms",
                 "decide.witness_actions", "domain.countermodel_states",
                 "relmodel.evaluate_calls", "logic.triples"):
        assert first[name] > 0, name

    tracer = tracing.Tracer()
    with tracer:
        bench.run_queries(cli, corpus, [0, 1, 2], bench.DriftClock())
    total = tracer.incl["cli.main"]
    layers = sum(tracer.self_s.values())
    # counting hooks run inside cli.main but outside every span
    assert 0.8 * total <= layers <= total


def test_run_fails_without_the_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_runs", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert set(tracing.TIME_METRICS) <= layer_names
    assert {"bench.ref_kernel_ms", "bench.trace_overhead"} <= layer_names
