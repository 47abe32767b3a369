"""Tests of the benchmark's own arithmetic and bookkeeping.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import collections
import doctest
import json
import pathlib
import subprocess
import sys
import types

import pytest

from perfbench import cli, env, inprocess, layers, service, spans, stats

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock that returns the scripted instants in order."""

    def __init__(self, *instants: float) -> None:
        self._instants = iter(instants)

    def __call__(self) -> float:
        return next(self._instants)


@pytest.mark.parametrize("module", [stats, spans, env])
def test_doctests(module):
    assert doctest.testmod(module).failed == 0


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > prepare [1, 4] > summary [2, 3]; run [5, 9].
    tracer = spans.Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    op = tracer.open("op")
    prepare = tracer.open("experiments.prepare")
    summary = tracer.open("topology.summary")
    tracer.close(summary)
    tracer.close(prepare)
    run = tracer.open("experiments.run")
    tracer.close(run)
    tracer.close(op)
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", 0.0, 10.0, None, 0)
    children = [spans.Span("c", 1.0, 6.0, 0, 0), spans.Span("c", 4.0, 12.0, 0, 0)]
    assert spans.self_times([parent] + children)[0] == pytest.approx(1.0)


def test_spans_must_close_in_order():
    tracer = spans.Tracer()
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_median_and_percentiles_carry_sample_counts():
    values = list(range(1, 201))  # 1..200
    summary = stats.Summary.of(values)
    assert summary.samples == 200
    assert summary.median == 100.5
    # p95 leaves exactly 10 samples beyond it, p99 only 2.
    assert summary.tail_q == 95.0
    assert summary.tail == pytest.approx(190.05)
    small = stats.Summary.of([3.0, 1.0, 2.0])
    assert (small.samples, small.median, small.tail_q, small.tail) == (3, 2.0, None, None)
    with pytest.raises(ValueError):
        stats.median([])


def test_node_rounds_are_counted_from_the_engine_outcome():
    import numpy

    counts: collections.Counter = collections.Counter()
    outcome = types.SimpleNamespace(
        rounds=numpy.array([7, 9]), nodes=tuple(range(5))
    )
    layers._count_outcome(counts, (), {}, outcome)
    assert counts["simulation.rounds"] == 16
    assert counts["simulation.node_rounds"] == 80


def test_traced_operation_counts_agree_with_its_artifact(tmp_path):
    workload = inprocess.Workload(
        "tiny", (inprocess.Step("broadcast-grid-n64", reference_trials=1),)
    )
    tracer = spans.Tracer()
    patches = spans.Patches()
    assert layers.install(tracer, patches) == []
    try:
        expectations = inprocess.Expectations(ROOT / "benchmarks")
        operation = inprocess.run_operation(
            workload, 1, 2017, tmp_path, expectations, tracer=tracer
        )
    finally:
        patches.restore()
    assert operation.problems == []
    # Seed 2018 is trial 1 of the committed broadcast-grid-n64 artifact.
    assert expectations.committed_checks == 1
    committed = json.loads((ROOT / "benchmarks/BENCH_broadcast-grid-n64.json").read_text())
    rounds = committed["results"]["per_trial"]["rounds"][1]
    assert operation.node_rounds == 64 * rounds
    assert tracer.counts["simulation.node_rounds"] == 64 * rounds
    metrics = layers.layer_metrics(tracer, {1: (operation.seconds, 1.0)})
    assert metrics["simulation.rounds"] == rounds
    assert metrics["network.run_round_calls"] == rounds  # the reference pass
    assert metrics["api.resolve_calls"] >= 1
    assert 0.9 <= metrics["trace.coverage_ratio"] <= 1.0
    # Restored: the program's own functions are back in place.
    from repro.experiments import bench

    assert not hasattr(bench.summarize_topology, "__wrapped__")


def test_wrappers_reach_every_import_site_and_restore():
    from repro import topology
    from repro.experiments import bench
    from repro.topology import validation

    original = validation.summarize_topology
    tracer = spans.Tracer()
    patches = spans.Patches()
    assert spans.install_span(
        tracer, patches, "repro.topology.validation:summarize_topology", "t"
    )
    try:
        assert bench.summarize_topology is validation.summarize_topology
        assert bench.summarize_topology is not original
        if hasattr(topology, "summarize_topology"):
            assert topology.summarize_topology is bench.summarize_topology
        bench.summarize_topology(topology.path_graph(4))
        assert tracer.counts["t_calls"] == 1
    finally:
        patches.restore()
    assert bench.summarize_topology is original


def test_missing_targets_record_zero_instead_of_failing():
    tracer = spans.Tracer()
    patches = spans.Patches()
    assert not spans.install_span(
        tracer, patches, "repro.simulation.sparse:CSRAdjacency.gone", "x"
    )
    assert not spans.install_span(tracer, patches, "repro.no_such_module:f", "x")
    metrics = layers.layer_metrics(tracer, {1: (1.0, 1.0)})
    assert metrics["simulation.reception_s"] == 0.0
    assert metrics["simulation.reception_useful_ratio"] == 0.0


def test_request_plan_is_identical_across_processes():
    plan = service.build_plan(42, 20)
    script = (
        "import json, sys; sys.path[:0] = [sys.argv[1]]; "
        "from perfbench import service; "
        "print(json.dumps(service.build_plan(42, 20)))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(ROOT)],
        capture_output=True, text=True, check=True,
    )
    assert json.loads(completed.stdout) == json.loads(json.dumps(plan))
    assert service.build_plan(43, 20) != plan


def test_request_plan_mix_and_seed_windows():
    plan = service.build_plan(2017, 20)
    requests = plan["requests"]
    inline = [r for r in requests if isinstance(r["scenario"], dict)]
    assert len(inline) / len(requests) == pytest.approx(0.2)
    assert len({r["scenario"]["topology_args"]["seed"] for r in inline}) == len(inline)
    windows = {entry.name: entry for entry in service.PLAN_SCENARIOS}
    for request in requests:
        if isinstance(request["scenario"], str):
            entry = windows[request["scenario"]]
            assert 0 <= request["seed"] - 2017 < entry.seed_window
            # Every trial of the request lies inside the committed artifact.
            committed = json.loads(
                (ROOT / f"benchmarks/BENCH_{entry.name}.json").read_text()
            )
            last = request["seed"] + entry.trials * entry.seed_batches - 1
            assert last - 2017 < committed["trials"]["vectorized"]
    assert len(plan["setup"]) == len(service.PLAN_SCENARIOS) + 1
    # At least ten requests lie beyond p95.
    assert len(requests) * 0.05 >= 10


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == cli.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(cli.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_expectations_flag_a_wrong_row():
    expectations = inprocess.Expectations(ROOT / "benchmarks")
    payload = json.loads((ROOT / "benchmarks/BENCH_broadcast-grid-n64.json").read_text())
    per_trial = {key: values[:1] for key, values in payload["results"]["per_trial"].items()}
    good = {"scenario": payload["scenario"],
            "trials": {"vectorized": 1, "base_seed": 2017},
            "results": {"per_trial": per_trial}}
    assert expectations.check("broadcast-grid-n64", [2017], good) == []
    bad = json.loads(json.dumps(good))
    bad["results"]["per_trial"]["rounds"][0] += 1
    assert expectations.check("broadcast-grid-n64", [2017], bad)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-grid4096",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
