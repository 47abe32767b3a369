"""The classical repeated-Decay broadcast baseline (a registry record).

Pins the baseline's semantics (no spontaneous transmissions, uniform
Decay schedule only), its backend equivalence, its batches, and its
integration through the registry, scenarios, the benchmark runner and
the CLI.  The record is the only entry point: ``"decay-broadcast"`` in
:data:`repro.api.DEFAULT_ALGORITHMS`.
"""

import json

import pytest

from repro import topology
from repro.api import DEFAULT_ALGORITHMS, ExecutionConfig
from repro.core.broadcast import BroadcastResult, broadcast
from repro.errors import ConfigurationError
from repro.experiments import get_scenario, run_benchmark, validate_bench
from repro.experiments.cli import main
from repro.experiments.scenarios import Scenario


def run_decay(graph, **kwargs):
    """One seeded run of the ``"decay-broadcast"`` record."""
    return DEFAULT_ALGORITHMS.run("decay-broadcast", graph, **kwargs)


def run_decay_batch(graph, **kwargs):
    """A batch of seeded runs of the ``"decay-broadcast"`` record."""
    return DEFAULT_ALGORITHMS.run_batch("decay-broadcast", graph, **kwargs)


def assert_same_result(a: BroadcastResult, b: BroadcastResult, context=""):
    assert a.success == b.success, context
    assert a.source == b.source, context
    assert a.message == b.message, context
    assert a.rounds == b.rounds, context
    assert a.num_informed == b.num_informed, context
    assert dict(a.reception_rounds) == dict(b.reception_rounds), context
    assert a.metrics.as_dict() == b.metrics.as_dict(), context


@pytest.mark.parametrize("factory", [
    lambda: topology.path_graph(16),
    lambda: topology.star_graph(12),
    lambda: topology.grid_graph(5, 5),
], ids=["path", "star", "grid"])
def test_decay_broadcast_succeeds(factory):
    graph = factory()
    result = run_decay(graph, source=graph.nodes()[0], seed=7)
    assert result.success
    assert result.num_informed == graph.num_nodes
    assert result.reception_rounds[graph.nodes()[0]] == -1
    assert 0 < result.rounds <= result.parameters.total_rounds
    others = [r for node, r in result.reception_rounds.items()
              if node != graph.nodes()[0]]
    assert all(r is not None and 0 <= r < result.rounds for r in others)


def test_decay_broadcast_rejects_unsupported_modes():
    graph = topology.path_graph(8)
    with pytest.raises(ConfigurationError, match="spontaneous"):
        run_decay(graph, source=0, spontaneous=True)
    with pytest.raises(ConfigurationError, match="spontaneous"):
        run_decay_batch(graph, source=0, seeds=[0], spontaneous=True)
    with pytest.raises(ConfigurationError, match="skeleton"):
        run_decay(
            graph, source=0, config=ExecutionConfig(strategy="clustered")
        )
    with pytest.raises(ConfigurationError, match="source"):
        run_decay(graph, source=99)


def test_decay_broadcast_backend_equivalence():
    # Reference vs vectorized, field by field: the baseline inherits the
    # package's round-exact guarantee.
    graph = topology.grid_graph(4, 5)
    for seed in (0, 3):
        reference = run_decay(graph, source=0, seed=seed)
        fast = run_decay(
            graph, source=0, seed=seed,
            config=ExecutionConfig(backend="vectorized"),
        )
        assert_same_result(reference, fast, f"seed={seed}")


def test_decay_broadcast_collision_detection_model():
    graph = topology.star_graph(10)
    config = ExecutionConfig(collision_model="with-detection")
    reference = run_decay(graph, source=0, seed=2, config=config)
    fast = run_decay(
        graph, source=0, seed=2,
        config=config.replace(backend="vectorized"),
    )
    assert reference.success
    assert_same_result(reference, fast)


def test_decay_broadcast_batch_matches_singles():
    graph = topology.path_graph(12)
    seeds = [0, 1, 2]
    batch = run_decay_batch(
        graph, source=0, seeds=seeds,
        config=ExecutionConfig(backend="vectorized"),
    )
    assert len(batch) == len(seeds)
    for seed, batched in zip(seeds, batch):
        assert_same_result(
            run_decay(graph, source=0, seed=seed), batched,
            f"seed={seed}",
        )
    assert run_decay_batch(graph, source=0, seeds=[]) == []


def test_registry_dispatch_defaults_to_classical_mode():
    graph = topology.path_graph(10)
    via_registry = DEFAULT_ALGORITHMS.run("decay-broadcast", graph, seed=4)
    direct = broadcast(
        graph, source=graph.nodes()[0], seed=4, spontaneous=False
    )
    assert_same_result(via_registry, direct)


def test_scenarios_and_capability_enforcement():
    scenario = get_scenario("decay-broadcast-path-n32")
    assert scenario.algorithm == "decay-broadcast"
    assert scenario.spontaneous is False
    assert "smoke" in scenario.tags and "baseline" in scenario.tags
    assert get_scenario("decay-broadcast-grid-n256").spontaneous is False
    # A decay-broadcast scenario cannot claim spontaneous transmissions:
    # the registry's capability check rejects it at construction.
    with pytest.raises(ConfigurationError, match="spontaneous"):
        Scenario(
            name="x", description="", family="path",
            topology_args={"num_nodes": 8}, algorithm="decay-broadcast",
            spontaneous=True,
        )


def test_run_benchmark_checks_agreement_for_the_baseline(tmp_path):
    scenario = Scenario(
        name="tiny-decay", description="test-only classical baseline",
        family="star", topology_args={"num_leaves": 7},
        algorithm="decay-broadcast", spontaneous=False, trials=3, seed=5,
    )
    payload = run_benchmark(scenario, reference_trials=2)
    validate_bench(payload)
    assert payload["scenario"]["algorithm"] == "decay-broadcast"
    assert payload["agreement"]["round_exact"] is True
    assert payload["results"]["success_rate"] == 1.0
    assert "attempts" not in payload["results"]


def test_cli_runs_the_baseline_and_lists_algorithms(tmp_path, capsys):
    out_dir = str(tmp_path / "bench")
    assert main([
        "run", "decay-broadcast-path-n32",
        "--trials", "2", "--reference-trials", "1", "--out", out_dir,
    ]) == 0
    artifact = tmp_path / "bench" / "BENCH_decay-broadcast-path-n32.json"
    assert artifact.exists()
    capsys.readouterr()

    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    assert "decay-broadcast" in out and "spontaneous=unsupported" in out
    assert "(3 algorithms)" in out

    assert main(["algorithms", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    by_name = {entry["name"]: entry for entry in listed}
    assert set(by_name) == {"broadcast", "leader-election", "decay-broadcast"}
    assert by_name["decay-broadcast"]["supports_spontaneous"] is False
