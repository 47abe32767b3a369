"""The benchmark subsystem: registry, bench runs, persistence, CLI, docs."""

import copy
import doctest
import json
import pathlib

import pytest

from repro.dynamics import DynamicsSpec, EdgeChurn
from repro.errors import ConfigurationError
from repro.experiments import (
    DEFAULT_REGISTRY,
    SCHEMA_VERSION,
    Scenario,
    ScenarioRegistry,
    bench_filename,
    get_scenario,
    iter_scenarios,
    load_bench,
    run_benchmark,
    validate_bench,
    write_bench,
)
from repro.experiments.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

TINY = Scenario(
    name="tiny-broadcast",
    description="test-only broadcast on a small star",
    family="star",
    topology_args={"num_leaves": 7},
    algorithm="broadcast",
    trials=3,
    seed=5,
)


# ----------------------------------------------------------------------
# scenarios and registry
# ----------------------------------------------------------------------
def test_default_registry_is_populated_and_buildable():
    assert len(DEFAULT_REGISTRY) >= 15
    smoke = iter_scenarios(tag="smoke")
    assert smoke, "registry must carry smoke-tagged scenarios for CI"
    for scenario in smoke:
        graph = scenario.build_graph()
        assert graph.is_connected()
        assert graph.num_nodes <= 128, "smoke scenarios must stay small"
    # Every registered scenario must at least name a known family and
    # algorithm (enforced at construction, so iteration suffices).
    names = [scenario.name for scenario in DEFAULT_REGISTRY]
    assert len(names) == len(set(names))
    assert "broadcast-grid-n256" in DEFAULT_REGISTRY


def test_scenario_validation():
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="", family="nope",
                 topology_args={}, algorithm="broadcast")
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="", family="path",
                 topology_args={}, algorithm="teleport")
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="", family="path",
                 topology_args={}, algorithm="broadcast",
                 collision_model="psychic")
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="", family="path",
                 topology_args={}, algorithm="broadcast", trials=0)
    # Random families must pin the topology seed, or the persisted
    # scenario block could not rebuild the same graph.
    with pytest.raises(ConfigurationError, match="seed"):
        Scenario(name="x", description="", family="gnp",
                 topology_args={"num_nodes": 16, "edge_probability": 0.2},
                 algorithm="broadcast")
    # The strategy must be a registered Compete strategy name.
    with pytest.raises(ConfigurationError, match="strategy"):
        Scenario(name="x", description="", family="path",
                 topology_args={"num_nodes": 8}, algorithm="broadcast",
                 strategy="quantum")


def test_strategy_round_trips_and_comparison_pairs_exist():
    clustered = Scenario(
        name="x-clustered", description="", family="path",
        topology_args={"num_nodes": 8}, algorithm="broadcast",
        strategy="clustered",
    )
    rebuilt = Scenario.from_dict(clustered.to_dict())
    assert rebuilt.strategy == "clustered"
    # Inline scenario dicts may omit the strategy; it defaults to the
    # skeleton.
    inline = clustered.to_dict()
    del inline["strategy"]
    assert Scenario.from_dict(inline).strategy == "skeleton"
    # The built-in sweep carries skeleton-vs-clustered twins.
    for name in ("broadcast-path-n256", "broadcast-grid-n256",
                 "broadcast-gnp-n256"):
        assert get_scenario(name).strategy == "skeleton"
        assert get_scenario(f"{name}-clustered").strategy == "clustered"
    smoke_clustered = [
        s for s in iter_scenarios(tag="smoke") if s.strategy == "clustered"
    ]
    assert smoke_clustered, "CI smoke sweep must cover the clustered strategy"
    # The registered-but-previously-unswept random families are swept.
    swept_families = {s.family for s in DEFAULT_REGISTRY}
    assert {"geometric", "clustered"} <= swept_families


def test_scenario_round_trips_through_dict():
    rebuilt = Scenario.from_dict(TINY.to_dict())
    assert rebuilt == TINY
    assert json.loads(json.dumps(TINY.to_dict())) == TINY.to_dict()


def test_recorded_engine_key_is_refused():
    # The engine selector is gone: a scenario block naming one, even the
    # "auto" that repro-bench/1 artifacts recorded, is an unknown key.
    assert "engine" not in TINY.to_dict()
    with pytest.raises(ConfigurationError, match="unknown") as error:
        Scenario.from_dict({**TINY.to_dict(), "engine": "auto"})
    message = str(error.value)
    assert "'engine'" in message and "\n" not in message


def test_from_dict_rejects_unknown_keys():
    # A misspelt key must not silently run the default it meant to
    # override.
    with pytest.raises(ConfigurationError, match="stratgy") as error:
        Scenario.from_dict({**TINY.to_dict(), "stratgy": "clustered"})
    assert "\n" not in str(error.value)


def test_rng_field_round_trips_and_validates():
    decoupled = Scenario(
        name="x-decoupled", description="", family="path",
        topology_args={"num_nodes": 8}, algorithm="broadcast",
        rng="decoupled",
    )
    assert Scenario.from_dict(decoupled.to_dict()).rng == "decoupled"
    assert decoupled.execution_config().rng == "decoupled"
    # The per-call override wins without mutating the scenario.
    assert decoupled.execution_config(rng="replay").rng == "replay"
    # Inline scenario dicts may omit the rng; it defaults to replay.
    inline = decoupled.to_dict()
    del inline["rng"]
    assert Scenario.from_dict(inline).rng == "replay"
    with pytest.raises(ConfigurationError, match="rng"):
        Scenario(name="x", description="", family="path",
                 topology_args={"num_nodes": 8}, algorithm="broadcast",
                 rng="quantum")


def test_dynamics_field_round_trips_and_validates():
    churn = Scenario(
        name="x-churn", description="", family="path",
        topology_args={"num_nodes": 8}, algorithm="broadcast",
        dynamics={"fault_seed": 7,
                  "models": [{"kind": "edge-churn",
                              "p_down": 0.1, "p_up": 0.4}]},
    )
    # The mapping form coerces to a DynamicsSpec and threads into the
    # execution config, so the engines see the fault axis.
    assert churn.dynamics == DynamicsSpec(
        fault_seed=7, models=(EdgeChurn(p_down=0.1, p_up=0.4),)
    )
    assert churn.execution_config().dynamics == churn.dynamics
    rebuilt = Scenario.from_dict(churn.to_dict())
    assert rebuilt.dynamics == churn.dynamics
    # Static scenarios serialise without the key (pre-PR-10 artifacts
    # and their identities stay byte-identical).
    assert "dynamics" not in TINY.to_dict()
    assert Scenario.from_dict(TINY.to_dict()).dynamics is None
    with pytest.raises(ConfigurationError):
        Scenario(name="x", description="", family="path",
                 topology_args={"num_nodes": 8}, algorithm="broadcast",
                 dynamics={"fault_seed": 7, "models": []})


def test_dynamics_scenarios_are_registered():
    # The robustness sweep: static/churn twins at two grid sizes, a
    # sparse-engine crash scenario, and a jammed election -- with one
    # fast churn row tagged smoke so CI's smoke-benchmark and perf-gate
    # steps exercise the fault path on every push.
    for name in ("broadcast-grid-n64-churn", "broadcast-grid-n256-churn",
                 "broadcast-gnp-n1024-crash", "election-grid-n256-jam"):
        scenario = get_scenario(name)
        assert scenario.dynamics is not None
        assert "dynamics" in scenario.tags
    smoke_dynamics = [
        s for s in iter_scenarios(tag="smoke") if s.dynamics is not None
    ]
    assert smoke_dynamics, "CI smoke sweep must cover fault injection"
    # Each churn scenario shares every axis but dynamics with its static
    # twin, so the pair isolates the degradation caused by churn.
    for faulty, static in (("broadcast-grid-n64-churn", "broadcast-grid-n64"),
                           ("broadcast-grid-n256-churn",
                            "broadcast-grid-n256")):
        twin = get_scenario(faulty)
        base = get_scenario(static)
        assert twin.topology_args == base.topology_args
        assert twin.seed == base.seed
        assert twin.algorithm == base.algorithm


def test_decoupled_regime_scenarios_are_registered():
    # The n ~ 10^5 sweep the decoupled rng opens, plus the n=16384
    # replay/decoupled twin used to pin the speedup headline.
    for name in ("broadcast-grid-n16384-decoupled",
                 "broadcast-grid-n1e5", "broadcast-gnp-n1e5"):
        scenario = get_scenario(name)
        assert scenario.rng == "decoupled"
        assert "decoupled" in scenario.tags
        assert "smoke" not in scenario.tags
    twin = get_scenario("broadcast-grid-n16384-decoupled")
    replay_twin = get_scenario("broadcast-grid-n16384")
    assert twin.topology_args == replay_twin.topology_args
    assert twin.trials == replay_twin.trials
    assert twin.seed == replay_twin.seed


def test_sparse_regime_scenarios_are_registered():
    # The n >= 4096 sweep the CSR kernel opens: path/grid/tree/gnp at
    # both scales, never tagged smoke (CI runs them via the dedicated
    # sparse step).
    names = [
        "broadcast-path-n4096", "broadcast-grid-n4096",
        "broadcast-tree-n4095", "broadcast-gnp-n4096",
        "broadcast-path-n16384", "broadcast-grid-n16384",
        "broadcast-tree-n16383", "broadcast-gnp-n16384",
    ]
    for name in names:
        scenario = get_scenario(name)
        assert "sparse" in scenario.tags
        assert "smoke" not in scenario.tags
        assert ("xlarge" in scenario.tags) == ("n16384" in name
                                               or "n16383" in name)


def test_registry_rejects_duplicates_and_reports_unknown():
    registry = ScenarioRegistry()
    registry.register(TINY)
    with pytest.raises(ConfigurationError):
        registry.register(TINY)
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        registry.get("missing")
    assert registry.select(match="tiny") == [TINY]
    assert registry.select(tag="absent") == []


# ----------------------------------------------------------------------
# bench runs and persistence
# ----------------------------------------------------------------------
def test_run_benchmark_emits_schema_valid_payload(tmp_path):
    payload = run_benchmark(TINY, reference_trials=2)
    validate_bench(payload)  # must not raise
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["trials"] == {
        "vectorized": 3, "per_batch": 3, "seed_batches": 1,
        "reference": 2, "base_seed": 5,
    }
    assert payload["scenario"]["strategy"] == "skeleton"
    # Every graph runs the one CSR kernel, so nothing records a kernel.
    assert "engine" not in payload and "engine" not in payload["scenario"]
    assert payload["topology"]["num_nodes"] == 8
    assert payload["agreement"]["round_exact"] is True
    assert payload["timing"]["speedup"] is not None
    path = write_bench(payload, tmp_path)
    assert path.name == "BENCH_tiny-broadcast.json"
    assert load_bench(path) == json.loads(path.read_text())


def test_run_benchmark_leader_election(tmp_path):
    scenario = Scenario(
        name="tiny-election",
        description="test-only election",
        family="complete",
        topology_args={"num_nodes": 8},
        algorithm="leader-election",
        spontaneous=False,
        trials=2,
        seed=3,
    )
    payload = run_benchmark(scenario, reference_trials=1)
    validate_bench(payload)
    assert "attempts" in payload["results"]
    write_bench(payload, tmp_path)


def test_run_benchmark_dynamics_payload(tmp_path):
    churn = Scenario(
        name="tiny-churn",
        description="test-only broadcast under edge churn",
        family="star",
        topology_args={"num_leaves": 7},
        algorithm="broadcast",
        trials=3,
        seed=5,
        dynamics=DynamicsSpec(
            fault_seed=7, models=(EdgeChurn(p_down=0.1, p_up=0.4),)
        ),
    )
    payload = run_benchmark(churn, reference_trials=1)
    validate_bench(payload)
    # The fault environment is persisted twice -- scenario block and
    # top-level mirror -- and the two must agree.
    assert payload["dynamics"] == churn.dynamics.describe()
    assert payload["scenario"]["dynamics"] == payload["dynamics"]
    # Faults are trial-independent environment randomness, so the
    # reference runner still agrees round-exact with the engine.
    assert payload["agreement"]["round_exact"] is True
    for key in ("delivery_rate", "suppressed_links", "crashed_nodes",
                "jammed_listens"):
        assert key in payload["results"]
        assert len(payload["results"]["per_trial"][key]) == 3
    assert payload["results"]["suppressed_links"]["mean"] > 0
    assert payload["results"]["crashed_nodes"]["max"] == 0  # churn only
    path = write_bench(payload, tmp_path)
    assert load_bench(path) == json.loads(path.read_text())

    # Corruptions the validator must reject.
    broken = copy.deepcopy(payload)
    broken["dynamics"]["fault_seed"] = 9
    with pytest.raises(ConfigurationError, match="dynamics"):
        validate_bench(broken)
    broken = copy.deepcopy(payload)
    del broken["dynamics"]
    with pytest.raises(ConfigurationError, match="dynamics"):
        validate_bench(broken)
    broken = copy.deepcopy(payload)
    broken["scenario"]["dynamics"]["models"][0]["kind"] = "meteor-strike"
    with pytest.raises(ConfigurationError, match="kind"):
        validate_bench(broken)
    broken = copy.deepcopy(payload)
    del broken["results"]["delivery_rate"]
    with pytest.raises(ConfigurationError, match="delivery_rate"):
        validate_bench(broken)


def test_vectorized_backend_is_faster_at_scale():
    # The acceptance bar for the artifact is >= 5x at n >= 256; the test
    # asserts a conservative 2x so CI jitter cannot flake it.
    payload = run_benchmark(
        get_scenario("broadcast-grid-n256"), trials=4, reference_trials=1
    )
    validate_bench(payload)
    assert payload["topology"]["num_nodes"] >= 256
    assert payload["timing"]["speedup"] > 2.0


def test_run_benchmark_seed_batches():
    payload = run_benchmark(TINY, seed_batches=3, include_reference=False)
    validate_bench(payload)
    assert payload["trials"]["vectorized"] == 9  # 3 trials x 3 batches
    assert payload["trials"]["per_batch"] == 3
    assert payload["trials"]["seed_batches"] == 3
    # The batches are consecutive seeds: the first batch alone must
    # reproduce the single-batch run exactly.
    single = run_benchmark(TINY, include_reference=False)
    assert single["results"]["rounds"]["min"] >= payload["results"]["rounds"]["min"]
    assert single["results"]["rounds"]["max"] <= payload["results"]["rounds"]["max"]
    with pytest.raises(ConfigurationError, match="seed_batches"):
        run_benchmark(TINY, seed_batches=0)


def test_run_benchmark_clustered_strategy_agrees_with_reference():
    scenario = Scenario(
        name="tiny-clustered",
        description="clustered strategy on a small grid",
        family="grid",
        topology_args={"rows": 4, "cols": 4},
        algorithm="broadcast",
        strategy="clustered",
        trials=3,
        seed=11,
    )
    # The reference pass re-verifies round-exact agreement on clustered
    # runs; a disagreement would raise SimulationError here.
    payload = run_benchmark(scenario, reference_trials=2)
    validate_bench(payload)
    assert payload["scenario"]["strategy"] == "clustered"
    assert payload["agreement"]["round_exact"] is True
    assert payload["results"]["success_rate"] == 1.0


def test_run_benchmark_without_reference():
    payload = run_benchmark(TINY, include_reference=False)
    validate_bench(payload)
    assert payload["trials"]["reference"] == 0
    assert payload["timing"]["speedup"] is None
    assert payload["agreement"] == {"checked_trials": 0, "round_exact": False}


def test_validate_bench_rejects_corrupted_payloads():
    payload = run_benchmark(TINY, include_reference=False)

    def corrupt(mutate):
        broken = copy.deepcopy(payload)
        mutate(broken)
        with pytest.raises(ConfigurationError, match="bench payload invalid"):
            validate_bench(broken)

    corrupt(lambda p: p.pop("schema"))
    corrupt(lambda p: p.update(schema="repro-bench/0"))
    corrupt(lambda p: p["topology"].update(num_nodes=0))
    corrupt(lambda p: p["results"].update(success_rate=1.5))
    corrupt(lambda p: p["results"]["rounds"].pop("mean"))
    corrupt(lambda p: p["results"]["rounds"].update(mean=-10_000))
    corrupt(lambda p: p["timing"].update(speedup=3.0))  # no reference trials
    corrupt(lambda p: p["agreement"].update(checked_trials=99))
    corrupt(lambda p: p["agreement"].update(round_exact=True))  # unchecked
    corrupt(lambda p: p["environment"].pop("numpy"))
    corrupt(lambda p: p["scenario"].update(strategy=7))  # not a string
    corrupt(lambda p: p["trials"].pop("seed_batches"))
    corrupt(lambda p: p["trials"].update(seed_batches=2))  # 2*3 != 3
    corrupt(lambda p: p["trials"].update(base_seed=-1))
    # The per-trial series block must stay derivable: every series one
    # entry per trial, summary stats recomputable from the raw values.
    corrupt(lambda p: p["results"]["per_trial"]["success"].pop())
    corrupt(lambda p: p["results"]["per_trial"]["success"].__setitem__(0, 1))
    corrupt(lambda p: p["results"]["per_trial"]["rounds"].pop())
    corrupt(lambda p: p["results"]["per_trial"].pop("rounds"))
    corrupt(lambda p: p["results"]["per_trial"]["rounds"].__setitem__(0, "3"))
    corrupt(lambda p: p["results"]["rounds"].update(
        mean=p["results"]["rounds"]["mean"] + 1))
    corrupt(lambda p: p["results"].update(
        success_rate=1.0 - p["results"]["success_rate"]))


def _drop(*paths):
    def mutate(payload):
        for path in paths:
            *parents, key = path.split(".")
            block = payload
            for parent in parents:
                block = block[parent]
            del block[key]
    return mutate


@pytest.mark.parametrize("mutate, path", [
    (_drop("scenario.strategy"), "scenario.strategy"),
    (_drop("scenario.rng"), "scenario.rng"),
    (_drop("rng"), "rng"),
    (_drop("workers"), "workers"),
    (_drop("trials.per_batch", "trials.seed_batches"), "trials.per_batch"),
    (_drop("results.per_trial"), "results.per_trial"),
    (lambda p: p.update(schema="repro-bench/1"), "schema"),
], ids=["strategy", "scenario-rng", "rng", "workers", "batch-fields",
        "per-trial", "v1-schema"])
def test_validate_bench_requires_every_v2_key(mutate, path):
    # repro-bench/1 let artifacts written before these fields existed
    # omit them; repro-bench/2 requires every one.
    payload = run_benchmark(TINY, include_reference=False)
    mutate(payload)
    with pytest.raises(ConfigurationError) as error:
        validate_bench(payload)
    message = str(error.value)
    assert message.startswith(f"bench payload invalid at {path}:")
    assert "\n" not in message


def test_run_benchmark_rejects_bad_trial_overrides():
    with pytest.raises(ConfigurationError, match="trials must be >= 1"):
        run_benchmark(TINY, trials=0)
    with pytest.raises(ConfigurationError, match="reference_trials"):
        run_benchmark(TINY, reference_trials=-1)
    with pytest.raises(ConfigurationError, match="workers"):
        run_benchmark(TINY, workers=0)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        run_benchmark(TINY, seed=-1)


def test_run_benchmark_records_rng_and_workers():
    payload = run_benchmark(TINY, include_reference=False)
    validate_bench(payload)
    assert payload["rng"] == "replay"
    assert payload["workers"] == 1
    assert payload["scenario"]["rng"] == "replay"


def test_run_benchmark_workers_is_deterministic():
    # The sharded run must produce the identical payload body: results,
    # trial bookkeeping, everything except timing and the recorded
    # worker count.
    solo = run_benchmark(TINY, include_reference=False, workers=1)
    sharded = run_benchmark(TINY, include_reference=False, workers=2)
    validate_bench(sharded)
    assert sharded["workers"] == 2
    assert sharded["results"] == solo["results"]
    assert sharded["trials"] == solo["trials"]
    # More workers than trials: the extra processes are not spawned.
    overshard = run_benchmark(TINY, include_reference=False, workers=99)
    assert overshard["workers"] == TINY.trials
    assert overshard["results"] == solo["results"]


def test_run_benchmark_decoupled_rng():
    config = TINY.execution_config(rng="decoupled")
    payload = run_benchmark(TINY, config=config)
    validate_bench(payload)
    assert payload["rng"] == "decoupled"
    # The reference pass still ran (for the timing headline) but parity
    # was not checked: decoupled draws differ from replayed streams by
    # design, so the artifact must not claim round-exact agreement.
    assert payload["trials"]["reference"] > 0
    assert payload["timing"]["speedup"] is not None
    assert payload["agreement"] == {"checked_trials": 0, "round_exact": False}
    # Decoupled results are seed-stable: same config, same numbers.
    again = run_benchmark(TINY, config=config, include_reference=False)
    assert again["results"] == payload["results"]
    # ...and differ from replay's (different draw policy).
    replay = run_benchmark(TINY, include_reference=False)
    assert replay["results"] != payload["results"]


def test_validate_bench_rejects_bad_rng_and_workers_fields():
    payload = run_benchmark(TINY, include_reference=False)

    def corrupt(mutate):
        broken = copy.deepcopy(payload)
        mutate(broken)
        with pytest.raises(ConfigurationError, match="bench payload invalid"):
            validate_bench(broken)

    corrupt(lambda p: p.update(rng="quantum"))
    corrupt(lambda p: p.update(workers=0))
    corrupt(lambda p: p["scenario"].update(rng="quantum"))

    # A decoupled artifact claiming checked round-exact agreement lies.
    decoupled = run_benchmark(
        TINY, config=TINY.execution_config(rng="decoupled")
    )
    corrupted = copy.deepcopy(decoupled)
    corrupted["agreement"].update(checked_trials=1, round_exact=True)
    corrupted["trials"].update(reference=1)
    with pytest.raises(ConfigurationError, match="decoupled"):
        validate_bench(corrupted)


def test_bench_filename_sanitises():
    assert bench_filename("a b/c") == "BENCH_a-b-c.json"
    with pytest.raises(ConfigurationError):
        bench_filename("///")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "broadcast-grid-n256" in out
    assert "scenarios)" in out

    assert main(["list", "--tag", "smoke", "--json"]) == 0
    listed = json.loads(capsys.readouterr().out)
    assert listed and all("smoke" in item["tags"] for item in listed)

    # The plain-text listing honours --tag too: only the fault-injection
    # sweep, each row showing the tag, closed by the count line.
    assert main(["list", "--tag", "dynamics"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[-1] == "(4 scenarios)"
    rows = lines[:-1]
    assert {row.split()[0] for row in rows} == {
        "broadcast-grid-n64-churn", "broadcast-grid-n256-churn",
        "broadcast-gnp-n1024-crash", "election-grid-n256-jam",
    }
    assert all("dynamics" in row for row in rows)
    assert "broadcast-grid-n256 " not in out  # static twins filtered out


def test_cli_run_and_validate(tmp_path, capsys):
    out_dir = str(tmp_path / "bench")
    assert main([
        "run", "broadcast-star-n32",
        "--trials", "2", "--reference-trials", "1", "--out", out_dir,
    ]) == 0
    artifact = tmp_path / "bench" / "BENCH_broadcast-star-n32.json"
    assert artifact.exists()
    capsys.readouterr()
    assert main(["validate", str(artifact)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_seeds_flag(tmp_path, capsys):
    out_dir = str(tmp_path / "bench")
    assert main([
        "run", "broadcast-path-n32",
        "--trials", "2", "--seeds", "2", "--skip-reference", "--out", out_dir,
    ]) == 0
    artifact = tmp_path / "bench" / "BENCH_broadcast-path-n32.json"
    payload = json.loads(artifact.read_text())
    assert payload["trials"]["vectorized"] == 4
    assert payload["trials"]["seed_batches"] == 2


def test_cli_rng_and_workers_flags(tmp_path, capsys):
    out_dir = str(tmp_path / "bench")
    assert main([
        "run", "broadcast-grid-n64",
        "--trials", "2", "--rng", "decoupled", "--workers", "2",
        "--skip-reference", "--out", out_dir,
    ]) == 0
    payload = json.loads(
        (tmp_path / "bench" / "BENCH_broadcast-grid-n64.json").read_text()
    )
    assert payload["rng"] == "decoupled"
    assert payload["workers"] == 2
    assert payload["agreement"]["checked_trials"] == 0


def test_cli_sweep_with_limit(tmp_path, capsys):
    out_dir = str(tmp_path / "sweep")
    assert main([
        "sweep", "--tag", "smoke", "--limit", "2",
        "--trials", "2", "--skip-reference", "--out", out_dir,
    ]) == 0
    artifacts = list((tmp_path / "sweep").glob("BENCH_*.json"))
    assert len(artifacts) == 2
    for artifact in artifacts:
        validate_bench(json.loads(artifact.read_text()))


def test_cli_errors_return_nonzero(tmp_path, capsys):
    assert main(["run", "no-such-scenario", "--out", str(tmp_path)]) == 1
    assert "unknown scenario" in capsys.readouterr().err
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{}")
    assert main(["validate", str(bad)]) == 1
    capsys.readouterr()
    # A negative seed is refused where it enters, not deep in numpy.
    assert main([
        "run", "broadcast-star-n32", "--seed", "-1", "--out", str(tmp_path),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_report_against_missing_dir_is_one_line_error(tmp_path, capsys):
    # `report --against <missing>` must exit 1 with an `error:` line,
    # never a traceback (the audit contract for every CLI failure).
    assert main([
        "report", str(tmp_path / "candidate-missing"),
        "--against", str(tmp_path / "baseline-missing"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_cli_report_verdict_json_creates_parent_dirs(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    assert main([
        "run", "broadcast-path-n32",
        "--trials", "2", "--skip-reference", "--out", str(out_dir),
    ]) == 0
    capsys.readouterr()
    verdict = tmp_path / "deep" / "nested" / "verdict.json"
    # Self-comparison keeps the verdict deterministic; the point here is
    # that the nested --verdict-json parent directories get created.
    assert main([
        "report", str(out_dir), "--against", str(out_dir),
        "--verdict-json", str(verdict),
    ]) == 0
    assert verdict.exists()
    assert json.loads(verdict.read_text())["verdict"] == "ok"


# ----------------------------------------------------------------------
# prepared resolutions, batch merging, worker-pool failure handling
# ----------------------------------------------------------------------
def test_prepare_scenario_reuse_is_byte_identical():
    from repro.experiments import prepare_scenario

    prepared = prepare_scenario(TINY)
    fresh = run_benchmark(TINY, include_reference=False)
    reused = run_benchmark(TINY, include_reference=False, prepared=prepared)
    assert reused["results"] == fresh["results"]
    assert reused["trials"] == fresh["trials"]
    assert reused["scenario"] == fresh["scenario"]
    # And again: a prepared resolution is reusable, not consumed.
    assert run_benchmark(
        TINY, include_reference=False, prepared=prepared
    )["results"] == fresh["results"]


def test_prepare_scenario_rejects_mismatched_reuse():
    from repro.experiments import prepare_scenario

    other = Scenario(
        name="tiny-other", description="different topology",
        family="star", topology_args={"num_leaves": 9},
        algorithm="broadcast", trials=2, seed=5,
    )
    prepared = prepare_scenario(other)
    with pytest.raises(ConfigurationError, match="prepared resolution"):
        run_benchmark(TINY, prepared=prepared)


def test_prepare_scenario_reuse_follows_the_execution_identity():
    from repro.experiments import prepare_scenario

    # The backend is outside the identity (both agree round for round),
    # so a resolution prepared under the reference backend serves the
    # vectorized run; a result-changing axis such as the strategy does
    # not match and is refused.
    config = TINY.execution_config()
    fresh = run_benchmark(TINY, include_reference=False)
    shared = prepare_scenario(TINY, config.replace(backend="reference"))
    reused = run_benchmark(TINY, include_reference=False, prepared=shared)
    assert reused["results"] == fresh["results"]
    clustered = prepare_scenario(TINY, config.replace(strategy="clustered"))
    with pytest.raises(ConfigurationError, match="prepared resolution"):
        run_benchmark(TINY, prepared=clustered)


def test_merge_benchmark_batches_matches_one_shot():
    from repro.experiments import merge_benchmark_batches

    one_shot = run_benchmark(TINY, trials=4, include_reference=False)
    batches = [
        run_benchmark(
            TINY, trials=2, seed=TINY.seed + offset, include_reference=False
        )
        for offset in (0, 2)
    ]
    merged = merge_benchmark_batches(batches)
    validate_bench(merged)
    assert merged["results"] == one_shot["results"]
    assert merged["trials"]["vectorized"] == 4
    assert merged["trials"]["seed_batches"] == 2
    assert merged["trials"]["per_batch"] == 2


def test_merge_benchmark_batches_rejects_bad_input():
    from repro.experiments import merge_benchmark_batches

    with pytest.raises(ConfigurationError):
        merge_benchmark_batches([])
    a = run_benchmark(TINY, trials=2, include_reference=False)
    gap = run_benchmark(
        TINY, trials=2, seed=TINY.seed + 99, include_reference=False
    )
    with pytest.raises(ConfigurationError, match="contiguous"):
        merge_benchmark_batches([a, gap])


def _crashing_worker(scenario, parameters, chunk, config):
    import os

    os._exit(13)  # simulate an OOM-killed / segfaulted worker


def _interrupted_worker(scenario, parameters, chunk, config):
    raise KeyboardInterrupt


def test_sharded_worker_crash_names_seed_range(monkeypatch):
    from repro.errors import SimulationError
    from repro.experiments import bench

    monkeypatch.setattr(bench, "_worker_run_trials", _crashing_worker)
    with pytest.raises(SimulationError) as excinfo:
        run_benchmark(TINY, include_reference=False, workers=2)
    message = str(excinfo.value)
    assert TINY.name in message
    assert "seeds" in message
    assert excinfo.value.__cause__ is not None  # chained BrokenProcessPool


def test_sharded_keyboard_interrupt_shuts_pool_down(monkeypatch):
    from repro.experiments import bench

    monkeypatch.setattr(bench, "_worker_run_trials", _interrupted_worker)
    with pytest.raises(KeyboardInterrupt):
        run_benchmark(TINY, include_reference=False, workers=2)


# ----------------------------------------------------------------------
# documentation
# ----------------------------------------------------------------------
def test_experiments_guide_doctests():
    guide = REPO_ROOT / "docs" / "EXPERIMENTS.md"
    assert guide.exists(), "docs/EXPERIMENTS.md missing"
    results = doctest.testfile(str(guide), module_relative=False, verbose=False)
    assert results.attempted > 0, "the guide must contain doctest examples"
    assert results.failed == 0


def test_scenarios_module_doctests():
    import doctest as doctest_module

    import repro.experiments.scenarios as scenarios_module
    import repro.topology as topology_module

    for module in (scenarios_module, topology_module):
        results = doctest_module.testmod(module, verbose=False)
        assert results.failed == 0, f"doctest failure in {module.__name__}"
