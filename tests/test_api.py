"""The repro.api layer: ExecutionConfig, resolve_execution, the registry.

Covers (a) config validation, immutability and the execution identity,
(b) the single-source resolution path, and (c) the algorithm registry's
capability enforcement and plugin seam.
"""

import dataclasses

import pytest

from repro import topology
from repro.api import (
    DEFAULT_ALGORITHMS,
    Algorithm,
    AlgorithmRegistry,
    ExecutionConfig,
    resolve_execution,
)
from repro.core.broadcast import broadcast, broadcast_batch
from repro.core.compete import STRATEGIES, Compete
from repro.core.leader_election import elect_leader
from repro.core.parameters import CompeteParameters
from repro.dynamics import DynamicsSpec, EdgeChurn
from repro.errors import ConfigurationError
from repro.network.radio import CollisionModel
from repro.simulation.runner import ProtocolRunner


# ----------------------------------------------------------------------
# ExecutionConfig
# ----------------------------------------------------------------------
def test_config_defaults_and_describe():
    # Only axes that change a result, plus the backend, are settable.
    assert [field.name for field in dataclasses.fields(ExecutionConfig)] == [
        "backend", "strategy", "collision_model", "parameters", "margin",
        "rng", "dynamics",
    ]
    config = ExecutionConfig()
    assert config.backend == "reference"
    assert config.strategy == "skeleton"
    assert config.collision_model is CollisionModel.NO_DETECTION
    assert config.parameters is None
    assert config.rng == "replay"
    assert config.describe()["strategy"] == "skeleton"
    assert config.describe()["collision_model"] == "no-detection"


def test_config_validation_rejects_bad_axes():
    with pytest.raises(ConfigurationError, match="backend"):
        ExecutionConfig(backend="warp-drive")
    # The strategy is a key of STRATEGIES, never an object: whatever
    # the config records is what ran.
    for strategy in ("quantum", 1, None, ["skeleton"], STRATEGIES["skeleton"]):
        with pytest.raises(ConfigurationError) as raised:
            ExecutionConfig(strategy=strategy)
        assert str(raised.value).startswith("strategy must be one of")
        assert "\n" not in str(raised.value)
    with pytest.raises(ConfigurationError, match="collision_model"):
        ExecutionConfig(collision_model="psychic")
    with pytest.raises(ConfigurationError, match="margin"):
        ExecutionConfig(margin=0)
    with pytest.raises(ConfigurationError, match="rng"):
        ExecutionConfig(rng="quantum")
    # "decoupled" is a valid policy but only for the vectorized backend:
    # the reference runner is *defined* by its per-node stream replay.
    with pytest.raises(ConfigurationError, match="decoupled"):
        ExecutionConfig(rng="decoupled", backend="reference")
    assert ExecutionConfig(
        rng="decoupled", backend="vectorized"
    ).rng == "decoupled"
    with pytest.raises(ConfigurationError, match="parameters"):
        ExecutionConfig(parameters="not-parameters")


def test_config_normalises_collision_model_strings():
    config = ExecutionConfig(collision_model="with-detection")
    assert config.collision_model is CollisionModel.WITH_DETECTION
    # ...and the string spelling equals the enum spelling.
    assert config == ExecutionConfig(
        collision_model=CollisionModel.WITH_DETECTION
    )


def test_config_is_immutable_and_replace_derives():
    config = ExecutionConfig(backend="vectorized")
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.backend = "reference"
    derived = config.replace(strategy="clustered")
    assert (derived.backend, derived.strategy) == ("vectorized", "clustered")
    assert config.strategy == "skeleton"  # original untouched
    with pytest.raises(ConfigurationError):
        config.replace(strategy="gpu")  # replace re-validates


def test_identity_ignores_backend_and_tracks_every_result_axis():
    base = ExecutionConfig(backend="vectorized")
    # The backends agree round for round, so they share an identity.
    assert base.replace(backend="reference").identity() == base.identity()
    churn = DynamicsSpec(
        fault_seed=1, models=(EdgeChurn(p_down=0.1, p_up=0.5),)
    )
    changed = {
        "strategy": base.replace(strategy="clustered"),
        "collision_model": base.replace(collision_model="with-detection"),
        "margin": base.replace(margin=2 * base.margin),
        "rng": base.replace(rng="decoupled"),
        "dynamics": base.replace(dynamics=churn),
    }
    for axis, config in changed.items():
        assert config.identity() != base.identity(), axis
    identities = {config.identity() for config in changed.values()}
    assert len(identities) == len(changed)


# ----------------------------------------------------------------------
# resolve_execution: the one shared resolution path
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "entry", ["broadcast", "broadcast_batch", "elect_leader"]
)
@pytest.mark.parametrize(
    "config",
    [
        ExecutionConfig(),
        ExecutionConfig(backend="vectorized"),
        ExecutionConfig(backend="vectorized", rng="decoupled"),
    ],
    ids=["reference", "replay", "decoupled"],
)
def test_negative_seed_is_a_configuration_error_on_every_backend(
    config, entry
):
    # Not NumPy's ValueError, and not the counter hash's alias of
    # seed + 2**64: the same one-line error as run_benchmark's.
    graph = topology.path_graph(8)
    calls = {
        "broadcast": lambda: broadcast(graph, 0, seed=-1, config=config),
        "broadcast_batch": lambda: broadcast_batch(
            graph, 0, seeds=[3, -1], config=config
        ),
        "elect_leader": lambda: elect_leader(graph, seed=-1, config=config),
    }
    with pytest.raises(ConfigurationError) as raised:
        calls[entry]()
    assert str(raised.value) == "seed must be >= 0, got -1"


def test_resolve_execution_derives_everything():
    graph = topology.path_graph(16)
    resolved = resolve_execution(graph, ExecutionConfig(strategy="clustered"))
    assert resolved.parameters == CompeteParameters.from_graph(graph)
    assert resolved.collision_model is CollisionModel.NO_DETECTION
    schedule = resolved.schedule
    assert schedule is resolved.schedule  # built once, cached
    assert schedule.name == "clustered"
    assert set(schedule.nodes) == set(graph.nodes())


def test_resolve_execution_rejects_mismatched_parameters():
    graph = topology.path_graph(8)
    wrong = CompeteParameters.from_graph(topology.path_graph(9))
    with pytest.raises(ConfigurationError, match="n=9"):
        resolve_execution(graph, ExecutionConfig(parameters=wrong))


def test_resolve_execution_honours_explicit_parameters():
    graph = topology.path_graph(8)
    explicit = CompeteParameters(
        num_nodes=8, diameter=7, decay_steps=3, num_decay_rounds=5
    )
    assert resolve_execution(
        graph, ExecutionConfig(parameters=explicit)
    ).parameters == explicit


def test_budget_is_pinned_only_through_the_config():
    # ExecutionConfig(parameters=...) is the one way to pin a budget: the
    # entry points have no parameters= keyword, and the resolution path
    # has no diameter= shortcut either.
    from repro.core.broadcast import broadcast_batch
    from repro.core.compete import Compete, compete
    from repro.core.leader_election import elect_leader

    graph = topology.path_graph(8)
    budget = CompeteParameters.from_graph(graph)
    calls = {
        "Compete": lambda **kw: Compete(graph, **kw),
        "compete": lambda **kw: compete(graph, {0: 1}, **kw),
        "broadcast": lambda **kw: broadcast(graph, 0, **kw),
        "broadcast_batch": lambda **kw: broadcast_batch(
            graph, 0, seeds=[0], **kw),
        "elect_leader": lambda **kw: elect_leader(graph, **kw),
        "resolve_execution": lambda **kw: resolve_execution(graph, **kw),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match="parameters"):
            call(parameters=budget)
        pinned = call(config=ExecutionConfig(parameters=budget))
        assert pinned is not None, name
    with pytest.raises(TypeError, match="diameter"):
        resolve_execution(graph, diameter=7)


# ----------------------------------------------------------------------
# the algorithm registry
# ----------------------------------------------------------------------
def test_default_registry_contents_and_capabilities():
    assert set(DEFAULT_ALGORITHMS.names()) == {
        "broadcast", "leader-election", "decay-broadcast"
    }
    assert len(DEFAULT_ALGORITHMS) == 3
    # One entry point per algorithm: a batch of seeds, no single-seed run.
    assert "run" not in {field.name for field in dataclasses.fields(Algorithm)}
    assert DEFAULT_ALGORITHMS.get("broadcast").spontaneous_default is True
    election = DEFAULT_ALGORITHMS.get("leader-election")
    assert election.extra_series == ("attempts",)
    decay = DEFAULT_ALGORITHMS.get("decay-broadcast")
    assert decay.supports_spontaneous is False
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        DEFAULT_ALGORITHMS.get("teleport")


def test_registry_enforces_capabilities():
    graph = topology.star_graph(6)
    with pytest.raises(ConfigurationError, match="spontaneous"):
        DEFAULT_ALGORITHMS.run(
            "decay-broadcast", graph, seed=0, spontaneous=True
        )
    DEFAULT_ALGORITHMS.get("decay-broadcast").check(spontaneous=False)


def test_registry_rejects_duplicates_and_dispatches():
    registry = AlgorithmRegistry()

    def census(graph, *, config, seeds, spontaneous):
        return [
            {"n": graph.num_nodes, "backend": config.backend, "seed": seed}
            for seed in seeds
        ]

    registry.register(Algorithm(
        name="census", description="count nodes", run_batch=census
    ))
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register(Algorithm(
            name="census", description="", run_batch=census
        ))
    assert "census" in registry and len(registry) == 1
    # A single-seed run is the registered function over one seed.
    result = registry.run("census", topology.path_graph(5), seed=4)
    assert result == {"n": 5, "backend": "reference", "seed": 4}
    batch = registry.run_batch(
        "census", topology.path_graph(5), seeds=[0, 1, 2],
        config=ExecutionConfig(backend="vectorized"),
    )
    assert len(batch) == 3 and batch[0]["backend"] == "vectorized"


def test_batch_entries_run_on_the_config_backend(monkeypatch):
    # One runner per algorithm.  Under ExecutionConfig() a batch entry
    # runs each seed through the reference runner, off one resolution
    # (one schedule compile per call), and equals the vectorized batch
    # trial by trial; the vectorized batch never enters the runner.
    graph = topology.grid_graph(4, 5)
    seeds = [0, 1, 2]
    calls = {"runner": 0, "schedule": 0}
    run, build = ProtocolRunner.run, STRATEGIES["skeleton"]

    def counted_run(self):
        calls["runner"] += 1
        return run(self)

    def counted_build(graph, parameters):
        calls["schedule"] += 1
        return build(graph, parameters)

    monkeypatch.setattr(ProtocolRunner, "run", counted_run)
    monkeypatch.setitem(STRATEGIES, "skeleton", counted_build)
    entries = {
        "broadcast_batch": lambda config: broadcast_batch(
            graph, 0, seeds=seeds, config=config),
        "Compete.run_batch": lambda config: Compete(
            graph, config=config
        ).run_batch({0: 5, 19: 9}, seeds=seeds),
        "decay-broadcast": lambda config: DEFAULT_ALGORITHMS.run_batch(
            "decay-broadcast", graph, seeds=seeds, config=config),
    }
    for name, entry in entries.items():
        calls.update(runner=0, schedule=0)
        reference = entry(ExecutionConfig())
        assert calls == {"runner": len(seeds), "schedule": 1}, name
        calls.update(runner=0, schedule=0)
        fast = entry(ExecutionConfig(backend="vectorized"))
        assert calls == {"runner": 0, "schedule": 1}, name
        assert len(reference) == len(fast) == len(seeds), name
        assert all(result.success for result in reference), name
        for seed, want, got in zip(seeds, reference, fast):
            context = f"{name} seed={seed}"
            assert want.success == got.success, context
            assert want.rounds == got.rounds, context
            assert dict(want.reception_rounds) == dict(
                got.reception_rounds), context
            assert want.metrics.as_dict() == got.metrics.as_dict(), context

    # A single-seed run does not pass through the registry's batch entry.
    entered = []
    monkeypatch.setattr(
        AlgorithmRegistry, "run_batch",
        lambda self, *args, **kwargs: entered.append(args),
    )
    assert DEFAULT_ALGORITHMS.run("decay-broadcast", graph, seed=0).success
    assert entered == []


def test_registry_plugin_seam_end_to_end():
    # The ~50-line-plugin promise: a custom algorithm registered in a
    # private registry is immediately dispatchable with config handling,
    # spontaneous defaults and capability checks -- no core edits.
    registry = AlgorithmRegistry()

    def double_broadcast(graph, *, config, seeds, spontaneous):
        ends = [
            broadcast_batch(graph, source, seeds=seeds,
                            spontaneous=spontaneous, config=config)
            for source in (graph.nodes()[0], graph.nodes()[-1])
        ]
        return [
            {"rounds": first.rounds + second.rounds,
             "success": first.success and second.success}
            for first, second in zip(*ends)
        ]

    registry.register(Algorithm(
        name="double-broadcast",
        description="broadcast from both ends",
        run_batch=double_broadcast,
        spontaneous_default=True,
    ))
    outcome = registry.run(
        "double-broadcast", topology.path_graph(12), seed=3,
        config=ExecutionConfig(backend="vectorized"),
    )
    assert outcome["success"] and outcome["rounds"] > 0
