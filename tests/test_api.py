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
    get_algorithm,
    resolve_execution,
)
from repro.core.broadcast import broadcast
from repro.core.compete import SkeletonStrategy
from repro.core.parameters import CompeteParameters
from repro.dynamics import DynamicsSpec, EdgeChurn
from repro.errors import ConfigurationError
from repro.network.radio import CollisionModel


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
    with pytest.raises(ConfigurationError, match="strategy"):
        ExecutionConfig(strategy="quantum")
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


def test_config_accepts_strategy_instances():
    config = ExecutionConfig(strategy=SkeletonStrategy())
    assert config.strategy_name == "skeleton"
    assert isinstance(config.strategy_instance(), SkeletonStrategy)


# ----------------------------------------------------------------------
# resolve_execution: the one shared resolution path
# ----------------------------------------------------------------------
def test_resolve_execution_derives_everything():
    graph = topology.path_graph(16)
    resolved = resolve_execution(graph, ExecutionConfig(strategy="clustered"))
    assert resolved.parameters == CompeteParameters.from_graph(graph)
    assert resolved.strategy.name == "clustered"
    assert resolved.collision_model is CollisionModel.NO_DETECTION
    schedule = resolved.schedule
    assert schedule is resolved.schedule  # built once, cached
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
    from repro.core.decay_broadcast import (
        decay_broadcast,
        decay_broadcast_batch,
    )
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
        "decay_broadcast": lambda **kw: decay_broadcast(graph, 0, **kw),
        "decay_broadcast_batch": lambda **kw: decay_broadcast_batch(
            graph, 0, seeds=[0], **kw),
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
    broadcast_spec = get_algorithm("broadcast")
    assert broadcast_spec.spontaneous_default is True
    assert broadcast_spec.run_batch is not None
    election = get_algorithm("leader-election")
    assert election.extra_series == ("attempts",)
    assert election.run_batch is None
    decay = get_algorithm("decay-broadcast")
    assert decay.supports_spontaneous is False
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        get_algorithm("teleport")


def test_registry_enforces_capabilities():
    graph = topology.star_graph(6)
    with pytest.raises(ConfigurationError, match="spontaneous"):
        DEFAULT_ALGORITHMS.run(
            "decay-broadcast", graph, seed=0, spontaneous=True
        )
    narrow = Algorithm(
        name="detect-only",
        description="",
        run=lambda graph, **kwargs: None,
        collision_models=frozenset({CollisionModel.WITH_DETECTION}),
    )
    with pytest.raises(ConfigurationError, match="collision model"):
        narrow.check(
            collision_model=CollisionModel.NO_DETECTION, spontaneous=False
        )
    with pytest.raises(ConfigurationError, match="requires spontaneous"):
        Algorithm(
            name="needs-spont", description="",
            run=lambda graph, **kwargs: None, requires_spontaneous=True,
        ).check(
            collision_model=CollisionModel.NO_DETECTION, spontaneous=False
        )
    with pytest.raises(ConfigurationError):
        Algorithm(
            name="broken", description="",
            run=lambda graph, **kwargs: None,
            supports_spontaneous=False, requires_spontaneous=True,
        )


def test_registry_rejects_duplicates_and_dispatches():
    registry = AlgorithmRegistry()

    def constant_run(graph, *, config, seed, spontaneous):
        return {"n": graph.num_nodes, "backend": config.backend}

    registry.register(Algorithm(
        name="census", description="count nodes", run=constant_run
    ))
    with pytest.raises(ConfigurationError, match="already registered"):
        registry.register(Algorithm(
            name="census", description="", run=constant_run
        ))
    assert "census" in registry and len(registry) == 1
    result = registry.run("census", topology.path_graph(5))
    assert result == {"n": 5, "backend": "reference"}
    # No run_batch hook -> the registry loops run() per seed.
    batch = registry.run_batch(
        "census", topology.path_graph(5), seeds=[0, 1, 2],
        config=ExecutionConfig(backend="vectorized"),
    )
    assert len(batch) == 3 and batch[0]["backend"] == "vectorized"


def test_registry_plugin_seam_end_to_end():
    # The ~50-line-plugin promise: a custom algorithm registered in a
    # private registry is immediately dispatchable with config handling,
    # spontaneous defaults and capability checks -- no core edits.
    registry = AlgorithmRegistry()

    def double_broadcast(graph, *, config, seed, spontaneous):
        first = broadcast(graph, graph.nodes()[0], seed=seed,
                          spontaneous=spontaneous, config=config)
        second = broadcast(graph, graph.nodes()[-1], seed=seed,
                           spontaneous=spontaneous, config=config)
        return {"rounds": first.rounds + second.rounds,
                "success": first.success and second.success}

    registry.register(Algorithm(
        name="double-broadcast",
        description="broadcast from both ends",
        run=double_broadcast,
        spontaneous_default=True,
    ))
    outcome = registry.run(
        "double-broadcast", topology.path_graph(12), seed=3,
        config=ExecutionConfig(backend="vectorized"),
    )
    assert outcome["success"] and outcome["rounds"] > 0


def test_run_benchmark_honours_config_parameters():
    from repro.experiments import prepare_scenario, run_benchmark
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(
        name="budget-check", description="", family="star",
        topology_args={"num_leaves": 7}, algorithm="broadcast",
        trials=2, seed=3,
    )
    custom = CompeteParameters(
        num_nodes=8, diameter=2, decay_steps=3, num_decay_rounds=11
    )
    payload = run_benchmark(
        scenario, include_reference=False,
        config=scenario.execution_config().replace(parameters=custom),
    )
    assert payload["schedule"] == {
        "decay_steps": 3, "num_decay_rounds": 11, "total_rounds": 33,
    }
    # A budget for the wrong graph size fails loudly, not silently.
    wrong = CompeteParameters(
        num_nodes=9, diameter=2, decay_steps=3, num_decay_rounds=11
    )
    with pytest.raises(ConfigurationError, match="n=9"):
        run_benchmark(
            scenario, include_reference=False,
            config=scenario.execution_config().replace(parameters=wrong),
        )
    # A prepared topology carries the budget it was prepared with, so an
    # explicit budget it was not prepared for is refused, not dropped.
    derived = prepare_scenario(scenario)
    with pytest.raises(ConfigurationError, match="prepared resolution"):
        run_benchmark(
            scenario, include_reference=False, prepared=derived,
            config=scenario.execution_config().replace(parameters=custom),
        )
    pinned = scenario.execution_config().replace(parameters=custom)
    with pytest.raises(ConfigurationError, match="prepared resolution"):
        run_benchmark(
            scenario, include_reference=False,
            prepared=prepare_scenario(scenario, pinned),
        )
    reused = run_benchmark(
        scenario, include_reference=False, config=pinned,
        prepared=prepare_scenario(scenario, pinned),
    )
    assert reused["results"] == payload["results"]
    assert reused["schedule"] == payload["schedule"]


def test_scenarios_algorithms_constant_is_a_live_view():
    import repro.experiments as experiments
    import repro.experiments.scenarios as scenarios

    assert set(scenarios.ALGORITHMS) == set(DEFAULT_ALGORITHMS.names())
    assert experiments.ALGORITHMS == scenarios.ALGORITHMS
    registry_backup = dict(DEFAULT_ALGORITHMS._algorithms)
    try:
        DEFAULT_ALGORITHMS.register(Algorithm(
            name="late-plugin", description="",
            run=lambda graph, **kwargs: None,
        ))
        # A post-import registration is visible without re-importing.
        assert "late-plugin" in scenarios.ALGORITHMS
        assert "late-plugin" in experiments.ALGORITHMS
    finally:
        DEFAULT_ALGORITHMS._algorithms.clear()
        DEFAULT_ALGORITHMS._algorithms.update(registry_backup)
    assert "late-plugin" not in scenarios.ALGORITHMS
    with pytest.raises(AttributeError):
        scenarios.NO_SUCH_NAME
    with pytest.raises(AttributeError):
        experiments.NO_SUCH_NAME
