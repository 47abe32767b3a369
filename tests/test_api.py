"""The repro.api layer: ExecutionConfig, resolve_execution, the registry.

Covers (a) config validation and immutability, (b) the single-source
resolution path and the one engine every consumer reports,
(c) the algorithm registry's capability enforcement and plugin seam, and
(d) the deprecation shims: each legacy kwarg spelling must warn exactly
once, build the equivalent config, and yield seed-identical results.
"""

import dataclasses
import warnings

import pytest

from repro import topology
from repro.api import (
    DEFAULT_ALGORITHMS,
    Algorithm,
    AlgorithmRegistry,
    ExecutionConfig,
    coerce_execution_config,
    get_algorithm,
    resolve_execution,
)
from repro.core.broadcast import broadcast
from repro.core.compete import Compete, SkeletonStrategy, compete
from repro.core.leader_election import elect_leader
from repro.core.parameters import CompeteParameters
from repro.errors import ConfigurationError
from repro.network.radio import CollisionModel
from repro.experiments.scenarios import Scenario
from repro.simulation.vectorized import VectorizedCompeteEngine


# ----------------------------------------------------------------------
# ExecutionConfig
# ----------------------------------------------------------------------
def test_config_defaults_and_describe():
    config = ExecutionConfig()
    assert config.backend == "reference"
    assert config.engine == "auto"
    assert config.strategy == "skeleton"
    assert config.collision_model is CollisionModel.NO_DETECTION
    assert config.parameters is None
    assert config.rng == "replay"
    assert config.describe()["strategy"] == "skeleton"
    assert config.describe()["collision_model"] == "no-detection"


def test_config_validation_rejects_bad_axes():
    with pytest.raises(ConfigurationError, match="backend"):
        ExecutionConfig(backend="warp-drive")
    with pytest.raises(ConfigurationError, match="engine"):
        ExecutionConfig(engine="gpu")
    with pytest.raises(ConfigurationError, match="dense engine was removed"):
        ExecutionConfig(engine="dense")
    with pytest.raises(ConfigurationError, match="strategy"):
        ExecutionConfig(strategy="quantum")
    with pytest.raises(ConfigurationError, match="collision_model"):
        ExecutionConfig(collision_model="psychic")
    with pytest.raises(ConfigurationError, match="margin"):
        ExecutionConfig(margin=0)
    with pytest.raises(ConfigurationError, match="draw_block"):
        ExecutionConfig(draw_block=0)
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
    derived = config.replace(engine="sparse", strategy="clustered")
    assert (derived.backend, derived.engine) == ("vectorized", "sparse")
    assert config.engine == "auto"  # original untouched
    with pytest.raises(ConfigurationError):
        config.replace(engine="gpu")  # replace re-validates


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
    assert resolved.engine == "sparse"
    assert resolved.collision_model is CollisionModel.NO_DETECTION
    schedule = resolved.schedule
    assert schedule is resolved.schedule  # built once, cached
    assert set(schedule.nodes) == set(graph.nodes())


def test_resolve_execution_rejects_mismatched_parameters():
    graph = topology.path_graph(8)
    wrong = CompeteParameters.from_graph(topology.path_graph(9))
    with pytest.raises(ConfigurationError, match="n=9"):
        resolve_execution(graph, ExecutionConfig(), parameters=wrong)
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
    # The per-call override wins over the config's field.
    override = CompeteParameters(
        num_nodes=8, diameter=7, decay_steps=3, num_decay_rounds=9
    )
    resolved = resolve_execution(
        graph, ExecutionConfig(parameters=explicit), parameters=override
    )
    assert resolved.parameters == override


def test_every_consumer_reports_the_one_kernel():
    # resolve_execution, the Compete primitive and the engine
    # constructor all report the CSR kernel, for small and dense graphs
    # alike and for both accepted selectors.
    for graph in (topology.path_graph(32), topology.path_graph(1025),
                  topology.complete_graph(40)):
        for engine in ("auto", "sparse"):
            config = ExecutionConfig(engine=engine)
            resolved = resolve_execution(graph, config)
            assert resolved.engine == "sparse"
            assert Compete(graph, config=config).selected_engine() == "sparse"
            assert resolved.build_engine().engine == "sparse"


def test_dense_engine_is_a_one_line_configuration_error():
    # The dense engine is gone; naming it fails before anything runs,
    # with one line that says so, wherever the selector is accepted.
    graph = topology.path_graph(6)
    for build in (
        lambda: ExecutionConfig(engine="dense"),
        lambda: VectorizedCompeteEngine(graph, decay_steps=2, max_rounds=4,
                                        engine="dense"),
        lambda: Scenario(name="dense", description="", family="path",
                         topology_args={"num_nodes": 6},
                         algorithm="broadcast", engine="dense"),
    ):
        with pytest.raises(ConfigurationError) as error:
            build()
        message = str(error.value)
        assert "dense engine was removed" in message
        assert "\n" not in message


def test_engine_config_excludes_every_explicit_keyword():
    # config= carries its own engine and draw_block; silently ignoring
    # an explicit one would run a different kernel than requested.
    graph = topology.path_graph(6)
    for kwargs in (
        {"max_rounds": 4},
        {"engine": "sparse"},
        {"draw_block": 7},
        {"decay_steps": 2},
    ):
        with pytest.raises(ConfigurationError, match="config"):
            VectorizedCompeteEngine(
                graph, config=ExecutionConfig(), **kwargs
            )


def test_engine_from_config_matches_explicit_construction():
    graph = topology.grid_graph(4, 4)
    config = ExecutionConfig(engine="sparse")
    from_config = VectorizedCompeteEngine(graph, config=config)
    resolved = resolve_execution(graph, config)
    explicit = VectorizedCompeteEngine(
        graph,
        schedule=resolved.schedule,
        max_rounds=resolved.parameters.total_rounds,
        engine="sparse",
    )
    assert from_config.engine == explicit.engine == "sparse"
    import numpy as np

    ranks = np.zeros((2, graph.num_nodes), dtype=np.int64)
    ranks[:, 0] = 1
    a = from_config.run_batch(ranks.copy(), 1, [0, 1])
    b = explicit.run_batch(ranks.copy(), 1, [0, 1])
    assert np.array_equal(a.rounds, b.rounds)
    assert np.array_equal(a.final_ranks, b.final_ranks)


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


# ----------------------------------------------------------------------
# deprecation shims (the old kwarg web)
# ----------------------------------------------------------------------
def _collect_deprecations(call):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = call()
    return result, [
        w for w in record if issubclass(w.category, DeprecationWarning)
    ]


def test_legacy_broadcast_kwargs_warn_once_and_match_config():
    graph = topology.path_graph(20)
    explicit = broadcast(
        graph, source=0, seed=9,
        config=ExecutionConfig(backend="vectorized", engine="sparse"),
    )
    legacy, deprecations = _collect_deprecations(
        lambda: broadcast(graph, source=0, seed=9,
                          backend="vectorized", engine="sparse")
    )
    # Exactly ONE warning per call, even with two legacy kwargs...
    assert len(deprecations) == 1
    message = str(deprecations[0].message)
    assert "backend=" in message and "engine=" in message
    assert "ExecutionConfig" in message
    # ...and seed-identical results through the shim.
    assert legacy.rounds == explicit.rounds
    assert dict(legacy.reception_rounds) == dict(explicit.reception_rounds)
    assert legacy.metrics.as_dict() == explicit.metrics.as_dict()


def test_coerce_builds_the_equivalent_config():
    coerced, deprecations = _collect_deprecations(
        lambda: coerce_execution_config(
            None, where="test", backend="vectorized", engine="sparse"
        )
    )
    assert len(deprecations) == 1
    assert coerced == ExecutionConfig(backend="vectorized", engine="sparse")
    # No legacy kwargs -> no warning, config (or default) passes through.
    untouched, deprecations = _collect_deprecations(
        lambda: coerce_execution_config(None, where="test")
    )
    assert untouched == ExecutionConfig() and not deprecations
    given = ExecutionConfig(strategy="clustered")
    passed, deprecations = _collect_deprecations(
        lambda: coerce_execution_config(given, where="test")
    )
    assert passed is given and not deprecations


def test_mixing_config_and_legacy_kwargs_is_an_error():
    graph = topology.path_graph(6)
    with pytest.raises(ConfigurationError, match="not both"):
        broadcast(graph, source=0,
                  config=ExecutionConfig(), backend="vectorized")
    with pytest.raises(ConfigurationError, match="not both"):
        Compete(graph, config=ExecutionConfig(), strategy="clustered")


def test_legacy_kwargs_warn_on_every_entry_point():
    graph = topology.star_graph(8)
    for call in (
        lambda: Compete(graph, backend="vectorized"),
        lambda: compete(graph, {0: 1}, seed=0, strategy="clustered"),
        lambda: elect_leader(graph, seed=1, engine="sparse"),
        lambda: broadcast(graph, source=0, seed=0,
                          collision_model=CollisionModel.WITH_DETECTION),
        lambda: broadcast(graph, source=0, seed=0, margin=4.0),
        lambda: Compete(graph).run({0: 1}, seed=0, backend="vectorized"),
    ):
        _, deprecations = _collect_deprecations(call)
        assert len(deprecations) == 1, call


def test_legacy_elect_leader_is_seed_identical():
    graph = topology.complete_graph(12)
    explicit = elect_leader(
        graph, seed=5, config=ExecutionConfig(backend="vectorized")
    )
    legacy, deprecations = _collect_deprecations(
        lambda: elect_leader(graph, seed=5, backend="vectorized")
    )
    assert len(deprecations) == 1
    assert (legacy.leader, legacy.attempts, legacy.rounds) == (
        explicit.leader, explicit.attempts, explicit.rounds
    )


def test_run_benchmark_engine_shim_warns_and_matches():
    from repro.experiments import run_benchmark
    from repro.experiments.scenarios import Scenario

    scenario = Scenario(
        name="shim-check", description="", family="star",
        topology_args={"num_leaves": 7}, algorithm="broadcast",
        trials=2, seed=3,
    )
    explicit = run_benchmark(
        scenario, include_reference=False,
        config=scenario.execution_config(engine="sparse"),
    )
    legacy, deprecations = _collect_deprecations(
        lambda: run_benchmark(scenario, include_reference=False,
                              engine="sparse")
    )
    assert len(deprecations) == 1
    assert legacy["engine"] == explicit["engine"] == {
        "requested": "sparse", "selected": "sparse"
    }
    assert legacy["results"] == explicit["results"]
    with pytest.raises(ConfigurationError, match="not both"):
        run_benchmark(scenario, include_reference=False,
                      config=scenario.execution_config(), engine="dense")


def test_run_benchmark_honours_config_parameters():
    from repro.experiments import run_benchmark
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
