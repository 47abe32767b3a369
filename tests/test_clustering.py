"""The cluster decomposition subsystem and the strategy axis on Compete.

Three layers are pinned here:

1. structural invariants of :func:`repro.core.clustering.decompose`
   (partition, radius bound, deterministic leaders, contention bounds);
2. the Lemma 2.3 cost-charged schedule built from a decomposition
   (power-of-two cycle lengths, contention coverage at every listener);
3. the strategy axis on Compete: the headline property that the
   clustered strategy beats the skeleton's round count on low-contention
   topologies, and a custom strategy as one more entry of the
   ``STRATEGIES`` name table.

Round-exact reference/dense/sparse agreement -- per strategy -- is
covered by the case table in ``tests/test_engine_equivalence.py``.
"""

import math

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig
from repro.core.broadcast import broadcast
from repro.core.clustering import Cluster, ClusterDecomposition, decompose
from repro.core.compete import STRATEGIES, Compete, compete
from repro.core.parameters import CompeteParameters
from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.schedules.cluster import charged_cycle_steps, cluster_schedule
from repro.schedules.transmission import (
    TransmissionSchedule,
    decay_probabilities,
    next_power_of_two,
    uniform_decay_schedule,
)

TOPOLOGIES = [
    ("path", lambda: topology.path_graph(30)),
    ("star", lambda: topology.star_graph(12)),
    ("grid", lambda: topology.grid_graph(6, 5)),
    ("random-gnp", lambda: topology.connected_gnp_graph(24, 0.15, seed=9)),
    ("clique-path", lambda: topology.path_of_cliques_graph(5, 5)),
]


# ----------------------------------------------------------------------
# decomposition structure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,factory", TOPOLOGIES)
@pytest.mark.parametrize("radius", [0, 1, 2, 4])
def test_decompose_partitions_with_bounded_radius(name, factory, radius):
    graph = factory()
    decomposition = decompose(graph, radius=radius)
    seen = set()
    for cluster in decomposition.clusters:
        assert not (cluster.members & seen), "clusters must be disjoint"
        seen |= cluster.members
        assert cluster.radius <= radius
        assert cluster.layers[0] == (cluster.leader,)
        assert cluster.leader in cluster
        # Layers tile the member set and respect leader distance within
        # the cluster's own subgraph (growth never crosses other clusters).
        assert set().union(*map(set, cluster.layers)) == cluster.members
        sub = graph.subgraph(cluster.members)
        distances = sub.bfs_distances(cluster.leader)
        for depth, layer in enumerate(cluster.layers):
            for node in layer:
                assert distances[node] <= depth
    assert seen == set(graph.nodes()), "clusters must cover every node"


def test_decompose_radius_zero_is_singletons():
    graph = topology.grid_graph(3, 3)
    decomposition = decompose(graph, radius=0)
    assert decomposition.num_clusters == graph.num_nodes
    assert all(cluster.size == 1 for cluster in decomposition.clusters)


def test_decompose_is_deterministic_and_seedable():
    graph = topology.connected_gnp_graph(30, 0.12, seed=3)
    first = decompose(graph, radius=2)
    second = decompose(graph, radius=2)
    assert first.leaders() == second.leaders()
    assert [c.members for c in first.clusters] == [
        c.members for c in second.clusters
    ]
    # Explicit seeds become the first leaders, in the given order
    # (unless an earlier cluster's growth already swallowed them).
    path = topology.path_graph(30)
    seeded = decompose(path, radius=2, seeds=[29, 3])
    assert seeded.leaders()[:2] == (29, 3)
    swallowed = decompose(path, radius=2, seeds=[4, 3])  # 3 in 4's cluster
    assert 3 not in swallowed.leaders()
    with pytest.raises(ConfigurationError, match="not in the graph"):
        decompose(graph, seeds=["ghost"])


def test_decompose_validation():
    with pytest.raises(ConfigurationError, match="empty graph"):
        decompose(Graph())
    with pytest.raises(ConfigurationError, match="radius"):
        decompose(topology.path_graph(4), radius=-1)
    # ClusterDecomposition itself rejects overlapping / partial covers.
    graph = topology.path_graph(3)
    half = Cluster(index=0, leader=0, members=frozenset({0, 1}),
                   layers=((0,), (1,)))
    with pytest.raises(ConfigurationError, match="do not cover"):
        ClusterDecomposition(graph, [half])
    overlap = Cluster(index=1, leader=1, members=frozenset({1, 2}),
                      layers=((1,), (2,)))
    with pytest.raises(ConfigurationError, match="belongs to clusters"):
        ClusterDecomposition(graph, [half, overlap])


def test_decomposition_queries():
    graph = topology.path_graph(9)
    decomposition = decompose(graph, radius=1)
    # Path of 9 with radius 1: clusters {0,1}, {2,3}, ..., trailing {8}.
    assert decomposition.cluster_of(0) is decomposition.clusters[0]
    for index in range(decomposition.num_clusters):
        adjacent = decomposition.adjacent_clusters(index)
        assert index not in adjacent
        for other in adjacent:
            # Adjacency is symmetric and witnessed by a crossing edge.
            assert index in decomposition.adjacent_clusters(other)
        assert decomposition.contention(index) == max(
            graph.degree(node)
            for node in decomposition.clusters[index].members
        )
        boundary = decomposition.boundary_nodes(index)
        assert boundary <= decomposition.clusters[index].members
    # Every node's charge covers the degree of each of its neighbours --
    # the inequality the Lemma 3.1 argument needs at every listener.
    for node in graph.nodes():
        for listener in graph.neighbors(node):
            assert decomposition.charged_contention(node) >= graph.degree(
                listener
            )


# ----------------------------------------------------------------------
# transmission schedules
# ----------------------------------------------------------------------
def test_transmission_schedule_basics():
    schedule = TransmissionSchedule({0: (0.5, 0.25), 1: (0.5,)}, name="t")
    assert schedule.cycle_length == 2
    assert schedule.period(0) == 2 and schedule.period(1) == 1
    assert schedule.probability(0, 3) == 0.25
    assert schedule.probability(1, 3) == 0.5
    matrix = schedule.probability_matrix([0, 1])
    assert matrix.shape == (2, 2)
    assert matrix[1, 0] == 0.25 and matrix[1, 1] == 0.5
    with pytest.raises(ConfigurationError, match="not covered"):
        schedule.probability(9, 0)
    with pytest.raises(ConfigurationError):
        TransmissionSchedule({})
    with pytest.raises(ConfigurationError, match="empty probability"):
        TransmissionSchedule({0: ()})
    with pytest.raises(ConfigurationError, match="outside"):
        TransmissionSchedule({0: (0.0,)})
    with pytest.raises(ConfigurationError, match="outside"):
        TransmissionSchedule({0: (1.5,)})
    with pytest.raises(ConfigurationError, match="node 1 "):
        TransmissionSchedule({0: (0.5,), 1: (1.5,), 2: (1.5,)})


@pytest.mark.parametrize("name", ["uniform", "clustered", "hand-built"])
def test_probability_matrix_matches_scalar_definition(name):
    # Nodes with equal cycles share one compiled tuple and the matrix is
    # filled one column block per distinct cycle; every entry must still
    # be ``cycle[r % len(cycle)]``.
    if name == "uniform":
        schedule = uniform_decay_schedule(range(20), 5)
    elif name == "clustered":
        schedule = cluster_schedule(decompose(topology.grid_graph(6, 5), 2))
    else:
        schedule = TransmissionSchedule(
            {"a": [0.5, 0.25], "b": (0.5, 0.25), "c": (1.0,),
             "d": (0.5, 0.25, 0.125, 0.0625)}
        )
    periods = {schedule.period(node) for node in schedule.nodes}
    assert (len(periods) > 1) == (name != "uniform")
    if name == "hand-built":
        assert schedule.probabilities("a") is schedule.probabilities("b")
    order = list(reversed(schedule.nodes))
    expected = [
        [schedule.probabilities(node)[r % schedule.period(node)]
         for node in order]
        for r in range(schedule.cycle_length)
    ]
    matrix = schedule.probability_matrix(order)
    assert matrix.dtype == np.float64
    assert matrix.tolist() == expected


def test_uniform_decay_schedule_matches_decay_rule():
    schedule = uniform_decay_schedule([0, 1, 2], 4)
    assert schedule.cycle_length == 4
    for node in (0, 1, 2):
        assert schedule.probabilities(node) == decay_probabilities(4)
    for round_number in range(8):
        step = (round_number % 4) + 1
        assert schedule.probability(0, round_number) == 2.0 ** (-step)


@pytest.mark.parametrize("name,factory", TOPOLOGIES)
def test_cluster_schedule_is_cost_charged_and_nested(name, factory):
    graph = factory()
    decomposition = decompose(graph, radius=2)
    schedule = cluster_schedule(decomposition)
    log_n = max(1, math.ceil(math.log2(graph.num_nodes)))
    periods = set()
    for node in graph.nodes():
        period = schedule.period(node)
        periods.add(period)
        # Power-of-two cycles nest (the alignment requirement)...
        assert period == next_power_of_two(period)
        # ...and cover the contention at every listener the node reaches.
        for listener in graph.neighbors(node):
            contenders = graph.degree(listener)
            assert period >= math.ceil(math.log2(contenders + 1))
        # The charge never exceeds the global worst case by more than
        # the power-of-two rounding.
        assert period <= next_power_of_two(
            charged_cycle_steps(graph.num_nodes - 1)
        )
    # The whole point: on bounded-degree topologies the cycles are far
    # shorter than the skeleton's ceil(log2 n).
    if graph.max_degree() <= 4:
        assert max(periods) <= 4 < log_n + 1


def test_cluster_schedule_path_vs_star():
    # Path: contention 2 everywhere -> 2-step cycles.
    path_schedule = cluster_schedule(decompose(topology.path_graph(64)))
    assert path_schedule.max_period() == 2
    # Star: the hub really does face n-1 contenders -> the schedule must
    # not undershoot the skeleton.
    star = topology.star_graph(17)
    star_schedule = cluster_schedule(decompose(star))
    assert star_schedule.max_period() >= math.ceil(math.log2(17))


def test_charged_cycle_steps_values():
    assert [charged_cycle_steps(k) for k in (0, 1, 2, 3, 4, 255)] == [
        1, 1, 2, 2, 3, 8,
    ]
    assert [next_power_of_two(k) for k in (1, 2, 3, 5, 9)] == [1, 2, 4, 8, 16]


# ----------------------------------------------------------------------
# the strategy axis on Compete
# ----------------------------------------------------------------------
def test_strategies_is_a_table_of_schedule_compilers():
    # Each name compiles (graph, budget) into the schedule it names: the
    # uniform Decay cycle, or the cost-charged schedule of the default
    # decomposition.
    assert set(STRATEGIES) == {"skeleton", "clustered"}
    graph = topology.grid_graph(6, 5)
    budget = CompeteParameters.from_graph(graph)
    expected = {
        "skeleton": uniform_decay_schedule(graph.nodes(), budget.decay_steps),
        "clustered": cluster_schedule(decompose(graph)),
    }
    for name, compile_schedule in STRATEGIES.items():
        schedule = compile_schedule(graph, budget)
        assert schedule.name == name
        for node in graph.nodes():
            assert schedule.probabilities(node) == (
                expected[name].probabilities(node)
            ), (name, node)


def test_clustered_broadcast_succeeds_and_beats_skeleton_on_path():
    # The acceptance headline in miniature: on the n = D + 1 extreme the
    # cost-charged schedule must beat the skeleton's round count.  Means
    # over several seeds keep the comparison robust (the per-seed gap is
    # large: 2-step cycles vs ceil(log2 n) = 7 steps).
    graph = topology.path_graph(128)
    seeds = [0, 1, 2, 3]
    skeleton = Compete(graph, config=ExecutionConfig(backend="vectorized"))
    clustered = Compete(graph, config=ExecutionConfig(
        backend="vectorized", strategy="clustered"))
    candidates = {0: 1}
    slow = skeleton.run_batch(candidates, seeds=seeds, spontaneous=True)
    fast = clustered.run_batch(candidates, seeds=seeds, spontaneous=True)
    assert all(result.success for result in slow)
    assert all(result.success for result in fast)
    mean_slow = sum(r.rounds for r in slow) / len(slow)
    mean_fast = sum(r.rounds for r in fast) / len(fast)
    assert mean_fast < mean_slow, (mean_fast, mean_slow)


def test_clustered_broadcast_succeeds_on_grid_and_star():
    for graph in (topology.grid_graph(8, 8), topology.star_graph(32)):
        result = broadcast(
            graph, source=graph.nodes()[0], seed=5,
            config=ExecutionConfig(backend="vectorized",
                                   strategy="clustered"),
        )
        assert result.success


def test_custom_strategy_plugs_in(monkeypatch):
    def half(graph, parameters):
        """Every informed node transmits with probability 1/2."""
        return TransmissionSchedule(
            {node: (0.5,) for node in graph.nodes()}, name="half"
        )

    monkeypatch.setitem(STRATEGIES, "half", half)
    graph = topology.path_graph(10)
    reference = compete(
        graph, {0: 1}, seed=2, spontaneous=True,
        config=ExecutionConfig(strategy="half"),
    )
    vectorized = compete(
        graph, {0: 1}, seed=2, spontaneous=True,
        config=ExecutionConfig(strategy="half", backend="vectorized"),
    )
    assert reference.strategy == vectorized.strategy == "half"
    assert reference.rounds == vectorized.rounds
    assert reference.metrics.as_dict() == vectorized.metrics.as_dict()


def test_strategy_schedule_tracks_graph_mutation():
    # Compete re-resolves whenever the graph's memoized CSR changes, so
    # mutating the graph between runs rebuilds the round budget, the
    # decomposition-backed schedule and the engine: the same instance
    # then runs exactly what a fresh one would.
    graph = topology.path_graph(8)
    primitive = Compete(graph, config=ExecutionConfig(
        backend="vectorized", strategy="clustered"))
    before = primitive.run({0: 1}, seed=3, spontaneous=True)
    graph.add_edge(0, 7)
    after = primitive.run({0: 1}, seed=3, spontaneous=True)
    reference = Compete(graph, config=ExecutionConfig(
        strategy="clustered")).run({0: 1}, seed=3, spontaneous=True)
    assert after.parameters == reference.parameters
    assert after.parameters.num_decay_rounds == 56  # D fell from 7 to 4
    assert before.parameters.num_decay_rounds == 80
    assert after.rounds == reference.rounds
    assert dict(after.reception_rounds) == dict(reference.reception_rounds)
    assert after.metrics.as_dict() == reference.metrics.as_dict()
    assert dict(before.reception_rounds) != dict(after.reception_rounds)
    # A new node changes n as well: still no stale budget.
    graph.add_edge(7, 8)
    grown = primitive.run({0: 1}, seed=3, spontaneous=True)
    fresh = Compete(graph, config=ExecutionConfig(
        strategy="clustered")).run({0: 1}, seed=3, spontaneous=True)
    assert grown.parameters == fresh.parameters
    assert grown.parameters.num_nodes == 9
    assert grown.rounds == fresh.rounds
    assert dict(grown.reception_rounds) == dict(fresh.reception_rounds)
    assert grown.metrics.as_dict() == fresh.metrics.as_dict()
