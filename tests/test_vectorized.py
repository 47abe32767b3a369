"""Internals of the vectorized engine (both kernels).

The *equivalence* guarantee -- reference runner vs dense vs sparse,
round for round, across the family x strategy x collision x algorithm
table -- is pinned by ``tests/test_engine_equivalence.py``.  This file
covers what is not visible from the outside: batch/single consistency,
draw-stream buffering, input validation, cache invalidation on graph
mutation, and the message-ranking reduction.
"""

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig
from repro.core.compete import Compete
from repro.core.parameters import CompeteParameters
from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.simulation.vectorized import (
    NO_MESSAGE,
    DrawStreams,
    VectorizedCompeteEngine,
    rank_messages,
)


def assert_same_compete_result(reference, vectorized, context=""):
    """Field-by-field equality of two CompeteResults (metrics included)."""
    assert reference.winner == vectorized.winner, context
    assert reference.success == vectorized.success, context
    assert reference.rounds == vectorized.rounds, context
    assert reference.num_candidates == vectorized.num_candidates, context
    assert dict(reference.reception_rounds) == dict(
        vectorized.reception_rounds
    ), context
    assert dict(reference.final_messages) == dict(
        vectorized.final_messages
    ), context
    assert (
        reference.metrics.as_dict() == vectorized.metrics.as_dict()
    ), context


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_run_batch_matches_individual_runs(engine):
    graph = topology.grid_graph(4, 5)
    primitive = Compete(graph, config=ExecutionConfig(engine=engine))
    fast = Compete(
        graph, config=ExecutionConfig(backend="vectorized", engine=engine)
    )
    candidates = {0: 5, 19: 9}
    seeds = [0, 1, 2, 3, 4]
    batch = primitive.run_batch(candidates, seeds=seeds, spontaneous=True)
    assert len(batch) == len(seeds)
    for seed, batched in zip(seeds, batch):
        single_vec = fast.run(candidates, seed=seed, spontaneous=True)
        single_ref = primitive.run(candidates, seed=seed, spontaneous=True)
        assert_same_compete_result(single_ref, batched, f"seed={seed}")
        assert_same_compete_result(single_vec, batched, f"seed={seed}")


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_engine_draw_block_size_is_invisible(engine):
    # The pre-draw block size is an implementation detail; shrinking it to
    # force mid-run refills must not change any outcome array.
    graph = topology.grid_graph(4, 4)
    parameters = CompeteParameters.from_graph(graph)
    ranks = np.zeros((3, graph.num_nodes), dtype=np.int64)
    ranks[:, 0] = 1
    seeds = [0, 1, 2]
    outcomes = []
    for block in (2, 64, 4096):
        engine_obj = VectorizedCompeteEngine(
            graph,
            decay_steps=parameters.decay_steps,
            max_rounds=parameters.total_rounds,
            draw_block=block,
            engine=engine,
        )
        outcomes.append(engine_obj.run_batch(ranks.copy(), 1, seeds))
    first = outcomes[0]
    for other in outcomes[1:]:
        assert np.array_equal(first.rounds, other.rounds)
        assert np.array_equal(first.final_ranks, other.final_ranks)
        assert np.array_equal(first.adopted_rounds, other.adopted_rounds)
        assert np.array_equal(first.transmissions, other.transmissions)


@pytest.mark.parametrize("block", [1, 3, 128])
def test_draw_streams_replay_independent_node_streams(block):
    # Each (trial, node) stream must hand out exactly the draws of a
    # generator built on its own from the same spawned seed, whatever
    # the block size and however the requests fall across refills.
    seeds, num_nodes = [5, 11], 6
    streams = DrawStreams(seeds, num_nodes, block)
    oracles = [
        np.random.default_rng(child)
        for seed in seeds
        for child in np.random.SeedSequence(seed).spawn(num_nodes)
    ]
    rng = np.random.default_rng(block)
    size = len(seeds) * num_nodes
    for round_number in range(400):
        if round_number % 40 == 0:
            wanted = np.zeros(size, dtype=bool)
        elif round_number % 40 == 1:
            wanted = np.ones(size, dtype=bool)
        else:
            wanted = rng.random(size) < rng.random()
        draws = streams.take(wanted)
        assert draws.shape == wanted.shape
        assert np.isnan(draws[~wanted]).all()
        expected = [oracles[i].random() for i in np.flatnonzero(wanted)]
        assert draws[wanted].tolist() == expected


@pytest.mark.parametrize(
    "engine, exact_limit", [("dense", 2**24), ("sparse", 2**53)]
)
def test_ranks_beyond_the_kernel_exact_range_are_rejected(
    engine, exact_limit
):
    # The dense kernel on 8 nodes multiplies in float32, the sparse one
    # adds in float64; a larger rank would come back rounded (2**24 + 1
    # reads as 2**24 in float32, so the flood never saturates).
    graph = topology.path_graph(8)
    fast = VectorizedCompeteEngine(
        graph, decay_steps=3, max_rounds=200, engine=engine
    )

    def run(rank):
        ranks = np.zeros((1, graph.num_nodes), dtype=np.int64)
        ranks[0, 0] = rank
        return fast.run_batch(ranks, rank, [0])

    assert run(exact_limit).saturated.all()
    with pytest.raises(ConfigurationError, match="exact-integer range"):
        run(exact_limit + 1)
    if engine == "sparse":
        assert run(2**24 + 1).saturated.all()


def test_engine_input_validation():
    graph = topology.path_graph(4)
    engine = VectorizedCompeteEngine(graph, decay_steps=2, max_rounds=10)
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 3), dtype=int), None, [0, 1])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 4), dtype=int), None, [0])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.full((1, 4), -1), None, [0])
    with pytest.raises(ConfigurationError):
        VectorizedCompeteEngine(graph, decay_steps=0, max_rounds=1)
    with pytest.raises(ConfigurationError, match="engine"):
        VectorizedCompeteEngine(graph, decay_steps=2, max_rounds=1,
                                engine="quantum")
    with pytest.raises(ConfigurationError):
        Compete(graph, config=ExecutionConfig(backend="warp-drive"))
    with pytest.raises(ConfigurationError, match="engine"):
        Compete(graph, config=ExecutionConfig(engine="warp-core"))
    with pytest.raises(ConfigurationError, match="config"):
        # config= and a legacy kwarg cannot be mixed.
        Compete(graph, config=ExecutionConfig(), backend="vectorized")


def test_engine_selection_is_visible():
    graph = topology.path_graph(6)
    assert VectorizedCompeteEngine(
        graph, decay_steps=2, max_rounds=4
    ).engine == "dense"  # auto on a small graph
    assert VectorizedCompeteEngine(
        graph, decay_steps=2, max_rounds=4, engine="sparse"
    ).engine == "sparse"
    primitive = Compete(graph, config=ExecutionConfig(engine="sparse"))
    assert primitive.engine == "sparse"
    assert primitive.selected_engine() == "sparse"
    assert Compete(graph).selected_engine() == "dense"
    assert VectorizedCompeteEngine(
        graph, config=ExecutionConfig(engine="sparse")
    ).engine == "sparse"
    with pytest.raises(ConfigurationError, match="config"):
        VectorizedCompeteEngine(
            graph, config=ExecutionConfig(), max_rounds=4
        )


@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_engine_cache_tracks_graph_mutation(engine):
    # The cached engine snapshots the adjacency structure; mutating the
    # graph between runs must rebuild it so both backends keep seeing
    # the same (live) topology.
    graph = topology.path_graph(8)
    primitive = Compete(
        graph, config=ExecutionConfig(backend="vectorized", engine=engine)
    )
    before = primitive.run({0: 1}, seed=3, spontaneous=True)
    graph.add_edge(0, 7)  # diameter collapses; propagation changes
    after = primitive.run({0: 1}, seed=3, spontaneous=True)
    reference = Compete(
        graph, config=ExecutionConfig(engine=engine)
    ).run({0: 1}, seed=3, spontaneous=True)
    assert_same_compete_result(reference, after, "post-mutation")
    assert dict(before.reception_rounds) != dict(after.reception_rounds)


def test_rank_messages_matches_beats_order():
    rng = np.random.default_rng(0)
    messages = [
        Message(value=int(rng.integers(-5, 6)), source=int(rng.integers(20)))
        for _ in range(40)
    ]
    ranks = rank_messages(messages)
    assert set(ranks.values()) == set(range(1, len(ranks) + 1))
    items = list(ranks.items())
    for a, rank_a in items:
        for b, rank_b in items:
            assert (rank_a > rank_b) == a.beats(b)
    assert NO_MESSAGE not in ranks.values()


def test_adjacency_matrix():
    graph = topology.path_graph(4)
    matrix, nodes = graph.adjacency_matrix()
    assert nodes == [0, 1, 2, 3]
    expected = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        expected[u, v] = expected[v, u] = True
    assert np.array_equal(matrix, expected)

    reordered, order = graph.adjacency_matrix(order=[3, 2, 1, 0])
    assert order == [3, 2, 1, 0]
    assert np.array_equal(reordered, expected[::-1, ::-1])

    from repro.errors import GraphError

    with pytest.raises(GraphError):
        graph.adjacency_matrix(order=[0, 1])
