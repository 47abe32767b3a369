"""Internals of the vectorized engine.

The *equivalence* guarantee -- reference runner vs engine vs dense
oracle, round for round, across the family x strategy x collision x
algorithm table -- is pinned by ``tests/test_engine_equivalence.py``.
This file covers what is not visible from the outside: batch/single
consistency, draw-stream buffering, input validation, rank exactness,
cache invalidation on graph mutation, and the message-ranking reduction.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig, resolve_execution
from repro.core.compete import Compete
from repro.core.parameters import CompeteParameters
from repro.dynamics import DynamicsSpec, EdgeChurn, JammingWindows, NodeCrash
from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.schedules.transmission import uniform_decay_schedule
from repro.simulation.vectorized import (
    DEFAULT_DRAW_BLOCK,
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


#: Fault environments for the batched-trial check, and the counter each
#: one must move (``None``: the static network).
BATCH_FAULTS = {
    "static": (None, None),
    "churn": (DynamicsSpec(fault_seed=11, models=(
        EdgeChurn(p_down=0.08, p_up=0.4),)), "suppressed_links"),
    "crash": (DynamicsSpec(fault_seed=5, models=(
        NodeCrash(p_crash=0.03, p_recover=0.3),)), "crashed_nodes"),
    "jam": (DynamicsSpec(fault_seed=3, models=(
        JammingWindows(period=6, duration=2, offset=2, fraction=0.3),)),
        "jammed_listens"),
}


@pytest.mark.parametrize("faults", sorted(BATCH_FAULTS))
def test_run_batch_matches_individual_runs(faults):
    # Trials of one batch finish at different rounds, and each trial's
    # counters -- fault counters included -- must stop with it: every
    # BatchOutcome field of a batched trial equals the same trial run
    # alone, and the batched results equal the reference runner's.
    dynamics, moved = BATCH_FAULTS[faults]
    graph = topology.grid_graph(4, 5)
    config = ExecutionConfig(backend="vectorized", dynamics=dynamics)
    engine = resolve_execution(graph, config).build_engine()
    row = np.arange(1, graph.num_nodes + 1, dtype=np.int64)
    seeds = [0, 1, 2, 3, 4]
    batch = engine.run_batch(np.tile(row, (len(seeds), 1)), row[-1], seeds)
    assert len(set(batch.rounds.tolist())) > 1, "trials must finish apart"
    if moved is not None:
        assert getattr(batch, moved).all(), f"{faults} must move {moved}"
    for trial, seed in enumerate(seeds):
        single = engine.run_batch(row[None, :], row[-1], [seed])
        for field in dataclasses.fields(batch):
            if field.name == "nodes":
                continue
            assert np.array_equal(
                getattr(batch, field.name)[trial],
                getattr(single, field.name)[0],
            ), f"{faults} seed={seed}: {field.name}"

    candidates = {0: 5, 19: 9}
    reference = Compete(graph, config=config.replace(backend="reference"))
    batched = Compete(graph, config=config).run_batch(
        candidates, seeds=seeds, spontaneous=True
    )
    for seed, result in zip(seeds, batched):
        single_ref = reference.run(candidates, seed=seed, spontaneous=True)
        assert_same_compete_result(single_ref, result, f"seed={seed}")


@pytest.mark.parametrize("block", [2, 4096])
def test_engine_draw_block_size_is_invisible(block, monkeypatch):
    # The pre-draw block size is an implementation detail.  The default
    # block refills mid-run on this path, a block of 2 refills every
    # other round and 4096 never does; no outcome array may change.
    graph = topology.path_graph(40)
    parameters = CompeteParameters.from_graph(graph)
    engine = VectorizedCompeteEngine(
        graph,
        schedule=uniform_decay_schedule(graph.nodes(), parameters.decay_steps),
        max_rounds=parameters.total_rounds,
    )
    ranks = np.zeros((3, graph.num_nodes), dtype=np.int64)
    ranks[:, 0] = 1
    seeds = [0, 1, 2]
    default = engine.run_batch(ranks.copy(), 1, seeds)
    monkeypatch.setattr(
        "repro.simulation.vectorized.DrawStreams",
        functools.partial(DrawStreams, block=block),
    )
    resized = engine.run_batch(ranks.copy(), 1, seeds)
    assert default.rounds.max() > DEFAULT_DRAW_BLOCK, "must cross a refill"
    for field in dataclasses.fields(default):
        assert np.array_equal(
            getattr(default, field.name), getattr(resized, field.name)
        ), field.name


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


@pytest.mark.parametrize("rank", [2**53 + 1, 2**62])
def test_ranks_beyond_float_range_stay_exact(rank):
    # The kernel passes ranks through an int64 scatter, never a float:
    # a rank that float64 would round (2**53 + 1 reads as 2**53) still
    # floods the path and comes back exact.
    graph = topology.path_graph(8)
    fast = VectorizedCompeteEngine(
        graph, schedule=uniform_decay_schedule(graph.nodes(), 3),
        max_rounds=200,
    )
    ranks = np.zeros((1, graph.num_nodes), dtype=np.int64)
    ranks[0, 0] = rank
    outcome = fast.run_batch(ranks, rank, [0])
    assert outcome.saturated.all()
    assert (outcome.final_ranks == rank).all()


def test_engine_input_validation():
    graph = topology.path_graph(4)
    schedule = uniform_decay_schedule(graph.nodes(), 2)
    engine = VectorizedCompeteEngine(graph, schedule=schedule, max_rounds=10)
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 3), dtype=int), None, [0, 1])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.zeros((2, 4), dtype=int), None, [0])
    with pytest.raises(ConfigurationError):
        engine.run_batch(np.full((1, 4), -1), None, [0])
    with pytest.raises(ConfigurationError, match="max_rounds"):
        VectorizedCompeteEngine(graph, schedule=schedule, max_rounds=-1)
    with pytest.raises(ConfigurationError, match="rng"):
        VectorizedCompeteEngine(graph, schedule=schedule, max_rounds=1,
                                rng="quantum")
    with pytest.raises(ConfigurationError):
        Compete(graph, config=ExecutionConfig(backend="warp-drive"))


def test_engine_cache_tracks_graph_mutation():
    # The cached engine snapshots the adjacency structure; mutating the
    # graph between runs must rebuild it so both backends keep seeing
    # the same (live) topology.
    graph = topology.path_graph(8)
    primitive = Compete(graph, config=ExecutionConfig(backend="vectorized"))
    before = primitive.run({0: 1}, seed=3, spontaneous=True)
    graph.add_edge(0, 7)  # diameter collapses; propagation changes
    after = primitive.run({0: 1}, seed=3, spontaneous=True)
    reference = Compete(graph).run({0: 1}, seed=3, spontaneous=True)
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
