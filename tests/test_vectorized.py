"""Internals of the vectorized engine.

The *equivalence* guarantee -- reference runner vs engine vs dense
oracle, round for round, across the family x strategy x collision x
algorithm table -- is pinned by ``tests/test_engine_equivalence.py``.
This file covers what is not visible from the outside: batch/single
consistency, block-size invisibility, draw-stream seeding, buffering
and lockstep transmit decisions, the decoupled ``p = 1`` limit, input validation,
rank exactness, cache invalidation on graph mutation, the
message-ranking reduction and the read-only result views.
"""

import dataclasses
import functools
import pickle

import numpy as np
import pytest

from repro import topology
from repro.api import ExecutionConfig, resolve_execution
from repro.core.broadcast import broadcast
from repro.core.compete import Compete
from repro.core.parameters import CompeteParameters
from repro.dynamics import DynamicsSpec, EdgeChurn, JammingWindows, NodeCrash
from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.schedules.transmission import (
    TransmissionSchedule,
    uniform_decay_schedule,
)
from repro.simulation.rng import DecoupledStreams
from repro.simulation.sparse import CSRAdjacency
from repro.simulation.vectorized import (
    DEFAULT_DRAW_BLOCK,
    NO_MESSAGE,
    DrawStreams,
    VectorizedCompeteEngine,
    rank_messages,
    spawned_seed_words,
)

from dense_oracle import dense_oracle_engines


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


@pytest.mark.parametrize("rng", ["replay", "decoupled"])
@pytest.mark.parametrize("faults", sorted(BATCH_FAULTS))
def test_run_batch_matches_individual_runs(faults, rng):
    # Trials of one batch finish at different rounds of one block, and
    # each trial's counters -- fault counters included -- must stop
    # with it: every BatchOutcome field of a batched trial equals the
    # same trial run alone, and the batched results equal the reference
    # runner's (replay) or the dense oracle's (decoupled), which stop
    # when every node holds the winner.
    dynamics, moved = BATCH_FAULTS[faults]
    graph = topology.grid_graph(4, 5)
    config = ExecutionConfig(backend="vectorized", dynamics=dynamics, rng=rng)
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
    batched = Compete(graph, config=config).run_batch(
        candidates, seeds=seeds, spontaneous=True
    )
    if rng == "replay":
        reference = Compete(graph, config=config.replace(backend="reference"))
        expected = [
            reference.run(candidates, seed=seed, spontaneous=True)
            for seed in seeds
        ]
    else:
        with dense_oracle_engines():
            expected = Compete(graph, config=config).run_batch(
                candidates, seeds=seeds, spontaneous=True
            )
    for seed, want, result in zip(seeds, expected, batched):
        assert_same_compete_result(want, result, f"seed={seed}")


@pytest.mark.parametrize("faults", sorted(BATCH_FAULTS))
def test_channel_block_size_is_invisible(faults, monkeypatch):
    # A spontaneous batch runs its rounds in blocks of K, whatever K
    # is: the same batch at K = 1, 2, 8 and 128 gives the same outcome
    # arrays, fault counters included, and the reference runner's
    # results.  The trials finish at different rounds of a block, and
    # some run out the budget of 11 * 5 rounds, no multiple of any K,
    # so the last block is partial; every counter must stop at its
    # trial's own last round.
    dynamics, _ = BATCH_FAULTS[faults]
    graph = topology.grid_graph(4, 5)
    parameters = CompeteParameters(
        num_nodes=20, diameter=7, decay_steps=5, num_decay_rounds=11
    )
    config = ExecutionConfig(
        backend="vectorized", dynamics=dynamics, parameters=parameters
    )
    engine = resolve_execution(graph, config).build_engine()
    row = np.arange(1, graph.num_nodes + 1, dtype=np.int64)
    seeds = [0, 1, 2, 3, 4]
    kernel = CSRAdjacency.transmitter_counts_and_rank_sums
    copies = []

    def spied_kernel(csr, transmit, entry_mask=None):
        copies.append(transmit.shape[0])
        return kernel(csr, transmit, entry_mask)

    monkeypatch.setattr(
        CSRAdjacency, "transmitter_counts_and_rank_sums", spied_kernel
    )
    candidates = {0: 5, 19: 9}
    reference = Compete(graph, config=config.replace(backend="reference"))
    expected = [
        reference.run(candidates, seed=seed, spontaneous=True)
        for seed in seeds
    ]
    outcomes = {}
    for block in (1, 2, 8, 128):
        monkeypatch.setattr(
            "repro.simulation.vectorized._BLOCK_LANES",
            block * len(seeds) * graph.num_nodes,
        )
        copies.clear()
        outcomes[block] = engine.run_batch(
            np.tile(row, (len(seeds), 1)), row[-1], seeds
        )
        budget = parameters.total_rounds
        assert max(copies) == min(block, budget) * len(seeds), "K rounds"
        batched = Compete(graph, config=config).run_batch(
            candidates, seeds=seeds, spontaneous=True
        )
        for seed, want, got in zip(seeds, expected, batched):
            assert_same_compete_result(want, got, f"K={block} seed={seed}")
    saturated = outcomes[1].saturated
    assert len(set(outcomes[1].rounds.tolist())) > 1, "trials finish apart"
    assert saturated.any() and not saturated.all()
    for block, outcome in outcomes.items():
        for field in dataclasses.fields(outcome):
            assert np.array_equal(
                getattr(outcome, field.name), getattr(outcomes[1], field.name)
            ), f"{faults} K={block}: {field.name}"


def _mixed_cycle_schedule(nodes):
    """Per-node Decay cycles of lengths 1, 3 and 8, by node position."""
    lengths = (1, 3, 8)
    return TransmissionSchedule({
        node: tuple(2.0 ** -(step + 1) for step in range(lengths[i % 3]))
        for i, node in enumerate(nodes)
    })


@pytest.mark.parametrize("case, block", [
    pytest.param(case, block, id=f"{case}-{block}" if case else str(block))
    for case in (None, "uniform", "per-node") for block in (2, 4096)
])
def test_engine_draw_block_size_is_invisible(case, block, monkeypatch):
    # The pre-draw block size is an implementation detail.  On the
    # classical path (per-stream draws) the default block refills mid-
    # run, a block of 2 refills every other round and 4096 never does.
    # The spontaneous cases draw in lockstep for more than the 1920
    # rounds that fill the capped store (128 + 256 + 512 + 1024), so
    # it is rewritten at least once; a first width of 2 doubles nine
    # times before the cap.  No outcome array may change.
    if case is None:
        graph = topology.path_graph(40)
        ranks = np.zeros((3, graph.num_nodes), dtype=np.int64)
        ranks[:, 0] = 1
        seeds = [0, 1, 2]
    else:
        graph = topology.path_graph(200)
        ranks = np.ones((2, graph.num_nodes), dtype=np.int64)
        ranks[:, 0] = 2
        seeds = [3, 4]
    parameters = CompeteParameters.from_graph(graph)
    if case == "per-node":
        schedule = _mixed_cycle_schedule(graph.nodes())
    else:
        schedule = uniform_decay_schedule(
            graph.nodes(), parameters.decay_steps
        )
    engine = VectorizedCompeteEngine(
        graph, schedule=schedule, max_rounds=parameters.total_rounds
    )
    winner = int(ranks.max())
    default = engine.run_batch(ranks.copy(), winner, seeds)
    monkeypatch.setattr(
        "repro.simulation.vectorized.DrawStreams",
        functools.partial(DrawStreams, block=block),
    )
    resized = engine.run_batch(ranks.copy(), winner, seeds)
    if case is None:
        assert default.rounds.max() > DEFAULT_DRAW_BLOCK, "must cross a refill"
    else:
        assert default.rounds.min() > 1920, "must rewrite the capped store"
    for field in dataclasses.fields(default):
        assert np.array_equal(
            getattr(default, field.name), getattr(resized, field.name)
        ), field.name


def test_lockstep_run_of_1000_rounds_fills_the_store_four_times(
    monkeypatch
):
    # Lockstep refills double from 128 draws per stream up to 1024:
    # 128 + 256 + 512 + 1024 cover 1000 rounds in 4 fills, where a
    # fixed 128-draw refill takes 8.
    graph = topology.grid_graph(4, 4)
    engine = VectorizedCompeteEngine(
        graph,
        schedule=uniform_decay_schedule(graph.nodes(), 4),
        max_rounds=1000,
    )
    fills = []
    refill = DrawStreams._refill_rows

    def spied(self, probabilities):
        refill(self, probabilities)
        fills.append(self._filled)

    monkeypatch.setattr(DrawStreams, "_refill_rows", spied)
    ranks = np.ones((2, graph.num_nodes), dtype=np.int64)
    outcome = engine.run_batch(ranks, None, [0, 1])
    assert outcome.rounds.tolist() == [1000, 1000]
    assert fills == [128, 256, 512, 1024]


@pytest.mark.parametrize("seeds", [
    *([seed] for seed in (
        0, 1, 2017, 2**32 - 1, 2**32, 2**100 + 3, 2**128 + 9, 2**200 + 1,
    )),
    [1, 2017, None],
    [2**128 + 9, 5, 2**200 + 1, None, 2**128 + 9, 0],
])
@pytest.mark.parametrize("num_children", [1, 2, 257])
def test_spawned_seed_words_match_numpy_spawn(seeds, num_children):
    # The one-pass replica of SeedSequence.spawn must give every child of
    # every parent NumPy's own PCG64 seed words, bit for bit, whatever
    # entropies share the pass: one word (zero-padded to the pool of
    # four), several, a None seed's fresh 128-bit entropy, and more than
    # four (2**128 + 9 and 2**200 + 1), which mix in after the pool and
    # so end on other hash constants than the rest.
    entropies = [np.random.SeedSequence(seed).entropy for seed in seeds]
    words = spawned_seed_words(entropies, num_children)
    assert words.dtype == np.uint64
    assert words.shape == (len(seeds), num_children, 4)
    for entropy, block in zip(entropies, words):
        expected = [
            child.generate_state(4, np.uint64)
            for child in np.random.SeedSequence(entropy).spawn(num_children)
        ]
        assert block.tolist() == np.array(expected).tolist()


@pytest.mark.parametrize("seeds", [[5, 11], [0, 2**64 + 7], [2**128 + 9, 5]])
@pytest.mark.parametrize("block", [1, 3, 128])
def test_draw_streams_replay_independent_node_streams(seeds, block):
    # Each (trial, node) stream must hand out exactly the draws of a
    # generator built on its own from the same spawned seed, whatever
    # the seed's width, the block size and however the requests fall
    # across refills.
    num_nodes = 6
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


@pytest.mark.parametrize("block", [1, 3, 128])
def test_draw_streams_transmit_rows_replay_every_stream(block):
    # Lockstep decisions: row k, stream i of transmit_rows is stream i's
    # next draw compared with its node's probability for round k,
    # exactly the per-stream generator's draw.  Two trials and cycles
    # of lengths 1, 3 and 8 tell streams from nodes and rounds from
    # phases; the requests cross refills, the doubling from each first
    # width and the 1024-round cap at least twice, and some are longer
    # than the rows left in the store.
    seeds, num_nodes = [5, 2**64 + 7], 6
    probabilities = _mixed_cycle_schedule(
        range(num_nodes)
    ).probability_matrix(range(num_nodes))
    probabilities *= np.random.default_rng(block).uniform(
        0.2, 1.8, probabilities.shape
    )
    cycle = probabilities.shape[0]
    streams = DrawStreams(seeds, num_nodes, block)
    oracles = [
        np.random.default_rng(child)
        for seed in seeds
        for child in np.random.SeedSequence(seed).spawn(num_nodes)
    ]
    done = 0
    for rounds in (1, 2, 5, 128, 300, 1) * 8:
        rows = streams.transmit_rows(probabilities, rounds)
        assert rows.dtype == bool
        assert rows.shape == (rounds, len(oracles))
        phases = np.arange(done, done + rounds) % cycle
        expected = np.stack([
            oracle.random(rounds) < probabilities[phases, i % num_nodes]
            for i, oracle in enumerate(oracles)
        ], axis=1)
        assert np.array_equal(rows, expected), f"rounds {done}+{rounds}"
        done += rounds
    assert done > 3 * 1024


def test_draw_streams_seed_none_is_fresh_and_negative_raises():
    # Each trial's entropy comes from SeedSequence(seed): None draws
    # fresh OS entropy per trial, and a negative seed is NumPy's error.
    streams = DrawStreams([None, None], 3)
    draws = streams.take(np.ones(6, dtype=bool)).reshape(2, 3)
    assert draws[0].tolist() != draws[1].tolist()
    with pytest.raises(ValueError):
        DrawStreams([-1], 3)


def test_decoupled_probability_one_transmits_the_all_ones_word(monkeypatch):
    # A p = 1 node transmits on every draw, also on the all-ones hash
    # word, whose uniform (2**53 - 1) / 2**53 is below 1: the informed
    # centre of a star reaches every leaf in round 1.
    def all_ones(self, round_number, *, stop_early=False):
        return np.full((self.num_trials, self.num_nodes),
                       np.iinfo(np.uint64).max, dtype=np.uint64)

    monkeypatch.setattr(DecoupledStreams, "bits", all_ones)
    graph = topology.star_graph(4)
    engine = VectorizedCompeteEngine(
        graph,
        schedule=TransmissionSchedule({node: (1.0,) for node in graph.nodes()}),
        max_rounds=10,
        rng="decoupled",
    )
    ranks = np.zeros((1, graph.num_nodes), dtype=np.int64)
    ranks[0, engine.nodes.index(0)] = 1
    outcome = engine.run_batch(ranks, 1, [0])
    assert outcome.saturated.tolist() == [True]
    assert outcome.rounds.tolist() == [1]


@pytest.mark.parametrize("rank", [2**53 + 1, 2**62])
def test_ranks_beyond_float_range_stay_exact(rank):
    # Ranks stay int64 from the input to adoption, never a float: a
    # rank that float64 would round (2**53 + 1 reads as 2**53) still
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
    # A winner rank below an initial rank could lose holders; the stop
    # rule only counts them up, so it takes the top rank alone.
    with pytest.raises(ConfigurationError, match="winner_rank 1 is below"):
        engine.run_batch(np.array([[1, 2, 0, 0]]), 1, [0])
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


def test_message_order_key_survives_pickle_and_replace():
    # Sharded workers return pickled messages; each copy must keep the
    # order key built at construction, and a replaced one must rebuild it.
    low, mid, high = (
        Message(value=3, source=2),
        Message(value=3, source="b"),
        Message(value=4, source=(1, 2), payload=[0]),
    )
    assert high.beats(mid) and mid.beats(low) and not low.beats(low)
    for message in (low, mid, high):
        copy = pickle.loads(pickle.dumps(message))
        assert copy == message and hash(copy) == hash(message)
        assert copy.sort_key() == message.sort_key()
        raised = dataclasses.replace(message, value=9)
        assert raised.sort_key() == (9, message.sort_key()[1])
        assert raised.beats(high)


def _shuffled_path():
    """A 10-node path whose insertion order is not the sorted order."""
    nodes = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
    graph = Graph(nodes=nodes)
    for u, v in zip(nodes, nodes[1:]):
        graph.add_edge(u, v)
    return graph


def test_vectorized_result_mappings_are_read_only_views():
    # The per-node mappings of a vectorized result are views over the
    # trial's arrays: they pickle (the workers > 1 path), equal the
    # reference run's plain dicts, iterate in graph order and refuse
    # assignment.
    graph = _shuffled_path()
    candidates = {0: 1, 5: 3}
    reference = Compete(graph).run(candidates, seed=3, spontaneous=True)
    vectorized = Compete(
        graph, config=ExecutionConfig(backend="vectorized")
    ).run(candidates, seed=3, spontaneous=True)
    copy = pickle.loads(pickle.dumps(vectorized))
    assert copy == vectorized
    for name in ("reception_rounds", "final_messages"):
        expected, view = getattr(reference, name), getattr(copy, name)
        assert type(expected) is dict and type(view) is not dict
        assert view == expected and expected == view
        assert list(view.items()) == list(expected.items())
        assert list(view) == graph.nodes() and len(view) == graph.num_nodes
        assert 11 not in view and view.get(11) is None
        with pytest.raises(TypeError):
            view[0] = None
        with pytest.raises(KeyError):
            view[11]
    assert copy.informed_fraction == reference.informed_fraction


@pytest.mark.parametrize("decay_rounds", [None, 1], ids=["saturated", "short"])
def test_num_informed_counts_the_reception_rounds(decay_rounds):
    graph = _shuffled_path()
    parameters = None
    if decay_rounds is not None:
        parameters = CompeteParameters(
            num_nodes=10, diameter=9, decay_steps=4,
            num_decay_rounds=decay_rounds,
        )
    results = [
        broadcast(graph, source=7, seed=seed, config=ExecutionConfig(
            backend=backend, parameters=parameters,
        ))
        for seed in range(3)
        for backend in ("reference", "vectorized")
    ]
    for result in results:
        rounds = result.reception_rounds.values()
        informed = [r for r in rounds if r is not None]
        assert result.num_informed == len(informed)
        assert result.success == (decay_rounds is None)
        assert result.success == (result.num_informed == graph.num_nodes)
    for reference, vectorized in zip(results[::2], results[1::2]):
        assert reference.num_informed == vectorized.num_informed


def test_adjacency_matrix():
    graph = topology.path_graph(4)
    matrix, nodes = graph.adjacency_matrix()
    assert nodes == [0, 1, 2, 3]
    expected = np.zeros((4, 4), dtype=bool)
    for u, v in [(0, 1), (1, 2), (2, 3)]:
        expected[u, v] = expected[v, u] = True
    assert np.array_equal(matrix, expected)
