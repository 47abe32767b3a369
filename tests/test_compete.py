"""The Compete primitive: saturation, ordering, Decay's Lemma 3.1 bound,
and the reference node's block reads against the scalar-draw oracle of
``tests/protocol_oracle.py``."""

import importlib
import random

import numpy as np
import pytest

import protocol_oracle
from decay_oracle import (
    decay_success_probability_lower_bound,
    simulate_decay_round,
)
from protocol_oracle import ScalarDrawCompeteProtocol
from repro import Compete, compete, topology
from repro.api import ExecutionConfig
from repro.core.compete import _DRAW_BLOCK as BLOCK, CompeteProtocol
from repro.dynamics import DynamicsSpec, EdgeChurn
from repro.errors import ConfigurationError
from repro.network.messages import COLLISION, Message
from repro.network.radio import RadioNetwork
from repro.simulation.runner import ProtocolRunner


def test_highest_candidate_wins_on_star():
    result = compete(topology.star_graph(8), {1: 10, 2: 20, 3: 15}, seed=0)
    assert result.success
    assert result.winner == Message(value=20, source=2)
    assert result.num_candidates == 3
    assert all(best == result.winner for best in result.final_messages.values())


def test_saturation_on_path():
    graph = topology.path_graph(32)
    result = compete(graph, {0: 5, 31: 9}, seed=1)
    assert result.success
    assert result.winner.value == 9
    # Adoption times grow with distance from the winning candidate.
    times = result.reception_rounds
    assert times[31] == -1  # knew it from the start
    assert all(times[node] is not None for node in graph.nodes())
    assert times[0] > times[16] > times[30] >= 0


def test_equal_values_tie_broken_by_source():
    result = compete(topology.star_graph(4), {1: 7, 2: 7}, seed=2)
    assert result.success
    # Message ordering makes one of the two a strict winner.
    assert result.winner in (Message(value=7, source=1), Message(value=7, source=2))
    assert all(best == result.winner for best in result.final_messages.values())


def test_no_candidates_charges_full_schedule_and_fails():
    primitive = Compete(topology.star_graph(4))
    result = primitive.run({}, seed=0)
    assert not result.success
    assert result.winner is None
    assert result.num_candidates == 0
    assert result.rounds == primitive.parameters.total_rounds
    assert result.informed_fraction == 0.0


def test_spontaneous_dummies_cannot_win():
    graph = topology.path_graph(16)
    result = compete(graph, {0: 3}, seed=4, spontaneous=True)
    assert result.success
    assert result.winner == Message(value=3, source=0)
    # Dummy messages rank strictly below the real candidate.
    assert all(best == result.winner for best in result.final_messages.values())


def test_everyone_a_candidate_with_same_message_needs_no_rounds():
    graph = topology.star_graph(3)
    shared = Message(value=1, source="origin")
    result = compete(graph, {node: shared for node in graph.nodes()}, seed=0)
    assert result.success
    assert result.rounds == 0


def test_single_node_network_trivially_succeeds():
    graph = topology.path_graph(1)
    result = compete(graph, {0: 1}, seed=0)
    assert result.success
    assert result.rounds == 0


def test_candidate_validation():
    graph = topology.path_graph(4)
    with pytest.raises(ConfigurationError):
        compete(graph, {99: 1}, seed=0)
    with pytest.raises(ConfigurationError):
        compete(graph, {0: "not-a-message"}, seed=0)
    with pytest.raises(ConfigurationError):
        compete(graph, [0, 1], seed=0)


def test_parameter_graph_mismatch_rejected():
    from repro import CompeteParameters

    params = CompeteParameters.derive(8, 3)
    with pytest.raises(ConfigurationError):
        Compete(topology.path_graph(4),
                config=ExecutionConfig(parameters=params))


def test_compete_is_deterministic_given_seed():
    graph = topology.connected_gnp_graph(24, 0.2, seed=11)
    first = compete(graph, {0: 1, 5: 2}, seed=33)
    second = compete(graph, {0: 1, 5: 2}, seed=33)
    assert first.rounds == second.rounds
    assert dict(first.reception_rounds) == dict(second.reception_rounds)


def test_monte_carlo_success_on_random_graphs():
    """Compete saturates on seeded random graphs: 30/30 across families."""
    successes = 0
    trials = 0
    for graph_seed in range(5):
        graph = topology.connected_gnp_graph(32, 0.15, seed=graph_seed)
        for run_seed in range(3):
            trials += 1
            result = compete(graph, {0: 1, 7: 2}, seed=run_seed)
            successes += result.success
    for graph_seed in range(5):
        graph = topology.random_tree_graph(32, seed=graph_seed)
        for run_seed in range(3):
            trials += 1
            result = compete(graph, {0: 1, 7: 2}, seed=run_seed)
            successes += result.success
    assert successes == trials == 30


def test_decay_empirical_rate_dominates_lemma_31_bound():
    """Monte-Carlo check of Lemma 3.1 on a star: the centre's reception
    rate over one Decay round dominates the analytic lower bound."""
    rng = np.random.default_rng(2017)
    trials = 300
    for contenders in (1, 2, 4, 8, 16):
        graph = topology.star_graph(contenders)
        hits = 0
        for _ in range(trials):
            network = RadioNetwork(graph)
            participants = {
                leaf: Message(value=leaf, source=leaf)
                for leaf in range(1, contenders + 1)
            }
            heard = simulate_decay_round(network, participants, rng, listeners=[0])
            hits += 0 in heard
        empirical = hits / trials
        bound = decay_success_probability_lower_bound(contenders)
        # Allow Monte-Carlo slack below the bound (3-sigma-ish).
        slack = 3.0 * (bound * (1 - bound) / trials) ** 0.5
        assert empirical >= bound - slack, (
            f"k={contenders}: empirical {empirical:.3f} < bound {bound:.3f}"
        )


# ----------------------------------------------------------------------
# Block reads against the scalar-draw oracle (tests/protocol_oracle.py)
# ----------------------------------------------------------------------
#: The decay cycle of 14 steps: probability 1 first, then halving.
DECAY_14 = tuple(2.0 ** -step for step in range(14))


def _same_stream_pair(seed, cycle, initial):
    """A block-reading node and its scalar oracle, each on a generator
    built from the same ``SeedSequence`` child."""
    child = np.random.SeedSequence(seed).spawn(4)[seed % 4]
    return (
        CompeteProtocol(0, 8, 3, np.random.default_rng(child), cycle,
                        initial=initial),
        ScalarDrawCompeteProtocol(0, 8, 3, np.random.default_rng(child),
                                  cycle, initial=initial),
    )


def _hearing_script(seed, rounds, start):
    """What the node hears when it listens: from round ``start`` on, now
    and then a higher message (an adoption), a lower one, or noise."""
    rng = random.Random(seed)
    script = {}
    for round_number in range(start, rounds):
        u = rng.random()
        if round_number == start or u < 0.05:
            script[round_number] = Message(round_number, source=seed)
        elif u < 0.1:
            script[round_number] = Message(-1, source=seed)
        elif u < 0.15:
            script[round_number] = COLLISION
    return script


@pytest.mark.parametrize(
    "cycle", [(1.0,), (0.5,), (1.0, 0.5, 0.25), DECAY_14],
    ids=["p1", "p-half", "cycle-3", "cycle-14"],
)
def test_block_reads_act_like_the_scalar_oracle(cycle):
    rounds = 200
    mid_block_adoptions = 0
    for seed in range(12):
        # Odd seeds start uninformed and listen through a stretch of
        # silence and noise, drawing nothing, until their first message.
        initial = Message(0, source=seed) if seed % 2 == 0 else None
        start = 0 if initial is not None else 1 + seed
        fast, slow = _same_stream_pair(seed, cycle, initial)
        script = _hearing_script(seed, rounds, start)
        draws = 0
        for round_number in range(rounds):
            draws += fast.best is not None
            action, expected = fast.act(round_number), slow.act(round_number)
            assert action.kind is expected.kind, (seed, round_number)
            assert action.message is expected.message, (seed, round_number)
            # receive comes only in rounds the node heard something, and
            # a transmitter hears nothing (the model is half-duplex).
            heard = script.get(round_number)
            before = fast.best
            if heard is not None and not action.is_transmit:
                fast.receive(round_number, heard)
                slow.receive(round_number, heard)
            assert fast.best is slow.best
            assert fast.adopted_round == slow.adopted_round
            if fast.best is not before and draws % BLOCK:
                mid_block_adoptions += 1
        # Every run reads well past three refills of the block.
        assert draws > 3 * BLOCK
    if min(cycle) < 1.0:
        assert mid_block_adoptions > 0


def test_a_write_to_best_from_outside_is_what_the_node_sends():
    node = CompeteProtocol(0, 2, 1, np.random.default_rng(0), (1.0,),
                           initial=Message(1, source=0))
    first = node.act(0)
    assert first.message == Message(1, source=0)
    assert node.act(1) is first
    node.best = Message(5, source=1)
    assert node.act(2).message is node.best


@pytest.mark.parametrize(
    "factory, values, spontaneous, config",
    [
        (lambda: topology.grid_graph(5, 5), {0: 10, 24: 20, 12: 15}, True,
         None),
        (lambda: topology.path_graph(17), {0: 1}, False, None),
        (lambda: topology.path_of_cliques_graph(5, 5), {0: 1}, True,
         ExecutionConfig(strategy="clustered")),
        (lambda: topology.grid_graph(6, 6), {0: 1}, True,
         ExecutionConfig(dynamics=DynamicsSpec(
             fault_seed=11, models=(EdgeChurn(p_down=0.08, p_up=0.4),)))),
    ],
    ids=["grid-spontaneous", "path-classical", "cliques-clustered",
         "grid-churn"],
)
def test_scalar_oracle_nodes_reproduce_the_reference_run(
    factory, values, spontaneous, config
):
    graph = factory()
    for seed in (0, 7):
        run, winner = protocol_oracle.run_race(
            graph, values, seed=seed, spontaneous=spontaneous, config=config
        )
        result = Compete(graph, config=config).run(
            values, seed=seed, spontaneous=spontaneous
        )
        assert result.winner == winner
        assert result.rounds == run.rounds
        assert result.metrics.as_dict() == run.metrics.as_dict()
        states = run.outputs
        assert dict(result.final_messages) == {
            node: state.best for node, state in states.items()
        }
        assert dict(result.reception_rounds) == {
            node: state.adopted_round if state.best == winner else None
            for node, state in states.items()
        }


def test_the_stop_rule_compares_each_holder_with_the_winner_once(
    monkeypatch
):
    # A holder never loses the winner, so the reference stop rule walks
    # past each holder once and fails at most once per round: at most
    # n + rounds comparisons in all.  The results equal the scalar
    # oracle's race, whose stop rule scans every node every round.
    graph = topology.grid_graph(16, 16)
    config = ExecutionConfig(dynamics=DynamicsSpec(
        fault_seed=2017, models=(EdgeChurn(p_down=0.05, p_up=0.35),)))
    values = {0: 1}
    expected = [
        protocol_oracle.run_race(
            graph, values, seed=seed, spontaneous=True, config=config
        )
        for seed in (0, 7)
    ]
    counting = False
    comparisons = 0
    equal = Message.__eq__

    def counted_equal(self, other):
        nonlocal comparisons
        comparisons += counting
        return equal(self, other)

    class SpiedRunner(ProtocolRunner):
        def __init__(self, *args, stop_when, **kwargs):
            def spied(outcome, protocols):
                nonlocal counting
                counting = True
                try:
                    return stop_when(outcome, protocols)
                finally:
                    counting = False

            super().__init__(*args, stop_when=spied, **kwargs)

    monkeypatch.setattr(Message, "__eq__", counted_equal)
    monkeypatch.setattr(
        importlib.import_module("repro.core.compete"), "ProtocolRunner",
        SpiedRunner,
    )
    for seed, (run, winner) in zip((0, 7), expected):
        comparisons = 0
        result = Compete(graph, config=config).run(
            values, seed=seed, spontaneous=True
        )
        assert result.success and result.rounds == run.rounds
        assert 0 < comparisons <= graph.num_nodes + result.rounds
        assert result.metrics.as_dict() == run.metrics.as_dict()
        states = run.outputs
        assert dict(result.final_messages) == {
            node: state.best for node, state in states.items()
        }
        assert dict(result.reception_rounds) == {
            node: state.adopted_round if state.best == winner else None
            for node, state in states.items()
        }
