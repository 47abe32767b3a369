"""The Compete primitive: saturation, ordering, Decay's Lemma 3.1 bound."""

import numpy as np
import pytest

from repro import Compete, compete, topology
from repro.api import ExecutionConfig
from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.network.radio import RadioNetwork
from repro.schedules.decay import (
    decay_success_probability_lower_bound,
    simulate_decay_round,
)


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
