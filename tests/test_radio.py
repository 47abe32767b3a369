"""Collision semantics of the radio model (Section 1.1)."""

import random

import pytest

from radio_oracle import ListenerDrivenNetwork
from repro import topology
from repro.dynamics import (
    DynamicsSpec,
    EdgeChurn,
    FaultSchedule,
    JammingWindows,
    NodeCrash,
)
from repro.errors import ProtocolError
from repro.network.graph import Graph
from repro.network.messages import COLLISION, SILENCE, Message
from repro.network.protocol import Action
from repro.network.radio import CollisionModel, RadioNetwork


def _msg(value, source):
    return Message(value=value, source=source)


def test_single_transmitter_is_received():
    network = RadioNetwork(topology.star_graph(3))
    outcome = network.run_round({1: Action.transmit(_msg(7, 1))})
    # Only the centre heard something; the transmitter and the other
    # leaves heard SILENCE.
    assert outcome.received == {0: _msg(7, 1)}
    for node in (1, 2, 3):
        assert outcome.heard(node) is SILENCE


def test_two_transmitters_collide_silently_without_detection():
    network = RadioNetwork(topology.star_graph(3))
    outcome = network.run_round(
        {1: Action.transmit(_msg(1, 1)), 2: Action.transmit(_msg(2, 2))}
    )
    # The centre hears two neighbours: an undetected collision is SILENCE.
    # Leaf 3's only neighbour is the silent centre.
    assert outcome.received == {}
    for node in (0, 3):
        assert outcome.heard(node) is SILENCE


def test_collision_detection_variant_reports_collision():
    network = RadioNetwork(
        topology.star_graph(3), collision_model=CollisionModel.WITH_DETECTION
    )
    outcome = network.run_round(
        {1: Action.transmit(_msg(1, 1)), 2: Action.transmit(_msg(2, 2))}
    )
    assert outcome.received == {0: COLLISION}
    assert outcome.heard(0) is COLLISION
    assert outcome.heard(3) is SILENCE


def test_transmitter_is_half_duplex():
    graph = topology.path_graph(2)
    network = RadioNetwork(graph)
    outcome = network.run_round(
        {0: Action.transmit(_msg(1, 0)), 1: Action.transmit(_msg(2, 1))}
    )
    # Both transmitted, so neither heard the other.
    assert outcome.received == {}
    assert outcome.heard(0) is SILENCE
    assert outcome.heard(1) is SILENCE


def test_unknown_node_rejected():
    network = RadioNetwork(topology.path_graph(2))
    with pytest.raises(ProtocolError):
        network.run_round({99: Action.listen()})


def test_metrics_count_the_true_collision_idle_split():
    network = RadioNetwork(topology.star_graph(3))
    network.run_round(
        {1: Action.transmit(_msg(1, 1)), 2: Action.transmit(_msg(2, 2))}
    )
    metrics = network.metrics
    assert metrics.rounds == 1
    assert metrics.transmissions == 2
    assert metrics.receptions == 0
    # Centre saw a (silent) collision; leaf 3 idled.
    assert metrics.collisions == 1
    assert metrics.idle_listens == 1


def test_metrics_copy_and_diff():
    network = RadioNetwork(topology.path_graph(3))
    network.run_round({0: Action.transmit(_msg(1, 0))})
    before = network.metrics.copy()
    network.run_round({0: Action.transmit(_msg(1, 0))})
    delta = network.metrics.diff(before)
    assert delta.rounds == 1
    assert delta.transmissions == 1
    assert before.rounds == 1  # snapshot unaffected


# ----------------------------------------------------------------------
# Generated cases: the transmitter-driven round against the
# listener-driven oracle (tests/radio_oracle.py)
# ----------------------------------------------------------------------
def _labelled_gnp(seed):
    """A gnp sample on string node ids, in a shuffled insertion order."""
    base = topology.connected_gnp_graph(16, 0.25, seed=seed)
    order = base.nodes()
    random.Random(seed).shuffle(order)
    return Graph(
        nodes=[f"v{node}" for node in order],
        edges=[(f"v{u}", f"v{v}") for u, v in base.edges()],
    )


_FAMILIES = {
    "path": lambda seed: topology.path_graph(6 + seed % 5),
    "cycle": lambda seed: topology.cycle_graph(5 + seed % 6),
    "star": lambda seed: topology.star_graph(4 + seed % 5),
    "grid": lambda seed: topology.grid_graph(3 + seed % 2, 4),
    "complete": lambda seed: topology.complete_graph(4 + seed % 4),
    "gnp": lambda seed: topology.connected_gnp_graph(20, 0.2, seed=seed),
    "tree": lambda seed: topology.random_tree_graph(18, seed=seed),
    "geometric": lambda seed: topology.random_geometric_graph(
        20, seed=seed
    ),
    "labelled-gnp": _labelled_gnp,
}

_FAULTS = {
    "static": (),
    "crash+jam": (
        NodeCrash(p_crash=0.15, p_recover=0.4),
        JammingWindows(period=3, duration=2, fraction=0.4),
    ),
    "churn+crash+jam": (
        EdgeChurn(p_down=0.3, p_up=0.4),
        NodeCrash(p_crash=0.15, p_recover=0.4),
        JammingWindows(period=3, duration=2, offset=1, fraction=0.4),
    ),
}


def _random_actions(graph, rng):
    """A random transmit set; some nodes get no action (they listen)."""
    p = rng.choice((0.0, 0.1, 0.3, 0.6, 1.0))
    actions = {}
    for node in graph.nodes():
        if rng.random() < 0.15:
            continue
        if rng.random() < p:
            message = Message(value=rng.randrange(5), source=node)
            actions[node] = Action.transmit(message)
        else:
            actions[node] = Action.listen()
    return actions


def _assert_same_hearing(graph, got, expected):
    # Every node hears the same, sentinels by identity, and ``received``
    # holds exactly the nodes that heard something.
    for node in graph:
        heard = expected.heard(node)
        if isinstance(heard, Message):
            assert got.heard(node) == heard
        else:
            assert got.heard(node) is heard, node
    assert got.received.keys() == {
        node for node, heard in expected.received.items()
        if heard is not SILENCE
    }


@pytest.mark.parametrize(
    "model", list(CollisionModel), ids=lambda model: model.value
)
@pytest.mark.parametrize("faults", list(_FAULTS))
@pytest.mark.parametrize("family", list(_FAMILIES))
def test_round_matches_the_listener_driven_oracle(family, faults, model):
    for seed in range(3):
        graph = _FAMILIES[family](seed)
        dynamics = [None, None]
        if _FAULTS[faults]:
            spec = DynamicsSpec(fault_seed=seed, models=_FAULTS[faults])
            dynamics = [FaultSchedule(spec, graph) for _ in range(2)]
        network = RadioNetwork(graph, model, dynamics=dynamics[0])
        oracle = ListenerDrivenNetwork(graph, model, dynamics=dynamics[1])
        rng = random.Random(seed)
        for round_number in range(24):
            actions = _random_actions(graph, rng)
            before = network.metrics.copy(), oracle.metrics.copy()
            outcome = network.run_round(actions)
            expected = oracle.run_round(actions)
            assert outcome.round_number == expected.round_number
            assert outcome.transmitters == expected.transmitters
            _assert_same_hearing(graph, outcome, expected)
            delta = network.metrics.diff(before[0])
            assert delta == oracle.metrics.diff(before[1])
            # Every node lands in exactly one bucket each round.
            assert (
                delta.transmissions + delta.receptions + delta.collisions
                + delta.idle_listens + delta.jammed_listens
                + delta.crashed_nodes
            ) == graph.num_nodes
