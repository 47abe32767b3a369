"""ProtocolRunner: the stop predicate, budgets, accounting, and which
nodes ``receive`` is called for."""

import pytest

from radio_oracle import ListenerDrivenNetwork
from repro import topology
from repro.dynamics import (
    DynamicsSpec, EdgeChurn, FaultSchedule, JammingWindows, NodeCrash,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.network.messages import COLLISION, SILENCE, Message
from repro.network.protocol import Action, NodeProtocol
from repro.network.radio import CollisionModel, RadioNetwork
from repro.simulation import ProtocolRunner, StopReason, build_seeded_protocols


class OneShotBeacon(NodeProtocol):
    """Transmits once in ``fire_round`` (if it is the beacon), then idles;
    keeps the message it heard."""

    def __init__(self, node_id, num_nodes, diameter, is_beacon, fire_round=0):
        super().__init__(node_id, num_nodes, diameter)
        self.is_beacon = is_beacon
        self.fire_round = fire_round
        self.heard = None

    def act(self, round_number):
        if self.is_beacon and round_number == self.fire_round:
            return Action.transmit(Message(value=1, source=self.node_id))
        return Action.listen()

    def receive(self, round_number, heard):
        if isinstance(heard, Message):
            self.heard = heard

    def output(self):
        return self.heard


class Chatter(NodeProtocol):
    """Transmits a fresh message with probability 1/2 each round; keeps
    what it sent and what it heard, by round.  ``receive`` comes at most
    once a round, and never with SILENCE: a silent round has no call."""

    def __init__(self, node_id, num_nodes, diameter, rng):
        super().__init__(node_id, num_nodes, diameter)
        self.rng = rng
        self.sent = {}
        self.heard = {}

    def act(self, round_number):
        if self.rng.random() < 0.5:
            message = Message(value=round_number, source=self.node_id)
            self.sent[round_number] = message
            return Action.transmit(message)
        return Action.listen()

    def receive(self, round_number, heard):
        assert round_number not in self.heard
        assert heard is not SILENCE
        self.heard[round_number] = heard


def _beacon_protocols(graph, beacon):
    return {
        node: OneShotBeacon(node, graph.num_nodes, graph.diameter(), node == beacon)
        for node in graph.nodes()
    }


def _all_done(outcome, protocols):
    """Every node is the beacon or has heard a message."""
    return all(p.is_beacon or p.heard is not None for p in protocols.values())


def test_run_stops_when_all_done():
    graph = topology.star_graph(4)
    network = RadioNetwork(graph)
    runner = ProtocolRunner(
        network, _beacon_protocols(graph, beacon=0), max_rounds=10,
        stop_when=_all_done,
    )
    result = runner.run()
    assert result.stop_reason is StopReason.CONDITION
    assert result.completed
    assert result.rounds == 1
    assert result.first_round == 0
    # Every leaf heard the centre's single transmission.
    assert all(result.outputs[leaf] == Message(value=1, source=0) for leaf in range(1, 5))
    assert result.metrics.rounds == 1
    assert result.metrics.transmissions == 1
    assert result.metrics.receptions == 4


def test_budget_exhaustion_is_reported_not_raised_by_default():
    graph = topology.path_graph(3)
    network = RadioNetwork(graph)
    # Beacon fires at round 5 but the budget ends earlier.
    protocols = {
        node: OneShotBeacon(node, 3, 2, node == 0, fire_round=5)
        for node in graph.nodes()
    }
    runner = ProtocolRunner(
        network, protocols, max_rounds=3, stop_when=_all_done
    )
    result = runner.run()
    assert result.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert not result.completed
    assert result.rounds == 3
    # A zero budget runs no round, so there is no first round to report.
    empty = ProtocolRunner(network, protocols, max_rounds=0).run()
    assert empty.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert empty.rounds == 0
    assert empty.first_round is None


def test_stop_when_condition():
    graph = topology.star_graph(2)
    network = RadioNetwork(graph)
    protocols = {
        node: OneShotBeacon(node, 3, 2, False) for node in graph.nodes()
    }
    runner = ProtocolRunner(
        network,
        protocols,
        max_rounds=10,
        stop_when=lambda outcome, protos: outcome.round_number >= 4,
    )
    result = runner.run()
    assert result.stop_reason is StopReason.CONDITION
    assert result.rounds == 5


def test_stop_when_sees_every_round_in_order():
    # Churn drops links and jamming deafens listeners, so a round
    # delivers less than its transmitters sent.  The predicate still
    # sees every round once, in order, as the nodes saw it.
    graph = topology.grid_graph(3, 4)
    spec = DynamicsSpec(fault_seed=5, models=(
        EdgeChurn(p_down=0.3, p_up=0.4),
        JammingWindows(period=3, duration=2, fraction=0.4),
    ))
    network = RadioNetwork(graph, dynamics=FaultSchedule(spec, graph))
    protocols = build_seeded_protocols(network, Chatter, seed=11)
    seen = []

    def record(outcome, protos):
        seen.append(outcome)
        return False

    result = ProtocolRunner(
        network, protocols, max_rounds=12, stop_when=record
    ).run()
    assert result.stop_reason is StopReason.BUDGET_EXHAUSTED
    assert [outcome.round_number for outcome in seen] == list(range(12))
    for outcome in seen:
        round_number = outcome.round_number
        assert outcome.transmitters == {
            node: protocol.sent[round_number]
            for node, protocol in protocols.items()
            if round_number in protocol.sent
        }
        # receive was called exactly for the nodes the outcome says
        # heard something, with that value; every other node heard
        # SILENCE and got no call.
        called = {
            node: protocol.heard[round_number]
            for node, protocol in protocols.items()
            if round_number in protocol.heard
        }
        assert called.keys() == outcome.received.keys()
        for node in graph:
            assert outcome.heard(node) is called.get(node, SILENCE)
    assert sum(len(outcome.transmitters) for outcome in seen) == (
        result.metrics.transmissions
    )
    assert sum(
        isinstance(heard, Message)
        for outcome in seen for heard in outcome.received.values()
    ) == result.metrics.receptions > 0
    assert result.metrics.suppressed_links > 0
    assert result.metrics.jammed_listens > 0


@pytest.mark.parametrize(
    "model", list(CollisionModel), ids=lambda model: model.value
)
def test_receive_is_called_only_for_what_a_node_heard(model):
    # Every fault model at once: churn drops links, crashes silence
    # nodes, jamming deafens listeners (COLLISION under detection).  The
    # listener-driven oracle replays each round's chosen transmissions,
    # crashed senders' included, on its own copy of the fault schedule
    # and says what every node heard.
    graph = topology.grid_graph(4, 5)
    spec = DynamicsSpec(fault_seed=3, models=(
        EdgeChurn(p_down=0.3, p_up=0.4),
        NodeCrash(p_crash=0.15, p_recover=0.4),
        JammingWindows(period=3, duration=2, fraction=0.4),
    ))
    network = RadioNetwork(graph, model, dynamics=FaultSchedule(spec, graph))
    oracle_faults = FaultSchedule(spec, graph)
    oracle = ListenerDrivenNetwork(graph, model, dynamics=oracle_faults)
    protocols = build_seeded_protocols(network, Chatter, seed=5)
    seen = {"crashed": 0, "silent": 0, "noise": 0}

    def check(outcome, protos):
        round_number = outcome.round_number
        expected = oracle.run_round({
            node: Action.transmit(protocol.sent[round_number])
            for node, protocol in protos.items()
            if round_number in protocol.sent
        })
        alive = oracle_faults.block(round_number, 1)[0][0].tolist()
        crashed = {
            node for node, up in zip(oracle_faults.nodes, alive) if not up
        }
        called = {
            node: protocol.heard[round_number]
            for node, protocol in protos.items()
            if round_number in protocol.heard
        }
        # Exactly the nodes that heard something, with what they heard:
        # never a transmitter, a crashed node or an idle listener.
        assert called.keys() == {
            node for node in graph if expected.heard(node) is not SILENCE
        }
        assert not called.keys() & outcome.transmitters.keys()
        assert not called.keys() & crashed
        for node, heard in called.items():
            if isinstance(heard, Message):
                assert heard == expected.heard(node)
            else:
                assert heard is expected.heard(node) is COLLISION
        seen["crashed"] += len(crashed)
        # Listeners that heard SILENCE, and so got no call.
        seen["silent"] += graph.num_nodes - len(
            called.keys() | outcome.transmitters.keys() | crashed
        )
        seen["noise"] += sum(heard is COLLISION for heard in called.values())
        return False

    result = ProtocolRunner(
        network, protocols, max_rounds=30, stop_when=check
    ).run()
    assert result.rounds == 30
    assert seen["crashed"] > 0 and seen["silent"] > 0
    assert result.metrics.receptions > 0
    # Noise is delivered exactly when listeners can detect it.
    detection = model is CollisionModel.WITH_DETECTION
    assert (seen["noise"] > 0) is detection
    assert result.metrics == oracle.metrics


def test_runner_validates_inputs():
    graph = topology.path_graph(2)
    network = RadioNetwork(graph)
    with pytest.raises(ConfigurationError):
        ProtocolRunner(network, {}, max_rounds=-1)
    with pytest.raises(ProtocolError):
        ProtocolRunner(
            network, {99: OneShotBeacon(99, 2, 1, False)}, max_rounds=1
        )


def test_build_seeded_protocols_is_deterministic():
    graph = topology.path_graph(5)
    network = RadioNetwork(graph)
    seen_rngs = {}

    def factory(node, num_nodes, diameter, rng):
        seen_rngs[node] = rng.random()
        assert num_nodes == 5
        assert diameter == 4
        return OneShotBeacon(node, num_nodes, diameter, node == 0)

    build_seeded_protocols(network, factory, seed=42)
    first = dict(seen_rngs)
    seen_rngs.clear()
    build_seeded_protocols(network, factory, seed=42)
    assert seen_rngs == first
    # Per-node streams are independent, not identical.
    assert len(set(first.values())) == len(first)
