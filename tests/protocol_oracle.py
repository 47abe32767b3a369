"""The scalar-draw form of the reference Compete node.

:class:`repro.core.compete.CompeteProtocol` reads its node's generator a
block of draws at a time and reuses one transmit action per message it
holds.  This module keeps the plain form those replaced: one scalar
``Generator.random()`` call on every round the node holds a message, and
a new :class:`~repro.network.protocol.Action` on every transmission.
Both read the same stream, so they must act alike in every round.

:func:`run_race` drives a whole Compete race through ``ProtocolRunner``
with these nodes, built as ``Compete.run`` builds its own.  It is a
reference that tests compare against, not a second protocol the package
uses.
"""

from repro.api import resolve_execution
from repro.core.compete import CompeteNodeState
from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.network.protocol import Action, NodeProtocol
from repro.network.radio import RadioNetwork
from repro.simulation.runner import ProtocolRunner, spawn_node_rngs


class ScalarDrawCompeteProtocol(NodeProtocol):
    """``CompeteProtocol`` with one scalar draw per informed round."""

    def __init__(self, node_id, num_nodes, diameter, rng, probabilities,
                 initial=None):
        super().__init__(node_id, num_nodes, diameter)
        if not probabilities:
            raise ConfigurationError(
                f"node {node_id!r} needs a non-empty probability cycle"
            )
        self._rng = rng
        self._probabilities = tuple(probabilities)
        self.best = initial
        self.adopted_round = None if initial is None else -1

    def act(self, round_number):
        if self.best is None:
            return Action.listen()
        cycle = self._probabilities
        probability = cycle[round_number % len(cycle)]
        if self._rng.random() < probability:
            return Action.transmit(self.best)
        return Action.listen()

    def receive(self, round_number, heard):
        if isinstance(heard, Message) and heard.beats(self.best):
            self.best = heard
            self.adopted_round = round_number

    def output(self):
        return CompeteNodeState(best=self.best, adopted_round=self.adopted_round)


def run_race(graph, values, *, seed, spontaneous, config=None):
    """A Compete race on ``graph`` with scalar-draw nodes.

    ``values`` maps each candidate node to its integer value.  The nodes
    start as ``Compete.run`` starts its own: candidates hold
    ``Message(value, source=node)``, and under ``spontaneous`` every
    other node holds a dummy one below the lowest candidate.  The run
    stops once every node holds the winner.  Returns the runner's
    ``RunResult`` and the winner.
    """
    resolved = resolve_execution(graph, config)
    schedule = resolved.schedule
    dummy = min(values.values(), default=0) - 1
    initial = {}
    for node in graph:
        if node in values:
            initial[node] = Message(values[node], source=node)
        elif spontaneous:
            initial[node] = Message(dummy, source=node)
        else:
            initial[node] = None
    winner = max(
        (initial[node] for node in values), key=Message.sort_key,
        default=None,
    )
    rngs = spawn_node_rngs(graph, seed)
    protocols = {
        node: ScalarDrawCompeteProtocol(
            node, graph.num_nodes, resolved.parameters.diameter, rngs[node],
            schedule.probabilities(node), initial=initial[node],
        )
        for node in graph
    }
    network = RadioNetwork(
        graph, resolved.collision_model, dynamics=resolved.fault_schedule
    )
    runner = ProtocolRunner(
        network, protocols, max_rounds=resolved.parameters.total_rounds,
        stop_when=lambda outcome, nodes: winner is not None and all(
            node.best == winner for node in nodes.values()
        ),
    )
    return runner.run(), winner
