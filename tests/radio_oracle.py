"""A listener-driven oracle for the radio network's collision round.

:meth:`repro.network.radio.RadioNetwork.run_round` applies the collision
rule from the transmitters' side: it pushes each transmission over the
sender's up links and counts hits per listener.  This module keeps the
plain per-listener form of the same rule.  Every listener scans its own
neighbours for audible transmitters, once to decide what it hears and
once more, if it heard nothing, to split a collision from an idle
listen.  Churn is asked per (listener, neighbour) pair through the
canonical edge ids of :func:`edge_ids`, built once per network.

It is a reference implementation that tests compare against, not a
second round: the package has one.  It has the network's interface
(``run_round``, ``metrics``, ``current_round``).
"""

from repro.network.messages import COLLISION, SILENCE, Message
from repro.network.metrics import NetworkMetrics
from repro.network.radio import CollisionModel, RoundOutcome


def edge_ids(dynamics):
    """The canonical edge id of every link, keyed by both orientations."""
    lo, hi = dynamics.edge_endpoints
    nodes = dynamics.nodes
    ids = {}
    for edge, (i, j) in enumerate(zip(lo.tolist(), hi.tolist())):
        ids[nodes[i], nodes[j]] = ids[nodes[j], nodes[i]] = edge
    return ids


class ListenerDrivenNetwork:
    """``RadioNetwork``'s round, with the collision rule per listener."""

    def __init__(self, graph, collision_model=CollisionModel.NO_DETECTION,
                 *, dynamics=None):
        self._graph = graph
        self._collision_model = collision_model
        self._dynamics = dynamics
        self._edge_ids = edge_ids(dynamics) if dynamics is not None else {}
        self.metrics = NetworkMetrics()
        self.current_round = 0

    def run_round(self, actions) -> RoundOutcome:
        crashed, jammed, faults = set(), set(), None
        if self._dynamics is not None:
            faults = self._dynamics.round_faults(self.current_round)
            crashed = self._dynamics.crashed_nodes(faults)
            jammed = self._dynamics.jammed_nodes(faults)
        transmitters = {
            node: action.message
            for node, action in actions.items()
            if action.is_transmit and node not in crashed
        }
        received = {}
        for node in self._graph:
            if node in crashed or node in transmitters:
                received[node] = SILENCE
            elif node in jammed:
                received[node] = self._noise()
            else:
                audible = self._audible(node, transmitters, faults)
                if len(audible) == 1:
                    received[node] = transmitters[audible[0]]
                elif audible:
                    received[node] = self._noise()
                else:
                    received[node] = SILENCE
        self._count(transmitters, received, faults, crashed, jammed)
        outcome = RoundOutcome(self.current_round, transmitters, received)
        self.current_round += 1
        return outcome

    def _noise(self):
        if self._collision_model is CollisionModel.WITH_DETECTION:
            return COLLISION
        return SILENCE

    def _audible(self, node, transmitters, faults):
        """Transmitting neighbours of ``node`` over links up this round."""
        return [
            neighbour
            for neighbour in self._graph.neighbors(node)
            if neighbour in transmitters
            and (faults is None or faults.edge_up is None
                 or faults.edge_up[self._edge_ids[node, neighbour]])
        ]

    def _count(self, transmitters, received, faults, crashed, jammed):
        metrics = self.metrics
        metrics.rounds += 1
        metrics.transmissions += len(transmitters)
        if faults is not None:
            metrics.suppressed_links += faults.suppressed
            metrics.crashed_nodes += faults.crashed_count
        for node, heard in received.items():
            if node in crashed or node in transmitters:
                continue
            if node in jammed:
                metrics.jammed_listens += 1
            elif isinstance(heard, Message):
                metrics.receptions += 1
            elif len(self._audible(node, transmitters, faults)) >= 2:
                metrics.collisions += 1
            else:
                metrics.idle_listens += 1
