"""The round-accurate protocol driver.

:class:`ProtocolRunner` is the only place in the package that advances
simulated time: each round it collects every node's
:meth:`~repro.network.protocol.NodeProtocol.act`, hands the transmit
actions to :meth:`~repro.network.radio.RadioNetwork.run_round`, and
reports each reception back through
:meth:`~repro.network.protocol.NodeProtocol.receive` -- only to the
nodes that heard something, since a silent round carries nothing.
Protocols therefore never see the graph or each other -- exactly the
information hiding the ad-hoc model requires.

Randomness is per node: :func:`spawn_node_rngs` derives one independent
``numpy`` generator per node from a single seed via
``numpy.random.SeedSequence.spawn``, so runs are exactly reproducible and
no node's draws depend on the iteration order of another's.  Each
generator belongs to its node's protocol alone, so a protocol may read
it ahead in blocks: ``Generator.random(k)`` returns the values of ``k``
scalar ``random()`` calls, so a block read changes no decision.  The
reference Compete node reads 16 at a time.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError, ProtocolError
from repro.network.graph import Graph
from repro.network.protocol import ActionKind, NodeProtocol
from repro.network.radio import RadioNetwork, RoundOutcome
from repro.simulation.results import RunResult, StopReason

#: A factory that builds the protocol for one node.  Called once per node
#: with ``(node_id, num_nodes, diameter, rng)`` where ``rng`` is that
#: node's private generator.
SeededProtocolFactory = Callable[[Any, int, int, np.random.Generator], NodeProtocol]

#: An observer-level stop predicate, evaluated after every round with the
#: round's outcome and the (mutable) protocol map.  Returning True ends
#: the run with :attr:`StopReason.CONDITION`.
StopPredicate = Callable[[RoundOutcome, Mapping[Any, NodeProtocol]], bool]

# Bound once: it is compared once per node and round.
_TRANSMIT = ActionKind.TRANSMIT


def spawn_node_rngs(
    graph: Graph, seed: Optional[int] = None
) -> dict[Any, np.random.Generator]:
    """Return one independent random generator per node of ``graph``.

    Generators are derived from ``numpy.random.SeedSequence(seed)`` in the
    graph's (deterministic) node insertion order, so the same seed always
    yields the same per-node streams.
    """
    seed_sequence = np.random.SeedSequence(seed)
    children = seed_sequence.spawn(graph.num_nodes)
    return {
        node: np.random.default_rng(child)
        for node, child in zip(graph.nodes(), children)
    }


def build_seeded_protocols(
    network: RadioNetwork,
    factory: SeededProtocolFactory,
    seed: Optional[int] = None,
    diameter: Optional[int] = None,
) -> dict[Any, NodeProtocol]:
    """Instantiate one protocol per node with a private seeded generator.

    Parameters
    ----------
    network:
        The network whose nodes need protocols.
    factory:
        Called as ``factory(node_id, num_nodes, diameter, rng)`` per node.
    seed:
        Seed for :func:`spawn_node_rngs`.
    diameter:
        The global parameter ``D`` handed to every protocol; computed from
        the graph when omitted (exact for small graphs, see
        :meth:`~repro.network.graph.Graph.diameter`).
    """
    graph = network.graph
    if diameter is None:
        diameter = graph.diameter()
    rngs = spawn_node_rngs(graph, seed)
    return {
        node: factory(node, graph.num_nodes, diameter, rngs[node])
        for node in graph.nodes()
    }


class ProtocolRunner:
    """Drives per-node protocols against a radio network, round by round.

    Parameters
    ----------
    network:
        The :class:`~repro.network.radio.RadioNetwork` to run on.  Its
        global round counter and metrics keep advancing across runs; the
        returned :class:`~repro.simulation.results.RunResult` carries the
        per-run metrics delta.
    protocols:
        Mapping from node to its :class:`~repro.network.protocol.NodeProtocol`.
        Every key must be a node of the network's graph; nodes without a
        protocol listen passively and receive no callbacks.  A protocol's
        :meth:`~repro.network.protocol.NodeProtocol.receive` is called
        only in the rounds its node heard something.
    max_rounds:
        The round budget for one :meth:`run` call.
    stop_when:
        Optional predicate evaluated after every round (see
        :data:`StopPredicate`).  This is an *observer-level* condition --
        it may inspect global state the protocols themselves cannot see,
        e.g. "every node has adopted the winning message".  It is also
        the one way to watch a run: it receives every round's
        :class:`~repro.network.radio.RoundOutcome`, in order, so a
        predicate that records them and returns False traces the whole
        run.
    """

    def __init__(
        self,
        network: RadioNetwork,
        protocols: Mapping[Any, NodeProtocol],
        *,
        max_rounds: int,
        stop_when: Optional[StopPredicate] = None,
    ) -> None:
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        for node in protocols:
            if node not in network.graph:
                raise ProtocolError(
                    f"protocol supplied for unknown node {node!r}"
                )
        self._network = network
        self._protocols = dict(protocols)
        self._max_rounds = max_rounds
        self._stop_when = stop_when

    def run(self) -> RunResult:
        """Execute rounds until ``stop_when`` fires or the budget ends."""
        network = self._network
        start_metrics = network.metrics.copy()
        first_round = network.current_round
        rounds_executed = 0
        stop_reason = StopReason.BUDGET_EXHAUSTED

        protocols = self._protocols
        while rounds_executed < self._max_rounds:
            round_number = network.current_round
            actions = {}
            for node, protocol in protocols.items():
                action = protocol.act(round_number)
                if action.kind is _TRANSMIT:
                    actions[node] = action
            outcome = network.run_round(actions)
            for node, heard in outcome.received.items():
                protocol = protocols.get(node)
                if protocol is not None:
                    protocol.receive(round_number, heard)
            rounds_executed += 1
            if self._stop_when is not None and self._stop_when(outcome, protocols):
                stop_reason = StopReason.CONDITION
                break

        return RunResult(
            stop_reason=stop_reason,
            rounds=rounds_executed,
            first_round=first_round if rounds_executed else None,
            outputs={node: p.output() for node, p in self._protocols.items()},
            metrics=network.metrics.diff(start_metrics),
        )
