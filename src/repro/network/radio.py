"""The synchronous radio network model (Section 1.1 of the paper).

The distinguishing feature of the model is the interfering behaviour of
transmissions: if a node listens in a given round and *precisely one* of
its neighbours transmits, the node receives the message; in all other
cases it receives nothing.  Without collision detection a listener cannot
distinguish "no neighbour transmitted" from "two or more transmitted".
The optional collision-detection variant reports the latter case with the
:data:`~repro.network.messages.COLLISION` sentinel.

:meth:`RadioNetwork.run_round` applies the rule from the transmitters'
side.  It walks each transmitter's neighbours once, over the links that
are up this round, keeping the first message that reaches each listener
and marking a listener a second one reaches as a collision.  So a round
costs the transmitters' degrees, and only the nodes that heard something
appear in its outcome: every other node heard
:data:`~repro.network.messages.SILENCE`.

:class:`RadioNetwork` is intentionally a *pure* model object: it holds the
graph, the collision semantics and the metric counters, and exposes a
single :meth:`RadioNetwork.run_round` operation that maps the round's
transmit actions to the receptions they cause.  Driving protocols round
by round is the job of :class:`repro.simulation.runner.ProtocolRunner`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import AbstractSet, Any, Mapping, Optional

import numpy as np

from repro.errors import ProtocolError
from repro.network.graph import Graph
from repro.network.messages import COLLISION, SILENCE, Message
from repro.network.metrics import NetworkMetrics
from repro.network.protocol import Action, ActionKind

# Bound once: an enum member lookup per action is a measurable share of
# a round at n = 256.
_TRANSMIT = ActionKind.TRANSMIT


class CollisionModel(enum.Enum):
    """Which collision semantics the network applies.

    ``NO_DETECTION`` is the model the paper studies: collisions are
    silent.  ``WITH_DETECTION`` is the standard stronger variant used by
    some related work (e.g. Ghaffari, Haeupler, Khabbazian 2015) and is
    provided for the comparison benchmarks.
    """

    NO_DETECTION = "no-detection"
    WITH_DETECTION = "with-detection"


@dataclasses.dataclass(frozen=True)
class RoundOutcome:
    """Everything that happened in one simulated round.

    Attributes
    ----------
    round_number:
        The index of the executed round (0-based).
    transmitters:
        Mapping from transmitting node to the message it sent.
    received:
        Mapping from each node that heard something to what it heard: a
        :class:`~repro.network.messages.Message`, or :data:`COLLISION`
        under collision detection.  Every other node heard
        :data:`SILENCE`; :meth:`heard` answers for any node.

    :class:`~repro.simulation.runner.ProtocolRunner` hands every round's
    outcome to its ``stop_when`` observer, the one place a reference run
    is watched round by round.
    """

    round_number: int
    transmitters: Mapping[Any, Message]
    received: Mapping[Any, Any]

    def heard(self, node: Any) -> Any:
        """What ``node`` heard this round (:data:`SILENCE` if nothing)."""
        return self.received.get(node, SILENCE)


class RadioNetwork:
    """A radio network: a graph plus the model's collision semantics.

    Parameters
    ----------
    graph:
        The underlying connected communication graph.
    collision_model:
        Whether listeners can detect collisions.  Defaults to the paper's
        model (no detection).
    dynamics:
        Optional, keyword-only :class:`repro.dynamics.FaultSchedule`
        (duck-typed -- anything with ``spec``/``nodes``/``links``/
        ``block``).  When provided, every round first reads its row of
        the schedule's masks (``block(round, 1)``, the read the
        vectorized engine makes a block of rounds at a time): crashed
        nodes are radio-off (their transmissions are suppressed and
        they hear :data:`SILENCE`), down links carry nothing, and
        jammed alive listeners hear noise (:data:`COLLISION` under
        detection, :data:`SILENCE` without).  The protocol layer is
        never told -- faults act on the channel, not on node state.
    """

    def __init__(
        self,
        graph: Graph,
        collision_model: CollisionModel = CollisionModel.NO_DETECTION,
        *,
        dynamics: Optional[Any] = None,
    ) -> None:
        self._graph = graph
        self._collision_model = collision_model
        self._dynamics = dynamics
        self._metrics = NetworkMetrics()
        self._round_number = 0
        spec = dynamics.spec if dynamics is not None else None
        # The schedule's canonical node order: mask index -> node.
        self._nodes = dynamics.nodes if dynamics is not None else ()
        self._crash = spec is not None and spec.crash is not None
        self._jam = spec is not None and spec.jamming is not None
        # Under churn, each node's (neighbour, edge id) pairs, so "is
        # this link up" is one index into the round's edge_up list.
        self._links: Optional[dict[Any, list[tuple[Any, int]]]] = None
        if spec is not None and spec.churn is not None:
            self._links = dynamics.links()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying communication graph."""
        return self._graph

    @property
    def collision_model(self) -> CollisionModel:
        """The collision semantics in effect."""
        return self._collision_model

    @property
    def metrics(self) -> NetworkMetrics:
        """Aggregate counters for all rounds executed so far."""
        return self._metrics

    @property
    def current_round(self) -> int:
        """The index of the next round to be executed."""
        return self._round_number

    # ------------------------------------------------------------------
    # Core semantics
    # ------------------------------------------------------------------
    def run_round(self, actions: Mapping[Any, Action]) -> RoundOutcome:
        """Execute one synchronous round.

        Parameters
        ----------
        actions:
            A mapping from node to its
            :class:`~repro.network.protocol.Action` for this round.
            Only the transmit actions matter: missing nodes listen,
            which matches the model (a node that does nothing is simply
            silent), but unknown nodes are rejected.

        Returns
        -------
        RoundOutcome
            The transmitters, and what each node that heard something
            heard.  Transmitting nodes hear :data:`SILENCE` (the model
            is half-duplex: a transmitter cannot listen in the same
            round).

        Raises
        ------
        ProtocolError
            If ``actions`` mentions a node that is not in the graph.
        """
        # The graph's own neighbour sets, read in place (Graph.neighbors
        # copies one per call).
        adjacency = self._graph._adjacency
        if not actions.keys() <= adjacency.keys():
            unknown = next(node for node in actions if node not in adjacency)
            raise ProtocolError(f"action supplied for unknown node {unknown!r}")

        crashed: AbstractSet[Any] = frozenset()
        jammed: AbstractSet[Any] = frozenset()
        up: Optional[list[bool]] = None
        if self._dynamics is not None:
            # Row 0 of each read-only view is this round's mask.
            alive, jamming, edge_up = self._dynamics.block(
                self._round_number, 1
            )
            nodes = self._nodes
            if self._crash:
                crashed = {
                    nodes[i] for i in np.flatnonzero(~alive[0]).tolist()
                }
            if self._jam:
                jammed = {
                    nodes[i] for i in np.flatnonzero(jamming[0]).tolist()
                }
            # Environment counters are per (entity, round) regardless of
            # traffic -- exactly what the vectorized engine charges.
            self._metrics.crashed_nodes += len(crashed)
            if edge_up is not None:
                up = edge_up[0].tolist()
                self._metrics.suppressed_links += len(up) - int(
                    np.count_nonzero(edge_up)
                )

        # A crashed node's transmission is suppressed here, *after* the
        # protocol consumed its draw: replay accounting must not depend
        # on the fault schedule.
        transmitters: dict[Any, Message] = {
            node: action.message
            for node, action in actions.items()
            if action.kind is _TRANSMIT and node not in crashed
        }

        # Push every transmission over the sender's up links: a listener
        # keeps the first message that reaches it, and a second one
        # makes it a collision.
        heard: dict[Any, Any] = {}
        collided: set[Any] = set()
        links = self._links
        for sender, message in transmitters.items():
            if up is None:
                reached = adjacency[sender]
            else:
                reached = [node for node, edge in links[sender] if up[edge]]
            for listener in reached:
                if listener in heard:
                    collided.add(listener)
                else:
                    heard[listener] = message

        # Bucket precedence: crashed > transmitter > jammed > the
        # reception/collision/idle split, so every node lands in exactly
        # one bucket.  Crashed nodes (radio off) and transmitters
        # (half-duplex) hear nothing.  Jamming is noise on the listener's
        # channel, which collision detectors report as a collision.
        for node in (*transmitters, *crashed, *jammed):
            heard.pop(node, None)
        jammed_listens = jammed - crashed - transmitters.keys()
        # The true collision/idle split is counted whether or not the
        # listener can observe the difference.
        collisions = heard.keys() & collided
        receptions = len(heard) - len(collisions)
        if self._collision_model is CollisionModel.WITH_DETECTION:
            heard.update(dict.fromkeys(collisions | jammed_listens, COLLISION))
        else:
            for node in collisions:
                del heard[node]

        metrics = self._metrics
        metrics.rounds += 1
        metrics.transmissions += len(transmitters)
        metrics.receptions += receptions
        metrics.collisions += len(collisions)
        # Every other node is a listener that no transmitter reached.
        metrics.idle_listens += (
            len(adjacency) - len(crashed) - len(transmitters)
            - len(jammed_listens) - receptions - len(collisions)
        )
        metrics.jammed_listens += len(jammed_listens)

        outcome = RoundOutcome(self._round_number, transmitters, heard)
        self._round_number += 1
        return outcome
