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
are up this round, counting hits per listener and keeping the message
that reached it.  A listener's bucket then follows from its count: one
hit is a reception, two or more a collision, none an idle listen.  So
each count is made once per round, and a round costs the transmitters'
degrees plus one pass over the nodes.

:class:`RadioNetwork` is intentionally a *pure* model object: it holds the
graph, the collision semantics and the metric counters, and exposes a
single :meth:`RadioNetwork.run_round` operation that maps a dictionary of
node actions to a dictionary of receptions.  Driving protocols round by
round is the job of :class:`repro.simulation.runner.ProtocolRunner`.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import AbstractSet, Any, Mapping, Optional

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
        Mapping from every node to what it heard: a
        :class:`~repro.network.messages.Message`, :data:`SILENCE` or
        :data:`COLLISION`.

    :class:`~repro.simulation.runner.ProtocolRunner` hands every round's
    outcome to its ``stop_when`` observer, the one place a reference run
    is watched round by round.
    """

    round_number: int
    transmitters: Mapping[Any, Message]
    received: Mapping[Any, Any]


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
        (duck-typed -- anything with ``round_faults``/``crashed_nodes``/
        ``jammed_nodes``/``down_links``).  When provided, every round
        first resolves the schedule's fault state: crashed nodes are
        radio-off (their transmissions are suppressed and they hear
        :data:`SILENCE`), down links carry nothing, and jammed alive
        listeners hear noise (:data:`COLLISION` under detection,
        :data:`SILENCE` without).  The protocol layer is never told --
        faults act on the channel, not on node state.
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
            A mapping from *every* node in the graph to its
            :class:`~repro.network.protocol.Action` for this round.
            Missing nodes default to listening, which matches the model
            (a node that does nothing is simply silent), but unknown
            nodes are rejected.

        Returns
        -------
        RoundOutcome
            What every node heard.  Transmitting nodes hear
            :data:`SILENCE` (the model is half-duplex: a transmitter
            cannot listen in the same round).

        Raises
        ------
        ProtocolError
            If ``actions`` mentions a node that is not in the graph.
        """
        # Every node hears SILENCE unless the collision rule says
        # otherwise.  The map fixes ``received``'s graph order, and its
        # keys make the unknown-node check one key-set comparison.
        received: dict[Any, Any] = dict.fromkeys(self._graph, SILENCE)
        if not actions.keys() <= received.keys():
            unknown = next(node for node in actions if node not in received)
            raise ProtocolError(f"action supplied for unknown node {unknown!r}")

        crashed: AbstractSet[Any] = frozenset()
        jammed: AbstractSet[Any] = frozenset()
        down: AbstractSet[tuple[Any, Any]] = frozenset()
        if self._dynamics is not None:
            faults = self._dynamics.round_faults(self._round_number)
            crashed = self._dynamics.crashed_nodes(faults)
            jammed = self._dynamics.jammed_nodes(faults)
            down = self._dynamics.down_links(faults)
            # Environment counters are per (entity, round) regardless of
            # traffic -- exactly what the vectorized engine charges.
            self._metrics.suppressed_links += faults.suppressed
            self._metrics.crashed_nodes += faults.crashed_count

        # A crashed node's transmission is suppressed here, *after* the
        # protocol consumed its draw: replay accounting must not depend
        # on the fault schedule.
        transmitters: dict[Any, Message] = {
            node: action.message
            for node, action in actions.items()
            if action.kind is _TRANSMIT and node not in crashed
        }

        # Push every transmission over the sender's up links: per
        # listener, how many transmitters it can hear and the message
        # of the last one (the one it receives when it hears only one).
        hits: dict[Any, int] = {}
        heard: dict[Any, Message] = {}
        for sender, message in transmitters.items():
            for listener in self._graph.neighbors(sender):
                if (sender, listener) not in down:
                    hits[listener] = hits.get(listener, 0) + 1
                    heard[listener] = message

        # Bucket precedence: crashed > transmitter > jammed > the
        # reception/collision/idle split, so every node lands in exactly
        # one bucket.  Crashed nodes (radio off) and transmitters
        # (half-duplex) keep SILENCE.  Jamming is noise on the listener's
        # channel, which collision detectors report as a collision.
        detection = self._collision_model is CollisionModel.WITH_DETECTION
        deaf = crashed | transmitters.keys()
        jammed_listens = jammed - deaf
        deaf |= jammed_listens
        if detection:
            received.update(dict.fromkeys(jammed_listens, COLLISION))
        receptions = collisions = 0
        for listener, count in hits.items():
            if listener in deaf:
                continue
            if count == 1:
                received[listener] = heard[listener]
                receptions += 1
            else:
                # The true collision/idle split is counted whether or not
                # the listener can observe the difference.
                collisions += 1
                if detection:
                    received[listener] = COLLISION
        # Every other node is a listener that no transmitter reached.
        idle_listens = len(received) - len(deaf) - receptions - collisions

        metrics = self._metrics
        metrics.rounds += 1
        metrics.transmissions += len(transmitters)
        metrics.receptions += receptions
        metrics.collisions += collisions
        metrics.idle_listens += idle_listens
        metrics.jammed_listens += len(jammed_listens)

        outcome = RoundOutcome(self._round_number, transmitters, received)
        self._round_number += 1
        return outcome
