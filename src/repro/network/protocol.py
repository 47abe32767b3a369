"""Per-node protocol interface for the round-accurate radio simulator.

A *protocol* is the program executed by a single station.  Each round the
simulator asks every node's protocol for an action (transmit a message or
listen), applies the collision semantics, and then reports to each node
that heard something what it heard.  Protocols are deliberately passive
objects: they never see the graph, other nodes' state, or the global
round outcome -- exactly the information hiding the ad-hoc model
requires (unknown topology, knowledge of ``n`` and ``D`` only).
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import Any, Optional

from repro.errors import ProtocolError
from repro.network.messages import Message


class ActionKind(enum.Enum):
    """What a node does in a single round."""

    TRANSMIT = "transmit"
    LISTEN = "listen"


@dataclasses.dataclass(frozen=True)
class Action:
    """The action a node takes in one round.

    Use the :meth:`transmit` and :meth:`listen` constructors rather than
    instantiating directly.
    """

    kind: ActionKind
    message: Optional[Message] = None

    @classmethod
    def transmit(cls, message: Message) -> "Action":
        """Transmit ``message`` to all neighbours this round."""
        if not isinstance(message, Message):
            raise ProtocolError(
                f"transmit requires a Message, got {type(message).__name__}"
            )
        return cls(ActionKind.TRANSMIT, message)

    @classmethod
    def listen(cls) -> "Action":
        """Stay silent and listen this round (one shared instance)."""
        return _LISTEN

    @property
    def is_transmit(self) -> bool:
        return self.kind is ActionKind.TRANSMIT


_LISTEN = Action(ActionKind.LISTEN)


class NodeProtocol(abc.ABC):
    """Abstract base class for per-node protocols.

    Subclasses implement :meth:`act` and :meth:`receive`.  The simulator
    calls :meth:`act` once every round, starting with round 0, and
    :meth:`receive` only in the rounds the node heard something, after
    that round's :meth:`act` and before the next one.  A round without a
    :meth:`receive` call is a round the node heard
    :data:`~repro.network.messages.SILENCE`.

    Attributes
    ----------
    node_id:
        The identity of the station running this protocol.  The model
        allows nodes to know their own identifier.
    num_nodes:
        The global parameter ``n`` (the model assumes nodes know ``n``).
    diameter:
        The global parameter ``D`` (the model assumes nodes know ``D``).
    """

    def __init__(self, node_id: Any, num_nodes: int, diameter: int) -> None:
        self.node_id = node_id
        self.num_nodes = num_nodes
        self.diameter = diameter

    @abc.abstractmethod
    def act(self, round_number: int) -> Action:
        """Return this node's action for ``round_number``."""

    @abc.abstractmethod
    def receive(self, round_number: int, heard: Any) -> None:
        """Report what the node heard in ``round_number``.

        Called only when the node heard something: ``heard`` is a
        :class:`~repro.network.messages.Message` if exactly one neighbour
        transmitted, or :data:`~repro.network.messages.COLLISION` when
        the collision-detection variant is enabled and two or more
        neighbours transmitted (or the node was jammed).  A transmitting
        node hears nothing (the model is half-duplex) and gets no call,
        as does a listener that heard silence.
        """

    def output(self) -> Any:
        """Return this node's local output (e.g. the learned message or
        elected leader).  ``None`` by default."""
        return None
