"""Radio-network substrate: graphs, the synchronous radio model, protocols.

This package implements the communication model of Section 1.1 of the
paper: an undirected graph of transmitter-receiver stations operating in
synchronous rounds, where a listening node receives a message if and only
if exactly one of its neighbours transmits in that round (no collision
detection), with an optional collision-detection variant.
"""

from repro.network.graph import Graph
from repro.network.messages import Message, SILENCE, COLLISION
from repro.network.protocol import Action, ActionKind, NodeProtocol
from repro.network.radio import RadioNetwork, CollisionModel, RoundOutcome
from repro.network.metrics import NetworkMetrics

__all__ = [
    "Graph",
    "Message",
    "SILENCE",
    "COLLISION",
    "Action",
    "ActionKind",
    "NodeProtocol",
    "RadioNetwork",
    "CollisionModel",
    "RoundOutcome",
    "NetworkMetrics",
]
