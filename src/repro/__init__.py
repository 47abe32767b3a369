"""repro -- reproduction of Czumaj & Davies (PODC 2017).

This package reproduces the algorithms and analytical machinery of

    Artur Czumaj and Peter Davies,
    "Exploiting Spontaneous Transmissions for Broadcasting and Leader
    Election in Radio Networks", PODC 2017.

The package is organised into substrates (:mod:`repro.network` for the
graph/radio model, :mod:`repro.topology` for benchmark topologies,
:mod:`repro.schedules` for the Decay transmission primitive), the paper's
core contribution (:mod:`repro.core`: the ``Compete`` primitive,
broadcasting and leader election), and the round-accurate simulation
harness (:mod:`repro.simulation`) that drives them.

Quickstart
----------
>>> from repro import topology, broadcast
>>> graph = topology.path_graph(64)
>>> result = broadcast(graph, source=0, seed=7)
>>> result.success
True

See ``README.md`` for a tour and ``DESIGN.md`` for the paper-to-module map.
"""

from repro.version import __version__
from repro.errors import (
    ReproError,
    GraphError,
    ProtocolError,
    SimulationError,
    ConfigurationError,
)
from repro.network.graph import Graph
from repro.network.radio import RadioNetwork, CollisionModel
from repro.simulation.results import RunResult, StopReason
from repro.simulation.runner import ProtocolRunner
from repro.core.parameters import CompeteParameters
from repro.core.compete import Compete, CompeteResult, compete
from repro.core.broadcast import broadcast, broadcast_batch, BroadcastResult
from repro.core.leader_election import elect_leader, LeaderElectionResult
from repro.api import (
    DEFAULT_ALGORITHMS,
    Algorithm,
    AlgorithmRegistry,
    ExecutionConfig,
    ResolvedExecution,
    resolve_execution,
)

__all__ = [
    "__version__",
    "ReproError",
    "GraphError",
    "ProtocolError",
    "SimulationError",
    "ConfigurationError",
    "Graph",
    "RadioNetwork",
    "CollisionModel",
    "RunResult",
    "StopReason",
    "ProtocolRunner",
    "CompeteParameters",
    "Compete",
    "CompeteResult",
    "compete",
    "broadcast",
    "broadcast_batch",
    "BroadcastResult",
    "elect_leader",
    "LeaderElectionResult",
    "DEFAULT_ALGORITHMS",
    "Algorithm",
    "AlgorithmRegistry",
    "ExecutionConfig",
    "ResolvedExecution",
    "resolve_execution",
]
