"""Exception hierarchy for the ``repro`` package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch package-level failures with a
single ``except`` clause while still letting programming errors
(``TypeError``, ``KeyError`` from misuse, ...) propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for invalid graph construction or queries.

    Examples include adding a self-loop, querying a node that is not in
    the graph, or running an algorithm that requires connectivity on a
    disconnected graph.
    """


class ProtocolError(ReproError):
    """Raised when a protocol violates the radio-model contract.

    Typical causes: a node returning an action for a round it was not
    asked about, transmitting a non-message payload, or mutating state
    that belongs to the simulator.
    """


class SimulationError(ReproError):
    """Raised when a simulation cannot make progress or its backends disagree.

    Examples include a benchmark worker process dying mid-batch, a
    served job ending in failure, and a reference trial that no longer
    matches its vectorized twin round for round.
    """


class ConfigurationError(ReproError):
    """Raised for invalid algorithm or experiment parameters.

    Parameters are validated eagerly (at construction time) so that a
    long simulation never fails halfway through because of a bad value.
    """
