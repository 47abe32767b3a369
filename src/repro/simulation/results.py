"""Structured results returned by :class:`~repro.simulation.runner.ProtocolRunner`.

A run always terminates for one of two reasons -- the observer-level
stop condition fired, or the round budget ran out -- and downstream
result objects (``CompeteResult`` and friends) need to distinguish them,
so the reason is an explicit enum rather than a bare boolean.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Mapping, Optional

from repro.network.metrics import NetworkMetrics


class StopReason(enum.Enum):
    """Why a :class:`~repro.simulation.runner.ProtocolRunner` run ended."""

    #: The caller-supplied ``stop_when`` predicate returned True.
    CONDITION = "condition"
    #: ``max_rounds`` rounds were executed without the predicate firing.
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclasses.dataclass(frozen=True)
class RunResult:
    """Everything a :class:`~repro.simulation.runner.ProtocolRunner` run produced.

    Attributes
    ----------
    stop_reason:
        Why the run ended.
    rounds:
        Number of rounds executed in *this* run.
    first_round:
        The network's global round number of the first round of this run
        (runs sharing a network keep advancing one global counter), or
        ``None`` if the run executed zero rounds.
    outputs:
        Mapping from node to its protocol's
        :meth:`~repro.network.protocol.NodeProtocol.output`.
    metrics:
        Counters accumulated during this run only (a
        :meth:`~repro.network.metrics.NetworkMetrics.diff` against the
        pre-run snapshot).
    """

    stop_reason: StopReason
    rounds: int
    first_round: Optional[int]
    outputs: Mapping[Any, Any]
    metrics: NetworkMetrics

    @property
    def completed(self) -> bool:
        """True unless the run ran out of rounds."""
        return self.stop_reason is not StopReason.BUDGET_EXHAUSTED
