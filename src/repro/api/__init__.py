"""The first-class run API: one config object, one algorithm registry.

This layer is the single front door for *how* and *what* to run:

* :class:`~repro.api.config.ExecutionConfig` -- a validated, immutable
  value object holding every execution axis (backend, strategy,
  collision model, round budget, seed policy, fault environment).
  :func:`~repro.api.config.resolve_execution` binds a config to a
  concrete graph -- deriving the round budget, compiling the strategy's
  :class:`~repro.schedules.transmission.TransmissionSchedule`, in
  exactly one place.
* :class:`~repro.api.registry.AlgorithmRegistry` -- algorithms
  (``broadcast``, ``leader-election``, the classical
  ``decay-broadcast`` baseline, and future prior-work protocols) as
  named, capability-declaring plugins, each one function over a list of
  seeds (:data:`~repro.api.registry.DEFAULT_ALGORITHMS`), so scenarios
  and the CLI dispatch by name instead of ``if``/``elif`` chains.
"""

from repro.api.config import (
    ExecutionConfig,
    ResolvedExecution,
    resolve_execution,
    topology_digest,
)
from repro.api.registry import (
    DEFAULT_ALGORITHMS,
    Algorithm,
    AlgorithmRegistry,
)

__all__ = [
    "ExecutionConfig",
    "ResolvedExecution",
    "resolve_execution",
    "topology_digest",
    "DEFAULT_ALGORITHMS",
    "Algorithm",
    "AlgorithmRegistry",
]
