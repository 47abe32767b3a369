"""``repro.dynamics``: deterministic fault injection for every backend.

The subsystem splits into a declarative half and a compiled half:

* :mod:`repro.dynamics.models` -- frozen :class:`FaultModel` parameter
  records (edge churn, node crash/recovery, jamming windows);
* :mod:`repro.dynamics.spec` -- :class:`DynamicsSpec`, the fault axis an
  :class:`~repro.api.ExecutionConfig` carries and ``identity()`` hashes;
* :mod:`repro.dynamics.streams` -- the splitmix64 counter-hash lanes
  keyed on ``(fault_seed, round, kind, entity)``, the reason every
  backend sees bit-identical fault decisions;
* :mod:`repro.dynamics.schedule` -- :class:`FaultSchedule`, the
  per-graph compilation that evolves the Markov chains a chunk of
  rounds at a time and hands the masks to the reference runner (one
  :class:`RoundFaults` per round) and to the vectorized engine (one
  block of rows per block of rounds).

Quick start::

    from repro.api import ExecutionConfig
    from repro.dynamics import DynamicsSpec, EdgeChurn

    config = ExecutionConfig(dynamics=DynamicsSpec(
        fault_seed=7, models=(EdgeChurn(p_down=0.05, p_up=0.35),)))
"""

from repro.dynamics.models import (
    CHURN,
    CRASH,
    JAM,
    MODEL_KINDS,
    EdgeChurn,
    FaultModel,
    JammingWindows,
    NodeCrash,
)
from repro.dynamics.schedule import FaultSchedule, RoundFaults
from repro.dynamics.spec import DynamicsSpec, coerce_dynamics
from repro.dynamics.streams import FAULT_SALT, FaultStreams

__all__ = [
    "CHURN",
    "CRASH",
    "JAM",
    "FAULT_SALT",
    "MODEL_KINDS",
    "DynamicsSpec",
    "EdgeChurn",
    "FaultModel",
    "FaultSchedule",
    "FaultStreams",
    "JammingWindows",
    "NodeCrash",
    "RoundFaults",
    "coerce_dynamics",
]
