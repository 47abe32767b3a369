"""Simulation harness for radio-network protocols: two equivalent backends.

* :mod:`repro.simulation.runner` -- :class:`ProtocolRunner`, the
  *reference* backend: it advances per-node
  :class:`~repro.network.protocol.NodeProtocol` objects one synchronous
  round at a time against
  :meth:`~repro.network.radio.RadioNetwork.run_round`, with per-node
  seedable randomness, a round budget and an observer stop predicate
  that sees every round's outcome.
  This is the auditable, information-hiding-faithful implementation of
  the model; every semantic question is settled here.
* :mod:`repro.simulation.vectorized` -- the *vectorized* backend:
  :class:`VectorizedCompeteEngine` computes whole rounds of the Compete
  dynamics (and whole batches of seeded trials) as NumPy operations.
  It exists for the benchmark sweeps in :mod:`repro.experiments`, where
  it is typically one to two orders of magnitude faster per trial.  Its
  reception step is the transmitter-driven CSR kernel of
  :mod:`repro.simulation.sparse`: ``O(n + m)`` memory, which opens the
  ``n >= 10^4`` scenarios.
* :mod:`repro.simulation.results` -- the structured
  :class:`RunResult` / :class:`StopReason` types every run returns.

Equivalence guarantee
---------------------
The vectorized engine is a drop-in backend, not an approximation: for the
same graph, candidate set, transmission schedule and seed it reproduces
the reference runner **round for round** -- identical transmission
decisions, receptions, adoption rounds, stop round and
:class:`~repro.network.metrics.NetworkMetrics` counters.  It achieves
this by replaying the reference's per-node random streams (one
``SeedSequence(seed).spawn(n)`` child per node, one uniform draw per
informed round) in batched form.  The guarantee holds for every Compete
strategy: both backends consume the same per-node
:class:`~repro.schedules.transmission.TransmissionSchedule` (the engine
as a dense ``(cycle, n)`` probability matrix, the runner as per-round
lookups), so the skeleton and clustered inner loops are equally covered.
It is pinned by the equivalence harness in
``tests/test_engine_equivalence.py`` (reference runner, vectorized
engine and a dense-matmul test oracle) and re-checked on every
benchmark run that includes the reference backend.
"""

from repro.simulation.results import RunResult, StopReason
from repro.simulation.runner import (
    ProtocolRunner,
    SeededProtocolFactory,
    build_seeded_protocols,
    spawn_node_rngs,
)
from repro.simulation.sparse import CSRAdjacency
from repro.simulation.vectorized import (
    BatchOutcome,
    DrawStreams,
    VectorizedCompeteEngine,
    rank_messages,
)

__all__ = [
    "RunResult",
    "StopReason",
    "ProtocolRunner",
    "SeededProtocolFactory",
    "build_seeded_protocols",
    "spawn_node_rngs",
    "CSRAdjacency",
    "BatchOutcome",
    "DrawStreams",
    "VectorizedCompeteEngine",
    "rank_messages",
]
