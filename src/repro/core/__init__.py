"""The paper's core contribution: Compete, broadcasting, leader election.

* :mod:`repro.core.parameters` -- validated ``(n, D)``-derived schedule
  lengths (:class:`CompeteParameters`).
* :mod:`repro.core.compete` -- the Compete primitive: candidate messages
  race via interleaved Decay rounds until the highest one saturates the
  network.
* :mod:`repro.core.clustering` -- the cluster decomposition (BFS-grown
  clusters with leaders and contention bounds) behind the Lemma 2.3
  cost-charged schedules.
* :mod:`repro.core.broadcast` -- single-source broadcasting as the
  one-candidate instance of Compete, with spontaneous transmissions on
  by default; with them off it is the classical repeated-Decay baseline,
  registered as ``"decay-broadcast"`` in
  :data:`repro.api.DEFAULT_ALGORITHMS`.
* :mod:`repro.core.leader_election` -- candidates self-select with
  probability ``~1/n`` and Compete on random identifiers; retried until
  a unique leader saturates.

Every algorithm accepts two orthogonal axes:

* ``strategy`` names the inner loop's transmission schedule:
  ``"skeleton"`` (the classical uniform ``O((D + log n) · log n)`` Decay
  schedule) or ``"clustered"`` (the cluster-decomposed, Lemma 2.3
  cost-charged schedule that removes the multiplicative ``log n``
  wherever contention is below the global worst case).  Each name is a
  key of :data:`~repro.core.compete.STRATEGIES`, whose value compiles
  the graph and its round budget into the schedule; a new strategy is
  one more entry there.
* ``backend`` selects how rounds are executed: ``"reference"`` (the
  default) drives one :class:`~repro.network.protocol.NodeProtocol` per
  node through the pure-Python
  :class:`~repro.simulation.runner.ProtocolRunner`, while
  ``"vectorized"`` runs the same dynamics through the NumPy batch engine
  (:class:`~repro.simulation.vectorized.VectorizedCompeteEngine`).

For every strategy, the backends are **round-exact equivalents**: given
the same graph, candidates and seed they produce identical results --
same winner, same per-node reception rounds, same metric counters -- so
the vectorized backend can stand in wherever throughput matters (see
:mod:`repro.experiments`).  Each algorithm has one runner,
:meth:`Compete.run_batch` over a list of seeds, and it is the one place
that reads the backend: the reference runner takes the seeds one after
another, the engine races them as one batched computation.
"""

from repro.core.parameters import DEFAULT_MARGIN, CompeteParameters
from repro.core.clustering import (
    DEFAULT_CLUSTER_RADIUS,
    Cluster,
    ClusterDecomposition,
    decompose,
)
from repro.core.compete import (
    BACKENDS,
    STRATEGIES,
    CandidateSpec,
    Compete,
    CompeteNodeState,
    CompeteProtocol,
    CompeteResult,
    compete,
)
from repro.core.broadcast import BroadcastResult, broadcast, broadcast_batch
from repro.core.leader_election import LeaderElectionResult, elect_leader

__all__ = [
    "DEFAULT_MARGIN",
    "CompeteParameters",
    "Cluster",
    "ClusterDecomposition",
    "decompose",
    "BACKENDS",
    "DEFAULT_CLUSTER_RADIUS",
    "STRATEGIES",
    "CandidateSpec",
    "Compete",
    "CompeteNodeState",
    "CompeteProtocol",
    "CompeteResult",
    "compete",
    "BroadcastResult",
    "broadcast",
    "broadcast_batch",
    "LeaderElectionResult",
    "elect_leader",
]
