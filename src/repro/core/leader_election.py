"""Leader election built on Compete.

The paper's reduction: every node self-selects as a *candidate* with
probability ``~1/n`` (so a constant expected number of candidates arise),
candidates draw random identifiers, and a Compete run floods the highest
identifier through the network.  When the run saturates, the highest
identifier's origin is the unique leader and every node knows it.  An
attempt can fail -- most commonly because no node self-selected -- and
the protocol retries with fresh randomness; each attempt succeeds with
constant probability, so ``O(log n)`` attempts suffice with high
probability.  Note that this reproduction detects attempt failure at the
*observer* level (the simulator checks global saturation); a faithful
distributed termination rule -- nodes inferring failure from hearing no
candidate message for the whole fixed schedule -- only works in the
non-spontaneous variant and is not implemented yet (see ``DESIGN.md``).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.network.metrics import NetworkMetrics
from repro.core.compete import Compete, CompeteResult
from repro.core.parameters import CompeteParameters


@dataclasses.dataclass(frozen=True)
class LeaderElectionResult:
    """Outcome of a leader-election run.

    Attributes
    ----------
    success:
        True when some attempt ended with every node knowing the same
        winning candidate.
    leader:
        The elected node (``None`` on failure).
    attempts:
        Number of Compete attempts executed (including the successful
        one, if any).
    rounds:
        Total simulator rounds across all attempts.
    num_candidates:
        Number of candidates in the final attempt.
    reception_rounds:
        Per-node adoption round of the winning identifier within the
        final attempt (see
        :attr:`~repro.core.compete.CompeteResult.reception_rounds`).
    metrics:
        Accounting merged across all attempts.
    parameters:
        The Compete schedule each attempt used.
    compete_result:
        The final attempt's full :class:`~repro.core.compete.CompeteResult`.
    """

    success: bool
    leader: Optional[Any]
    attempts: int
    rounds: int
    num_candidates: int
    reception_rounds: Mapping[Any, Optional[int]]
    metrics: NetworkMetrics
    parameters: CompeteParameters
    compete_result: Optional[CompeteResult]


def elect_leader(
    graph: Graph,
    *,
    seed: Optional[int] = None,
    candidate_probability: Optional[float] = None,
    max_attempts: Optional[int] = None,
    spontaneous: bool = False,
    config=None,
) -> LeaderElectionResult:
    """Elect a unique leader known to every node of ``graph``.

    Parameters
    ----------
    graph:
        A connected radio-network topology.
    seed:
        Master seed; candidate selection, identifier draws and every
        Compete attempt derive their randomness from it, so runs are
        exactly reproducible.
    candidate_probability:
        Per-node self-selection probability; defaults to ``1/n``.
    max_attempts:
        Retry budget; defaults to ``max(8, ⌈3 · log2 n⌉)``, which makes
        overall failure vanishingly unlikely.
    spontaneous:
        Forwarded to Compete (non-candidates transmitting dummies).
    config:
        The :class:`~repro.api.config.ExecutionConfig` governing every
        Compete attempt; both backends yield identical elections for
        the same master seed (per strategy).

    >>> from repro import topology
    >>> result = elect_leader(topology.complete_graph(16), seed=3)
    >>> result.success and result.leader in topology.complete_graph(16)
    True
    """
    num_nodes = graph.num_nodes
    if candidate_probability is None:
        candidate_probability = 1.0 / max(num_nodes, 1)
    if not 0.0 < candidate_probability <= 1.0:
        raise ConfigurationError(
            "candidate_probability must be in (0, 1], got "
            f"{candidate_probability}"
        )
    if max_attempts is None:
        max_attempts = max(8, math.ceil(3 * math.log2(max(num_nodes, 2))))
    if max_attempts < 1:
        raise ConfigurationError(
            f"max_attempts must be >= 1, got {max_attempts}"
        )

    primitive = Compete(graph, config=config)
    # The identifier space is polynomial in n, so identifiers collide only
    # with polynomially small probability; Message's source tie-break keeps
    # the winner unique even if they do.
    id_space = max(num_nodes, 2) ** 3
    seed_sequence = np.random.SeedSequence(seed)

    total_rounds = 0
    total_metrics = NetworkMetrics()
    last_result: Optional[CompeteResult] = None

    for attempt in range(1, max_attempts + 1):
        selection_seq, compete_seq = seed_sequence.spawn(2)
        selection_rng = np.random.default_rng(selection_seq)
        candidates: dict[Any, Message] = {}
        for node in graph.nodes():
            if selection_rng.random() < candidate_probability:
                identifier = int(selection_rng.integers(1, id_space + 1))
                candidates[node] = Message(value=identifier, source=node)

        compete_seed = int(
            np.random.default_rng(compete_seq).integers(0, 2**63)
        )
        result = primitive.run(
            candidates, seed=compete_seed, spontaneous=spontaneous
        )
        total_rounds += result.rounds
        total_metrics = total_metrics.merge(result.metrics)
        last_result = result

        if result.success:
            assert result.winner is not None
            return LeaderElectionResult(
                success=True,
                leader=result.winner.source,
                attempts=attempt,
                rounds=total_rounds,
                num_candidates=result.num_candidates,
                reception_rounds=result.reception_rounds,
                metrics=total_metrics,
                parameters=result.parameters,
                compete_result=result,
            )

    assert last_result is not None
    return LeaderElectionResult(
        success=False,
        leader=None,
        attempts=max_attempts,
        rounds=total_rounds,
        num_candidates=last_result.num_candidates,
        reception_rounds=last_result.reception_rounds,
        metrics=total_metrics,
        parameters=last_result.parameters,
        compete_result=last_result,
    )
