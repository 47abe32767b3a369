"""Single-source broadcasting built on Compete.

Broadcasting is the one-candidate instance of Compete: the source injects
its message, and -- when ``spontaneous`` is left on -- every other node
participates from round 0 with a lower-ranked dummy message, exercising
the spontaneous transmissions the paper's title refers to.  The source's
message outranks every dummy, so it is the unique possible winner; the
run succeeds exactly when every node has adopted it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.network.metrics import NetworkMetrics
from repro.core.compete import Compete, CompeteResult, count_informed
from repro.core.parameters import CompeteParameters


@dataclasses.dataclass(frozen=True)
class BroadcastResult:
    """Outcome of a broadcast run.

    Attributes
    ----------
    success:
        True when every node learned the source's message.
    source:
        The broadcasting node.
    message:
        The message that was broadcast.
    rounds:
        Simulator rounds executed (the run stops as soon as every node is
        informed).
    reception_rounds:
        Per-node round in which the source message was adopted (``-1``
        for the source itself, ``None`` for nodes left uninformed).
    num_informed:
        How many nodes ended the run informed.
    metrics:
        Round/transmission accounting for the run.
    parameters:
        The Compete schedule used.
    compete_result:
        The underlying :class:`~repro.core.compete.CompeteResult` with
        the full per-node state.
    """

    success: bool
    source: Any
    message: Message
    rounds: int
    reception_rounds: Mapping[Any, Optional[int]]
    num_informed: int
    metrics: NetworkMetrics
    parameters: CompeteParameters
    compete_result: CompeteResult


def broadcast(
    graph: Graph,
    source: Any,
    *,
    seed: Optional[int] = None,
    spontaneous: bool = True,
    config=None,
) -> BroadcastResult:
    """Broadcast a message from ``source`` to every node of ``graph``.

    Parameters
    ----------
    graph:
        A connected radio-network topology.
    source:
        The node injecting the message.
    seed:
        Seed for the per-node random generators (runs are deterministic
        given the seed).
    spontaneous:
        When True (the default, and the paper's model), uninformed nodes
        also transmit dummy messages from round 0; set False for the
        classical conservative model where only informed nodes speak.
    config:
        The :class:`~repro.api.config.ExecutionConfig` selecting
        backend, strategy, collision model and round budget; ``None``
        means all defaults.

    >>> from repro import topology
    >>> result = broadcast(topology.star_graph(8), source=0, seed=1)
    >>> result.success
    True
    """
    if source not in graph:
        raise ConfigurationError(f"source node {source!r} is not in the graph")
    primitive = Compete(graph, config=config)
    message = Message(value=1, source=source)
    compete_result = primitive.run(
        {source: message}, seed=seed, spontaneous=spontaneous
    )
    return _wrap(source, message, compete_result)


def broadcast_batch(
    graph: Graph,
    source: Any,
    *,
    seeds,
    spontaneous: bool = True,
    config=None,
) -> list[BroadcastResult]:
    """One seeded broadcast per entry of ``seeds``, batched.

    All trials run simultaneously through the vectorized engine
    (regardless of ``config.backend``, which only governs single-seed
    :func:`broadcast` calls); each returned :class:`BroadcastResult` is
    identical to the corresponding single-seed reference run.
    """
    if source not in graph:
        raise ConfigurationError(f"source node {source!r} is not in the graph")
    primitive = Compete(graph, config=config)
    message = Message(value=1, source=source)
    compete_results = primitive.run_batch(
        {source: message}, seeds=seeds, spontaneous=spontaneous
    )
    return [_wrap(source, message, result) for result in compete_results]


def _wrap(source: Any, message: Message, compete_result: CompeteResult
          ) -> BroadcastResult:
    """Interpret one Compete outcome as a broadcast outcome.

    The source's message is the only candidate, so the nodes it reached
    are exactly those with a reception round.
    """
    return BroadcastResult(
        success=compete_result.success,
        source=source,
        message=message,
        rounds=compete_result.rounds,
        reception_rounds=compete_result.reception_rounds,
        num_informed=count_informed(compete_result.reception_rounds),
        metrics=compete_result.metrics,
        parameters=compete_result.parameters,
        compete_result=compete_result,
    )
