"""Classical repeated-Decay broadcast -- the baseline the paper improves on.

Before Czumaj & Davies, the standard broadcasting protocol for radio
networks without collision detection was Bar-Yehuda--Goldreich--Itai's
repeated Decay: *informed* nodes relay the source message through
globally aligned Decay cycles, uninformed nodes stay silent until they
hear it, and after ``O((D + log n) · log n)`` rounds the message has
flooded the network with high probability.  There is no candidate race,
no message ranking, no spontaneous participation.

That protocol is exactly Compete with one candidate, no spontaneous
transmissions and the uniform skeleton schedule: only nodes holding the
message draw, each against the same per-node Decay cycle.  So this
module checks the classical regime's preconditions and runs
:func:`~repro.core.broadcast.broadcast` with ``spontaneous=False``; it
inherits Compete's backends, batch path, fault injection and round-exact
replay contract, and returns a
:class:`~repro.core.broadcast.BroadcastResult`.  It is registered under
``"decay-broadcast"`` so scenarios and the CLI dispatch to it by name.

Its scenarios pair with ``broadcast`` (Compete with spontaneous
transmissions) on the same graphs, the pairing the paper's Table 1
compares.  The committed artifacts do not reproduce the paper's
ordering: this baseline is faster.  On ``grid-n256`` it takes 134.9
rounds on average, against 337.2 for skeleton and 198.6 for clustered
broadcast; on ``path-n32`` it takes 141.8 against 332.2.  In the
simplified Compete the spontaneous dummies only add collisions; the
paper's gain needs its ``O(D + polylog n)`` pipeline, which is not
implemented (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.core.broadcast import BroadcastResult, broadcast, broadcast_batch
from repro.core.parameters import CompeteParameters


def _check_classical(
    graph: Graph, source: Any, spontaneous: bool, config
) -> None:
    if spontaneous:
        raise ConfigurationError(
            "decay_broadcast models the classical regime: uninformed nodes "
            "never transmit (spontaneous=True is not supported)"
        )
    if config is not None and config.strategy_name != "skeleton":
        raise ConfigurationError(
            "decay_broadcast is the classical uniform-Decay baseline and "
            f"supports only strategy='skeleton', got {config.strategy_name!r}"
        )
    if source not in graph:
        raise ConfigurationError(f"source node {source!r} is not in the graph")


def decay_broadcast(
    graph: Graph,
    source: Any,
    *,
    seed: Optional[int] = None,
    spontaneous: bool = False,
    config=None,
    parameters: Optional[CompeteParameters] = None,
) -> BroadcastResult:
    """Broadcast from ``source`` with the classical repeated-Decay protocol.

    Accepts the same :class:`~repro.api.config.ExecutionConfig` as the
    paper's algorithms (the backend axis applies; the strategy axis
    does not -- this baseline *is* the uniform Decay schedule).
    ``spontaneous=True`` is rejected: uninformed nodes staying silent is
    what defines the classical model.

    >>> from repro import topology
    >>> result = decay_broadcast(topology.star_graph(8), source=0, seed=1)
    >>> result.success
    True
    """
    _check_classical(graph, source, spontaneous, config)
    return broadcast(
        graph, source, seed=seed, spontaneous=False, config=config,
        parameters=parameters,
    )


def decay_broadcast_batch(
    graph: Graph,
    source: Any,
    *,
    seeds: Sequence[Optional[int]],
    spontaneous: bool = False,
    config=None,
    parameters: Optional[CompeteParameters] = None,
) -> list[BroadcastResult]:
    """One seeded trial per entry of ``seeds``, batched on the engine.

    Each result is identical to what ``decay_broadcast(..., seed=s)``
    produces on the reference backend for the corresponding seed.
    """
    _check_classical(graph, source, spontaneous, config)
    return broadcast_batch(
        graph, source, seeds=seeds, spontaneous=False, config=config,
        parameters=parameters,
    )
