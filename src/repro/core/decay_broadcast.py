"""Classical repeated-Decay broadcast -- the baseline the paper improves on.

Before Czumaj & Davies, the standard broadcasting protocol for radio
networks without collision detection was Bar-Yehuda--Goldreich--Itai's
repeated Decay: *informed* nodes relay the source message through
globally aligned Decay cycles, uninformed nodes stay silent until they
hear it, and after ``O((D + log n) · log n)`` rounds the message has
flooded the network with high probability.  There is no candidate race,
no message ranking, no spontaneous participation -- none of the Compete
machinery; just the one message and the classical schedule.

The module exists primarily as the proof plugin of the
:mod:`repro.api.registry` seam: a complete baseline algorithm --
reference backend, vectorized backend, batch API, capability
declaration -- in well under a hundred lines, registered under
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

Both backends are round-exact equivalent here for the same reason they
are for Compete: an informed node consumes exactly one uniform draw per
round against the same per-node Decay cycle, so the vectorized engine's
``DrawStreams`` replay reproduces the reference runner decision for
decision.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.network.metrics import NetworkMetrics
from repro.network.protocol import Action, NodeProtocol
from repro.network.radio import RadioNetwork
from repro.core.parameters import CompeteParameters
from repro.simulation.runner import ProtocolRunner, spawn_node_rngs
from repro.simulation.vectorized import NO_MESSAGE


@dataclasses.dataclass(frozen=True)
class DecayBroadcastResult:
    """Outcome of one classical repeated-Decay broadcast run.

    Attributes mirror :class:`~repro.core.broadcast.BroadcastResult`
    minus the Compete-specific pieces: ``success`` is True when every
    node heard the source message, ``reception_rounds`` maps each node
    to the round it first heard it (``-1`` for the source, ``None`` if
    never), and ``metrics`` / ``parameters`` carry the accounting and
    the classical schedule that was run.
    """

    success: bool
    source: Any
    message: Message
    rounds: int
    reception_rounds: Mapping[Any, Optional[int]]
    num_informed: int
    metrics: NetworkMetrics
    parameters: CompeteParameters


class DecayRelayProtocol(NodeProtocol):
    """Per-node program: relay the source message via uniform Decay.

    Informed nodes transmit with probability ``2^-((r mod k) + 1)`` in
    global round ``r`` (``k = ⌈log2 n⌉`` steps per Decay cycle);
    uninformed nodes listen silently -- the classical conservative model
    with no spontaneous transmissions.
    """

    def __init__(
        self,
        node_id: Any,
        num_nodes: int,
        diameter: int,
        rng: np.random.Generator,
        probabilities: Sequence[float],
        initial: Optional[Message] = None,
    ) -> None:
        super().__init__(node_id, num_nodes, diameter)
        self._rng = rng
        self._probabilities = tuple(probabilities)
        self.message: Optional[Message] = initial
        self.adopted_round: Optional[int] = None if initial is None else -1

    def act(self, round_number: int) -> Action:
        if self.message is None:
            return Action.listen()
        cycle = self._probabilities
        if self._rng.random() < cycle[round_number % len(cycle)]:
            return Action.transmit(self.message)
        return Action.listen()

    def receive(self, round_number: int, heard: Any) -> None:
        if self.message is None and isinstance(heard, Message):
            self.message = heard
            self.adopted_round = round_number


def _resolve(graph: Graph, config, parameters):
    """Shared per-call resolution (lazy api import: api sits above core)."""
    from repro.api.config import ExecutionConfig, resolve_execution

    if config is None:
        config = ExecutionConfig()
    if config.strategy_name != "skeleton":
        raise ConfigurationError(
            "decay_broadcast is the classical uniform-Decay baseline and "
            f"supports only strategy='skeleton', got {config.strategy_name!r}"
        )
    return resolve_execution(graph, config, parameters=parameters)


def decay_broadcast(
    graph: Graph,
    source: Any,
    *,
    seed: Optional[int] = None,
    spontaneous: bool = False,
    config=None,
    parameters: Optional[CompeteParameters] = None,
) -> DecayBroadcastResult:
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
    if spontaneous:
        raise ConfigurationError(
            "decay_broadcast models the classical regime: uninformed nodes "
            "never transmit (spontaneous=True is not supported)"
        )
    if source not in graph:
        raise ConfigurationError(f"source node {source!r} is not in the graph")
    resolved = _resolve(graph, config, parameters)
    if resolved.backend == "vectorized":
        return _run_batch(graph, source, resolved, [seed])[0]

    params = resolved.parameters
    message = Message(value=1, source=source)
    rngs = spawn_node_rngs(graph, seed)
    cycle = resolved.schedule.probabilities(next(iter(graph.nodes())))
    protocols = {
        node: DecayRelayProtocol(
            node,
            graph.num_nodes,
            params.diameter,
            rngs[node],
            cycle,
            initial=message if node == source else None,
        )
        for node in graph.nodes()
    }
    network = RadioNetwork(
        graph, resolved.collision_model, dynamics=resolved.fault_schedule
    )

    def informed() -> bool:
        return all(p.message is not None for p in protocols.values())

    if informed():
        run_rounds = 0
        metrics = network.metrics.copy()
    else:
        runner = ProtocolRunner(
            network,
            protocols,
            max_rounds=params.total_rounds,
            stop_when=lambda outcome, protos: informed(),
        )
        run_result = runner.run()
        run_rounds = run_result.rounds
        metrics = run_result.metrics

    reception = {
        node: protocol.adopted_round for node, protocol in protocols.items()
    }
    num_informed = sum(
        1 for protocol in protocols.values() if protocol.message is not None
    )
    return DecayBroadcastResult(
        success=informed(),
        source=source,
        message=message,
        rounds=run_rounds,
        reception_rounds=reception,
        num_informed=num_informed,
        metrics=metrics,
        parameters=params,
    )


def decay_broadcast_batch(
    graph: Graph,
    source: Any,
    *,
    seeds: Sequence[Optional[int]],
    spontaneous: bool = False,
    config=None,
    parameters: Optional[CompeteParameters] = None,
) -> list[DecayBroadcastResult]:
    """One seeded trial per entry of ``seeds``, batched on the engine.

    Each result is identical to what ``decay_broadcast(..., seed=s)``
    produces on the reference backend for the corresponding seed.
    """
    if spontaneous:
        raise ConfigurationError(
            "decay_broadcast models the classical regime: uninformed nodes "
            "never transmit (spontaneous=True is not supported)"
        )
    if source not in graph:
        raise ConfigurationError(f"source node {source!r} is not in the graph")
    resolved = _resolve(graph, config, parameters)
    return _run_batch(graph, source, resolved, list(seeds))


def _run_batch(graph, source, resolved, seeds) -> list[DecayBroadcastResult]:
    if not seeds:
        return []
    engine = resolved.build_engine()
    message = Message(value=1, source=source)
    initial_row = np.array(
        [1 if node == source else NO_MESSAGE for node in engine.nodes],
        dtype=np.int64,
    )
    outcome = engine.run_batch(
        np.tile(initial_row, (len(seeds), 1)), 1, seeds
    )
    results = []
    for trial in range(outcome.num_trials):
        reception: dict[Any, Optional[int]] = {}
        for index, node in enumerate(engine.nodes):
            if int(outcome.final_ranks[trial, index]) == 1:
                reception[node] = int(outcome.adopted_rounds[trial, index])
            else:
                reception[node] = None
        num_informed = sum(1 for round_ in reception.values()
                           if round_ is not None)
        results.append(
            DecayBroadcastResult(
                success=bool(outcome.saturated[trial]),
                source=source,
                message=message,
                rounds=int(outcome.rounds[trial]),
                reception_rounds=reception,
                num_informed=num_informed,
                metrics=outcome.metrics(trial),
                parameters=resolved.parameters,
            )
        )
    return results
