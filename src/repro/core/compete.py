"""The Compete primitive: candidate messages race until one saturates.

Compete is the paper's workhorse: several *candidate* nodes inject
messages, every informed node relays the **highest** message it has heard
so far using interleaved Decay rounds (Algorithm 5), and -- because the
message order is total (Section 4) -- the globally highest candidate
message eventually floods the whole network while every lower message
dies out.  Broadcasting is Compete with one candidate; leader election is
Compete on random candidate identifiers.

The *spontaneous transmissions* of the paper's title appear here as the
``spontaneous`` flag: when set, nodes that were given no candidate
message still participate from round 0 with a dummy message ranked below
every real candidate.  Uninformed nodes therefore transmit before ever
hearing from a source -- the behaviour that separates this model from the
classical one where only informed nodes may speak.

The inner loop is a pluggable **strategy** deciding how informed nodes
schedule their transmissions, selected orthogonally to the execution
backend:

* ``strategy="skeleton"`` (:class:`SkeletonStrategy`) runs the classical
  uniform schedule of ``⌈margin · (D + log2 n)⌉`` Decay rounds
  (:class:`~repro.core.parameters.CompeteParameters`); by Lemma 3.1 each
  round pushes the winner's frontier past any listener with constant
  probability, which is the ``O((D + log n) · log n)`` regime.
* ``strategy="clustered"`` (:class:`ClusteredStrategy`) first decomposes
  the graph into BFS-grown clusters
  (:mod:`repro.core.clustering`) and runs the Lemma 2.3 cost-charged
  schedule (:mod:`repro.schedules.cluster`): each node's Decay cycle is
  priced by its cluster neighbourhood's contention bound instead of by
  ``n``, removing the multiplicative ``log n`` wherever contention is
  below the global worst case (paths, grids and other bounded-degree
  topologies; on graphs whose certified contention approaches ``n`` --
  stars, but also e.g. ``G(n, p)`` deployments with near-``log n``-length
  cycles already -- the schedule correctly falls back to skeleton
  length).

Two interchangeable backends execute either strategy: ``"reference"``
drives one :class:`CompeteProtocol` per node through the pure-Python
:class:`~repro.simulation.runner.ProtocolRunner`, and ``"vectorized"``
replays the identical dynamics through
:class:`~repro.simulation.vectorized.VectorizedCompeteEngine` as batched
array operations.  Both consume the same
:class:`~repro.schedules.transmission.TransmissionSchedule` and produce
the same :class:`CompeteResult` round for round under a shared seed, for
every (strategy, backend) cell of the matrix.  :meth:`Compete.run_batch`
is the one runner and the one place that reads the backend: the
reference backend runs its seeds one after another, the vectorized one
races them at once on the CSR kernel of :mod:`repro.simulation.sparse`.

The vectorized backend keeps node state in arrays from start to finish.
It ranks the candidates by :meth:`Message.sort_key
<repro.network.messages.Message.sort_key>` and the spontaneous dummies,
which share one value below every candidate's, by
:func:`~repro.network.messages.source_key` of their node, in one sort,
without building a dummy :class:`Message`.  Each trial's
``reception_rounds`` and ``final_messages`` are then read-only views
(:class:`ReceptionRoundsView`, :class:`FinalMessagesView`) over its
final-rank and adoption-round rows, decoded on first read; they equal
the plain dicts of the reference backend.

Both axes, together with the collision model and the round-budget
margin, are carried by one :class:`~repro.api.config.ExecutionConfig`
passed as ``Compete(graph, config=...)``.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import (
    Any, Iterable, Iterator, Mapping, Optional, Sequence, Union,
)

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message, highest_message, source_key
from repro.network.metrics import NetworkMetrics
from repro.network.protocol import Action, NodeProtocol
from repro.network.radio import RadioNetwork
from repro.core.clustering import (
    DEFAULT_CLUSTER_RADIUS,
    ClusterDecomposition,
    decompose,
)
from repro.schedules.cluster import cluster_schedule
from repro.schedules.transmission import (
    TransmissionSchedule,
    uniform_decay_schedule,
)
from repro.simulation.runner import ProtocolRunner, build_seeded_protocols
from repro.simulation.vectorized import NO_MESSAGE, rank_messages
from repro.core.parameters import CompeteParameters

#: Candidate specifications accepted by :meth:`Compete.run`: a mapping
#: from node to either a ready-made :class:`Message` or a plain integer
#: value (wrapped into ``Message(value, source=node)``).
CandidateSpec = Mapping[Any, Union[Message, int]]

#: The execution backends of :meth:`Compete.run_batch`.
BACKENDS = ("reference", "vectorized")

#: The built-in inner-loop strategies of :class:`Compete`.
STRATEGIES = ("skeleton", "clustered")

#: How many draws a :class:`CompeteProtocol` reads from its generator at
#: once.  Any size gives the same decisions; this one spreads the cost
#: of a ``Generator.random`` call over a short read-ahead.
_DRAW_BLOCK = 16

#: The one listen action every listening node returns.
_LISTEN = Action.listen()


class CompeteStrategy(abc.ABC):
    """How Compete's inner loop schedules transmissions.

    A strategy compiles the static inputs of a run -- the graph and its
    ``(n, D)``-derived :class:`~repro.core.parameters.CompeteParameters`
    -- into a per-node
    :class:`~repro.schedules.transmission.TransmissionSchedule`, which
    both execution backends then consume identically.  Strategies are
    stateless with respect to individual runs, so one instance can be
    shared across Compete instances and seeds.

    Custom strategies plug in by subclassing: pass an instance (instead
    of a registered name) as ``Compete(strategy=...)``.
    """

    #: Short identifier recorded on results and benchmark artifacts.
    name: str = "custom"

    @abc.abstractmethod
    def build_schedule(
        self, graph: Graph, parameters: CompeteParameters
    ) -> TransmissionSchedule:
        """Compile the transmission schedule for one topology."""


class SkeletonStrategy(CompeteStrategy):
    """The classical uniform-Decay inner loop (Lemma 3.1 regime).

    Every node cycles through the same ``⌈log2 n⌉``-step Decay
    probabilities, globally aligned -- the ``O((D + log n) · log n)``
    skeleton the paper starts from.
    """

    name = "skeleton"

    def build_schedule(
        self, graph: Graph, parameters: CompeteParameters
    ) -> TransmissionSchedule:
        return uniform_decay_schedule(
            graph.nodes(), parameters.decay_steps, name=self.name
        )


class ClusteredStrategy(CompeteStrategy):
    """The cluster-decomposed inner loop (Lemma 2.3 cost charging).

    Decomposes the graph into BFS-grown clusters of hop radius
    ``radius`` (:func:`~repro.core.clustering.decompose`) and gives each
    node a Decay cycle priced by the contention bound of its own and
    neighbouring clusters (:func:`~repro.schedules.cluster.cluster_schedule`)
    -- amortising Decay steps across clusters instead of paying
    ``⌈log2 n⌉`` everywhere.

    Parameters
    ----------
    radius:
        BFS growth radius of the decomposition (>= 0).  Contention
        bounds -- and therefore the schedule -- depend on cluster
        membership only through member degrees, so moderate radii trade
        decomposition granularity against schedule coarseness.
    """

    name = "clustered"

    def __init__(self, radius: int = DEFAULT_CLUSTER_RADIUS) -> None:
        if radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {radius}")
        self._radius = radius

    @property
    def radius(self) -> int:
        """The decomposition's BFS growth radius."""
        return self._radius

    def decompose(self, graph: Graph) -> ClusterDecomposition:
        """The cluster decomposition this strategy derives for ``graph``."""
        return decompose(graph, radius=self._radius)

    def build_schedule(
        self, graph: Graph, parameters: CompeteParameters
    ) -> TransmissionSchedule:
        return cluster_schedule(self.decompose(graph), name=self.name)


def resolve_strategy(
    strategy: Union[str, CompeteStrategy]
) -> CompeteStrategy:
    """Turn a strategy name or instance into a :class:`CompeteStrategy`."""
    if isinstance(strategy, CompeteStrategy):
        return strategy
    if strategy == "skeleton":
        return SkeletonStrategy()
    if strategy == "clustered":
        return ClusteredStrategy()
    raise ConfigurationError(
        f"strategy must be one of {STRATEGIES} or a CompeteStrategy "
        f"instance, got {strategy!r}"
    )


@dataclasses.dataclass(frozen=True)
class CompeteNodeState:
    """A node's local state at the end of a Compete run.

    Attributes
    ----------
    best:
        The highest message the node knows (``None`` if it never heard
        one and had none of its own).
    adopted_round:
        The global round number in which ``best`` was adopted; ``-1``
        means the node knew it before the first round (it was a
        candidate), ``None`` means it knows nothing.
    """

    best: Optional[Message]
    adopted_round: Optional[int]


class CompeteProtocol(NodeProtocol):
    """Per-node program of Compete: relay the highest known message.

    Each round the node either listens (if it knows nothing) or consults
    its periodic transmission-probability cycle -- assigned by the
    strategy's :class:`~repro.schedules.transmission.TransmissionSchedule`
    -- to decide whether to transmit its current best message.  The cycle
    position is derived from the *global* round number, so all
    participants stay aligned within each Decay round -- the alignment
    Lemma 3.1's analysis assumes (power-of-two cycle lengths preserve it
    across the clustered strategy's heterogeneous cycles).

    The node takes one uniform draw per round while it holds a message
    and none while it listens uninformed.  It reads them from ``rng`` a
    block of :data:`_DRAW_BLOCK` at a time; NumPy fills a block from the
    same ``next_double`` calls that as many scalar ``random()`` calls
    make, so the node's ``k``-th decision reads the ``k``-th value of its
    stream whatever the block size.  The read-ahead leaves ``rng``
    ahead of the draws used, so ``rng`` must be the node's own, as
    :func:`~repro.simulation.runner.build_seeded_protocols` provides:
    nothing else may draw from it.  The transmit :class:`Action` is
    built once per message held, and rebuilt whenever ``best`` is
    replaced (also from outside).
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
        if not probabilities:
            raise ConfigurationError(
                f"node {node_id!r} needs a non-empty probability cycle"
            )
        self._rng = rng
        self._probabilities = tuple(probabilities)
        self.best: Optional[Message] = initial
        self.adopted_round: Optional[int] = None if initial is None else -1
        # The unread draws of the current block, the next one last.
        self._draws: list[float] = []
        # The last transmit action built.  The listen action carries no
        # message, so it stands in until the first transmission.
        self._transmit = _LISTEN

    def act(self, round_number: int) -> Action:
        best = self.best
        if best is None:
            return _LISTEN
        draws = self._draws
        if not draws:
            draws = self._draws = self._rng.random(_DRAW_BLOCK)[::-1].tolist()
        cycle = self._probabilities
        if draws.pop() < cycle[round_number % len(cycle)]:
            if self._transmit.message is not best:
                self._transmit = Action.transmit(best)
            return self._transmit
        return _LISTEN

    def receive(self, round_number: int, heard: Any) -> None:
        if isinstance(heard, Message) and heard.beats(self.best):
            self.best = heard
            self.adopted_round = round_number

    def output(self) -> CompeteNodeState:
        return CompeteNodeState(best=self.best, adopted_round=self.adopted_round)


class _RankTable:
    """The messages behind one batch's integer ranks, and its node order.

    Rank :data:`~repro.simulation.vectorized.NO_MESSAGE` means "knows
    nothing".  Ranks ``1 .. d`` are the ``d`` spontaneous dummies: they
    share one value, below every candidate's, so they rank by
    :func:`~repro.network.messages.source_key` of their source alone.
    The distinct candidate messages follow in
    :func:`~repro.simulation.vectorized.rank_messages` order.  That is
    the order of :meth:`Message.beats` over every message in play.  A
    dummy :class:`Message` is built only when its rank is decoded.
    """

    def __init__(
        self,
        nodes: tuple,
        dummies: np.ndarray,
        dummy_value: int,
        candidates: tuple,
    ) -> None:
        self.nodes = nodes
        # Graph positions of the dummies' sources, by rank.
        self._dummies = dummies
        self._dummy_value = dummy_value
        self._candidates = candidates
        self._positions: Optional[dict] = None

    @classmethod
    def for_race(
        cls, nodes: tuple, messages: Mapping[Any, Message], spontaneous: bool
    ) -> tuple["_RankTable", np.ndarray]:
        """The table of one race, and each node's rank before round 0."""
        initial = np.zeros(len(nodes), dtype=np.int64)
        candidate = np.fromiter(
            map(messages.__contains__, nodes), dtype=bool, count=len(nodes)
        )
        dummies = np.empty(0, dtype=np.int64)
        if spontaneous:
            # One sort of every node's tie-break key; the candidates'
            # nodes drop out of it.
            keys = list(map(source_key, nodes))
            order = np.array(
                sorted(range(len(nodes)), key=keys.__getitem__),
                dtype=np.int64,
            )
            dummies = order[~candidate[order]]
            initial[dummies] = np.arange(1, dummies.size + 1)
        rank_of = rank_messages(messages.values())
        for position in np.flatnonzero(candidate).tolist():
            message = messages[nodes[position]]
            initial[position] = dummies.size + rank_of[message]
        candidates = tuple(sorted(rank_of, key=rank_of.__getitem__))
        return cls(nodes, dummies, _dummy_value(messages), candidates), initial

    def position(self, node: Any) -> int:
        """The graph-order index of ``node`` (``KeyError`` if absent)."""
        if self._positions is None:
            self._positions = dict(zip(self.nodes, range(len(self.nodes))))
        return self._positions[node]

    def message(self, rank: int) -> Optional[Message]:
        """The message of ``rank``."""
        if rank == NO_MESSAGE:
            return None
        if rank <= self._dummies.size:
            source = self.nodes[self._dummies[rank - 1]]
            return Message(value=self._dummy_value, source=source)
        return self._candidates[rank - self._dummies.size - 1]


class _TrialView(Mapping):
    """A read-only node -> value view of one trial's per-node arrays.

    Keys are the graph's nodes in graph order.  The arrays are turned
    into Python values on the first read; item assignment raises
    ``TypeError`` like any :class:`~collections.abc.Mapping` without
    ``__setitem__``.  Equality is a mapping's, so a view equals the
    plain dict the reference backend returns for the same run.
    """

    __slots__ = ("_table", "_ranks", "_decoded")

    def __init__(self, table: _RankTable, ranks: np.ndarray) -> None:
        self._table = table
        self._ranks = ranks
        self._decoded: Optional[list] = None

    def _decode(self) -> list:
        raise NotImplementedError

    def _entry(self, node: Any):
        """The decoded array entry of ``node``."""
        if self._decoded is None:
            self._decoded = self._decode()
        return self._decoded[self._table.position(node)]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._table.nodes)

    def __len__(self) -> int:
        return len(self._table.nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class FinalMessagesView(_TrialView):
    """:attr:`CompeteResult.final_messages` of a vectorized trial.

    Decodes the trial's final-rank row through the batch's rank table;
    a spontaneous dummy's :class:`Message` is built only when its node
    is read.
    """

    __slots__ = ()

    def _decode(self) -> list:
        return self._ranks.tolist()

    def __getitem__(self, node: Any) -> Optional[Message]:
        return self._table.message(self._entry(node))


class ReceptionRoundsView(_TrialView):
    """:attr:`CompeteResult.reception_rounds` of a vectorized trial.

    A node's adoption round where its final rank is the winner's, else
    ``None``.
    """

    __slots__ = ("_adopted", "_winner_rank")

    def __init__(
        self,
        table: _RankTable,
        ranks: np.ndarray,
        adopted: np.ndarray,
        winner_rank: Optional[int],
    ) -> None:
        super().__init__(table, ranks)
        self._adopted = adopted
        self._winner_rank = winner_rank

    def _decode(self) -> list:
        if self._winner_rank is None:
            return [None] * len(self)
        held = (self._ranks == self._winner_rank).tolist()
        return [
            adopted if informed else None
            for adopted, informed in zip(self._adopted.tolist(), held)
        ]

    def __getitem__(self, node: Any) -> Optional[int]:
        return self._entry(node)


def count_informed(reception_rounds: Mapping[Any, Optional[int]]) -> int:
    """How many nodes adopted the winner: the non-``None`` reception rounds.

    A :class:`ReceptionRoundsView` counts its rank row in one NumPy
    pass; any other mapping is counted entry by entry.
    """
    if isinstance(reception_rounds, ReceptionRoundsView):
        if reception_rounds._winner_rank is None:
            return 0
        return int(
            np.count_nonzero(
                reception_rounds._ranks == reception_rounds._winner_rank
            )
        )
    return sum(
        1 for adopted in reception_rounds.values() if adopted is not None
    )


@dataclasses.dataclass(frozen=True)
class CompeteResult:
    """Outcome of one Compete run.

    Attributes
    ----------
    success:
        True when there was at least one candidate and every node ended
        the run knowing the winning message.
    winner:
        The highest candidate message (``None`` when no candidates were
        supplied).
    rounds:
        Simulator rounds actually executed (the run stops early once the
        winner has saturated the network).
    num_candidates:
        How many real candidates entered the race.
    reception_rounds:
        Per-node adoption time of the winner: the global round number in
        which the node adopted it, ``-1`` for nodes that held it from the
        start, or ``None`` for nodes that never learned it.
    final_messages:
        The highest message each node knew when the run ended (dummy
        messages from spontaneous participation included).
    metrics:
        Round/transmission accounting for this run.
    parameters:
        The schedule the run used.
    strategy:
        Name of the inner-loop strategy that scheduled transmissions.

    Both per-node mappings iterate in graph order and are read-only.
    The reference backend returns plain dicts; the vectorized backend
    returns :class:`ReceptionRoundsView` and :class:`FinalMessagesView`
    over the trial's final-rank and adoption-round arrays, decoded on
    first read.  Either kind compares equal to the other for the same
    run, and both pickle.
    """

    success: bool
    winner: Optional[Message]
    rounds: int
    num_candidates: int
    reception_rounds: Mapping[Any, Optional[int]]
    final_messages: Mapping[Any, Optional[Message]]
    metrics: NetworkMetrics
    parameters: CompeteParameters
    strategy: str = "skeleton"

    @property
    def informed_fraction(self) -> float:
        """Fraction of nodes that ended the run knowing the winner."""
        total = len(self.final_messages)
        if total == 0 or self.winner is None:
            return 0.0
        return count_informed(self.reception_rounds) / total


class Compete:
    """The Compete primitive bound to one network topology.

    The config is resolved against the graph
    (:func:`~repro.api.config.resolve_execution`: round budget, strategy
    schedule, fault schedule) at construction, and again before a run
    only if the graph has been mutated since, so every run simulates the
    current topology under the budget a fresh instance would derive.

    Parameters
    ----------
    graph:
        A connected radio-network topology
        (:func:`~repro.topology.validation.validate_radio_topology` is
        applied eagerly).
    config:
        The :class:`~repro.api.config.ExecutionConfig` describing every
        execution axis -- backend, strategy, collision model, round
        budget, seed policy and fault environment.  ``None`` means all
        defaults (reference backend, skeleton strategy, no collision
        detection, budget derived from the graph).  An explicit budget
        is ``ExecutionConfig(parameters=...)``; there is no separate
        ``parameters=`` keyword.
    """

    def __init__(self, graph: Graph, *, config=None) -> None:
        # api sits above core in the layering, so the import is local.
        from repro.api.config import ExecutionConfig, resolve_execution

        if config is None:
            config = ExecutionConfig()
        self._resolve_execution = resolve_execution
        self._graph = graph
        self._config = config
        self._csr = None
        self._resolved()

    @property
    def config(self):
        """The :class:`~repro.api.config.ExecutionConfig` this runs under."""
        return self._config

    @property
    def parameters(self) -> CompeteParameters:
        """The round budget of the next run."""
        return self._resolved().parameters

    @property
    def strategy(self) -> CompeteStrategy:
        """The inner-loop strategy scheduling transmissions."""
        return self._resolved().strategy

    def run(
        self,
        candidates: CandidateSpec,
        *,
        seed: Optional[int] = None,
        spontaneous: bool = False,
    ) -> CompeteResult:
        """Race the candidate messages until one saturates the network.

        Parameters
        ----------
        candidates:
            Mapping from candidate node to its message (a
            :class:`~repro.network.messages.Message` or a plain integer
            value).  May be empty, in which case the full (silent or
            dummy-only) schedule is still charged and the run reports
            failure -- this is how a failed leader-election attempt
            spends its rounds.
        seed:
            Seed for the per-node random generators.
        spontaneous:
            When True, non-candidate nodes participate from round 0 with
            a dummy message ranked strictly below every candidate.
        """
        return self.run_batch(
            candidates, seeds=[seed], spontaneous=spontaneous
        )[0]

    def run_batch(
        self,
        candidates: CandidateSpec,
        *,
        seeds: Iterable[Optional[int]],
        spontaneous: bool = False,
    ) -> list[CompeteResult]:
        """Run one seeded trial per entry of ``seeds`` on the config's backend.

        All trials share the candidate set and one resolution, so the
        schedule compiles once per call.  The reference backend runs
        the trials one after another through the per-node runner; the
        vectorized backend races them simultaneously through the engine
        (one extra array axis, not one Python loop per trial), and its
        per-node mappings are read-only views over each trial's rank
        arrays.  Either way, each returned :class:`CompeteResult` is the
        one :meth:`run` gives for that seed.
        """
        seed_list = list(seeds)
        for seed in seed_list:
            check_seed(seed)
        if not seed_list:
            return []
        messages = self._normalise_candidates(candidates)
        winner = highest_message(*messages.values())
        resolved = self._resolved()
        if self._config.backend == "reference":
            return [
                self._run_reference(
                    resolved, messages, winner, seed, spontaneous
                )
                for seed in seed_list
            ]
        if self._engine is None:
            self._engine = resolved.build_engine()
        engine = self._engine
        table, initial_row = _RankTable.for_race(
            engine.nodes, messages, spontaneous
        )
        # The winner is the highest candidate: the top rank in play.
        winner_rank = None if winner is None else int(initial_row.max())
        initial_ranks = np.tile(initial_row, (len(seed_list), 1))
        outcome = engine.run_batch(initial_ranks, winner_rank, seed_list)

        results = []
        for trial in range(outcome.num_trials):
            ranks = outcome.final_ranks[trial]
            results.append(
                CompeteResult(
                    success=bool(outcome.saturated[trial]),
                    winner=winner,
                    rounds=int(outcome.rounds[trial]),
                    num_candidates=len(messages),
                    reception_rounds=ReceptionRoundsView(
                        table, ranks, outcome.adopted_rounds[trial],
                        winner_rank,
                    ),
                    final_messages=FinalMessagesView(table, ranks),
                    metrics=outcome.metrics(trial),
                    parameters=resolved.parameters,
                    strategy=resolved.strategy.name,
                )
            )
        return results

    def _run_reference(
        self, resolved, messages: Mapping[Any, Message],
        winner: Optional[Message], seed: Optional[int], spontaneous: bool,
    ) -> CompeteResult:
        """One seeded trial through the per-node reference runner."""
        graph = self._graph
        params = resolved.parameters
        schedule = resolved.schedule
        initial = self._initial_messages(messages, spontaneous)

        # The resolved fault schedule (None on static configs) rides the
        # same channel masks the vectorized engines apply, and every run
        # starts it back at round 0 via its replay cursor.
        network = RadioNetwork(
            graph, resolved.collision_model, dynamics=resolved.fault_schedule
        )
        protocols = build_seeded_protocols(
            network,
            lambda node, num_nodes, diameter, rng: CompeteProtocol(
                node, num_nodes, diameter, rng,
                schedule.probabilities(node), initial=initial[node],
            ),
            seed,
            diameter=params.diameter,
        )

        # A holder never loses the winner (adoption is adopt-if-higher,
        # the winner is the top message, a crash keeps a node's state),
        # so the stop rule keeps the first node, in graph order, not yet
        # holding it: amortized O(1) comparisons per round.
        holders = list(protocols.values())
        missing = 0

        def saturated() -> bool:
            nonlocal missing
            if winner is None:
                return False
            while missing < len(holders) and holders[missing].best == winner:
                missing += 1
            return missing == len(holders)

        if saturated():
            # Degenerate cases (single node, or every node a candidate
            # holding the winner) need no communication at all.
            run_rounds = 0
            metrics = network.metrics.copy()
        else:
            runner = ProtocolRunner(
                network,
                protocols,
                max_rounds=params.total_rounds,
                stop_when=lambda outcome, protos: saturated(),
            )
            run_result = runner.run()
            run_rounds = run_result.rounds
            metrics = run_result.metrics

        reception_rounds: dict[Any, Optional[int]] = {}
        final_messages: dict[Any, Optional[Message]] = {}
        for node, protocol in protocols.items():
            final_messages[node] = protocol.best
            if winner is not None and protocol.best == winner:
                reception_rounds[node] = protocol.adopted_round
            else:
                reception_rounds[node] = None

        return CompeteResult(
            success=saturated(),
            winner=winner,
            rounds=run_rounds,
            num_candidates=len(messages),
            reception_rounds=reception_rounds,
            final_messages=final_messages,
            metrics=metrics,
            parameters=params,
            strategy=resolved.strategy.name,
        )

    def _initial_messages(
        self, messages: Mapping[Any, Message], spontaneous: bool
    ) -> dict[Any, Optional[Message]]:
        """Each node's message before round 0 (dummies included)."""
        initial: dict[Any, Optional[Message]] = {
            node: messages.get(node) for node in self._graph.nodes()
        }
        if spontaneous:
            dummy_value = _dummy_value(messages)
            for node in self._graph.nodes():
                if initial[node] is None:
                    initial[node] = Message(value=dummy_value, source=node)
        return initial

    def _resolved(self):
        """The config resolved against the graph's *current* topology.

        Every graph mutation replaces the memoized
        :meth:`~repro.network.graph.Graph.adjacency_csr`, so a new object
        means a new topology: budget, schedule and engine are rebuilt.
        """
        csr = self._graph.adjacency_csr()
        if csr is not self._csr:
            self._resolution = self._resolve_execution(
                self._graph, self._config
            )
            _require_distinct_keys(csr[2])
            self._csr = csr
            self._engine = None
        return self._resolution

    def _normalise_candidates(
        self, candidates: CandidateSpec
    ) -> dict[Any, Message]:
        if not isinstance(candidates, Mapping):
            raise ConfigurationError(
                "candidates must be a mapping from node to Message or int, "
                f"got {type(candidates).__name__}"
            )
        messages: dict[Any, Message] = {}
        for node, value in candidates.items():
            if node not in self._graph:
                raise ConfigurationError(
                    f"candidate node {node!r} is not in the graph"
                )
            if isinstance(value, Message):
                messages[node] = value
            elif isinstance(value, int) and not isinstance(value, bool):
                messages[node] = Message(value=value, source=node)
            else:
                raise ConfigurationError(
                    f"candidate value for node {node!r} must be a Message "
                    f"or int, got {type(value).__name__}"
                )
        return messages


def check_seed(seed: Optional[int]) -> None:
    """Reject a negative seed where it enters, with one message for every
    backend (``SeedSequence`` would raise NumPy's own ``ValueError``)."""
    if seed is not None and seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")


def _require_distinct_keys(nodes: Sequence[Any]) -> None:
    """Reject two nodes with one :func:`~repro.network.messages.source_key`.

    Messages of one value order by their sources' keys.  Two sources
    with one key would leave neither message above the other, and the
    backends would break that tie differently.  ``str`` tells any two
    ints apart, and any two strs, so graphs of those skip the keys.
    """
    if set(map(type, nodes)) <= {int, str}:
        return
    owners: dict[tuple[str, str], Any] = {}
    for node in nodes:
        key = source_key(node)
        other = owners.setdefault(key, node)
        if other is not node:
            raise ConfigurationError(
                f"nodes {other!r} and {node!r} share the tie-break key "
                f"{key!r}, so their messages cannot be ordered"
            )


def _dummy_value(messages: Mapping[Any, Message]) -> int:
    """The value every spontaneous dummy carries: below every candidate's."""
    return min((message.value for message in messages.values()), default=0) - 1


def compete(
    graph: Graph,
    candidates: CandidateSpec,
    *,
    seed: Optional[int] = None,
    spontaneous: bool = False,
    config=None,
) -> CompeteResult:
    """One-shot convenience wrapper around :class:`Compete`.

    >>> from repro import topology
    >>> result = compete(topology.star_graph(8), {1: 10, 2: 20}, seed=0)
    >>> result.success and result.winner.value == 20
    True

    How the race executes is one :class:`~repro.api.config.ExecutionConfig`
    -- the backends agree round for round under a shared seed:

    >>> from repro.api import ExecutionConfig
    >>> fast = compete(topology.star_graph(8), {1: 10, 2: 20}, seed=0,
    ...                config=ExecutionConfig(backend="vectorized"))
    >>> (fast.rounds, fast.winner) == (result.rounds, result.winner)
    True

    ...and so do the strategies, each with its own schedule:

    >>> clustered = compete(topology.star_graph(8), {1: 10, 2: 20}, seed=0,
    ...                     config=ExecutionConfig(strategy="clustered"))
    >>> clustered.success and clustered.strategy
    'clustered'
    """
    primitive = Compete(graph, config=config)
    return primitive.run(candidates, seed=seed, spontaneous=spontaneous)
