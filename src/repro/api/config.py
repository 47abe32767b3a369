"""The unified run configuration: :class:`ExecutionConfig` + :func:`resolve_execution`.

Every execution axis -- the backend (``"reference"`` or
``"vectorized"``), the Compete strategy, the collision model, the round
budget (``parameters`` / ``margin``), the seed policy and the fault
environment -- lives in one validated, immutable value object that
``Compete``, ``broadcast``, ``elect_leader`` and the algorithm registry
all accept as a single ``config=``.  A benchmark builds its config from
its scenario (:meth:`~repro.experiments.scenarios.Scenario.execution_config`),
so an artifact's scenario block names what ran:

>>> from repro.api import ExecutionConfig
>>> config = ExecutionConfig(backend="vectorized")
>>> config.backend, config.strategy
('vectorized', 'skeleton')

Configs are frozen; derive variants with :meth:`ExecutionConfig.replace`:

>>> config.replace(strategy="clustered").strategy
'clustered'
>>> config.strategy  # the original is untouched
'skeleton'

:func:`resolve_execution` is the one shared path that turns a config plus
a concrete graph into everything a run needs -- the derived
:class:`~repro.core.parameters.CompeteParameters` round budget, the
strategy compiled to a
:class:`~repro.schedules.transmission.TransmissionSchedule`, the
normalised collision model and the fault schedule -- and
:meth:`ResolvedExecution.build_engine` constructs the vectorized engine
it describes.  :class:`~repro.core.compete.Compete` resolves its config
once, and again only after its graph is mutated; every seed of one
:meth:`~repro.core.compete.Compete.run_batch` call, on either backend,
shares that resolution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.dynamics import DynamicsSpec, FaultSchedule, coerce_dynamics
from repro.network.graph import Graph
from repro.network.radio import CollisionModel
from repro.core.parameters import DEFAULT_MARGIN, CompeteParameters
from repro.core.compete import BACKENDS, STRATEGIES
from repro.schedules.transmission import TransmissionSchedule
from repro.simulation.rng import RNG_MODES
from repro.simulation.vectorized import VectorizedCompeteEngine
from repro.topology.validation import validate_radio_topology

_COLLISION_BY_NAME = {model.value: model for model in CollisionModel}


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """Validated, immutable description of *how* a run executes.

    One config object covers every execution axis; it is independent
    of *what* runs (the graph, candidates, seeds), so one instance can
    drive many runs.

    Attributes
    ----------
    backend:
        ``"reference"`` (per-node protocols through the pure-Python
        :class:`~repro.simulation.runner.ProtocolRunner`) or
        ``"vectorized"`` (the round-exact NumPy batch engine).
    strategy:
        The Compete inner-loop strategy: a key of
        :data:`repro.core.compete.STRATEGIES`, whose compiler builds the
        run's transmission schedule.
    collision_model:
        The radio model's collision semantics; accepts the enum or its
        string value (``"no-detection"`` / ``"with-detection"``) and is
        normalised to the enum.
    parameters:
        Explicit round budget (:class:`CompeteParameters`), the one way
        to pin a run's budget; ``None`` derives it from the graph at
        resolution time.  Graph-specific, so configs carrying it only
        fit graphs of that size.
    margin:
        Multiplier on ``D + log2 n`` for the derived round budget
        (ignored when ``parameters`` is given).
    rng:
        Seed policy, one of :data:`~repro.simulation.rng.RNG_MODES`:
        ``"replay"`` (the reference-parity stream replay, round-exact
        across backends) or ``"decoupled"`` (the counter-based hash fast
        mode; vectorized backend only, seed-reproducible against itself,
        equivalent to replay *in distribution* -- the contract
        ``tests/test_rng_decoupled.py`` enforces statistically).
    dynamics:
        Optional :class:`repro.dynamics.DynamicsSpec` (or its
        ``describe()`` mapping, normalised to the spec): the seeded
        fault environment -- edge churn, node crash/recovery, jamming
        windows -- applied identically by every backend.  ``None`` (the
        default) is the static network.  Included in :meth:`identity`
        when set, so faulty and clean runs can never share a cache entry
        or a baseline join key.
    """

    backend: str = "reference"
    strategy: str = "skeleton"
    collision_model: Union[str, CollisionModel] = CollisionModel.NO_DETECTION
    parameters: Optional[CompeteParameters] = None
    margin: float = DEFAULT_MARGIN
    rng: str = "replay"
    dynamics: Optional[Union[DynamicsSpec, Mapping[str, Any]]] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not isinstance(self.strategy, str) or (
            self.strategy not in STRATEGIES
        ):
            raise ConfigurationError(
                f"strategy must be one of {tuple(STRATEGIES)}, got "
                f"{self.strategy!r}"
            )
        if isinstance(self.collision_model, str):
            try:
                normalised = _COLLISION_BY_NAME[self.collision_model]
            except KeyError:
                raise ConfigurationError(
                    "collision_model must be a CollisionModel or one of "
                    f"{sorted(_COLLISION_BY_NAME)}, got "
                    f"{self.collision_model!r}"
                ) from None
            object.__setattr__(self, "collision_model", normalised)
        elif not isinstance(self.collision_model, CollisionModel):
            raise ConfigurationError(
                "collision_model must be a CollisionModel or its string "
                f"value, got {type(self.collision_model).__name__}"
            )
        if self.parameters is not None and not isinstance(
            self.parameters, CompeteParameters
        ):
            raise ConfigurationError(
                "parameters must be a CompeteParameters or None, got "
                f"{type(self.parameters).__name__}"
            )
        if not self.margin > 0:
            raise ConfigurationError(
                f"margin must be > 0, got {self.margin}"
            )
        if self.rng not in RNG_MODES:
            raise ConfigurationError(
                f"rng must be one of {RNG_MODES}, got {self.rng!r}"
            )
        if self.rng == "decoupled" and self.backend == "reference":
            raise ConfigurationError(
                "rng='decoupled' requires the vectorized backend: the "
                "reference runner is defined by its per-node stream "
                "replay and has no counter-based mode"
            )
        # Normalise mappings (the persisted JSON form) to the spec, like
        # collision_model above; validation happens in DynamicsSpec.
        object.__setattr__(self, "dynamics", coerce_dynamics(self.dynamics))

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A new config with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict[str, Any]:
        """The axes that change a run's results, as a JSON-friendly dict.

        ``backend`` is left out: the backends agree round for round.
        """
        description = {
            "strategy": self.strategy,
            "collision_model": self.collision_model.value,
            "margin": self.margin,
            "rng": self.rng,
        }
        # Included only when set, so a static config's digest does not
        # depend on the dynamics axis.
        if self.dynamics is not None:
            description["dynamics"] = self.dynamics.describe()
        return description

    def identity(self) -> str:
        """A short stable digest of the config's execution axes.

        Two configs share an identity exactly when :meth:`describe`
        agrees -- strategy, collision model, margin, rng policy and
        dynamics.  The benchmark report subsystem uses this as the
        join key when matching a candidate artifact to its committed
        baseline, recomputing both sides from their scenario blocks, so
        the digest must stay stable across processes (it hashes the
        canonical JSON form, never ``repr``).

        >>> ExecutionConfig().identity() == ExecutionConfig().identity()
        True
        >>> ExecutionConfig().identity() != ExecutionConfig(
        ...     strategy="clustered").identity()
        True
        >>> ExecutionConfig().identity() == ExecutionConfig(
        ...     backend="vectorized").identity()
        True
        """
        canonical = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]

    def cache_key(self, topology: str) -> str:
        """The resolution-cache key for this config on one topology.

        ``topology`` is a topology digest (normally
        :func:`topology_digest` over a scenario's family + generator
        arguments).  Two (config, topology) pairs share a key exactly
        when :meth:`identity` and the digest both agree, so configs that
        execute identically on *different* graphs -- the classic cache
        collision -- can never share an entry.  ``repro.service`` keys
        its LRU of prepared topologies (graph, diameter summary, round
        budget, CSR adjacency) with this.

        Note the deliberate blind spots, matching :meth:`identity`: the
        backend (both agree round for round) and an explicit
        ``parameters`` round budget (the scenario path never sets one:
        its budget derives from the scenario's margin).
        """
        return f"{self.identity()}:{topology}"


def topology_digest(family: str, topology_args: Mapping[str, Any]) -> str:
    """A short stable digest identifying one generated topology.

    Hashes the canonical JSON form of the scenario-level description
    (family name + generator arguments, which for random families pin an
    explicit seed), i.e. exactly the data a persisted scenario block
    uses to rebuild the graph -- so equal digests mean the same graph
    without having to build it first.

    >>> topology_digest("grid", {"rows": 8, "cols": 8}) == topology_digest(
    ...     "grid", {"cols": 8, "rows": 8})
    True
    >>> topology_digest("grid", {"rows": 8, "cols": 8}) != topology_digest(
    ...     "grid", {"rows": 16, "cols": 16})
    True
    """
    canonical = json.dumps(
        {"family": family, "topology_args": dict(topology_args)},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class ResolvedExecution:
    """An :class:`ExecutionConfig` bound to one concrete graph.

    Produced by :func:`resolve_execution`; holds everything downstream
    code needs to run: the validated graph, the derived (or supplied)
    round budget and -- built lazily, because cluster decomposition is
    not free -- the :class:`TransmissionSchedule` the config's strategy
    compiles.
    """

    def __init__(
        self,
        graph: Graph,
        config: ExecutionConfig,
        parameters: CompeteParameters,
    ) -> None:
        self._graph = graph
        self._config = config
        self._parameters = parameters
        self._schedule: Optional[TransmissionSchedule] = None
        self._fault_schedule: Optional[FaultSchedule] = None

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def config(self) -> ExecutionConfig:
        return self._config

    @property
    def parameters(self) -> CompeteParameters:
        """The run's round budget."""
        return self._parameters

    @property
    def collision_model(self) -> CollisionModel:
        return self._config.collision_model

    @property
    def schedule(self) -> TransmissionSchedule:
        """The strategy's compiled schedule (built on first access)."""
        if self._schedule is None:
            self._schedule = STRATEGIES[self._config.strategy](
                self._graph, self._parameters
            )
        return self._schedule

    @property
    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The config's dynamics compiled against this graph.

        ``None`` for static configs.  Built on first access (the
        canonical edge enumeration costs an ``O(m log m)`` sort) and
        shared by every backend the resolution drives, so the reference
        runner and the vectorized kernels replay one fault trajectory.
        """
        if self._fault_schedule is None and self._config.dynamics is not None:
            self._fault_schedule = FaultSchedule(
                self._config.dynamics, self._graph
            )
        return self._fault_schedule

    def build_engine(self) -> VectorizedCompeteEngine:
        """Construct the vectorized engine this resolution describes."""
        return VectorizedCompeteEngine(
            self._graph,
            schedule=self.schedule,
            max_rounds=self._parameters.total_rounds,
            rng=self._config.rng,
            dynamics=self.fault_schedule,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResolvedExecution(strategy={self._config.strategy!r}, "
            f"n={self._graph.num_nodes})"
        )


def resolve_execution(
    graph: Graph, config: Optional[ExecutionConfig] = None
) -> ResolvedExecution:
    """Bind ``config`` (default :class:`ExecutionConfig()`) to ``graph``.

    This is the single shared resolution path: topology validation and
    the round-budget derivation happen here, and the schedule is
    compiled from here, so every caller agrees on them.  The budget is
    ``config.parameters`` when set (it must be for ``graph``'s size),
    otherwise derived from the graph's ``(n, D)`` and ``config.margin``.

    >>> from repro import topology
    >>> resolved = resolve_execution(topology.path_graph(8))
    >>> resolved.parameters.num_nodes, resolved.schedule.name
    (8, 'skeleton')
    """
    if config is None:
        config = ExecutionConfig()
    validate_radio_topology(graph)
    parameters = config.parameters
    if parameters is None:
        parameters = CompeteParameters.from_graph(graph, margin=config.margin)
    elif parameters.num_nodes != graph.num_nodes:
        raise ConfigurationError(
            f"parameters are for n={parameters.num_nodes} but the graph "
            f"has n={graph.num_nodes}"
        )
    return ResolvedExecution(graph, config, parameters)

