"""The algorithm registry: named algorithms with declared capabilities.

Scenarios, the benchmark runner and the CLI used to dispatch on
hard-coded ``if algorithm == "broadcast" ... elif ...`` chains, so a new
baseline protocol meant edits across five modules.  This module makes
the algorithm a first-class registered object: an :class:`Algorithm`
bundles its one entry point, ``run_batch`` over a list of seeds on the
config's backend, with the *capabilities* callers must respect -- which
collision models the protocol supports, whether it can (or must) run
with spontaneous transmissions, and which extra per-trial series its
results report.  :data:`DEFAULT_ALGORITHMS` holds the built-ins:

* ``"broadcast"`` -- Compete-based broadcasting (the paper's algorithm),
* ``"leader-election"`` -- ~1/n self-selection + Compete on random IDs,
* ``"decay-broadcast"`` -- the classical repeated-Decay baseline of
  Bar-Yehuda--Goldreich--Itai: the paper's broadcast with spontaneous
  transmissions off, on the uniform skeleton schedule only.

Adding a baseline is a self-contained plugin: implement one function
against :class:`~repro.api.config.ExecutionConfig`, build an
:class:`Algorithm` record, and ``DEFAULT_ALGORITHMS.register(...)`` it
-- scenarios and the CLI pick it up by name with no dispatch edits.

>>> sorted(DEFAULT_ALGORITHMS.names())
['broadcast', 'decay-broadcast', 'leader-election']
>>> DEFAULT_ALGORITHMS.get("decay-broadcast").supports_spontaneous
False
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterator, Optional

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.radio import CollisionModel
from repro.api.config import ExecutionConfig
from repro.core.broadcast import broadcast_batch
from repro.core.leader_election import elect_leader


@dataclasses.dataclass(frozen=True)
class Algorithm:
    """One registered algorithm: its entry point plus declared capabilities.

    Attributes
    ----------
    name:
        Registry key; also what scenarios and the CLI dispatch on.
    description:
        One line shown by ``python -m repro.experiments algorithms``.
    run_batch:
        ``run_batch(graph, *, config, seeds, spontaneous)`` -> one
        result per seed, run on ``config.backend``.  Implementations
        pick their own conventions for anything further (e.g. the
        broadcast source defaults to the graph's first node).
    collision_models:
        The collision semantics the protocol is defined for.
    supports_spontaneous / requires_spontaneous:
        Whether the algorithm *may* and *must* run with uninformed nodes
        transmitting from round 0 (the paper's model).  The classical
        baselines set ``supports_spontaneous=False``.
    spontaneous_default:
        What ``spontaneous=None`` resolves to when dispatching.
    extra_series:
        Additional per-trial result attributes the benchmark aggregator
        summarises (e.g. ``("attempts",)`` for leader election).
    """

    name: str
    description: str
    run_batch: Callable[..., list]
    collision_models: frozenset = frozenset(CollisionModel)
    supports_spontaneous: bool = True
    requires_spontaneous: bool = False
    spontaneous_default: bool = False
    extra_series: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("algorithm name must be non-empty")
        if not self.collision_models:
            raise ConfigurationError(
                f"algorithm {self.name!r} must support at least one "
                "collision model"
            )
        if self.requires_spontaneous and not self.supports_spontaneous:
            raise ConfigurationError(
                f"algorithm {self.name!r} cannot require spontaneous "
                "transmissions while not supporting them"
            )

    def check(
        self, *, collision_model: CollisionModel, spontaneous: bool
    ) -> None:
        """Raise unless this capability combination is declared supported."""
        if collision_model not in self.collision_models:
            supported = sorted(m.value for m in self.collision_models)
            raise ConfigurationError(
                f"algorithm {self.name!r} does not support collision model "
                f"{collision_model.value!r} (supported: {supported})"
            )
        if spontaneous and not self.supports_spontaneous:
            raise ConfigurationError(
                f"algorithm {self.name!r} does not support spontaneous "
                "transmissions (it models the classical regime)"
            )
        if not spontaneous and self.requires_spontaneous:
            raise ConfigurationError(
                f"algorithm {self.name!r} requires spontaneous transmissions"
            )


class AlgorithmRegistry:
    """A named collection of :class:`Algorithm` records.

    The module-level :data:`DEFAULT_ALGORITHMS` holds the built-ins;
    tests and downstream code can build private registries.
    """

    def __init__(self) -> None:
        self._algorithms: dict[str, Algorithm] = {}

    def register(self, algorithm: Algorithm) -> Algorithm:
        """Add ``algorithm``; duplicate names are rejected."""
        if algorithm.name in self._algorithms:
            raise ConfigurationError(
                f"algorithm {algorithm.name!r} is already registered"
            )
        self._algorithms[algorithm.name] = algorithm
        return algorithm

    def get(self, name: str) -> Algorithm:
        """Look up an algorithm by exact name."""
        try:
            return self._algorithms[name]
        except KeyError:
            hint = ", ".join(sorted(self._algorithms)) or "(registry is empty)"
            raise ConfigurationError(
                f"unknown algorithm {name!r}; registered algorithms: {hint}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered names in registration order."""
        return tuple(self._algorithms)

    def run(
        self,
        name: str,
        graph: Graph,
        *,
        config: Optional[ExecutionConfig] = None,
        seed: Optional[int] = None,
        spontaneous: Optional[bool] = None,
        **kwargs: Any,
    ) -> Any:
        """Dispatch one seeded run to the named algorithm.

        ``spontaneous=None`` resolves to the algorithm's declared
        default; the capability check runs before any work.

        >>> from repro import topology
        >>> result = DEFAULT_ALGORITHMS.run(
        ...     "decay-broadcast", topology.star_graph(6), seed=0)
        >>> result.success
        True
        """
        return self._dispatch(
            name, graph, config, [seed], spontaneous, kwargs
        )[0]

    def run_batch(
        self,
        name: str,
        graph: Graph,
        *,
        seeds,
        config: Optional[ExecutionConfig] = None,
        spontaneous: Optional[bool] = None,
        **kwargs: Any,
    ) -> list:
        """Dispatch a batch of seeded trials to the named algorithm.

        The trials run on ``config.backend``, with the same defaults and
        capability check as :meth:`run`.
        """
        return self._dispatch(name, graph, config, seeds, spontaneous, kwargs)

    def _dispatch(self, name, graph, config, seeds, spontaneous, kwargs):
        algorithm = self.get(name)
        if config is None:
            config = ExecutionConfig()
        if spontaneous is None:
            spontaneous = algorithm.spontaneous_default
        algorithm.check(
            collision_model=config.collision_model, spontaneous=spontaneous
        )
        return algorithm.run_batch(
            graph, config=config, seeds=seeds, spontaneous=spontaneous,
            **kwargs,
        )

    def __contains__(self, name: str) -> bool:
        return name in self._algorithms

    def __len__(self) -> int:
        return len(self._algorithms)

    def __iter__(self) -> Iterator[Algorithm]:
        return iter(self._algorithms.values())


# ----------------------------------------------------------------------
# built-in algorithms
# ----------------------------------------------------------------------
def _default_source(graph: Graph, source) -> Any:
    return graph.nodes()[0] if source is None else source


def _run_broadcast(graph, *, config, seeds, spontaneous, source=None):
    return broadcast_batch(
        graph, _default_source(graph, source), seeds=seeds,
        spontaneous=spontaneous, config=config,
    )


def _run_election(graph, *, config, seeds, spontaneous):
    return [
        elect_leader(graph, seed=seed, spontaneous=spontaneous, config=config)
        for seed in seeds
    ]


def _run_decay_broadcast(graph, *, config, seeds, spontaneous, source=None):
    # Repeated Decay is Compete with one candidate, no spontaneous
    # transmissions and the uniform skeleton schedule: only informed
    # nodes draw.  The capability check has already rejected
    # spontaneous=True, and broadcast_batch rejects an unknown source.
    if config.strategy_name != "skeleton":
        raise ConfigurationError(
            "decay-broadcast is the classical uniform-Decay baseline and "
            f"supports only strategy='skeleton', got {config.strategy_name!r}"
        )
    return _run_broadcast(
        graph, config=config, seeds=seeds, spontaneous=False, source=source
    )


#: The built-in algorithm registry scenarios and the CLI dispatch through.
DEFAULT_ALGORITHMS = AlgorithmRegistry()

DEFAULT_ALGORITHMS.register(Algorithm(
    name="broadcast",
    description=(
        "Compete-based broadcasting (the paper's algorithm; spontaneous "
        "transmissions on by default)"
    ),
    run_batch=_run_broadcast,
    spontaneous_default=True,
))

DEFAULT_ALGORITHMS.register(Algorithm(
    name="leader-election",
    description=(
        "~1/n candidate self-selection + Compete on random identifiers, "
        "retried until a unique leader saturates"
    ),
    run_batch=_run_election,
    spontaneous_default=False,
    extra_series=("attempts",),
))

DEFAULT_ALGORITHMS.register(Algorithm(
    name="decay-broadcast",
    description=(
        "classical repeated-Decay broadcast (Bar-Yehuda-Goldreich-Itai), "
        "the no-spontaneous-transmissions baseline"
    ),
    run_batch=_run_decay_broadcast,
    supports_spontaneous=False,
    spontaneous_default=False,
))
