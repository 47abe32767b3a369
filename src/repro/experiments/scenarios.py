"""The benchmark scenario registry.

A :class:`Scenario` is a fully specified, reproducible experiment: a
named topology (family + arguments, resolvable through
:data:`repro.topology.FAMILIES`), an algorithm, a collision model, the
spontaneous-transmission switch, and trial/seed defaults.  Scenarios are
plain data -- they serialise into the ``scenario`` block of a
``BENCH_*.json`` file and can be rebuilt from it exactly.

The :data:`DEFAULT_REGISTRY` sweeps the regimes the paper's bounds are
stated in: paths (``n = D + 1``, where spontaneous transmissions help
most), grids (``n = Θ(D²)``), stars and complete graphs (constant ``D``,
maximal contention), trees (``D = Θ(log n)``), clique corridors (the
Section 6 shape) and seeded random families -- each at small and medium
``n``, for broadcast and leader election, plus collision-detection and
classical (non-spontaneous) baseline variants.

>>> scenario = get_scenario("broadcast-path-n32")
>>> scenario.algorithm, scenario.family
('broadcast', 'path')
>>> scenario.build_graph().num_nodes
32
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Mapping, Optional

from repro.errors import ConfigurationError
from repro.dynamics import DynamicsSpec, EdgeChurn, JammingWindows, NodeCrash
from repro.network.graph import Graph
from repro.network.radio import CollisionModel
from repro.api import DEFAULT_ALGORITHMS, ExecutionConfig
from repro.core.parameters import DEFAULT_MARGIN
from repro import topology

#: Families whose generators draw randomness.  Scenarios over these must
#: pin an explicit ``seed`` in ``topology_args``: the persisted scenario
#: block is documented as rebuilding the topology *exactly*, which an
#: unseeded random generator would silently break.
RANDOM_FAMILIES = frozenset(
    {"gnp", "geometric", "clustered", "random-tree", "diameter-controlled"}
)

@dataclasses.dataclass(frozen=True)
class Scenario:
    """One reproducible benchmark configuration.

    Attributes
    ----------
    name:
        Unique registry key (also the ``BENCH_<name>.json`` stem).
    description:
        One line shown by ``python -m repro.experiments list``.
    family:
        Topology family name, a key of :data:`repro.topology.FAMILIES`.
    topology_args:
        Keyword arguments for the family generator (JSON-serialisable).
    algorithm:
        A name in :data:`repro.api.DEFAULT_ALGORITHMS`.
    collision_model:
        ``"no-detection"`` (the paper's model) or ``"with-detection"``.
    spontaneous:
        Whether uninformed nodes transmit from round 0 (the paper's
        distinguishing assumption); the classical baseline sets False.
    strategy:
        The Compete inner-loop strategy, one of
        :data:`repro.core.compete.STRATEGIES`: ``"skeleton"`` (the
        uniform-Decay baseline) or ``"clustered"`` (the Lemma 2.3
        cost-charged cluster schedule).  Scenario pairs differing only
        here measure the strategy's round-count delta.
    rng:
        Randomness policy, one of
        :data:`repro.simulation.rng.RNG_MODES`: ``"replay"`` (the
        default; the vectorized engine replays the reference runner's
        per-node streams, so backend agreement is round-exact) or
        ``"decoupled"`` (the counter-based fast mode; replay parity is
        distributional only, enforced by the statistical test layer).
        Scenarios too large for stream replay set ``"decoupled"``.
    trials:
        Default number of seeded trials per benchmark run.
    seed:
        Default base seed (non-negative); trial ``i`` uses ``seed + i``.
    margin:
        Schedule margin forwarded to
        :class:`~repro.core.parameters.CompeteParameters`.
    dynamics:
        Optional :class:`repro.dynamics.DynamicsSpec` (or its
        ``describe()`` mapping, normalised to the spec): the seeded
        fault environment the scenario runs under.  ``None`` -- the
        static network -- for every classic scenario; robustness
        scenarios persist the spec into the artifact's scenario block
        and it joins the execution identity, so a faulty baseline can
        never be compared against its static twin by accident.
    tags:
        Free-form labels for ``--tag`` filtering (e.g. ``"smoke"``,
        ``"large"``, ``"dynamics"``).
    """

    name: str
    description: str
    family: str
    topology_args: Mapping[str, Any]
    algorithm: str
    collision_model: str = CollisionModel.NO_DETECTION.value
    spontaneous: bool = True
    strategy: str = "skeleton"
    rng: str = "replay"
    trials: int = 8
    seed: int = 2017
    margin: float = DEFAULT_MARGIN
    dynamics: Optional[DynamicsSpec] = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        # Resolving through the registry both rejects unknown names and
        # enforces the algorithm's declared capability (spontaneous-
        # transmission support) at registration time rather than
        # mid-benchmark.
        algorithm = DEFAULT_ALGORITHMS.get(self.algorithm)
        if self.family not in topology.FAMILIES:
            known = ", ".join(sorted(topology.FAMILIES))
            raise ConfigurationError(
                f"unknown topology family {self.family!r}; known: {known}"
            )
        if not isinstance(self.collision_model, str):
            # The config also takes the enum; a scenario keeps the name
            # it persists.
            raise ConfigurationError(
                "scenario collision_model must be a name, got "
                f"{self.collision_model!r}"
            )
        # The execution axes (strategy, collision model, margin, rng,
        # dynamics) are validated once, by the config they describe.
        config = self.execution_config()
        algorithm.check(spontaneous=self.spontaneous)
        object.__setattr__(self, "dynamics", config.dynamics)
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.family in RANDOM_FAMILIES and "seed" not in self.topology_args:
            raise ConfigurationError(
                f"scenario {self.name!r}: random family {self.family!r} "
                "requires an explicit 'seed' in topology_args so the "
                "persisted scenario rebuilds the same topology"
            )

    def build_graph(self) -> Graph:
        """Instantiate the scenario's topology."""
        return topology.make_topology(self.family, **dict(self.topology_args))

    def execution_config(
        self, *, rng: Optional[str] = None
    ) -> ExecutionConfig:
        """The scenario's execution axes as one :class:`ExecutionConfig`.

        The scenario's persisted flat fields (``strategy``, ``rng``,
        ``collision_model``, ``margin``, ``dynamics``) stay the JSON
        form; this is the runtime form every execution path consumes,
        on the vectorized backend every benchmark measures.  ``rng``
        may be overridden without mutating the scenario.
        """
        return ExecutionConfig(
            backend="vectorized",
            strategy=self.strategy,
            collision_model=self.collision_model,
            margin=self.margin,
            rng=rng if rng is not None else self.rng,
            dynamics=self.dynamics,
        )

    def to_dict(self) -> dict[str, Any]:
        """The JSON-serialisable form persisted into ``BENCH_*.json``."""
        data = {
            "name": self.name,
            "description": self.description,
            "family": self.family,
            "topology_args": dict(self.topology_args),
            "algorithm": self.algorithm,
            "collision_model": self.collision_model,
            "spontaneous": self.spontaneous,
            "strategy": self.strategy,
            "rng": self.rng,
            "trials": self.trials,
            "seed": self.seed,
            "margin": self.margin,
            "tags": list(self.tags),
        }
        # Emitted only when set, so every pre-dynamics artifact's
        # scenario block round-trips byte-identically.
        if self.dynamics is not None:
            data["dynamics"] = self.dynamics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        A key :meth:`to_dict` never writes is an error, so a typo cannot
        silently run a default.  Keys it writes may be omitted (inline
        service scenarios do) and take the field defaults.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario key(s) {unknown}; known: {sorted(known)}"
            )
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            family=data["family"],
            topology_args=dict(data.get("topology_args", {})),
            algorithm=data["algorithm"],
            collision_model=data.get(
                "collision_model", CollisionModel.NO_DETECTION.value
            ),
            spontaneous=bool(data.get("spontaneous", True)),
            strategy=str(data.get("strategy", "skeleton")),
            rng=str(data.get("rng", "replay")),
            trials=int(data.get("trials", 8)),
            seed=int(data.get("seed", 2017)),
            margin=float(data.get("margin", DEFAULT_MARGIN)),
            dynamics=data.get("dynamics"),
            tags=tuple(data.get("tags", ())),
        )


class ScenarioRegistry:
    """A named collection of scenarios with filtering.

    The module-level :data:`DEFAULT_REGISTRY` holds the built-in sweep;
    downstream code can also build private registries (tests do):

    >>> registry = ScenarioRegistry()
    >>> _ = registry.register(Scenario(
    ...     name="demo", description="tiny demo", family="path",
    ...     topology_args={"num_nodes": 8}, algorithm="broadcast"))
    >>> "demo" in registry and len(registry) == 1
    True
    """

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Add ``scenario``; duplicate names are rejected."""
        if scenario.name in self._scenarios:
            raise ConfigurationError(
                f"scenario {scenario.name!r} is already registered"
            )
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario by exact name."""
        try:
            return self._scenarios[name]
        except KeyError:
            hint = ", ".join(sorted(self._scenarios)) or "(registry is empty)"
            raise ConfigurationError(
                f"unknown scenario {name!r}; known scenarios: {hint}"
            ) from None

    def select(
        self,
        match: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> list[Scenario]:
        """Scenarios whose name contains ``match`` and tags include ``tag``."""
        chosen = []
        for name in sorted(self._scenarios):
            scenario = self._scenarios[name]
            if match is not None and match not in name:
                continue
            if tag is not None and tag not in scenario.tags:
                continue
            chosen.append(scenario)
        return chosen

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.select())


def _populate(registry: ScenarioRegistry) -> None:
    """Register the built-in topology x regime x algorithm sweep."""

    def add(name, description, family, args, algorithm, **kwargs):
        registry.register(
            Scenario(
                name=name,
                description=description,
                family=family,
                topology_args=args,
                algorithm=algorithm,
                **kwargs,
            )
        )

    # --- broadcast: the n = D + 1 extreme (spontaneous transmissions
    # matter most) -------------------------------------------------------
    add("broadcast-path-n32", "path, n=32=D+1", "path",
        {"num_nodes": 32}, "broadcast", tags=("smoke",))
    add("broadcast-path-n256", "path, n=256=D+1", "path",
        {"num_nodes": 256}, "broadcast")
    add("broadcast-path-n256-classical",
        "path, n=256, classical model (no spontaneous transmissions)",
        "path", {"num_nodes": 256}, "broadcast", spontaneous=False,
        tags=("classical",))

    # --- broadcast: constant-D, maximal contention ----------------------
    add("broadcast-star-n32", "star, n=32, D=2", "star",
        {"num_leaves": 31}, "broadcast", tags=("smoke",))
    add("broadcast-star-n256", "star, n=256, D=2", "star",
        {"num_leaves": 255}, "broadcast")

    # --- broadcast: n = Theta(D^2) grids --------------------------------
    add("broadcast-grid-n64", "8x8 grid, n=64", "grid",
        {"rows": 8, "cols": 8}, "broadcast", tags=("smoke",))
    add("broadcast-grid-n256", "16x16 grid, n=256", "grid",
        {"rows": 16, "cols": 16}, "broadcast")
    add("broadcast-grid-n1024", "32x32 grid, n=1024", "grid",
        {"rows": 32, "cols": 32}, "broadcast", trials=4, tags=("large",))
    add("broadcast-grid-n256-detect",
        "16x16 grid with collision detection (baseline comparison model)",
        "grid", {"rows": 16, "cols": 16}, "broadcast",
        collision_model=CollisionModel.WITH_DETECTION.value,
        tags=("detect",))

    # --- broadcast: D = Theta(log n) trees and dense corridors ----------
    add("broadcast-tree-n255", "complete binary tree, depth 7, n=255",
        "binary-tree", {"depth": 7}, "broadcast")
    add("broadcast-cliquepath-n256",
        "32 cliques of 8 in a corridor (Section 6 shape), n=256",
        "path-of-cliques", {"num_cliques": 32, "clique_size": 8},
        "broadcast")
    add("broadcast-caterpillar-n256",
        "caterpillar: spine 16, 15 legs per node, n=256, D=17",
        "caterpillar", {"spine_length": 16, "legs_per_node": 15},
        "broadcast")

    # --- broadcast: seeded random deployments ---------------------------
    add("broadcast-gnp-n64", "connected G(64, 0.08)", "gnp",
        {"num_nodes": 64, "edge_probability": 0.08, "seed": 64},
        "broadcast", tags=("smoke", "random"))
    add("broadcast-gnp-n256", "connected G(256, 0.03)", "gnp",
        {"num_nodes": 256, "edge_probability": 0.03, "seed": 256},
        "broadcast", tags=("random",))
    add("broadcast-randomtree-n256", "uniform random tree, n=256",
        "random-tree", {"num_nodes": 256, "seed": 256}, "broadcast",
        tags=("random",))
    add("broadcast-geometric-n64",
        "random geometric deployment on the unit square, n=64",
        "geometric", {"num_nodes": 64, "seed": 64}, "broadcast",
        tags=("smoke", "random"))
    add("broadcast-geometric-n256",
        "random geometric deployment on the unit square, n=256",
        "geometric", {"num_nodes": 256, "seed": 256}, "broadcast",
        tags=("random",))
    add("broadcast-clustered-n96",
        "12 dense random clusters of 8 in a chain, n=96",
        "clustered",
        {"num_clusters": 12, "cluster_size": 8, "seed": 96},
        "broadcast", tags=("smoke", "random"))
    add("broadcast-clustered-n256",
        "32 dense random clusters of 8 in a chain, n=256",
        "clustered",
        {"num_clusters": 32, "cluster_size": 8, "seed": 256},
        "broadcast", tags=("random",))

    # --- skeleton-vs-clustered strategy comparisons ---------------------
    # Twins of the skeleton scenarios above, differing only in
    # ``strategy``; diffing the two artifacts isolates the round-count
    # delta of the Lemma 2.3 cost-charged schedules.
    add("broadcast-path-n256-clustered",
        "path, n=256=D+1, clustered strategy (vs broadcast-path-n256)",
        "path", {"num_nodes": 256}, "broadcast", strategy="clustered",
        tags=("clustered",))
    add("broadcast-grid-n256-clustered",
        "16x16 grid, clustered strategy (vs broadcast-grid-n256)",
        "grid", {"rows": 16, "cols": 16}, "broadcast",
        strategy="clustered", tags=("clustered",))
    add("broadcast-gnp-n256-clustered",
        "connected G(256, 0.03), clustered strategy "
        "(vs broadcast-gnp-n256)",
        "gnp", {"num_nodes": 256, "edge_probability": 0.03, "seed": 256},
        "broadcast", strategy="clustered", tags=("clustered", "random"))
    add("broadcast-grid-n64-clustered",
        "8x8 grid, clustered strategy (vs broadcast-grid-n64)",
        "grid", {"rows": 8, "cols": 8}, "broadcast",
        strategy="clustered", tags=("smoke", "clustered"))
    add("election-grid-n256-clustered",
        "16x16 grid election, clustered strategy "
        "(vs election-grid-n256)",
        "grid", {"rows": 16, "cols": 16}, "leader-election",
        spontaneous=False, strategy="clustered", trials=4,
        tags=("clustered",))

    # --- large-n regime: n >= 4096 --------------------------------------
    # These are the scenarios where the polylog term stops dominating the
    # O(D + log^6 n) claims.  The n=16384 variants ("xlarge") are far too
    # big for the reference runner, so they are run with
    # --skip-reference and lean on the equivalence harness for
    # correctness.  Path variants use the clustered strategy: at
    # n = D + 1 the skeleton's ceil(log2 n)-step cycles would more than
    # double an already six-figure round count.
    add("broadcast-path-n4096", "path, n=4096=D+1, clustered schedule",
        "path", {"num_nodes": 4096}, "broadcast", strategy="clustered",
        trials=2, tags=("sparse",))
    add("broadcast-grid-n4096", "64x64 grid, n=4096", "grid",
        {"rows": 64, "cols": 64}, "broadcast", trials=4, tags=("sparse",))
    add("broadcast-tree-n4095", "complete binary tree, depth 11, n=4095",
        "binary-tree", {"depth": 11}, "broadcast", trials=4,
        tags=("sparse",))
    add("broadcast-gnp-n4096", "connected G(4096, 0.003)", "gnp",
        {"num_nodes": 4096, "edge_probability": 0.003, "seed": 4096},
        "broadcast", trials=4, tags=("sparse", "random"))
    add("broadcast-path-n16384",
        "path, n=16384=D+1, clustered schedule (dense engine cannot run "
        "this)", "path", {"num_nodes": 16384}, "broadcast",
        strategy="clustered", trials=2, tags=("sparse", "xlarge"))
    add("broadcast-grid-n16384", "128x128 grid, n=16384", "grid",
        {"rows": 128, "cols": 128}, "broadcast", trials=2,
        tags=("sparse", "xlarge"))
    add("broadcast-tree-n16383", "complete binary tree, depth 13, n=16383",
        "binary-tree", {"depth": 13}, "broadcast", trials=2,
        tags=("sparse", "xlarge"))
    add("broadcast-gnp-n16384", "connected G(16384, 0.001)", "gnp",
        {"num_nodes": 16384, "edge_probability": 0.001, "seed": 16384},
        "broadcast", trials=2, tags=("sparse", "xlarge", "random"))
    # The larger-n *random* family beyond gnp: a random geometric
    # deployment (the standard ad-hoc wireless abstraction) at the
    # sparse-regime scale, closing the sweep gap the ROADMAP named.
    add("broadcast-rgg-n4096",
        "random geometric deployment on the unit square, n=4096",
        "geometric", {"num_nodes": 4096, "seed": 4096}, "broadcast",
        trials=2, tags=("sparse", "random"))
    # Leader election in the sparse regime: the first election scenario
    # the CSR engine opens (the reference runner is far out of reach at
    # this scale, so it is benchmarked with --skip-reference like the
    # other sparse-regime scenarios).
    add("election-grid-n4096",
        "64x64 grid election, n=4096, sparse regime",
        "grid", {"rows": 64, "cols": 64}, "leader-election",
        spontaneous=False, trials=2, tags=("sparse",))

    # --- decoupled-rng regime: n >= ~10^5 -------------------------------
    # At this scale even the vectorized replay path is dominated by
    # refilling per-node draw blocks; the counter-based rng="decoupled"
    # mode is the only practical policy.  Its replay parity is
    # distributional (tests/test_rng_decoupled.py), so these scenarios
    # are run with --skip-reference.
    add("broadcast-grid-n16384-decoupled",
        "128x128 grid, decoupled counter rng "
        "(vs broadcast-grid-n16384 for the replay-mode twin)",
        "grid", {"rows": 128, "cols": 128}, "broadcast", trials=2,
        rng="decoupled", tags=("sparse", "xlarge", "decoupled"))
    add("broadcast-grid-n1e5", "316x316 grid, n=99856", "grid",
        {"rows": 316, "cols": 316}, "broadcast", trials=2,
        rng="decoupled", tags=("sparse", "xlarge", "decoupled"))
    add("broadcast-gnp-n1e5", "connected G(100000, 0.00012)", "gnp",
        {"num_nodes": 100000, "edge_probability": 0.00012,
         "seed": 100000},
        "broadcast", trials=2, rng="decoupled",
        tags=("sparse", "xlarge", "decoupled", "random"))

    # --- the classical repeated-Decay baseline --------------------------
    # Registered through repro.api.DEFAULT_ALGORITHMS like any future
    # prior-work protocol; twins of the spontaneous-broadcast scenarios
    # above, so the artifacts measure what spontaneous transmissions buy.
    add("decay-broadcast-path-n32",
        "classical repeated-Decay baseline on the n=32=D+1 path "
        "(vs broadcast-path-n32)",
        "path", {"num_nodes": 32}, "decay-broadcast", spontaneous=False,
        tags=("smoke", "baseline"))
    add("decay-broadcast-grid-n256",
        "classical repeated-Decay baseline on the 16x16 grid "
        "(vs broadcast-grid-n256)",
        "grid", {"rows": 16, "cols": 16}, "decay-broadcast",
        spontaneous=False, tags=("baseline",))

    # --- leader election -------------------------------------------------
    add("election-complete-n32", "complete graph, n=32", "complete",
        {"num_nodes": 32}, "leader-election", spontaneous=False,
        tags=("smoke",), trials=4)
    add("election-grid-n64", "8x8 grid, n=64", "grid",
        {"rows": 8, "cols": 8}, "leader-election", spontaneous=False,
        trials=4, tags=("smoke",))
    add("election-grid-n256", "16x16 grid, n=256", "grid",
        {"rows": 16, "cols": 16}, "leader-election", spontaneous=False,
        trials=4)
    add("election-gnp-n64", "connected G(64, 0.08)", "gnp",
        {"num_nodes": 64, "edge_probability": 0.08, "seed": 64},
        "leader-election", spontaneous=False, trials=4,
        tags=("random",))

    # --- fault injection / dynamic networks (repro.dynamics) -----------
    # Twins of the static scenarios above, differing only in the seeded
    # fault environment; diffing each pair against its static baseline
    # measures the degradation the churn/crash/jam process inflicts.
    # Fault decisions are counter hashes of (fault_seed, round, entity),
    # so the reference runner and both kernels replay the identical
    # trajectory and the round-exact agreement contract still holds.
    _grid_churn = DynamicsSpec(
        fault_seed=2017, models=(EdgeChurn(p_down=0.05, p_up=0.35),)
    )
    add("broadcast-grid-n64-churn",
        "8x8 grid under Markov edge churn "
        "(~12.5% links down; vs broadcast-grid-n64)",
        "grid", {"rows": 8, "cols": 8}, "broadcast",
        dynamics=_grid_churn, tags=("smoke", "dynamics"))
    add("broadcast-grid-n256-churn",
        "16x16 grid under Markov edge churn "
        "(~12.5% links down; vs broadcast-grid-n256)",
        "grid", {"rows": 16, "cols": 16}, "broadcast",
        dynamics=_grid_churn, tags=("dynamics",))
    add("broadcast-gnp-n1024-crash",
        "connected G(1024, 0.008) under node crash/recovery "
        "(~7.4% nodes down), sparse kernel",
        "gnp", {"num_nodes": 1024, "edge_probability": 0.008,
                "seed": 1024},
        "broadcast", trials=4,
        dynamics=DynamicsSpec(
            fault_seed=1024,
            models=(NodeCrash(p_crash=0.02, p_recover=0.25),),
        ),
        tags=("dynamics", "random"))
    add("election-grid-n256-jam",
        "16x16 grid election under periodic jamming "
        "(25% victims, 2-of-8 rounds; vs election-grid-n256)",
        "grid", {"rows": 16, "cols": 16}, "leader-election",
        spontaneous=False, trials=4,
        dynamics=DynamicsSpec(
            fault_seed=2017,
            models=(JammingWindows(
                period=8, duration=2, offset=4, fraction=0.25),),
        ),
        tags=("dynamics",))

    # --- service cold/warm probe pair ------------------------------------
    # Identical execution axes on the identical 64x64 grid, so both map
    # to one resolution-cache key (identity excludes the name): running
    # "cold" then "warm" through ``repro.service`` measures exactly the
    # preparation-versus-cache-hit gap the BENCH_service-* artifacts
    # record.
    add("service-cold",
        "64x64 grid, n=4096: first (cache-cold) service request",
        "grid", {"rows": 64, "cols": 64}, "broadcast", trials=2,
        tags=("service", "sparse"))
    add("service-warm",
        "64x64 grid, n=4096: repeat (cache-warm) service request",
        "grid", {"rows": 64, "cols": 64}, "broadcast", trials=2,
        tags=("service", "sparse"))


#: The built-in scenario sweep used by the CLI.
DEFAULT_REGISTRY = ScenarioRegistry()
_populate(DEFAULT_REGISTRY)


def get_scenario(name: str) -> Scenario:
    """Look up ``name`` in :data:`DEFAULT_REGISTRY`."""
    return DEFAULT_REGISTRY.get(name)


def iter_scenarios(
    match: Optional[str] = None, tag: Optional[str] = None
) -> list[Scenario]:
    """Filter :data:`DEFAULT_REGISTRY` (see :meth:`ScenarioRegistry.select`)."""
    return DEFAULT_REGISTRY.select(match=match, tag=tag)
