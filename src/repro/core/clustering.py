"""Cluster decomposition of the communication graph (Section 2, Lemma 2.3).

The paper's optimised algorithms do not run Decay uniformly over the
whole network: they first *decompose* the graph into low-radius clusters,
each grown around a node that transmits spontaneously in the opening
rounds, and then charge the cost of contention resolution to clusters
instead of to the global parameter ``n``.  This module provides that
decomposition as a reusable artefact:

* :func:`decompose` grows clusters by BFS layers: the first uncovered
  node (by default in the graph's deterministic insertion order -- in the
  spontaneous model *any* node may seed a cluster, so the seeds stand in
  for the paper's spontaneous transmitters) becomes a *cluster leader*,
  absorbs every uncovered node within ``radius`` hops layer by layer, and
  the growth repeats until the clusters partition the node set.
* :class:`Cluster` records one cluster's leader, members and BFS layers.
* :class:`ClusterDecomposition` answers the structural queries the
  cost-charged schedules of :mod:`repro.schedules.cluster` need: which
  clusters are adjacent, which members sit on a cluster's boundary, and
  -- the quantity the Lemma 2.3 charging argument is built on -- each
  cluster's *contention bound*, the maximum degree among its members.

The decomposition is purely combinatorial (graph in, clusters out) and
deterministic for a fixed graph, so both simulation backends derive the
identical clustered schedule from it.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

from repro.errors import ConfigurationError, GraphError
from repro.network.graph import Graph, NodeId

#: Default BFS growth radius of :func:`decompose` -- the radius
#: ``strategy="clustered"`` decomposes with, so that the manual
#: ``cluster_schedule(decompose(graph))`` route and the strategy build
#: the identical decomposition.
DEFAULT_CLUSTER_RADIUS = 2


@dataclasses.dataclass(frozen=True)
class Cluster:
    """One cluster of a :class:`ClusterDecomposition`.

    Attributes
    ----------
    index:
        Position of the cluster in its decomposition (0-based, in growth
        order).
    leader:
        The node the cluster was grown from.  In the paper's algorithms
        this is a spontaneous transmitter that seeds the cluster in the
        opening rounds; here it doubles as the cluster's coordination
        point for schedule construction.
    members:
        All nodes of the cluster (the leader included).
    layers:
        BFS layers of the growth, ``layers[d]`` holding the members at
        hop distance exactly ``d`` from the leader *within the uncovered
        region the cluster grew over*.  ``layers[0] == (leader,)``.
    """

    index: int
    leader: NodeId
    members: frozenset
    layers: tuple[tuple, ...]

    @property
    def radius(self) -> int:
        """Hop radius actually realised by the growth (``len(layers) - 1``)."""
        return len(self.layers) - 1

    @property
    def size(self) -> int:
        """Number of member nodes."""
        return len(self.members)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members


class ClusterDecomposition:
    """A partition of a graph's nodes into BFS-grown clusters.

    Built by :func:`decompose`; holds the graph it was derived from and
    exposes the adjacency/boundary/contention queries the cluster
    schedules are assembled from.  All derived quantities are cached, so
    repeated schedule builds over the same decomposition stay cheap.
    """

    def __init__(self, graph: Graph, clusters: Sequence[Cluster]) -> None:
        covered: dict[NodeId, int] = {}
        for cluster in clusters:
            for node in cluster.members:
                if node in covered:
                    raise ConfigurationError(
                        f"node {node!r} belongs to clusters "
                        f"{covered[node]} and {cluster.index}"
                    )
                covered[node] = cluster.index
        missing = [node for node in graph if node not in covered]
        if missing:
            raise ConfigurationError(
                f"clusters do not cover the graph; first uncovered node: "
                f"{missing[0]!r}"
            )
        if len(covered) != graph.num_nodes:
            raise ConfigurationError(
                "clusters mention nodes outside the graph"
            )
        self._graph = graph
        self._clusters = tuple(clusters)
        self._cluster_of = covered
        self._contention: dict[int, int] = {}
        self._adjacent: dict[int, frozenset] = {}

    @property
    def graph(self) -> Graph:
        """The graph the decomposition partitions."""
        return self._graph

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """All clusters, in growth order."""
        return self._clusters

    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    def cluster_of(self, node: NodeId) -> Cluster:
        """The unique cluster containing ``node``."""
        try:
            return self._clusters[self._cluster_of[node]]
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def leaders(self) -> tuple:
        """Every cluster leader, in growth order."""
        return tuple(cluster.leader for cluster in self._clusters)

    def boundary_nodes(self, index: int) -> frozenset:
        """Members of cluster ``index`` with a neighbour in another cluster."""
        cluster = self._clusters[index]
        return frozenset(self._graph.boundary_nodes(cluster.members))

    def adjacent_clusters(self, index: int) -> frozenset:
        """Indices of clusters sharing at least one edge with ``index``."""
        if index not in self._adjacent:
            cluster = self._clusters[index]
            neighbours = {
                self._cluster_of[other]
                for node in cluster.members
                for other in self._graph.neighbors(node)
            }
            neighbours.discard(index)
            self._adjacent[index] = frozenset(neighbours)
        return self._adjacent[index]

    def contention(self, index: int) -> int:
        """Cluster ``index``'s contention bound: its maximum member degree.

        A listener inside (or adjacent to) the cluster can have at most
        this many transmitting neighbours drawn from the cluster, so a
        Decay-style schedule whose length covers this bound resolves all
        contention the cluster can cause -- the quantity each unit of
        schedule length is charged against in the Lemma 2.3 argument.
        """
        if index not in self._contention:
            cluster = self._clusters[index]
            self._contention[index] = max(
                self._graph.degree(node) for node in cluster.members
            )
        return self._contention[index]

    def charged_contention(self, node: NodeId) -> int:
        """The contention bound ``node``'s schedule must be charged for.

        The maximum contention over the node's own cluster (the
        *intra-cluster* charge) and every cluster owning one of its
        neighbours (the *inter-cluster* charge).  Every listener ``u``
        adjacent to ``node`` lives in one of those clusters, and
        ``contention(cluster(u)) >= degree(u)`` by definition, so a
        schedule covering this bound covers the contention at every
        listener the node can reach -- the per-node form of the Lemma 2.3
        cost-charging.
        """
        charged = {self._cluster_of[node]}
        for neighbour in self._graph.neighbors(node):
            charged.add(self._cluster_of[neighbour])
        return max(self.contention(index) for index in charged)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterDecomposition(n={self._graph.num_nodes}, "
            f"clusters={self.num_clusters})"
        )


def decompose(
    graph: Graph,
    radius: int = DEFAULT_CLUSTER_RADIUS,
    seeds: Optional[Iterable[NodeId]] = None,
) -> ClusterDecomposition:
    """Partition ``graph`` into clusters of hop radius at most ``radius``.

    Growth is greedy and deterministic: the first still-uncovered seed
    becomes a leader and absorbs the uncovered nodes within ``radius``
    hops of it, one BFS layer at a time (layers never cross already
    covered nodes, so clusters stay connected and disjoint); then the
    next uncovered seed grows, and so on until every node is covered.

    Parameters
    ----------
    graph:
        The communication graph (must be non-empty).
    radius:
        Maximum hop radius of a cluster (>= 0; radius 0 makes every node
        its own cluster).
    seeds:
        Candidate leaders in priority order; defaults to the graph's
        insertion order.  In the spontaneous model any node may seed a
        cluster, so callers may pass e.g. the candidate set of a Compete
        run to grow clusters from the actual spontaneous transmitters.
        Nodes not covered by any seed's growth fall back to the insertion
        order, so the result is always a full partition.
    """
    if graph.num_nodes == 0:
        raise ConfigurationError("cannot decompose an empty graph")
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")

    order: list[NodeId] = []
    seen: set[NodeId] = set()
    if seeds is not None:
        for node in seeds:
            if node not in graph:
                raise ConfigurationError(
                    f"seed node {node!r} is not in the graph"
                )
            if node not in seen:
                seen.add(node)
                order.append(node)
    for node in graph.nodes():
        if node not in seen:
            seen.add(node)
            order.append(node)

    # Neighbour sets iterate in hash order; rank them by insertion order
    # so layer contents are identical on every platform.
    rank = {node: position for position, node in enumerate(graph.nodes())}

    covered: set[NodeId] = set()
    clusters: list[Cluster] = []
    for seed in order:
        if seed in covered:
            continue
        layers: list[tuple] = [(seed,)]
        covered.add(seed)
        frontier = [seed]
        for _ in range(radius):
            next_layer = []
            for node in frontier:
                for neighbour in sorted(
                    graph.neighbors(node), key=rank.__getitem__
                ):
                    if neighbour not in covered:
                        covered.add(neighbour)
                        next_layer.append(neighbour)
            if not next_layer:
                break
            layers.append(tuple(next_layer))
            frontier = next_layer
        members = frozenset(
            node for layer in layers for node in layer
        )
        clusters.append(
            Cluster(
                index=len(clusters),
                leader=seed,
                members=members,
                layers=tuple(layers),
            )
        )
    return ClusterDecomposition(graph, clusters)
