"""Random graph families modelling ad-hoc radio deployments.

All generators take an explicit ``seed`` (or a ``numpy`` Generator) so
that experiments are exactly reproducible, and all guarantee connectivity
-- the paper assumes the network is connected so that global propagation
is possible.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.topology.generators import _bulk_graph

SeedLike = Union[int, np.random.Generator, None]


def _as_rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _connect_components(graph: Graph, rng: np.random.Generator) -> None:
    """Add a minimal set of random edges to make ``graph`` connected.

    One labelling pass finds the components.  The first node's component
    absorbs the others one at a time, each through one edge between
    uniformly drawn members of the two (both sorted).  The next one
    absorbed holds the first node of a fresh ``set`` of the graph's nodes
    minus those absorbed: CPython's set order, which this join has always
    followed, so every seed keeps its graph.
    """
    components = graph.connected_components()
    joined = components.pop(0)
    # A dict, so that set() lays the nodes out as it lays out the
    # graph's own adjacency dict.
    nodes = dict.fromkeys(graph)
    while components:
        remaining = set(nodes)
        remaining -= joined
        first = next(iter(remaining))
        component = next(c for c in components if first in c)
        components.remove(component)
        old, new = sorted(joined), sorted(component)
        u = old[int(rng.integers(len(old)))]
        v = new[int(rng.integers(len(new)))]
        graph.add_edge(u, v)
        joined |= component


#: Above this node count :func:`connected_gnp_graph` samples the edge
#: *set* (Binomial edge count + distinct uniform pairs) instead of
#: flipping all ``n(n-1)/2`` coins.  The two procedures draw from the
#: same ``G(n, p)`` distribution but give different graphs for the same
#: seed, so the cutoff sits above every seeded topology persisted in a
#: committed ``BENCH_*.json`` -- those must keep rebuilding exactly.
_GNP_FAST_PATH_MIN_NODES = 16384


def connected_gnp_graph(
    num_nodes: int, edge_probability: float, seed: SeedLike = None
) -> Graph:
    """Return a connected Erdos-Renyi ``G(n, p)`` sample.

    Connectivity is enforced by joining leftover components with single
    random edges, which changes the distribution negligibly for
    ``p >= (1 + ε) ln n / n`` (the usual regime for these graphs).

    Above ``n = 16384`` the sampler switches from per-pair coin flips
    (``Θ(n²)`` draws) to the exactly equivalent two-stage form: draw the
    edge count ``m ~ Binomial(n(n-1)/2, p)``, then ``m`` distinct
    unordered pairs uniformly at random.  Same distribution, ``O(n + m)``
    time -- but a *different* stream consumption, so the same seed gives
    different (equally distributed) graphs on either side of the cutoff.
    """
    if num_nodes < 2:
        raise ConfigurationError(f"num_nodes must be >= 2, got {num_nodes}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    rng = _as_rng(seed)
    if num_nodes > _GNP_FAST_PATH_MIN_NODES:
        edges = _sample_gnp_edges_fast(num_nodes, edge_probability, rng)
    else:
        # Sample the upper triangle in vectorised blocks for speed.
        edges = []
        for u in range(num_nodes - 1):
            count = num_nodes - u - 1
            mask = rng.random(count) < edge_probability
            edges.extend((u, v) for v in (u + 1 + mask.nonzero()[0]).tolist())
    graph = _bulk_graph(num_nodes, edges)
    _connect_components(graph, rng)
    return graph


def _sample_gnp_edges_fast(
    num_nodes: int,
    edge_probability: float,
    rng: np.random.Generator,
) -> Iterable[tuple[int, int]]:
    """``G(n, p)`` edges, in draw order, by sampling the edge set directly.

    ``m ~ Binomial(n(n-1)/2, p)`` distinct unordered pairs, drawn by
    rejection: oversample uniform pairs, keep the first occurrence of
    each (in draw order, so the result is exchangeable), repeat until
    ``m`` are accumulated.  Each accepted pair is uniform over the
    remaining pairs, which is exactly the ``G(n, p)`` edge set law.
    """
    num_pairs = num_nodes * (num_nodes - 1) // 2
    target = int(rng.binomial(num_pairs, edge_probability))
    chosen: dict[int, None] = {}  # insertion-ordered pair codes
    while len(chosen) < target:
        need = target - len(chosen)
        # Oversample a little so one round usually suffices (collisions
        # are rare while target << num_pairs, the sparse regime this
        # path exists for).
        batch = max(16, int(need * 1.05))
        u = rng.integers(0, num_nodes, size=batch, dtype=np.int64)
        v = rng.integers(0, num_nodes - 1, size=batch, dtype=np.int64)
        # Classic distinct-pair trick: v skips u, so (u, v) is uniform
        # over ordered distinct pairs; canonicalise to unordered.
        v = np.where(v >= u, v + 1, v)
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        for code in (lo * num_nodes + hi).tolist():
            if code not in chosen:
                chosen[code] = None
                if len(chosen) == target:
                    break
    codes = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
    return zip((codes // num_nodes).tolist(), (codes % num_nodes).tolist())


def random_geometric_graph(
    num_nodes: int,
    radius: Optional[float] = None,
    seed: SeedLike = None,
    side_length: float = 1.0,
) -> Graph:
    """Return a connected random geometric graph on the unit square.

    Nodes are placed uniformly at random in a ``side_length`` square and
    joined when within ``radius``.  This is the standard abstraction of a
    wireless ad-hoc deployment.  When ``radius`` is omitted it defaults to
    the connectivity threshold ``side_length * sqrt(2 ln n / (π n))``
    scaled by 1.2, which empirically yields connected graphs with a wide
    range of diameters.
    """
    if num_nodes < 2:
        raise ConfigurationError(f"num_nodes must be >= 2, got {num_nodes}")
    rng = _as_rng(seed)
    if radius is None:
        radius = 1.2 * side_length * math.sqrt(
            2.0 * math.log(num_nodes) / (math.pi * num_nodes)
        )
    positions = rng.random((num_nodes, 2)) * side_length
    edges: list[tuple[int, int]] = []
    # Grid-bucket the points so neighbour search is near-linear.
    cell = max(radius, 1e-9)
    buckets: dict[tuple[int, int], list[int]] = {}
    for index in range(num_nodes):
        key = (int(positions[index, 0] // cell), int(positions[index, 1] // cell))
        buckets.setdefault(key, []).append(index)
    radius_sq = radius * radius
    for (cx, cy), members in buckets.items():
        candidates: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                candidates.extend(buckets.get((cx + dx, cy + dy), ()))
        for u in members:
            for v in candidates:
                if v <= u:
                    continue
                delta = positions[u] - positions[v]
                if float(delta @ delta) <= radius_sq:
                    edges.append((u, v))
    graph = _bulk_graph(num_nodes, edges)
    _connect_components(graph, rng)
    return graph


def random_tree_graph(num_nodes: int, seed: SeedLike = None) -> Graph:
    """Return a uniformly random labelled tree (via a random Prüfer-like
    attachment process).

    Trees are the sparsest connected graphs and stress the clustering
    (every edge is a cut edge candidate).
    """
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    rng = _as_rng(seed)
    return _bulk_graph(
        num_nodes, [(node, int(rng.integers(node))) for node in range(1, num_nodes)]
    )


def clustered_graph(
    num_clusters: int,
    cluster_size: int,
    intra_probability: float = 0.5,
    extra_inter_edges: int = 0,
    seed: SeedLike = None,
) -> Graph:
    """Return a graph of dense random clusters arranged along a chain.

    Each cluster is an internal ``G(cluster_size, intra_probability)``
    made connected; consecutive clusters are joined by one edge, plus
    ``extra_inter_edges`` random long-range edges.  This mimics the
    multi-cell deployments that motivate the coarse/fine clustering of
    the Compete algorithm.
    """
    if num_clusters < 1 or cluster_size < 1:
        raise ConfigurationError("num_clusters and cluster_size must be >= 1")
    rng = _as_rng(seed)
    edges: list[tuple[int, int]] = []
    for cluster_index in range(num_clusters):
        base = cluster_index * cluster_size
        members = list(range(base, base + cluster_size))
        drawn = set()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if rng.random() < intra_probability:
                    drawn.add((u, v))
                    edges.append((u, v))
        # Make the cluster internally connected with a spanning path.
        edges.extend(pair for pair in zip(members, members[1:]) if pair not in drawn)
        if cluster_index > 0:
            edges.append((base - cluster_size, base))
    graph = _bulk_graph(num_clusters * cluster_size, edges)
    for _ in range(extra_inter_edges):
        u = int(rng.integers(graph.num_nodes))
        v = int(rng.integers(graph.num_nodes))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


def diameter_controlled_graph(
    num_nodes: int,
    target_diameter: int,
    seed: SeedLike = None,
) -> Graph:
    """Return a connected graph with ``num_nodes`` nodes and diameter close
    to ``target_diameter``.

    The construction places a backbone path of ``target_diameter + 1``
    nodes and attaches the remaining nodes to random backbone positions
    (plus a few random chords between attached nodes sharing a backbone
    neighbourhood).  The realised diameter is within a small additive
    constant of the target; callers that need the exact value should read
    it back via :meth:`repro.network.graph.Graph.diameter`.
    """
    if target_diameter < 1:
        raise ConfigurationError(f"target_diameter must be >= 1, got {target_diameter}")
    if num_nodes < target_diameter + 1:
        raise ConfigurationError(
            "num_nodes must be at least target_diameter + 1 "
            f"(got n={num_nodes}, D={target_diameter})"
        )
    rng = _as_rng(seed)
    backbone_size = target_diameter + 1
    edges = [(node, node + 1) for node in range(backbone_size - 1)]
    for node in range(backbone_size, num_nodes):
        anchor = int(rng.integers(backbone_size))
        edges.append((node, anchor))
        # Occasionally add a second edge to a nearby anchor so the graph
        # is not a pure caterpillar.
        if rng.random() < 0.3:
            nearby = min(backbone_size - 1, max(0, anchor + int(rng.integers(-1, 2))))
            # So far ``node``'s one neighbour is its anchor.
            if nearby != anchor:
                edges.append((node, nearby))
    return _bulk_graph(num_nodes, edges)
