"""Deterministic graph families with analytically known diameters.

These are the workhorses of the scaling experiments: the paper's bounds
are stated in terms of ``n`` and ``D``, and deterministic families let the
benchmarks place ``(n, D)`` exactly where a regime of interest lies (for
example ``n = Θ(D)`` for the optimal-``O(D)`` regime of Theorem 5.1, or
``n = D^2`` for the grid).
"""

from __future__ import annotations

import itertools

from repro.errors import ConfigurationError
from repro.network.graph import Graph


def _require_positive(name: str, value: int, minimum: int = 1) -> None:
    if not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _bulk_graph(num_nodes: int, edges) -> Graph:
    """The graph on nodes ``0 .. num_nodes - 1`` with ``edges`` added in order.

    ``edges`` is an iterable of ``(u, v)`` pairs of distinct nodes.  The
    result equals ``Graph(nodes=range(num_nodes))`` plus one
    :meth:`Graph.add_edge` per pair: every adjacency set receives the
    same insertions in the same order, so it iterates in the same order.
    It skips the per-edge method call, endpoint checks and memo reset.
    """
    adjacency: dict[int, set[int]] = {node: set() for node in range(num_nodes)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    graph = Graph()
    graph._adjacency = adjacency
    return graph


def path_graph(num_nodes: int) -> Graph:
    """Return the path ``0 - 1 - ... - (n-1)``.

    Diameter ``n - 1``; the extreme case ``n = D + 1`` where the paper's
    bound is ``O(D)`` and prior bounds are ``O(D log D)``-ish.
    """
    _require_positive("num_nodes", num_nodes)
    return _bulk_graph(num_nodes, zip(range(num_nodes - 1), range(1, num_nodes)))


def cycle_graph(num_nodes: int) -> Graph:
    """Return the cycle on ``num_nodes`` nodes (diameter ``⌊n/2⌋``)."""
    _require_positive("num_nodes", num_nodes, minimum=3)
    graph = path_graph(num_nodes)
    graph.add_edge(num_nodes - 1, 0)
    return graph


def star_graph(num_leaves: int) -> Graph:
    """Return a star: centre node ``0`` joined to ``num_leaves`` leaves.

    Diameter 2.  Used by the Decay experiments (Lemma 3.1), where the
    number of simultaneously contending neighbours is the key parameter.
    """
    _require_positive("num_leaves", num_leaves)
    return _bulk_graph(num_leaves + 1, ((0, leaf) for leaf in range(1, num_leaves + 1)))


def complete_graph(num_nodes: int) -> Graph:
    """Return the complete graph on ``num_nodes`` nodes (diameter 1)."""
    _require_positive("num_nodes", num_nodes, minimum=2)
    return _bulk_graph(num_nodes, itertools.combinations(range(num_nodes), 2))


def grid_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows x cols`` grid (diameter ``rows + cols - 2``).

    Nodes are integers ``r * cols + c``.  The square grid gives the
    natural ``n = Θ(D^2)`` regime.
    """
    _require_positive("rows", rows)
    _require_positive("cols", cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return _bulk_graph(rows * cols, edges)


def binary_tree_graph(depth: int) -> Graph:
    """Return the complete binary tree of the given depth.

    ``n = 2^(depth+1) - 1`` and diameter ``2 * depth``; the regime where
    ``D = Θ(log n)`` and the additive polylog term dominates.
    """
    _require_positive("depth", depth, minimum=0)
    num_nodes = 2 ** (depth + 1) - 1
    parents = ((node, (node - 1) // 2) for node in range(1, num_nodes))
    return _bulk_graph(num_nodes, parents)


def caterpillar_graph(spine_length: int, legs_per_node: int) -> Graph:
    """Return a caterpillar: a path spine with pendant leaves on each node.

    Diameter ``spine_length + 1`` (for ``legs_per_node >= 1``); lets the
    experiments grow ``n`` while keeping ``D`` essentially fixed.
    Spine nodes are ``0 .. spine_length - 1``.
    """
    _require_positive("spine_length", spine_length, minimum=2)
    _require_positive("legs_per_node", legs_per_node, minimum=0)
    spine = zip(range(spine_length - 1), range(1, spine_length))
    legs = (
        (node, spine_length + node * legs_per_node + leg)
        for node in range(spine_length)
        for leg in range(legs_per_node)
    )
    return _bulk_graph(spine_length * (1 + legs_per_node), itertools.chain(spine, legs))


def dumbbell_graph(clique_size: int, bridge_length: int) -> Graph:
    """Return two cliques joined by a path of ``bridge_length`` edges.

    A classic hard case for clustering-based algorithms: the bridge forces
    messages through a thin cut.  Diameter ``bridge_length + 2``.
    """
    _require_positive("clique_size", clique_size, minimum=2)
    _require_positive("bridge_length", bridge_length, minimum=1)
    num_nodes = 2 * clique_size + bridge_length - 1
    left = itertools.combinations(range(clique_size), 2)
    right = itertools.combinations(range(clique_size, 2 * clique_size), 2)
    chain = [0, *range(2 * clique_size, num_nodes), clique_size]
    return _bulk_graph(num_nodes, itertools.chain(left, right, zip(chain, chain[1:])))


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """Return a clique with a path attached (the "lollipop").

    Diameter ``path_length + 1``.  Exercises the asymmetric case where a
    dense region feeds a long thin region.
    """
    _require_positive("clique_size", clique_size, minimum=2)
    _require_positive("path_length", path_length, minimum=1)
    num_nodes = clique_size + path_length
    stick = [0, *range(clique_size, num_nodes)]
    clique = itertools.combinations(range(clique_size), 2)
    return _bulk_graph(num_nodes, itertools.chain(clique, zip(stick, stick[1:])))


def path_of_cliques_graph(num_cliques: int, clique_size: int) -> Graph:
    """Return ``num_cliques`` cliques chained by single edges.

    Diameter ``2 * num_cliques - 1`` (one hop across each clique plus the
    connecting edges); models a corridor of dense cells, the shape that
    motivates the paper's "rapidly expanding layer" analysis in Section 6.
    """
    _require_positive("num_cliques", num_cliques, minimum=1)
    _require_positive("clique_size", clique_size, minimum=2)
    edges = []
    for index in range(num_cliques):
        base = index * clique_size
        edges.extend(itertools.combinations(range(base, base + clique_size), 2))
        if index > 0:
            # Join the previous clique's last node to this clique's first.
            edges.append((base - 1, base))
    return _bulk_graph(num_cliques * clique_size, edges)
