"""Dict-walk oracles for the topology facts of ``Graph``.

:class:`repro.network.graph.Graph` answers connectivity, the iterated
two-sweep diameter bound and the sorted CSR adjacency from one memoized
pass over integer rows.  This module keeps the plain forms that pass
replaced: breadth-first searches over the adjacency sets themselves,
keyed by node, and a CSR built row by row.  It is a reference that tests
compare against, not a second implementation the package uses.
"""

import numpy as np


def is_connected(graph):
    """True for the empty graph and for connected graphs."""
    if graph.num_nodes == 0:
        return True
    return len(graph.bfs_distances(next(iter(graph)))) == graph.num_nodes


def connected_components(graph):
    """The components as node sets, found by repeated BFS from the first
    node, in graph order, not yet reached: listed by first node."""
    reached = set()
    components = []
    for node in graph:
        if node not in reached:
            component = set(graph.bfs_distances(node))
            components.append(component)
            reached |= component
    return components


def connect_components(graph, rng):
    """Join the first two components by one edge between uniformly drawn
    members (both sorted), then label again, until one is left."""
    components = connected_components(graph)
    while len(components) > 1:
        first, second = sorted(components[0]), sorted(components[1])
        graph.add_edge(
            first[int(rng.integers(len(first)))],
            second[int(rng.integers(len(second)))],
        )
        components = connected_components(graph)


def two_sweep_diameter(graph, sweeps=4):
    """Iterated double sweep from the first node of a connected graph.

    Each sweep jumps to the first node, in BFS discovery order, at the
    largest distance found; the bound is the largest eccentricity seen.
    """
    current = next(iter(graph))
    best = 0
    for _ in range(sweeps):
        distances = graph.bfs_distances(current)
        current = max(distances, key=distances.__getitem__)
        best = max(best, distances[current])
    return best


def exact_diameter(graph):
    """The largest eccentricity, by one BFS per node."""
    return max(max(graph.bfs_distances(node).values()) for node in graph)


def adjacency_csr(graph):
    """``(indptr, indices, nodes)``: insertion order, each row sorted."""
    nodes = graph.nodes()
    index = {node: position for position, node in enumerate(nodes)}
    rows = [sorted(index[neighbour] for neighbour in graph.neighbors(node))
            for node in nodes]
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.array([column for row in rows for column in row], dtype=np.int64)
    return indptr, indices, nodes
