"""Exact diameter of :class:`repro.network.graph.Graph` against per-node BFS."""

import random
import tracemalloc

import numpy as np
import pytest

from repro import topology
from repro.errors import GraphError
from repro.network import graph as graph_module
from repro.network.graph import Graph

#: Node counts on both sides of the 64-bit word boundary.
SIZES = (1, 2, 63, 64, 65, 127, 128, 129)


def bfs_diameter(graph):
    """The per-node BFS diameter, kept as the reference implementation."""
    return max(max(graph.bfs_distances(v).values()) for v in graph)


def broom(leaves, handle):
    """A path of ``handle`` nodes with ``leaves`` leaves on node 0: one
    wide row beside many narrow ones."""
    graph = topology.path_graph(handle)
    for leaf in range(handle, handle + leaves):
        graph.add_edge(0, leaf)
    return graph


def random_connected_graph(seed):
    """A random spanning tree plus random chords, ``n <= 150``."""
    rng = random.Random(seed)
    n = rng.randint(1, 150)
    graph = Graph(nodes=range(n))
    for node in range(1, n):
        graph.add_edge(node, rng.randrange(node))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            graph.add_edge(u, v)
    return graph


#: ``(family, args)`` of every deterministic generator, sized to the
#: node counts of :data:`SIZES` wherever the family allows.
DETERMINISTIC = (
    [("path", dict(num_nodes=n)) for n in SIZES]
    + [("cycle", dict(num_nodes=n)) for n in SIZES if n >= 3]
    + [("star", dict(num_leaves=n - 1)) for n in SIZES if n >= 2]
    + [("complete", dict(num_nodes=n)) for n in SIZES if n >= 2]
    + [
        ("grid", dict(rows=r, cols=c))
        for r, c in ((1, 1), (1, 2), (7, 9), (8, 8), (5, 13), (1, 127), (8, 16), (3, 43))
    ]
    + [("binary-tree", dict(depth=d)) for d in range(8)]
    + [
        ("caterpillar", dict(spine_length=s, legs_per_node=k))
        for s, k in ((2, 0), (21, 2), (16, 3), (13, 4), (127, 0), (32, 3), (43, 2))
    ]
    + [
        ("dumbbell", dict(clique_size=c, bridge_length=b))
        for c, b in ((2, 1), (20, 24), (20, 25), (30, 6), (32, 64), (60, 9), (2, 126))
    ]
    + [
        ("lollipop", dict(clique_size=c, path_length=p))
        for c, p in ((2, 1), (31, 32), (60, 4), (2, 63), (64, 63), (100, 28), (10, 119))
    ]
    + [
        ("path-of-cliques", dict(num_cliques=k, clique_size=c))
        for k, c in ((1, 2), (21, 3), (16, 4), (13, 5), (1, 127), (64, 2), (43, 3))
    ]
)

RANDOM = [
    ("gnp", dict(num_nodes=n, edge_probability=p, seed=s))
    for n, p, s in ((64, 0.08, 1), (65, 0.3, 2), (129, 0.04, 3), (128, 0.5, 4))
] + [
    ("geometric", dict(num_nodes=n, seed=s)) for n, s in ((63, 1), (129, 2))
] + [
    ("clustered", dict(num_clusters=k, cluster_size=c, extra_inter_edges=e, seed=s))
    for k, c, e, s in ((8, 8, 0, 1), (5, 13, 3, 2))
] + [
    ("random-tree", dict(num_nodes=n, seed=s)) for n, s in ((1, 0), (64, 1), (129, 2))
] + [
    ("diameter-controlled", dict(num_nodes=n, target_diameter=d, seed=s))
    for n, d, s in ((65, 20, 1), (128, 63, 2))
]


def _family_id(case):
    family, args = case
    return family + "-" + "-".join(str(v) for v in args.values())


@pytest.mark.parametrize("case", DETERMINISTIC + RANDOM, ids=_family_id)
def test_exact_diameter_matches_bfs_on_every_family(case):
    family, args = case
    graph = topology.make_topology(family, **args)
    assert graph.diameter(exact=True) == bfs_diameter(graph)


@pytest.mark.parametrize("seed", range(50))
def test_exact_diameter_matches_bfs_on_random_connected_graphs(seed):
    graph = random_connected_graph(seed)
    assert graph.diameter(exact=True) == bfs_diameter(graph)


def test_exact_diameter_on_arbitrary_node_ids():
    graph = Graph(edges=[("a", "b"), ("b", (1, 2)), ((1, 2), 3.5), ("a", "z")])
    assert graph.diameter(exact=True) == bfs_diameter(graph) == 4


def test_exact_diameter_follows_mutation():
    graph = topology.path_graph(100)
    assert graph.diameter(exact=True) == 99
    graph.add_edge(0, 99)
    assert graph.diameter(exact=True) == 50
    graph.remove_edge(49, 50)
    assert graph.diameter(exact=True) == 99


@pytest.mark.parametrize(
    "graph",
    [
        Graph(edges=[(0, 1), (2, 3)]),
        Graph(nodes=[5], edges=[(0, 1), (1, 2)]),
        Graph(),
    ],
    ids=["two-components", "isolated-node", "empty"],
)
def test_exact_diameter_rejects_disconnected_and_empty_graphs(graph):
    with pytest.raises(GraphError):
        graph.diameter(exact=True)


@pytest.mark.parametrize(
    "graph",
    [
        topology.complete_graph(70),
        topology.connected_gnp_graph(130, 0.5, seed=7),
        topology.star_graph(128),
        broom(40, 90),
    ],
    ids=["complete-70", "gnp-130-dense", "star-129", "broom-40-90"],
)
def test_exact_diameter_on_mixed_and_dense_degrees(graph):
    # Rows of very different degree make jagged diagonals of very
    # different lengths, down to the hub's run of one-row diagonals.
    assert graph.diameter(exact=True) == bfs_diameter(graph)


def test_level_plan_is_the_jagged_diagonals():
    graph = broom(40, 90)
    indptr, indices, _ = graph.adjacency_csr()
    rows = np.argsort(indptr[:-1] - indptr[1:], kind="stable")
    diagonals = graph_module._level_plan(indptr, indices, rows)
    assert [d.size for d in diagonals] == [130, 89] + [1] * 39
    assert sum(d.size for d in diagonals) == indices.size
    hub = np.concatenate([d[:1] for d in diagonals])
    assert sorted(hub.tolist()) == sorted(graph.neighbors(0))


def test_exact_diameter_memory_stays_near_the_reach_matrix():
    # Gathering every CSR entry's row at once would materialize
    # entries * words words (14 MB here); the jagged layout holds one
    # index per entry plus a few copies of the n x words matrix, since
    # no diagonal gathers more rows than the matrix has.
    graph = topology.connected_gnp_graph(600, 0.5, seed=11)
    _, indices, _ = graph.adjacency_csr()
    matrix_bytes = 600 * 10 * 8
    tracemalloc.start()
    try:
        assert graph.diameter(exact=True) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = indices.nbytes + 8 * matrix_bytes
    assert peak < bound < indices.size * 10 * 8
