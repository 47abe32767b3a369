"""Topology facts of :class:`repro.network.graph.Graph` against the
dict-walk oracle (``tests/graph_oracle.py``): the exact diameter, the
two-sweep bound, connectivity, components and the CSR, plus the
generators' bulk build against per-edge insertion."""

import random
import tracemalloc

import numpy as np
import pytest

import graph_oracle
from repro import topology
from repro.api import ExecutionConfig
from repro.core.broadcast import broadcast
from repro.errors import GraphError
from repro.network import graph as graph_module
from repro.network.graph import Graph
from repro.topology import generators, random_graphs

#: Node counts on both sides of the 64-bit word boundary.
SIZES = (1, 2, 63, 64, 65, 127, 128, 129)


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
    assert graph.diameter(exact=True) == graph_oracle.exact_diameter(graph)


@pytest.mark.parametrize("seed", range(50))
def test_exact_diameter_matches_bfs_on_random_connected_graphs(seed):
    graph = random_connected_graph(seed)
    assert graph.diameter(exact=True) == graph_oracle.exact_diameter(graph)
    # Trees plus chords often tie at the farthest distance, so this also
    # pins the two-sweep's tie-break: the first node of the last level.
    assert graph.diameter(exact=False) == graph_oracle.two_sweep_diameter(graph)


def test_exact_diameter_on_arbitrary_node_ids():
    graph = Graph(edges=[("a", "b"), ("b", (1, 2)), ((1, 2), 3.5), ("a", "z")])
    assert graph.diameter(exact=True) == graph_oracle.exact_diameter(graph) == 4


def test_exact_diameter_follows_mutation():
    graph = topology.path_graph(100)
    assert graph.diameter(exact=True) == 99
    graph.add_edge(0, 99)
    assert graph.diameter(exact=True) == 50
    graph.remove_edge(49, 50)
    assert graph.diameter(exact=True) == 99


@pytest.fixture
def bit_parallel_calls(monkeypatch):
    """The graphs that bit-parallel passes ran on, in call order."""
    calls = []
    original = Graph._bit_parallel_diameter

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Graph, "_bit_parallel_diameter", counted)
    return calls


def test_exact_diameter_is_computed_once_per_topology(bit_parallel_calls):
    # Every run on one graph derives its round budget from one
    # bit-parallel pass; a mutation drops it with the rest of the memo.
    calls = bit_parallel_calls
    # A cycle plus a chord, since a tree takes no bit-parallel pass.
    graph = topology.cycle_graph(256)
    graph.add_edge(0, 128)
    config = ExecutionConfig(backend="vectorized")
    for seed in range(3):
        assert broadcast(graph, source=0, seed=seed, config=config).success
    assert calls == [graph]
    graph.remove_edge(0, 128)
    fresh = Graph(nodes=graph.nodes(), edges=graph.edges())
    assert graph.diameter(exact=True) == fresh.diameter(exact=True) == 128
    assert calls == [graph, graph, fresh]


def tree_cases():
    """Paths, stars, binary trees, brooms and seeded random trees,
    ``1 <= n <= 400``."""
    rng = random.Random(0)
    for n in (1, 2, 3, 64, 65, 255, 400):
        yield f"path-{n}", topology.path_graph(n)
    for leaves in (1, 2, 63, 64, 399):
        yield f"star-{leaves + 1}", topology.star_graph(leaves)
    for depth in (0, 1, 5, 7):
        yield f"binary-tree-{depth}", topology.binary_tree_graph(depth)
    for leaves, handle in ((40, 90), (1, 2), (300, 100)):
        yield f"broom-{leaves}-{handle}", broom(leaves, handle)
    for seed in range(30):
        n = rng.randint(1, 400)
        yield f"random-tree-{n}-{seed}", topology.random_tree_graph(n, seed=seed)


@pytest.mark.parametrize(
    "graph", [pytest.param(graph, id=name) for name, graph in tree_cases()]
)
def test_exact_diameter_of_a_tree_is_its_two_sweep(graph):
    assert graph.num_edges == graph.num_nodes - 1
    expected = graph_oracle.exact_diameter(graph)
    assert graph._bit_parallel_diameter() == expected
    assert graph.diameter(exact=True) == expected


def test_bit_parallel_pass_runs_for_a_cycle_and_not_for_a_tree(
    bit_parallel_calls,
):
    tree = topology.random_tree_graph(200, seed=3)
    cycle = topology.cycle_graph(200)
    assert tree.diameter(exact=True) == graph_oracle.exact_diameter(tree)
    assert cycle.diameter(exact=True) == 100
    assert bit_parallel_calls == [cycle]


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
    # The star and the broom are trees, which diameter() answers from
    # the two-sweep, so the pass is called directly too.
    expected = graph_oracle.exact_diameter(graph)
    assert graph.diameter(exact=True) == graph._bit_parallel_diameter() == expected


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


# ----------------------------------------------------------------------
# The memoized facts against the oracle, on generated graphs
# ----------------------------------------------------------------------
def family_args(family, rng):
    """Seeded arguments for ``family``, at most a few hundred nodes."""
    n = rng.randint(3, 120)
    seed = rng.randrange(10**6)
    return {
        "path": lambda: dict(num_nodes=n),
        "cycle": lambda: dict(num_nodes=n),
        "star": lambda: dict(num_leaves=n),
        "complete": lambda: dict(num_nodes=rng.randint(2, 40)),
        "grid": lambda: dict(rows=rng.randint(1, 12), cols=rng.randint(1, 12)),
        "binary-tree": lambda: dict(depth=rng.randint(0, 6)),
        "caterpillar": lambda: dict(
            spine_length=rng.randint(2, 30), legs_per_node=rng.randint(0, 3)
        ),
        "dumbbell": lambda: dict(
            clique_size=rng.randint(2, 12), bridge_length=rng.randint(1, 20)
        ),
        "lollipop": lambda: dict(
            clique_size=rng.randint(2, 12), path_length=rng.randint(1, 30)
        ),
        "path-of-cliques": lambda: dict(
            num_cliques=rng.randint(1, 10), clique_size=rng.randint(2, 6)
        ),
        "gnp": lambda: dict(
            num_nodes=n, edge_probability=rng.uniform(0.005, 0.2), seed=seed
        ),
        "geometric": lambda: dict(
            num_nodes=n, radius=rng.uniform(0.05, 0.3), seed=seed
        ),
        "clustered": lambda: dict(
            num_clusters=rng.randint(1, 8), cluster_size=rng.randint(1, 10),
            intra_probability=rng.uniform(0.1, 0.9),
            extra_inter_edges=rng.randint(0, 5), seed=seed,
        ),
        "random-tree": lambda: dict(num_nodes=n, seed=seed),
        "diameter-controlled": lambda: dict(
            num_nodes=n, target_diameter=rng.randint(1, n - 1), seed=seed
        ),
    }[family]()


def generated_graph(family, seed):
    """A seeded ``family`` graph.  Odd seeds relabel it with strings in
    shuffled insertion order; seeds 2 and 3 (mod 4) drop a third of its
    edges, and seed 3 adds an isolated node."""
    rng = random.Random(f"{family}-{seed}")
    graph = topology.make_topology(family, **family_args(family, rng))
    if seed % 2:
        names = {node: f"v{node}" for node in graph}
        order = list(names.values())
        rng.shuffle(order)
        graph = Graph(
            nodes=order, edges=[(names[u], names[v]) for u, v in graph.edges()]
        )
    if seed % 4 >= 2:
        edges = graph.edges()
        for u, v in rng.sample(edges, len(edges) // 3):
            graph.remove_edge(u, v)
    if seed % 4 == 3:
        graph.add_node("isolated")
    return graph


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", sorted(topology.FAMILIES))
def test_topology_facts_match_the_oracle(family, seed):
    graph = generated_graph(family, seed)
    connected = graph_oracle.is_connected(graph)
    assert graph.is_connected() == connected
    components = graph.connected_components()
    assert set(map(frozenset, components)) == set(
        map(frozenset, graph_oracle.connected_components(graph))
    )
    # Listed by first node: the first component holds the first node.
    assert graph.nodes()[0] in components[0]
    if connected:
        assert graph.diameter(exact=False) == graph_oracle.two_sweep_diameter(graph)
        assert graph.diameter(exact=True) == graph_oracle.exact_diameter(graph)
    else:
        for exact in (False, True):
            with pytest.raises(GraphError, match="disconnected"):
                graph.diameter(exact=exact)
    indptr, indices, nodes = graph.adjacency_csr()
    expected = graph_oracle.adjacency_csr(graph)
    assert nodes == expected[2]
    assert np.array_equal(indptr, expected[0])
    assert np.array_equal(indices, expected[1])


@pytest.mark.parametrize(
    "graph",
    [Graph(nodes=["only"]), Graph(), Graph(edges=[("a", "b"), ("c", "d")])],
    ids=["one-node", "empty", "two-components"],
)
def test_topology_facts_of_degenerate_graphs(graph):
    assert graph.is_connected() == graph_oracle.is_connected(graph)
    assert len(graph.connected_components()) == len(
        graph_oracle.connected_components(graph)
    )
    if graph.num_nodes == 1:
        assert graph.diameter(exact=False) == graph.diameter(exact=True) == 0
    else:
        with pytest.raises(GraphError):
            graph.diameter()
    indptr, indices, nodes = graph.adjacency_csr()
    expected = graph_oracle.adjacency_csr(graph)
    assert nodes == expected[2]
    assert np.array_equal(indptr, expected[0])
    assert np.array_equal(indices, expected[1])


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("family", sorted(topology.FAMILIES))
def test_bulk_build_matches_per_edge_insertion(family, seed, monkeypatch):
    # Every generator builds through one bulk path; replaying the edge
    # sequence it received through add_edge must give the same node
    # order and the same iteration order of every adjacency set, which
    # is what the two-sweep's tie-breaks and the seeded joins follow.
    bulk_graph = generators._bulk_graph
    builds = []

    def replayed(num_nodes, edges):
        edges = list(edges)
        bulk = bulk_graph(num_nodes, edges)
        replay = Graph(nodes=range(num_nodes))
        for u, v in edges:
            replay.add_edge(u, v)
        builds.append((
            [(node, list(nbrs)) for node, nbrs in bulk._adjacency.items()],
            [(node, list(nbrs)) for node, nbrs in replay._adjacency.items()],
        ))
        return bulk

    monkeypatch.setattr(generators, "_bulk_graph", replayed)
    monkeypatch.setattr(random_graphs, "_bulk_graph", replayed)
    rng = random.Random(f"{family}-{seed}")
    topology.make_topology(family, **family_args(family, rng))
    assert builds
    for bulk, replay in builds:
        assert bulk == replay


@pytest.mark.parametrize("seed", range(6))
def test_component_join_matches_the_oracle(seed):
    # About 150 random edges on 300 nodes leave well over a hundred
    # components, so the order they are joined in decides the edges.
    # The join takes them in graph order; a set of the nodes not yet
    # joined, which it once read, iterates in another order after a
    # resize on ``-=``, and fails here on every seed.
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u, v in rng.integers(0, 300, size=(150, 2)).tolist() if u != v]
    joined = generators._bulk_graph(300, pairs)
    reference = generators._bulk_graph(300, pairs)
    random_graphs._connect_components(joined, np.random.default_rng(seed))
    graph_oracle.connect_components(reference, np.random.default_rng(seed))
    assert joined.is_connected()
    assert set(map(frozenset, joined.edges())) == set(map(frozenset, reference.edges()))
