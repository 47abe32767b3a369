"""The CSR substrate: Graph.adjacency_csr and CSRAdjacency.

Property-style: randomized graphs are converted both ways and the CSR
form must round-trip against the dense adjacency matrix exactly --
including the degenerate shapes (single node, isolated nodes, empty edge
set) -- and the reception kernel must match a dense matmul over that
matrix, down links and empty rows included.
"""

import numpy as np
import pytest

from repro import topology
from repro.errors import ConfigurationError, GraphError
from repro.network.graph import Graph
from repro.simulation.sparse import CSRAdjacency
from repro.topology.validation import summarize_topology


# ----------------------------------------------------------------------
# Graph.adjacency_csr
# ----------------------------------------------------------------------
def csr_to_dense(indptr, indices, n):
    matrix = np.zeros((n, n), dtype=bool)
    for row in range(n):
        matrix[row, indices[indptr[row]:indptr[row + 1]]] = True
    return matrix


@pytest.mark.parametrize("seed", range(8))
def test_adjacency_csr_round_trips_against_dense(seed):
    rng = np.random.default_rng(seed)
    graph = topology.connected_gnp_graph(
        int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), seed=seed
    )
    dense, dense_nodes = graph.adjacency_matrix()
    indptr, indices, nodes = graph.adjacency_csr()
    assert nodes == dense_nodes
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert indptr[0] == 0 and indptr[-1] == 2 * graph.num_edges
    # Row contents are sorted (deterministic layout regardless of the
    # adjacency sets' iteration order).
    for row in range(len(nodes)):
        segment = indices[indptr[row]:indptr[row + 1]]
        assert (np.diff(segment) > 0).all()
    assert np.array_equal(csr_to_dense(indptr, indices, len(nodes)), dense)


def test_adjacency_csr_degenerate_graphs():
    single = Graph(nodes=["only"])
    indptr, indices, nodes = single.adjacency_csr()
    assert nodes == ["only"]
    assert list(indptr) == [0, 0] and indices.size == 0

    # Isolated nodes produce empty rows amid non-empty ones.
    graph = Graph(nodes=[0, 1, 2, 3], edges=[(0, 2)])
    indptr, indices, nodes = graph.adjacency_csr()
    assert list(indptr) == [0, 1, 1, 2, 2]
    assert list(indices) == [2, 0]

    empty_edges = Graph(nodes=range(5))
    indptr, indices, _ = empty_edges.adjacency_csr()
    assert list(indptr) == [0] * 6 and indices.size == 0


def assert_facts_of_a_fresh_graph(graph):
    """Connectivity and both diameters equal a freshly built copy's."""
    fresh = Graph(nodes=graph.nodes(), edges=graph.edges())
    assert graph.is_connected() == fresh.is_connected()
    for exact in (True, False):
        if fresh.is_connected():
            assert graph.diameter(exact=exact) == fresh.diameter(exact=exact)
        else:
            with pytest.raises(GraphError, match="disconnected"):
                graph.diameter(exact=exact)


def test_adjacency_csr_cache_invalidated_by_mutation():
    # The default-order CSR form is memoized; every mutator must drop
    # the cache so later callers never compute over a stale topology.
    graph = topology.path_graph(5)
    first = graph.adjacency_csr()
    # Memoized while unchanged: the same arrays come back, not copies.
    assert graph.adjacency_csr()[0] is first[0]
    assert graph.adjacency_csr()[1] is first[1]
    assert graph.diameter(exact=False) == 4
    graph.add_edge(0, 4)
    assert_facts_of_a_fresh_graph(graph)
    second = graph.adjacency_csr()
    assert second[1] is not first[1]
    dense, _ = graph.adjacency_matrix()
    assert np.array_equal(csr_to_dense(second[0], second[1], 5), dense)
    # Undoing the mutation rebuilds an equal -- but fresh -- layout.
    graph.remove_edge(0, 4)
    assert_facts_of_a_fresh_graph(graph)
    third = graph.adjacency_csr()
    assert third[1] is not second[1]
    assert np.array_equal(
        csr_to_dense(third[0], third[1], 5),
        csr_to_dense(first[0], first[1], 5),
    )
    graph.remove_node(4)
    assert_facts_of_a_fresh_graph(graph)
    indptr, indices, nodes = graph.adjacency_csr()
    assert 4 not in nodes and len(nodes) == 4
    dense, _ = graph.adjacency_matrix()
    assert np.array_equal(csr_to_dense(indptr, indices, 4), dense)
    graph.add_node("isolated")
    assert_facts_of_a_fresh_graph(graph)
    indptr, indices, nodes = graph.adjacency_csr()
    assert "isolated" in nodes
    assert indptr[-1] == 2 * graph.num_edges
    # The connectivity verdict is memoized with the CSR: splitting a
    # summarized path must not be read from the stale memo.
    path = topology.path_graph(6)
    assert summarize_topology(path).diameter == 5
    path.remove_edge(2, 3)
    with pytest.raises(GraphError, match="found 2 components"):
        summarize_topology(path)


def test_engine_over_mutated_graph_sees_fresh_csr():
    # Engines snapshot the CSR arrays at construction; a graph mutated
    # *between* runs must behave exactly like a from-scratch graph of
    # the final shape -- any divergence means a stale memoized CSR
    # leaked into the new engine.
    from repro.api import ExecutionConfig
    from repro.core.broadcast import broadcast

    mutated = topology.path_graph(9)
    config = ExecutionConfig(backend="vectorized")
    before = broadcast(mutated, source=0, seed=3, config=config)
    mutated.add_edge(0, 8)
    after = broadcast(mutated, source=0, seed=3, config=config)
    fresh = Graph(nodes=mutated.nodes(), edges=mutated.edges())
    control = broadcast(fresh, source=0, seed=3, config=config)
    assert after.rounds == control.rounds
    assert dict(after.reception_rounds) == dict(control.reception_rounds)
    assert after.metrics.as_dict() == control.metrics.as_dict()
    # The chord genuinely changed the run (deterministic under replay).
    assert dict(after.reception_rounds) != dict(before.reception_rounds)


# ----------------------------------------------------------------------
# CSRAdjacency
# ----------------------------------------------------------------------
def test_csr_adjacency_from_graph_round_trips():
    graph = topology.grid_graph(4, 3)
    csr, nodes = CSRAdjacency.from_graph(graph)
    dense, dense_nodes = graph.adjacency_matrix()
    assert nodes == dense_nodes
    assert csr.num_nodes == graph.num_nodes
    assert csr.num_entries == 2 * graph.num_edges
    assert np.array_equal(
        csr_to_dense(csr.indptr, csr.indices, csr.num_nodes), dense
    )


def test_csr_adjacency_validation():
    with pytest.raises(ConfigurationError, match="starting at 0"):
        CSRAdjacency(np.array([1, 2]), np.array([0]))
    with pytest.raises(ConfigurationError, match="non-decreasing"):
        CSRAdjacency(np.array([0, 2, 1]), np.array([0, 1]))
    with pytest.raises(ConfigurationError, match="entries"):
        CSRAdjacency(np.array([0, 2]), np.array([0]))
    with pytest.raises(ConfigurationError, match="lie in"):
        CSRAdjacency(np.array([0, 1]), np.array([5]))


def dense_counts_and_rank_sums(dense, transmit, ranks):
    """The kernel's oracle: ``transmit @ A`` and ``(transmit * ranks) @ A``."""
    dense_f = dense.astype(np.float64)
    counts = (transmit.astype(np.float64) @ dense_f).astype(np.int64)
    sums = ((transmit * ranks).astype(np.float64) @ dense_f).astype(np.int64)
    return counts, sums


def assert_kernel_matches_dense(counts, source, expected_counts, expected_sums,
                                ranks):
    """Counts equal the matmul's; a unique transmitter's rank is its sum.

    ``source`` is defined only where ``counts == 1``, so only those
    entries are checked.
    """
    copies, n = counts.shape
    assert counts.dtype == np.int64 and source.dtype == np.int64
    assert np.array_equal(counts, expected_counts)
    # A unique transmitter lies in its listener's own copy, and its rank
    # is the one rank the matmul summed.
    unique = counts == 1
    assert (source[unique] // n == np.nonzero(unique)[0]).all()
    assert np.array_equal(ranks.ravel()[source[unique]], expected_sums[unique])


@pytest.mark.parametrize("down_rate", [None, 0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_transmitter_kernel_matches_dense_matmul(seed, down_rate):
    # The engine's reception kernel, checked against the dense
    # formulation on random graphs with isolated nodes (empty CSR rows)
    # and transmit patterns from empty to full.  ``down_rate`` is the
    # share of links an edge-churn entry mask holds down (None: no
    # mask); a down link is masked in both directions, as a dense
    # matrix zeroes both of its cells.  The number of copies changes
    # between calls.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.15:
                graph.add_edge(u, v)
    csr, _ = CSRAdjacency.from_graph(graph)
    dense = csr_to_dense(csr.indptr, csr.indices, csr.num_nodes)
    if down_rate is None:
        entry_mask, up = None, dense
    else:
        down = np.triu(rng.random((n, n)) < down_rate, 1)
        down |= down.T
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        entry_mask, up = ~down[rows, csr.indices][None], dense & ~down
    for copies, density in ((3, 0.0), (3, 0.05), (1, 0.5), (2, 1.0),
                            (3, 0.3)):
        ranks = rng.integers(1, 10 * n, size=(copies, n)).astype(np.int64)
        transmit = rng.random((copies, n)) < density
        counts, source = csr.transmitter_counts_and_rank_sums(
            transmit, entry_mask
        )
        assert_kernel_matches_dense(
            counts, source, *dense_counts_and_rank_sums(up, transmit, ranks),
            ranks,
        )


@pytest.mark.parametrize("groups", [2, 4])
def test_transmitter_kernel_reads_one_entry_mask_row_per_group(groups):
    # A block of rounds stacks round-major copies (round k, trial t is
    # copy k * trials + t), and round k's links are row k of the mask:
    # every copy must see exactly its own round's down links.
    rng = np.random.default_rng(groups)
    graph = topology.connected_gnp_graph(30, 0.2, seed=groups)
    csr, _ = CSRAdjacency.from_graph(graph)
    dense = csr_to_dense(csr.indptr, csr.indices, csr.num_nodes)
    n, trials = graph.num_nodes, 3
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    downs = []
    for _ in range(groups):
        down = np.triu(rng.random((n, n)) < 0.4, 1)
        downs.append(down | down.T)
    entry_mask = np.stack([~down[rows, csr.indices] for down in downs])
    transmit = rng.random((groups * trials, n)) < 0.3
    ranks = rng.integers(1, 1000, size=transmit.shape).astype(np.int64)
    counts, source = csr.transmitter_counts_and_rank_sums(transmit, entry_mask)
    for copy in range(groups * trials):
        up = dense & ~downs[copy // trials]
        expected = dense_counts_and_rank_sums(
            up, transmit[copy:copy + 1], ranks[copy:copy + 1]
        )
        local = source[copy] - copy * n
        assert_kernel_matches_dense(
            counts[copy:copy + 1], local[None], *expected, ranks[copy:copy + 1]
        )


def test_transmitter_kernel_empty_and_edgeless_cases():
    # No transmitters at all: the early-out path.
    csr, _ = CSRAdjacency.from_graph(topology.path_graph(5))
    silent = np.zeros((2, 5), dtype=bool)
    counts, source = csr.transmitter_counts_and_rank_sums(silent)
    assert not counts.any()
    assert counts.shape == source.shape == (2, 5)
    # Transmitters whose CSR rows are all empty: the total==0 path.
    edgeless, _ = CSRAdjacency.from_graph(Graph(nodes=range(5)))
    loud = np.ones((2, 5), dtype=bool)
    counts, source = edgeless.transmitter_counts_and_rank_sums(loud)
    assert not counts.any()
    assert counts.shape == source.shape == (2, 5)
