"""Undirected graph substrate used by every other subsystem.

The paper models a radio network as an undirected connected graph
``N = (V, E)`` with ``n = |V|`` nodes and diameter ``D``.  This module
provides a small, dependency-free adjacency-set graph with exactly the
queries the algorithms and the analysis need:

* neighbourhood and degree queries,
* breadth-first search (single source, optionally truncated) and
  canonical shortest paths,
* the diameter: exact by a bit-parallel BFS from every node at once
  (``O(D·m·n/64)`` word operations over the CSR adjacency), or the
  iterated two-sweep lower bound above 2 000 nodes,
* connectivity checks and connected components.

Connectivity, the two-sweep bound and the CSR adjacency come from one
memoized pass per topology (see :meth:`Graph.adjacency_csr`), and the
exact diameter is memoized beside them once computed.  Nodes
may be arbitrary hashable objects; the topology generators in
:mod:`repro.topology` use consecutive integers.
"""

from __future__ import annotations

import bisect
import collections
import itertools
from collections.abc import Hashable, Iterable, Iterator
from typing import NamedTuple, Optional

from repro.errors import GraphError

NodeId = Hashable
Edge = tuple[NodeId, NodeId]


def _level_plan(indptr, indices, rows):
    """Lay out the neighbours of ``rows`` for one bit-parallel BFS level.

    ``rows`` must be sorted by degree, descending, and each must have a
    neighbour.  Returns the jagged diagonals: diagonal ``j`` holds the
    ``j``-th neighbour of every row of degree above ``j``, which is a
    prefix of ``rows`` (jagged-diagonal storage).
    """
    import numpy as np

    starts = indptr[rows]
    degrees = indptr[rows + 1] - starts
    covered = rows.size - np.searchsorted(
        degrees[::-1], np.arange(degrees[0]), side="right"
    )
    return [indices[starts[: covered[j]] + j] for j in range(degrees[0])]


def _sweep(rows, source, dist):
    """One FIFO breadth-first search over integer ``rows`` from ``source``.

    ``dist`` holds ``-1`` at every position not yet reached.  The search
    writes the hop distance of each position it reaches and returns them
    in discovery order, which follows the order of the rows.
    """
    dist[source] = 0
    queue = [source]
    append = queue.append
    for position in queue:
        step = dist[position] + 1
        for neighbour in rows[position]:
            if dist[neighbour] < 0:
                dist[neighbour] = step
                append(neighbour)
    return queue


def _two_sweep(rows, sweeps=4):
    """Connectivity and the iterated double-sweep diameter bound of the
    non-empty integer ``rows``, as ``(connected, bound)``.

    The first sweep, from position 0, proves connectivity.  Each sweep
    then jumps to the farthest position found, the first of the last
    level in discovery order, and the largest eccentricity seen is the
    bound: exact on trees, a lower bound in general.
    """
    farthest = best = 0
    for _ in range(sweeps):
        dist = [-1] * len(rows)
        queue = _sweep(rows, farthest, dist)
        if len(queue) < len(rows):
            return False, None
        eccentricity = dist[queue[-1]]
        best = max(best, eccentricity)
        farthest = queue[bisect.bisect_left(queue, eccentricity, key=dist.__getitem__)]
    return True, best


def _sorted_csr(rows):
    """``(indptr, indices)`` of integer ``rows``, each row sorted ascending."""
    import numpy as np

    n = len(rows)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=n), out=indptr[1:])
    # One sort of row-major keys (row * n + column) orders every row.
    offsets = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr))
    keys = np.fromiter(itertools.chain.from_iterable(rows), np.int64, int(indptr[-1]))
    keys += offsets
    keys.sort()
    return indptr, keys - offsets


class _Topology(NamedTuple):
    """The memo of :meth:`Graph._topology`.  ``csr`` is what
    :meth:`Graph.adjacency_csr` returns; ``two_sweep`` is ``None`` unless
    the graph is connected and non-empty; ``exact`` is ``None`` until
    :meth:`Graph.diameter` first computes the exact diameter."""

    csr: tuple
    connected: bool
    two_sweep: Optional[int]
    exact: Optional[int] = None


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of ``(u, v)`` pairs.  Endpoints are added
        automatically.  Self-loops and duplicate edges are rejected and
        ignored respectively, matching the simple-graph model of the
        paper.
    """

    def __init__(
        self,
        nodes: Optional[Iterable[NodeId]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adjacency: dict[NodeId, set[NodeId]] = {}
        # The _Topology memo; dropped by every mutation, so a new CSR
        # tuple also marks a new topology (Compete re-resolves on it).
        self._facts: Optional[_Topology] = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add ``node`` to the graph (a no-op if it is already present)."""
        if node not in self._adjacency:
            self._adjacency[node] = set()
            self._facts = None

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        GraphError
            If ``u == v`` (self-loops are not part of the model).
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._facts = None

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        GraphError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._facts = None

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        GraphError
            If the node is not present.
        """
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} not in graph")
        for neighbour in list(self._adjacency[node]):
            self._adjacency[neighbour].discard(node)
        del self._adjacency[node]
        self._facts = None

    def copy(self) -> "Graph":
        """Return a deep copy of the graph structure."""
        clone = Graph()
        clone._adjacency = {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "Graph":
        """Return the subgraph induced by ``nodes``.

        Nodes not present in the graph are ignored.
        """
        keep = {node for node in nodes if node in self._adjacency}
        sub = Graph(nodes=keep)
        for node in keep:
            for neighbour in self._adjacency[node]:
                if neighbour in keep:
                    sub._adjacency[node].add(neighbour)
        return sub

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adjacency

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._adjacency)

    def nodes(self) -> list[NodeId]:
        """Return the nodes in insertion order."""
        return list(self._adjacency)

    def edges(self) -> list[Edge]:
        """Return each undirected edge exactly once."""
        seen: set[frozenset] = set()
        result: list[Edge] = []
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    result.append((u, v))
        return result

    def neighbors(self, node: NodeId) -> frozenset:
        """Return the neighbour set of ``node``.

        Raises
        ------
        GraphError
            If ``node`` is not in the graph.
        """
        try:
            return frozenset(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} not in graph") from None

    def max_degree(self) -> int:
        """Return the maximum degree, or 0 for an empty graph."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return True if the edge ``{u, v}`` is present."""
        return u in self._adjacency and v in self._adjacency[u]

    # ------------------------------------------------------------------
    # Traversal and distances
    # ------------------------------------------------------------------
    def bfs_distances(
        self, source: NodeId, max_distance: Optional[int] = None
    ) -> dict[NodeId, int]:
        """Return hop distances from ``source`` to every reachable node.

        Parameters
        ----------
        source:
            Starting node.
        max_distance:
            If given, the search stops once this distance is exceeded and
            only nodes within ``max_distance`` hops are returned.
        """
        if source not in self._adjacency:
            raise GraphError(f"node {source!r} not in graph")
        distances = {source: 0}
        frontier = collections.deque([source])
        while frontier:
            node = frontier.popleft()
            next_distance = distances[node] + 1
            if max_distance is not None and next_distance > max_distance:
                continue
            for neighbour in self._adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = next_distance
                    frontier.append(neighbour)
        return distances

    def bfs_tree_parents(self, source: NodeId) -> dict[NodeId, Optional[NodeId]]:
        """Return a BFS-tree parent map rooted at ``source``.

        The root maps to ``None``.  Ties between possible parents are
        broken by traversal order, which is deterministic given the
        graph's insertion order.
        """
        if source not in self._adjacency:
            raise GraphError(f"node {source!r} not in graph")
        parents: dict[NodeId, Optional[NodeId]] = {source: None}
        frontier = collections.deque([source])
        while frontier:
            node = frontier.popleft()
            for neighbour in self._adjacency[node]:
                if neighbour not in parents:
                    parents[neighbour] = node
                    frontier.append(neighbour)
        return parents

    def shortest_path(self, source: NodeId, target: NodeId) -> list[NodeId]:
        """Return one shortest path from ``source`` to ``target`` (inclusive).

        The returned path is the *canonical* shortest path in the sense of
        Section 4 of the paper: it is deterministic for a fixed graph.

        Raises
        ------
        GraphError
            If either endpoint is missing or no path exists.
        """
        if target not in self._adjacency:
            raise GraphError(f"node {target!r} not in graph")
        parents = self.bfs_tree_parents(source)
        if target not in parents:
            raise GraphError(f"no path from {source!r} to {target!r}")
        path = [target]
        while path[-1] != source:
            parent = parents[path[-1]]
            assert parent is not None
            path.append(parent)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Global structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Return True for the empty graph and for connected graphs."""
        return self._topology().connected

    def connected_components(self) -> list[set]:
        """Return the connected components as a list of node sets, in
        insertion order of each component's first node."""
        nodes = self.nodes()
        rows = self._rows(nodes)
        dist = [-1] * len(nodes)
        return [
            {nodes[position] for position in _sweep(rows, start, dist)}
            for start in range(len(nodes))
            if dist[start] < 0
        ]

    def diameter(self, exact: Optional[bool] = None) -> int:
        """Return the diameter ``D`` of the graph.

        Parameters
        ----------
        exact:
            ``True`` forces the exact diameter, computed by a
            bit-parallel BFS from every node at once over
            :meth:`adjacency_csr` (Then et al., "The More the Merrier:
            Efficient Multi-Source Graph Traversal", VLDB 2015).  Row
            ``v`` of an ``n × ⌈n/64⌉`` ``uint64`` matrix holds the nodes
            within distance ``d`` of ``v``.  One level ORs each row with
            its neighbours' rows, and ``D`` is the number of levels until
            every row is full.  That is ``O(D·m·n/64)`` word operations.
            Full rows drop out of the gather.  The neighbours' rows are
            gathered one jagged diagonal at a time (the ``j``-th
            neighbour of every row of degree above ``j``), so no gather
            is larger than the matrix: at most 512 KB at 2 000 nodes,
            however dense the graph.
            ``False`` forces the iterated two-sweep heuristic: a lower
            bound that is exact on trees and typically exact on the
            benchmark topologies.  The default picks exact for graphs
            with at most 2 000 nodes and the two-sweep lower bound above
            that.  Both are memoized until the next mutation.

        Raises
        ------
        GraphError
            If the graph is empty or disconnected.
        """
        if self.num_nodes == 0:
            raise GraphError("diameter undefined on the empty graph")
        facts = self._topology()
        if not facts.connected:
            raise GraphError("diameter undefined on a disconnected graph")
        if exact is None:
            exact = self.num_nodes <= 2000
        if not exact:
            return facts.two_sweep
        if facts.exact is None:
            exact_diameter = self._bit_parallel_diameter()
            facts = self._facts = facts._replace(exact=exact_diameter)
        return facts.exact

    def _bit_parallel_diameter(self) -> int:
        """Exact diameter of a connected, non-empty graph (see
        :meth:`diameter`).  Connectivity fills every row within
        ``n - 1`` levels, so the loop needs no fixpoint test."""
        import numpy as np

        indptr, indices, _ = self.adjacency_csr()
        n = len(indptr) - 1
        if n == 1:
            return 0
        full = ~np.uint64(0)
        # Row v holds the nodes within distance `level` of v.  The bits
        # past n are set from the start, so a full row is all ones.
        nodes = np.arange(n)
        reach = np.zeros((n, -(-n // 64)), dtype=np.uint64)
        reach[nodes, nodes >> 6] = np.uint64(1) << (nodes & 63).astype(np.uint64)
        if n % 64:
            reach[:, -1] |= full << np.uint64(n % 64)
        # The rows not yet full, by degree, descending (as _level_plan
        # needs).  Full rows are final and leave the gather.
        rows = np.argsort(indptr[:-1] - indptr[1:], kind="stable")
        diagonals = _level_plan(indptr, indices, rows)
        for level in range(1, n):
            grown = reach[rows]
            for diagonal in diagonals:
                grown[: diagonal.size] |= reach[diagonal]
            reach[rows] = grown
            finished = np.bitwise_and.reduce(grown, axis=1) == full
            if finished.any():
                rows = rows[~finished]
                if not rows.size:
                    return level
                diagonals = _level_plan(indptr, indices, rows)
        raise AssertionError(f"rows still unfilled after {n - 1} levels")

    def _rows(self, nodes: list) -> list[list[int]]:
        """Each node's neighbours as positions in ``nodes``, in
        adjacency-set iteration order."""
        adjacency = self._adjacency
        if nodes == list(range(len(nodes))) and set(map(type, nodes)) <= {int}:
            # Integer nodes at their own positions (every generated
            # graph): the sets already hold the positions.
            return [list(adjacency[node]) for node in nodes]
        index = dict(zip(nodes, range(len(nodes))))
        return [[index[neighbour] for neighbour in adjacency[node]] for node in nodes]

    def _topology(self) -> _Topology:
        """The facts of the current topology, computed once per topology.

        One pass lays out every node's neighbours as integer rows in
        adjacency-set iteration order.  The iterated two-sweep over them
        proves connectivity with its first sweep, from the first node,
        and follows the sets' order in its tie-breaks.  The same rows,
        sorted, are the CSR.  Every mutation drops the memo.
        """
        if self._facts is None:
            nodes = self.nodes()
            rows = self._rows(nodes)
            connected, two_sweep = _two_sweep(rows) if rows else (True, None)
            self._facts = _Topology((*_sorted_csr(rows), nodes), connected, two_sweep)
        return self._facts

    def _resolve_order(self, order: Optional[list]) -> tuple[list, dict]:
        """Resolve an explicit node order (or the insertion order) plus
        its node -> position map, validating permutations."""
        if order is None:
            nodes = self.nodes()
        else:
            nodes = list(order)
            if set(nodes) != set(self._adjacency) or len(nodes) != self.num_nodes:
                raise GraphError(
                    "order must be a permutation of the graph's node set"
                )
        return nodes, {node: i for i, node in enumerate(nodes)}

    def adjacency_matrix(self, order: Optional[list] = None):
        """Return the dense boolean adjacency matrix and its node order.

        Returns ``(matrix, nodes)`` where ``matrix[i, j]`` is True iff
        ``nodes[i]`` and ``nodes[j]`` are adjacent and ``nodes`` is the
        insertion order (or the explicit ``order`` argument, which must be
        a permutation of the node set).  ``O(n²)`` memory: a view for
        small graphs and tests; the vectorized engine runs on
        :meth:`adjacency_csr`.

        ``numpy`` is imported lazily so the graph module itself stays
        dependency-free.
        """
        import numpy as np

        nodes, index = self._resolve_order(order)
        matrix = np.zeros((len(nodes), len(nodes)), dtype=bool)
        for node, neighbours in self._adjacency.items():
            i = index[node]
            for neighbour in neighbours:
                matrix[i, index[neighbour]] = True
        return matrix, nodes

    def adjacency_csr(self, order: Optional[list] = None):
        """Return the adjacency structure in CSR form and its node order.

        Returns ``(indptr, indices, nodes)``: ``nodes`` is the insertion
        order (or the explicit ``order`` argument, which must be a
        permutation of the node set), and the neighbours of ``nodes[i]``
        are ``nodes[j]`` for each ``j`` in
        ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending.  Both
        arrays are ``int64``; ``indptr`` has length ``n + 1`` and
        ``indices`` one entry per *directed* edge (``2m`` total), so the
        memory footprint is ``O(n + m)`` instead of the dense matrix's
        ``O(n²)`` -- this is the substrate of
        :mod:`repro.simulation.vectorized` (see
        :class:`repro.simulation.sparse.CSRAdjacency`).

        The default-order result is memoized on the graph beside the
        connectivity verdict and the two-sweep bound (one pass computes
        all three), so repeated engine constructions over one topology
        -- batch runs, the ``repro.service`` cache of prepared
        topologies -- pay the build once.  Every mutation drops the
        memo, so calls return the same tuple object until the next
        mutation; :class:`~repro.core.compete.Compete` re-resolves when
        the object changes.  Callers must treat the returned arrays as
        read-only.

        ``numpy`` is imported lazily so the graph module itself stays
        dependency-free.
        """
        if order is None:
            return self._topology().csr
        nodes, _ = self._resolve_order(order)
        return (*_sorted_csr(self._rows(nodes)), nodes)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def boundary_nodes(self, node_set: Iterable[NodeId]) -> set:
        """Return nodes of ``node_set`` that have a neighbour outside it."""
        inside = set(node_set)
        return {
            node
            for node in inside
            if any(nbr not in inside for nbr in self._adjacency.get(node, ()))
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
