"""Undirected graph substrate used by every other subsystem.

The paper models a radio network as an undirected connected graph
``N = (V, E)`` with ``n = |V|`` nodes and diameter ``D``.  This module
provides a small, dependency-free adjacency-set graph with exactly the
queries the algorithms and the analysis need:

* neighbourhood and degree queries,
* breadth-first search (single source, layered, and truncated),
* shortest paths and pairwise distances,
* the diameter: exact by a bit-parallel BFS from every node at once
  (``O(D·m·n/64)`` word operations over the CSR adjacency), or the
  iterated two-sweep lower bound above 2 000 nodes,
* connectivity checks and connected components,
* conversion to and from :mod:`networkx` for interoperability.

Nodes may be arbitrary hashable objects; the topology generators in
:mod:`repro.topology` use consecutive integers.
"""

from __future__ import annotations

import collections
from collections.abc import Hashable, Iterable, Iterator, Mapping
from typing import Optional

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
        # Default-order CSR memo (indptr, indices, nodes); invalidated
        # by every mutation.  One topology is typically consumed by many
        # engine constructions (batch runs, the service's resolution
        # cache), and the CSR build is the only O(n + m) Python-loop
        # step left on the warm path.
        self._csr_cache = None
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
            self._csr_cache = None

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
        self._csr_cache = None

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
        self._csr_cache = None

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
        self._csr_cache = None

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges."""
        return cls(edges=edges)

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Build a :class:`Graph` from a ``networkx.Graph``."""
        graph = cls(nodes=nx_graph.nodes())
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(u, v)
        return graph

    def to_networkx(self):
        """Return an equivalent ``networkx.Graph``."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(self.nodes())
        nx_graph.add_edges_from(self.edges())
        return nx_graph

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

    def multi_source_bfs_distances(
        self, sources: Iterable[NodeId]
    ) -> dict[NodeId, int]:
        """Return, for every reachable node, its distance to the nearest source."""
        distances: dict[NodeId, int] = {}
        frontier: collections.deque = collections.deque()
        for source in sources:
            if source not in self._adjacency:
                raise GraphError(f"node {source!r} not in graph")
            if source not in distances:
                distances[source] = 0
                frontier.append(source)
        while frontier:
            node = frontier.popleft()
            for neighbour in self._adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = distances[node] + 1
                    frontier.append(neighbour)
        return distances

    def bfs_layers(self, source: NodeId) -> list[list[NodeId]]:
        """Return BFS layers ``[L_0, L_1, ...]`` where ``L_i`` is the set of
        nodes at distance exactly ``i`` from ``source``."""
        distances = self.bfs_distances(source)
        if not distances:
            return []
        max_dist = max(distances.values())
        layers: list[list[NodeId]] = [[] for _ in range(max_dist + 1)]
        for node, dist in distances.items():
            layers[dist].append(node)
        return layers

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

    def distance(self, source: NodeId, target: NodeId) -> int:
        """Return the hop distance between two nodes.

        Raises
        ------
        GraphError
            If no path exists.
        """
        distances = self.bfs_distances(source)
        if target not in distances:
            raise GraphError(f"no path from {source!r} to {target!r}")
        return distances[target]

    # ------------------------------------------------------------------
    # Global structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Return True for the empty graph and for connected graphs."""
        if self.num_nodes == 0:
            return True
        start = next(iter(self._adjacency))
        return len(self.bfs_distances(start)) == self.num_nodes

    def connected_components(self) -> list[set]:
        """Return the connected components as a list of node sets."""
        remaining = set(self._adjacency)
        components: list[set] = []
        while remaining:
            start = next(iter(remaining))
            component = set(self.bfs_distances(start))
            components.append(component)
            remaining -= component
        return components

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
            that.

        Raises
        ------
        GraphError
            If the graph is empty or disconnected.
        """
        if self.num_nodes == 0:
            raise GraphError("diameter undefined on the empty graph")
        if not self.is_connected():
            raise GraphError("diameter undefined on a disconnected graph")
        if exact is None:
            exact = self.num_nodes <= 2000
        if exact:
            return self._bit_parallel_diameter()
        return self._two_sweep_diameter()

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

    def _two_sweep_diameter(self, sweeps: int = 4) -> int:
        """Iterated double-sweep diameter lower bound.

        Starting from an arbitrary node, repeatedly jump to the farthest
        node found and record the largest eccentricity seen.  Exact on
        trees; a lower bound in general.
        """
        current = next(iter(self._adjacency))
        best = 0
        for _ in range(sweeps):
            distances = self.bfs_distances(current)
            farthest = max(distances, key=lambda node: distances[node])
            best = max(best, distances[farthest])
            current = farthest
        return best

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

        The default-order result is memoized on the graph (mutations
        invalidate it), so repeated engine constructions over one
        topology -- batch runs, the ``repro.service`` resolution cache
        -- pay the Python-loop build once.  Callers must treat the
        returned arrays as read-only.

        ``numpy`` is imported lazily so the graph module itself stays
        dependency-free.
        """
        import numpy as np

        if order is None and self._csr_cache is not None:
            return self._csr_cache
        nodes, index = self._resolve_order(order)
        rows = [
            sorted(index[neighbour] for neighbour in self._adjacency[node])
            for node in nodes
        ]
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(row) for row in rows], dtype=np.int64)
        indices = np.fromiter(
            (column for row in rows for column in row),
            dtype=np.int64,
            count=int(indptr[-1]),
        )
        if order is None:
            self._csr_cache = (indptr, indices, nodes)
        return indptr, indices, nodes

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

    def adjacency(self) -> Mapping[NodeId, frozenset]:
        """Return a read-only view of the adjacency structure."""
        return {node: frozenset(nbrs) for node, nbrs in self._adjacency.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
