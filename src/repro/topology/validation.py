"""Validation and summarisation of candidate radio-network topologies.

Every experiment validates its input graphs once up front: the paper's
model requires a connected, simple, undirected graph, and the cost
formulas need ``n`` and ``D``.  :func:`summarize_topology` computes the
quantities the reporting layer prints alongside each experiment row.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import GraphError
from repro.network.graph import Graph


def validate_radio_topology(graph: Graph) -> None:
    """Check that ``graph`` is a legal radio-network topology.

    The connectivity verdict is memoized on the graph with its CSR
    adjacency, so validating one topology again costs no search.

    Raises
    ------
    GraphError
        If the graph is empty or disconnected.  (Self-loops and parallel
        edges cannot occur by construction of :class:`Graph`.)
    """
    if graph.num_nodes == 0:
        raise GraphError("a radio network must have at least one node")
    if not graph.is_connected():
        raise GraphError(
            "the radio network model requires a connected graph; "
            f"found {len(graph.connected_components())} components"
        )


@dataclasses.dataclass(frozen=True)
class TopologySummary:
    """Key parameters of a topology, as used by the cost formulas.

    Attributes
    ----------
    num_nodes:
        ``n``.
    num_edges:
        ``|E|``.
    diameter:
        ``D`` (exact for small graphs, two-sweep estimate for large ones).
    max_degree:
        The maximum degree ``Δ``.
    log_n:
        ``log2(n)`` (the paper's ``log n``; at least 1.0 to avoid
        degenerate formulas on tiny graphs).
    log_d:
        ``log2(D)`` (at least 1.0).
    """

    num_nodes: int
    num_edges: int
    diameter: int
    max_degree: int
    log_n: float
    log_d: float


def summarize_topology(graph: Graph, exact_diameter: bool | None = None) -> TopologySummary:
    """Compute a :class:`TopologySummary` for ``graph``.

    Parameters
    ----------
    graph:
        A validated, connected graph.
    exact_diameter:
        Passed through to :meth:`Graph.diameter`.
    """
    validate_radio_topology(graph)
    diameter = graph.diameter(exact=exact_diameter)
    num_nodes = graph.num_nodes
    return TopologySummary(
        num_nodes=num_nodes,
        num_edges=graph.num_edges,
        diameter=diameter,
        max_degree=graph.max_degree(),
        log_n=max(1.0, math.log2(max(num_nodes, 2))),
        log_d=max(1.0, math.log2(max(diameter, 2))),
    )
