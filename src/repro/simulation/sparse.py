"""Sparse (CSR) adjacency kernels for the vectorized Compete engine.

The dense engine of :mod:`repro.simulation.vectorized` computes one round
as matrix products against the densified adjacency matrix -- ``O(n²)``
memory and ``O(n²)`` work per round regardless of how sparse the topology
is.  That is the right trade below a few thousand nodes (BLAS matmuls on
small dense matrices are extremely fast) and the wrong one above it: a
``16384``-node path would densify into a 1 GiB ``float32`` matrix whose
per-round products are ~10⁴ times more work than its 16383 edges justify.

This module is the ``O(n + m)`` alternative: a minimal pure-NumPy CSR
representation (``indptr``/``indices``, no SciPy dependency) plus the one
kernel the Compete dynamics need per round -- for every listener, the
*number* of transmitting neighbours (the collision rule: receive iff
exactly one) and the *sum* of their ranks (which, at count one, is the
unique transmitter's rank).  The kernel is a transmitter-driven
scatter-add: it walks only the transmitters' CSR rows and adds their
contributions onto the listeners with ``np.bincount``, batched over the
trial axis.  Counts are integers and a unique rank is exact in float64,
so the sparse engine agrees with the dense engine and the reference
runner bit for bit (``tests/test_engine_equivalence.py`` pins all three
pairwise).

:func:`select_engine` is the density heuristic behind ``engine="auto"``:
dense for small graphs, sparse for large sparse ones, dense again for
large graphs so dense that the matmul wins anyway.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph

#: The two concrete kernel implementations an engine can run on.
ENGINE_KINDS = ("dense", "sparse")

#: At or below this node count the dense engine is always selected:
#: the whole matrix fits in cache-friendly memory and BLAS beats the
#: CSR scatter-add kernel.
DENSE_NODE_CUTOFF = 1024

#: Above the node cutoff, the sparse engine is selected while the edge
#: density ``2m / (n(n-1))`` stays below this threshold.  At 1/8 density
#: the CSR gathers touch a quarter of the dense matrix's entries (two
#: int64 reads per edge vs one float32 per pair), which is roughly where
#: the matmul catches back up.
SPARSE_DENSITY_CUTOFF = 0.125


def edge_density(num_nodes: int, num_edges: int) -> float:
    """The fraction ``2m / (n(n-1))`` of possible edges that are present.

    Defined as 1.0 for graphs with fewer than two nodes (they are as
    dense as they can be).

    >>> edge_density(4, 3)  # path on 4 nodes
    0.5
    >>> edge_density(1, 0)
    1.0
    """
    if num_nodes < 0 or num_edges < 0:
        raise ConfigurationError(
            f"num_nodes and num_edges must be >= 0, got "
            f"({num_nodes}, {num_edges})"
        )
    if num_nodes < 2:
        return 1.0
    return 2.0 * num_edges / (num_nodes * (num_nodes - 1))


def sparse_crossover_edges(num_nodes: int) -> int:
    """The edge count at which ``"auto"`` switches back to dense.

    For a graph above :data:`DENSE_NODE_CUTOFF` nodes,
    :func:`select_engine` picks sparse at strictly fewer than this many
    edges and dense at this many or more (the density then reaches
    :data:`SPARSE_DENSITY_CUTOFF`).  This is the *single* canonical
    derivation of the dense/sparse crossover -- tests pin the boundary
    through it instead of re-deriving the density algebra ad hoc.

    >>> sparse_crossover_edges(4096)          # 1/8 of 4096*4095/2
    1048320
    >>> select_engine(4096, sparse_crossover_edges(4096) - 1)
    'sparse'
    >>> select_engine(4096, sparse_crossover_edges(4096))
    'dense'
    """
    if num_nodes < 2:
        raise ConfigurationError(
            f"num_nodes must be >= 2, got {num_nodes}"
        )
    pairs = num_nodes * (num_nodes - 1) / 2.0
    return math.ceil(SPARSE_DENSITY_CUTOFF * pairs)


def select_engine(num_nodes: int, num_edges: int) -> str:
    """The edge-density heuristic behind ``engine="auto"``.

    >>> select_engine(256, 255)        # small: dense regardless of shape
    'dense'
    >>> select_engine(16384, 16383)    # large path: sparse
    'sparse'
    >>> select_engine(4096, 4096 * 2048 // 2)  # large near-complete: dense
    'dense'
    """
    if num_nodes <= DENSE_NODE_CUTOFF:
        return "dense"
    if edge_density(num_nodes, num_edges) < SPARSE_DENSITY_CUTOFF:
        return "sparse"
    return "dense"


def resolve_engine(engine: str, num_nodes: int, num_edges: int) -> str:
    """Resolve an engine selector to the concrete kernel that will run.

    ``"auto"`` applies :func:`select_engine`; a concrete kind passes
    through.  This is the single resolution rule shared by the engine
    constructor, :meth:`repro.core.compete.Compete.selected_engine` and
    the benchmark artifact's ``engine.selected`` field.

    >>> resolve_engine("dense", 16384, 16383)
    'dense'
    >>> resolve_engine("auto", 16384, 16383)
    'sparse'
    """
    if engine == "auto":
        return select_engine(num_nodes, num_edges)
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"engine must be 'auto' or one of {ENGINE_KINDS}, got {engine!r}"
        )
    return engine


class CSRAdjacency:
    """A symmetric boolean adjacency structure in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1`` with ``indptr[0] == 0``,
        non-decreasing; row ``i``'s entries live at
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64`` column indices in ``[0, num_nodes)``.  Rows may be
        empty (isolated nodes); entries are one per directed edge.

    The two arrays are exactly what
    :meth:`repro.network.graph.Graph.adjacency_csr` returns, so
    :meth:`from_graph` is the usual constructor.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ConfigurationError(
                "indptr must be a 1-D array starting at 0"
            )
        if (np.diff(indptr) < 0).any():
            raise ConfigurationError("indptr must be non-decreasing")
        if indices.ndim != 1 or indices.size != int(indptr[-1]):
            raise ConfigurationError(
                f"indices must be 1-D with indptr[-1] = {int(indptr[-1])} "
                f"entries, got shape {indices.shape}"
            )
        num_nodes = indptr.size - 1
        if indices.size and (
            indices.min() < 0 or indices.max() >= num_nodes
        ):
            raise ConfigurationError(
                f"indices must lie in [0, {num_nodes})"
            )
        self._indptr = indptr
        self._indices = indices
        self._lengths = np.diff(indptr)

    @classmethod
    def from_graph(
        cls, graph: Graph, order: Optional[list] = None
    ) -> tuple["CSRAdjacency", list]:
        """Build from a graph; returns ``(csr, nodes)`` like the dense twin."""
        indptr, indices, nodes = graph.adjacency_csr(order=order)
        return cls(indptr, indices), nodes

    @property
    def num_nodes(self) -> int:
        return self._indptr.size - 1

    @property
    def num_entries(self) -> int:
        """Stored entries -- one per directed edge, i.e. ``2m``."""
        return self._indices.size

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    def to_dense(self) -> np.ndarray:
        """The equivalent dense boolean matrix (for tests and round-trips)."""
        n = self.num_nodes
        matrix = np.zeros((n, n), dtype=bool)
        rows = np.repeat(np.arange(n), np.diff(self._indptr))
        matrix[rows, self._indices] = True
        return matrix

    def transmitter_counts_and_rank_sums(
        self,
        transmit: np.ndarray,
        ranks: np.ndarray,
        entry_mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-listener transmitter counts and transmitted-rank sums.

        Parameters
        ----------
        transmit:
            Boolean array of shape ``(trials, n)``: who transmits this
            round.
        ranks:
            ``int64`` array of the same shape: each node's current rank.
        entry_mask:
            Optional boolean array of shape ``(num_entries,)``: which
            directed CSR entries currently carry signal.  ``False``
            entries (links held down by ``repro.dynamics`` edge churn
            this round) contribute neither counts nor rank sums.

        Returns ``(counts, sums)``, both ``int64`` of shape
        ``(trials, n)``: ``counts[t, j]`` is how many neighbours of ``j``
        transmit in trial ``t`` and ``sums[t, j]`` the sum of their
        ranks.  Where ``counts == 1``, ``sums`` *is* the unique
        transmitter's rank -- the only place the engine reads it.

        Under the Decay schedules only ``~n / decay_steps`` nodes
        transmit in an average round, so the kernel is driven by the
        transmitters: it gathers only their CSR rows and scatter-adds
        their contributions onto the listeners with ``np.bincount``.
        Per round that is ``O(T + sum of transmitter degrees)`` work
        instead of ``O(trials * 2m)``; traced on the 64x64 grid
        (``broadcast-grid-n4096``) it touches 12x fewer CSR entries and
        3.6x fewer bytes than gathering every entry.

        Counts are exact integers.  The weighted bincount accumulates in
        float64, so a unique transmitter's rank comes back exactly
        whenever it is at most ``2**53``; the engine rejects larger
        ranks before the first round.  Sums over two or more
        transmitters may round, but they are never read.
        """
        trials, n = transmit.shape
        flat_index = np.nonzero(transmit.ravel())[0]
        if flat_index.size == 0:
            zeros = np.zeros((trials, n), dtype=np.int64)
            return zeros, zeros.copy()
        transmitters = flat_index % n
        lengths = self._lengths[transmitters]
        total = int(lengths.sum())
        if total == 0:
            zeros = np.zeros((trials, n), dtype=np.int64)
            return zeros, zeros.copy()
        # Expand each transmitter's CSR slice [start, start+length) into
        # one flat position vector: repeat the slice starts (shifted by
        # the running cumulative offset) and add a global arange.  The
        # three per-edge streams -- slice base, trial offset, rank --
        # ride in one stacked repeat call.
        starts = self._indptr[:-1][transmitters]
        offsets = np.cumsum(lengths) - lengths
        per_edge = np.empty((3, flat_index.size), dtype=np.int64)
        np.subtract(starts, offsets, out=per_edge[0])
        np.multiply(flat_index // n, n, out=per_edge[1])
        per_edge[2] = ranks.ravel()[flat_index]
        expanded = np.repeat(per_edge, lengths, axis=1)
        positions = expanded[0] + np.arange(total)
        listeners = self._indices[positions]
        flat = expanded[1] + listeners
        weights = expanded[2]
        if entry_mask is not None:
            # Drop the contributions riding over down links before the
            # scatter-add; the surviving entries are unchanged.
            up = entry_mask[positions]
            flat = flat[up]
            weights = weights[up]
        counts = np.bincount(flat, minlength=trials * n).astype(
            np.int64, copy=False
        ).reshape(trials, n)
        sums = np.bincount(
            flat, weights=weights.astype(np.float64), minlength=trials * n
        ).astype(np.int64).reshape(trials, n)
        return counts, sums

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRAdjacency(n={self.num_nodes}, entries={self.num_entries})"
        )
