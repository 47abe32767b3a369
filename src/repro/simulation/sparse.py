"""The CSR adjacency structure and reception kernel of the vectorized engine.

One round of the Compete dynamics needs, for every listener, the
*number* of transmitting neighbours (the collision rule: receive iff
exactly one) and, where that number is one, the unique transmitter's
rank.  This module computes both from a minimal pure-NumPy CSR
representation (``indptr``/``indices``, no SciPy dependency) in
``O(n + m)`` memory.

The kernel, :meth:`CSRAdjacency.transmitter_counts_and_rank_sums`, is
driven by the transmitters.  It lays the batch out block-diagonally --
trial ``t``'s copy of node ``v`` is flat index ``t * n + v`` -- so one
code path serves one trial or many.  It expands only the transmitters'
CSR rows, counts the hits per listener with ``np.bincount`` and writes
each transmitter's rank onto its listeners with an ``int64`` scatter.
A listener with count one received exactly one write, so its value is
the unique transmitter's rank, exact for every ``int64`` rank; the
kernel zeroes every other position.  ``tests/test_sparse.py`` checks the
kernel against a dense matmul, churn masks included.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph


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
        # The block-diagonal layout of the last batch size the kernel
        # saw: ``(trials, row ends, row lengths, column indices)`` over
        # ``trials * num_nodes`` rows.  One trial is the matrix.
        self._layout = (1, indptr[1:], np.diff(indptr), indices)

    @classmethod
    def from_graph(
        cls, graph: Graph, order: Optional[list] = None
    ) -> tuple["CSRAdjacency", list]:
        """Build from a graph; returns ``(csr, nodes)``."""
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

    def _block_layout(
        self, trials: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ends, row lengths and columns of ``trials`` diagonal copies.

        Row ``t * n + v`` is trial ``t``'s copy of row ``v``: its
        entries sit ``t * num_entries`` further along and its columns
        ``t * n`` further up.  Built once per batch size; the tuple is
        swapped in whole, so concurrent callers each read a consistent
        layout.
        """
        layout = self._layout
        if layout[0] != trials:
            copies = np.arange(trials, dtype=np.int64)[:, None]
            layout = (
                trials,
                (self._indptr[1:] + copies * self.num_entries).ravel(),
                np.tile(np.diff(self._indptr), trials),
                (self._indices + copies * self.num_nodes).ravel(),
            )
            self._layout = layout
        return layout[1:]

    def transmitter_counts_and_rank_sums(
        self,
        transmit: np.ndarray,
        ranks: np.ndarray,
        entry_mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-listener transmitter counts and unique transmitters' ranks.

        Parameters
        ----------
        transmit:
            Boolean array of shape ``(trials, n)``: who transmits this
            round.
        ranks:
            Integer array of the same shape: each node's current rank.
        entry_mask:
            Optional boolean array of shape ``(num_entries,)``: which
            directed CSR entries currently carry signal.  ``False``
            entries (links held down by ``repro.dynamics`` edge churn
            this round) contribute nothing.

        Returns ``(counts, unique_rank)``, both ``int64`` of shape
        ``(trials, n)``: ``counts[t, j]`` is how many neighbours of
        ``j`` transmit in trial ``t``; ``unique_rank[t, j]`` is the
        rank of that one transmitter where ``counts[t, j] == 1`` and 0
        everywhere else.

        Per round the work is ``O(trials * n)`` for the two outputs plus
        ``O(T + sum of the T transmitters' degrees)`` for the
        expansion, instead of ``O(trials * 2m)`` for walking every edge.
        """
        trials, n = transmit.shape
        row_ends, lengths, columns = self._block_layout(trials)
        # Array methods and ufunc methods below, not the ``np.*``
        # wrappers: at small ``n`` the wrappers' dispatch costs as much
        # as the work, and the kernel runs once per round.
        transmitters = transmit.ravel().nonzero()[0]
        row_lengths = lengths[transmitters]
        ends = np.add.accumulate(row_lengths)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            zeros = np.zeros((trials, n), dtype=np.int64)
            return zeros, zeros.copy()
        # Transmitter i's row fills slots [ends[i] - row_lengths[i],
        # ends[i]) of the expansion and ends at row_ends[i] in the
        # layout, so slot k reads layout entry k + row_ends[i] - ends[i].
        shift = row_ends[transmitters]
        shift -= ends
        positions = shift.repeat(row_lengths)
        positions += np.arange(total)
        listeners = columns[positions]
        edge_ranks = ranks.ravel()[transmitters].repeat(row_lengths)
        if entry_mask is not None:
            up = entry_mask[positions % self.num_entries]
            listeners = listeners[up]
            edge_ranks = edge_ranks[up]
        counts = np.bincount(listeners, minlength=trials * n).astype(
            np.int64, copy=False
        )
        # Where several transmitters write the same listener, one write
        # survives; the mask below clears every such position.
        unique_rank = np.zeros(trials * n, dtype=np.int64)
        unique_rank[listeners] = edge_ranks
        unique_rank *= counts == 1
        return counts.reshape(trials, n), unique_rank.reshape(trials, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRAdjacency(n={self.num_nodes}, entries={self.num_entries})"
        )
