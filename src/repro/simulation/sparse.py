"""The CSR adjacency structure and reception kernel of the vectorized engine.

One round of the Compete dynamics needs, for every listener, the
*number* of transmitting neighbours (the collision rule: receive iff
exactly one) and, where that number is one, *which* neighbour it is.
This module computes both from a minimal pure-NumPy CSR representation
(``indptr``/``indices``, no SciPy dependency) in ``O(n + m)`` memory.

The kernel, :meth:`CSRAdjacency.transmitter_counts_and_rank_sums`, is
driven by the transmitters.  It takes a stack of copies of the graph --
copy ``c``'s node ``v`` is flat index ``c * n + v`` -- so one call
serves one trial, many trials, or many rounds of many trials.  It
expands only the transmitters' CSR rows, shifts each row's listeners
into its copy, counts the hits per listener with ``np.bincount`` and
writes each transmitter's flat index onto its listeners with an
``int64`` scatter.  A listener with count one received exactly one
write, so its value is its unique transmitter (a silent listener keeps
-1).  The caller reads that transmitter's rank itself, as of the round
it needs.  ``tests/test_sparse.py`` checks the kernel against a dense
matmul, per-copy churn masks included.
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
        self._degrees = np.diff(indptr)

    @classmethod
    def from_graph(cls, graph: Graph) -> tuple["CSRAdjacency", list]:
        """Build from a graph; returns ``(csr, nodes)``."""
        indptr, indices, nodes = graph.adjacency_csr()
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

    def transmitter_counts_and_rank_sums(
        self,
        transmit: np.ndarray,
        entry_mask: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-listener transmitter counts and unique transmitters.

        Parameters
        ----------
        transmit:
            Boolean array of shape ``(copies, n)``: who transmits in
            each copy of the graph.  The engine stacks one copy per
            trial and round of a block, round-major.
        entry_mask:
            Optional boolean array of shape ``(groups, num_entries)``:
            which directed CSR entries carry signal.  The copies split
            into ``groups`` equal runs of consecutive copies, and run
            ``g`` reads row ``g`` (the engine passes one row per round).
            ``False`` entries (links held down by ``repro.dynamics``
            edge churn) contribute nothing.

        Returns ``(counts, source)``, both ``int64`` of shape
        ``(copies, n)``: ``counts[c, j]`` is how many neighbours of
        ``j`` transmit in copy ``c``; ``source[c, j]`` is the flat index
        ``c * n + u`` of one of them, ``u`` -- the only one where
        ``counts[c, j] == 1`` -- and -1 where none does.

        Per call the work is ``O(copies * n)`` for the two outputs plus
        ``O(T + sum of the T transmitters' degrees)`` for the
        expansion, instead of ``O(copies * 2m)`` for walking every edge.
        (The name predates the index output; it is kept because
        ``perfbench`` traces the kernel by it.)
        """
        copies, n = transmit.shape
        # Array methods and ufunc methods below, not the ``np.*``
        # wrappers: at small ``n`` the wrappers' dispatch costs as much
        # as the work, and the kernel runs once per block of rounds.
        transmitters = transmit.ravel().nonzero()[0]
        nodes = transmitters
        if copies > 1:
            # Each transmitter's copy offset (``//`` by a scalar is
            # several times faster than ``%`` on int64).
            offsets = transmitters // n * n
            nodes = transmitters - offsets
        row_lengths = self._degrees[nodes]
        ends = np.add.accumulate(row_lengths)
        total = int(ends[-1]) if ends.size else 0
        if total == 0:
            return (
                np.zeros((copies, n), dtype=np.int64),
                np.full((copies, n), -1, dtype=np.int64),
            )
        # Transmitter i's row fills slots [ends[i] - row_lengths[i],
        # ends[i]) of the expansion and starts at indptr[node] in the
        # CSR, so slot k reads entry k + indptr[node] + row_lengths[i]
        # - ends[i]; its listeners sit at its own copy's offset.
        shift = self._indptr[nodes]
        shift += row_lengths
        shift -= ends
        entries = shift.repeat(row_lengths)
        entries += np.arange(total)
        listeners = self._indices.take(entries)
        if copies > 1:
            listeners += offsets.repeat(row_lengths)
        senders = transmitters.repeat(row_lengths)
        if entry_mask is not None:
            groups = entry_mask.shape[0]
            if groups > 1:
                group_copies = copies // groups
                entries += (
                    transmitters // (group_copies * n) * self.num_entries
                ).repeat(row_lengths)
            up = entry_mask.ravel().take(entries)
            listeners = listeners.compress(up)
            senders = senders.compress(up)
        counts = np.bincount(listeners, minlength=copies * n).astype(
            np.int64, copy=False
        )
        # Where several transmitters write the same listener, one write
        # survives: a listener with count one holds its transmitter.
        source = np.full(copies * n, -1, dtype=np.int64)
        source[listeners] = senders
        return counts.reshape(copies, n), source.reshape(copies, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRAdjacency(n={self.num_nodes}, entries={self.num_entries})"
        )
