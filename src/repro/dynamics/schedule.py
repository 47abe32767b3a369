"""The compiled fault trajectory every backend consumes.

A :class:`FaultSchedule` binds a
:class:`~repro.dynamics.spec.DynamicsSpec` to one concrete graph.  It
owns the *canonical entity enumeration* -- nodes in the graph's memoized
CSR order (:meth:`repro.network.graph.Graph.adjacency_csr`), undirected
edges as ``(lo, hi)`` index pairs sorted by ``lo * n + hi`` -- and
evolves the Markov link/node chains a chunk of rounds at a time from the
pure hash words of :class:`~repro.dynamics.streams.FaultStreams`: one
hash call per lane and chunk, then one ``np.where`` per round.

Determinism contract
--------------------
The fault trajectory is a function of ``(fault_seed, graph)`` only:

* no trial axis -- every trial of a batch sees the same faults (they are
  an environment property, like the topology itself);
* every run starts at round 0 with all links up and all nodes alive, so
  the reference runner (fresh :class:`RadioNetwork` per run), the
  vectorized engine (rounds ``0..max`` per batch) and any re-run replay
  the identical trajectory;
* the schedule keeps two things: the masks of one chunk of consecutive
  rounds (at most 128, fewer on large graphs, so memory does not grow
  with the round budget; never fewer than a request asks for) and the
  per-round totals of every round computed so far.  Asking for an
  earlier round than the chunk holds recomputes the chains from round 0
  chunk by chunk; totals already computed are never recomputed.

:meth:`block` and :meth:`totals` return read-only views;
:meth:`round_faults` returns fresh copies of one round's row, which
callers may mutate.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.dynamics.models import CHURN, CRASH, JAM
from repro.dynamics.spec import DynamicsSpec
from repro.dynamics.streams import FaultStreams
from repro.simulation.rng import bits_to_unit

#: Mask entries (rounds x (nodes + edges)) one chunk may hold.  A chunk
#: is the largest power of two up to 128 rounds inside it, or as many
#: rounds as a request asks for where that is more.  Budgets from 2**16
#: to 2**20 ran the fault scenarios equally fast on a 2-vCPU VM; hashing
#: a chunk peaks at about 27 bytes per entry, so 2**16 keeps that near
#: 1 MB.
_CHUNK_ENTRIES = 1 << 16


@dataclasses.dataclass(frozen=True)
class RoundFaults:
    """One round's resolved fault state, in canonical entity order.

    Attributes
    ----------
    alive:
        Bool ``(n,)``: node is not crashed this round.
    jammed:
        Bool ``(n,)``: node is in the jammer's victim set during an
        active window (*not* masked by ``alive``; consumers intersect).
    edge_up:
        Bool ``(m,)`` over canonical undirected edges, or ``None`` when
        no churn model is configured (all links up).
    suppressed:
        ``m - edge_up.sum()``: down links this round (0 without churn).
    crashed_count:
        ``n - alive.sum()``: crashed nodes this round.
    """

    alive: np.ndarray
    jammed: np.ndarray
    edge_up: Optional[np.ndarray]
    suppressed: int
    crashed_count: int


class FaultSchedule:
    """Per-round fault masks for one ``(spec, graph)`` binding."""

    def __init__(self, spec: DynamicsSpec, graph) -> None:
        if not isinstance(spec, DynamicsSpec):
            raise ConfigurationError(
                f"spec must be a DynamicsSpec, got {spec!r}"
            )
        self._spec = spec
        self._streams = FaultStreams(spec.fault_seed)
        indptr, indices, nodes = graph.adjacency_csr()
        self._nodes = tuple(nodes)
        n = len(self._nodes)
        self._num_nodes = n
        # Canonical undirected edge enumeration from the CSR default
        # order (the same arrays the sparse engine gathers over): each
        # directed entry maps to its undirected edge id via the sorted
        # (lo, hi) key, so an ``edge_up`` mask indexes both layers.
        rows = np.repeat(
            np.arange(n, dtype=np.int64),
            np.diff(np.asarray(indptr, dtype=np.int64)),
        )
        cols = np.asarray(indices, dtype=np.int64)
        keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        edge_keys = np.unique(keys)
        self._num_edges = int(edge_keys.size)
        self._entry_edge_ids = np.searchsorted(edge_keys, keys)
        self._edge_lo = (edge_keys // n).astype(np.int64)
        self._edge_hi = (edge_keys % n).astype(np.int64)
        self._churn = spec.churn
        self._crash = spec.crash
        self._jam = spec.jamming
        if self._jam is not None:
            # The victim set is static: drawn once from the round-0 JAM
            # lane, independent of the window phase.
            victims = (
                self._streams.uniforms(0, JAM, n) < self._jam.fraction
            )
            self._jam_victims = victims
        else:
            self._jam_victims = np.zeros(n, dtype=bool)
        chunk = 1
        while (
            chunk < 128
            and 2 * chunk * (n + self._num_edges) <= _CHUNK_ENTRIES
        ):
            chunk *= 2
        self._chunk_rounds = chunk
        # Every computed round's crashed nodes, down links and alive
        # jammed nodes; rows ``[0, frontier)`` are filled, never rewritten.
        self._totals = np.empty((chunk, 3), dtype=np.int64)
        self._frontier = 0
        self._rewind()

    # -- identity ------------------------------------------------------

    @property
    def spec(self) -> DynamicsSpec:
        return self._spec

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Canonical undirected edge count."""
        return self._num_edges

    @property
    def nodes(self) -> tuple:
        """Node identifiers in canonical (CSR) order."""
        return self._nodes

    @property
    def entry_edge_ids(self) -> np.ndarray:
        """Undirected edge id of each directed CSR entry (``int64``)."""
        return self._entry_edge_ids

    @property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints ``(lo, hi)`` as node-index arrays."""
        return self._edge_lo, self._edge_hi

    # -- evolution -----------------------------------------------------

    def _rewind(self) -> None:
        """Empty the chunk: the chains stand before round 0, all up."""
        self._first = self._stop = 0
        self._alive = np.ones((0, self._num_nodes), dtype=bool)
        self._edge_up = np.ones((0, self._num_edges), dtype=bool)

    def _chain(self, rows, kept, fresh, lane, leave, back) -> np.ndarray:
        """One Markov lane's rows: ``rows[kept:]``, then ``fresh`` rounds.

        The fresh rounds continue the chain from the last row of
        ``rows`` (all up when there is none).  An up entity goes down
        when its uniform is below ``leave`` and a down one comes back
        when it is below ``back``.  The state *during* round ``r`` is the
        chain after transition ``r``, so faults can strike in round 0.
        """
        count = rows.shape[1]
        held = rows.shape[0] - kept
        out = np.empty((held + len(fresh), count), dtype=bool)
        out[:held] = rows[kept:]
        state = rows[-1] if rows.shape[0] else np.ones(count, dtype=bool)
        uniforms = bits_to_unit(
            self._streams.bits_block(fresh.start, len(fresh), lane, count)
        )
        stays, returns = uniforms >= leave, uniforms < back
        for k in range(len(fresh)):
            out[held + k] = state = np.where(state, stays[k], returns[k])
        return out

    def _extend(self, begin: int, stop: int) -> None:
        """Make the chunk rounds ``[begin, stop)``.

        ``begin`` lies in the current chunk or right after it: rows the
        chunk holds are kept, the rest continue the chains from its last
        row, and the totals of rounds past the frontier join the memo.
        """
        kept = begin - self._first
        fresh = range(self._stop, stop)
        if self._crash is not None:
            self._alive = self._chain(
                self._alive, kept, fresh, CRASH,
                self._crash.p_crash, self._crash.p_recover,
            )
        else:
            self._alive = np.ones((stop - begin, self._num_nodes), dtype=bool)
        if self._churn is not None:
            self._edge_up = self._chain(
                self._edge_up, kept, fresh, CHURN,
                self._churn.p_down, self._churn.p_up,
            )
        active = np.zeros(stop - begin, dtype=bool)
        if self._jam is not None:
            active[:] = [self._jam.active(r) for r in range(begin, stop)]
        self._jammed = active[:, None] & self._jam_victims
        self._first, self._stop = begin, stop
        for rows in (self._alive, self._jammed, self._edge_up):
            rows.flags.writeable = False
        if stop > self._frontier:
            if stop > self._totals.shape[0]:
                # A new array: views handed out earlier stay valid.
                self._totals = np.resize(self._totals, (2 * stop, 3))
            totals = self._totals[self._frontier:stop]
            new = slice(self._frontier - begin, None)
            alive = self._alive[new]
            totals[:, 0] = self._num_nodes - alive.sum(axis=1)
            totals[:, 1] = (
                self._num_edges - self._edge_up[new].sum(axis=1)
                if self._churn is not None
                else 0
            )
            totals[:, 2] = (self._jammed[new] & alive).sum(axis=1)
            self._frontier = stop

    def _load(self, start: int, rounds: int) -> None:
        """Make the chunk hold rounds ``[start, start + rounds)``."""
        if start < 0:
            raise ConfigurationError(
                f"round_number must be >= 0, got {start}"
            )
        if rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
        stop = start + rounds
        if start < self._first:
            self._rewind()
        while self._stop < stop:
            if start <= self._stop:
                self._extend(
                    start, start + max(self._chunk_rounds, rounds)
                )
            else:
                # Whole chunks up to the request: the chains and the
                # totals must pass through every round.
                self._extend(
                    self._stop, min(self._stop + self._chunk_rounds, start)
                )

    def block(
        self, start: int, rounds: int
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Rounds ``[start, start + rounds)`` as read-only row views.

        Returns ``(alive, jammed, edge_up)`` with one row per round, in
        the layout of :class:`RoundFaults`' fields: ``(rounds, n)``,
        ``(rounds, n)`` and ``(rounds, m)``, or ``None`` for ``edge_up``
        when no churn model is configured.  The views stay valid after
        later calls.
        """
        self._load(start, rounds)
        rows = slice(start - self._first, start - self._first + rounds)
        edge_up = self._edge_up[rows] if self._churn is not None else None
        return self._alive[rows], self._jammed[rows], edge_up

    def totals(self, rounds: int) -> np.ndarray:
        """Per-round fault totals of rounds ``[0, rounds)``.

        A read-only ``int64`` array of shape ``(rounds, 3)``: crashed
        nodes, down links and alive jammed nodes of each round.  Rounds
        computed before, by any call, are read from the memo.
        """
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if rounds > self._frontier:
            self._load(rounds - 1, 1)
        view = self._totals[:rounds]
        view.flags.writeable = False
        return view

    def round_faults(self, round_number: int) -> RoundFaults:
        """The resolved fault state during ``round_number``."""
        alive, jammed, edge_up = self.block(round_number, 1)
        crashed, suppressed, _ = self._totals[round_number].tolist()
        return RoundFaults(
            alive=alive[0].copy(),
            jammed=jammed[0].copy(),
            edge_up=edge_up[0].copy() if edge_up is not None else None,
            suppressed=suppressed,
            crashed_count=crashed,
        )

    # -- reference-path helpers (node identifiers, not indices) --------

    def crashed_nodes(self, faults: RoundFaults) -> set:
        """Identifiers of nodes crashed in ``faults``."""
        return {
            self._nodes[i] for i in np.flatnonzero(~faults.alive)
        }

    def jammed_nodes(self, faults: RoundFaults) -> set:
        """Identifiers of *alive* jammed nodes in ``faults``."""
        return {
            self._nodes[i]
            for i in np.flatnonzero(faults.jammed & faults.alive)
        }

    def links(self) -> dict:
        """Each node's links as ``(neighbour, edge id)`` pairs, both
        orientations, so a link is up when ``edge_up[edge id]`` is."""
        links: dict = {node: [] for node in self._nodes}
        lo = [self._nodes[i] for i in self._edge_lo.tolist()]
        hi = [self._nodes[i] for i in self._edge_hi.tolist()]
        for edge, (u, v) in enumerate(zip(lo, hi)):
            links[u].append((v, edge))
            links[v].append((u, edge))
        return links

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule(n={self._num_nodes}, m={self._num_edges}, "
            f"spec={self._spec.describe()})"
        )
