"""The compiled per-round fault schedule every backend consumes.

A :class:`FaultSchedule` binds a
:class:`~repro.dynamics.spec.DynamicsSpec` to one concrete graph.  It
owns the *canonical entity enumeration* -- nodes in the graph's memoized
CSR order (:meth:`repro.network.graph.Graph.adjacency_csr`), undirected
edges as ``(lo, hi)`` index pairs sorted by ``lo * n + hi`` -- and
evolves the Markov link/node chains round by round from the pure hash
words of :class:`~repro.dynamics.streams.FaultStreams`.

Determinism contract
--------------------
The fault trajectory is a function of ``(fault_seed, graph)`` only:

* no trial axis -- every trial of a batch sees the same faults (they are
  an environment property, like the topology itself);
* every run starts at round 0 with all links up and all nodes alive, so
  the reference runner (fresh :class:`RadioNetwork` per run), the
  vectorized engines (rounds ``0..max`` per batch) and any re-run replay
  the identical trajectory;
* asking for an earlier round than the cursor resets to the initial
  state and replays forward (O(rounds) hashing, no stored history) --
  which is also how the engines' silent-trial prepass rewinds.

:meth:`round_faults` returns fresh arrays each call; callers may mutate
them freely.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.dynamics.models import CHURN, CRASH, JAM
from repro.dynamics.spec import DynamicsSpec
from repro.dynamics.streams import FaultStreams


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
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
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
        self._pair_to_edge = {
            (int(key) // n, int(key) % n): eid
            for eid, key in enumerate(edge_keys)
        }
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
        self._reset()

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

    def _reset(self) -> None:
        self._rounds_done = 0
        self._edge_up = (
            np.ones(self._num_edges, dtype=bool)
            if self._churn is not None
            else None
        )
        self._alive = np.ones(self._num_nodes, dtype=bool)

    def _step(self, round_number: int) -> None:
        # State *during* round r is the chain after transition r, so
        # faults can already strike in round 0.
        if self._churn is not None:
            u = self._streams.uniforms(round_number, CHURN, self._num_edges)
            self._edge_up = np.where(
                self._edge_up,
                u >= self._churn.p_down,
                u < self._churn.p_up,
            )
        if self._crash is not None:
            u = self._streams.uniforms(round_number, CRASH, self._num_nodes)
            self._alive = np.where(
                self._alive,
                u >= self._crash.p_crash,
                u < self._crash.p_recover,
            )

    def round_faults(self, round_number: int) -> RoundFaults:
        """The resolved fault state during ``round_number``."""
        if round_number < 0:
            raise ConfigurationError(
                f"round_number must be >= 0, got {round_number}"
            )
        if round_number < self._rounds_done - 1:
            self._reset()
        while self._rounds_done <= round_number:
            self._step(self._rounds_done)
            self._rounds_done += 1
        alive = self._alive.copy()
        if self._jam is not None and self._jam.active(round_number):
            jammed = self._jam_victims.copy()
        else:
            jammed = np.zeros(self._num_nodes, dtype=bool)
        edge_up = self._edge_up.copy() if self._edge_up is not None else None
        suppressed = (
            self._num_edges - int(edge_up.sum())
            if edge_up is not None
            else 0
        )
        return RoundFaults(
            alive=alive,
            jammed=jammed,
            edge_up=edge_up,
            suppressed=suppressed,
            crashed_count=self._num_nodes - int(alive.sum()),
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

    def down_links(self, faults: RoundFaults) -> set:
        """Links down in ``faults`` as ``(u, v)`` pairs, both orientations."""
        if faults.edge_up is None:
            return set()
        down = ~faults.edge_up
        lo = [self._nodes[i] for i in self._edge_lo[down].tolist()]
        hi = [self._nodes[i] for i in self._edge_hi[down].tolist()]
        return {*zip(lo, hi), *zip(hi, lo)}

    def edge_is_up(
        self, faults: RoundFaults, u: Hashable, v: Hashable
    ) -> bool:
        """Whether the undirected link ``{u, v}`` is up in ``faults``."""
        if faults.edge_up is None:
            return True
        i, j = self._node_index[u], self._node_index[v]
        lo, hi = (i, j) if i <= j else (j, i)
        return bool(faults.edge_up[self._pair_to_edge[(lo, hi)]])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule(n={self._num_nodes}, m={self._num_edges}, "
            f"spec={self._spec.describe()})"
        )
