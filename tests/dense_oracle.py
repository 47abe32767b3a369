"""A dense-matmul oracle for the vectorized engine's round loop.

The vectorized engine computes each round with the transmitter-driven
CSR kernel and per-node counters reduced after the loop.  This module
recomputes the same rounds the plain way: the adjacency as a dense
float64 matrix, counts as ``T @ A``, rank sums as ``(T * ranks) @ A``,
and every per-trial counter summed round by round.  It takes the same
``DrawStreams`` / ``DecoupledStreams`` draws and the same fault masks
(``FaultSchedule.block`` rows one round at a time, the environment
counters from ``FaultSchedule.totals``), so on the same inputs it must
return an identical ``BatchOutcome``.

It is a reference implementation that tests compare against, not a
second engine: the package has no dense path.  Rank sums are exact in
float64 below ``2**53``, far above any rank the tests build.
"""

import contextlib

import numpy as np

from repro.api.config import ResolvedExecution
from repro.simulation.rng import DecoupledStreams
from repro.simulation.vectorized import BatchOutcome, DrawStreams


class DenseOracle:
    """The engine interface (``nodes``, ``run_batch``) on matmul rounds."""

    def __init__(self, resolved: ResolvedExecution) -> None:
        matrix, nodes = resolved.graph.adjacency_matrix()
        self.nodes = tuple(nodes)
        self._adjacency = matrix.astype(np.float64)
        self._probabilities = resolved.schedule.probability_matrix(nodes)
        self._max_rounds = resolved.parameters.total_rounds
        self._config = resolved.config
        self._dynamics = resolved.fault_schedule

    def run_batch(self, initial_ranks, winner_rank, seeds) -> BatchOutcome:
        ranks = np.array(initial_ranks, dtype=np.int64)
        trials, n = ranks.shape
        adopted = np.full(ranks.shape, -1, dtype=np.int64)
        names = ("rounds", "transmissions", "receptions", "collisions",
                 "idle_listens", "suppressed_links", "crashed_nodes",
                 "jammed_listens")
        total = {name: np.zeros(trials, dtype=np.int64) for name in names}

        def saturated():
            if winner_rank is None:
                return np.zeros(trials, dtype=bool)
            return (ranks == winner_rank).all(axis=1)

        if self._config.rng == "replay":
            streams = DrawStreams(seeds, n)
        else:
            streams = DecoupledStreams(seeds, n)
        active = ~saturated()
        for r in range(self._max_rounds):
            if not active.any():
                break
            p = self._probabilities[r % len(self._probabilities)]
            informed = (ranks > 0) & active[:, None]
            if self._config.rng == "replay":
                draws = streams.take(informed.ravel()).reshape(ranks.shape)
            else:
                draws = streams.uniforms(r)
            transmit = informed & (draws < p)
            adjacency = self._adjacency
            alive, jammed = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
            if self._dynamics is not None:
                alive, jammed, edge_up = self._dynamics.block(r, 1)
                alive, jammed = alive[0], jammed[0] & alive[0]
                if edge_up is not None:
                    lo, hi = self._dynamics.edge_endpoints
                    down = ~edge_up[0]
                    adjacency = adjacency.copy()
                    adjacency[lo[down], hi[down]] = 0
                    adjacency[hi[down], lo[down]] = 0
                crashed, suppressed, _ = self._dynamics.totals(r + 1)[r]
                total["suppressed_links"] += active * suppressed
                total["crashed_nodes"] += active * crashed
            transmit &= alive
            counts = transmit @ adjacency
            sums = (transmit * ranks) @ adjacency
            listening = ~transmit & alive & ~jammed
            receiving = listening & (counts == 1)
            improved = receiving & (sums > ranks)
            ranks[improved] = sums[improved]
            adopted[improved] = r
            round_counts = {
                "rounds": active,
                "transmissions": transmit.sum(axis=1),
                "receptions": receiving.sum(axis=1),
                "collisions": (listening & (counts >= 2)).sum(axis=1),
                "jammed_listens": active * (jammed & ~transmit).sum(axis=1),
            }
            for name, values in round_counts.items():
                total[name] += values
            total["idle_listens"] += active * (n - (~alive).sum()) - (
                round_counts["transmissions"] + round_counts["receptions"]
                + round_counts["collisions"] + round_counts["jammed_listens"]
            )
            active &= ~saturated()
        return BatchOutcome(nodes=self.nodes, saturated=saturated(),
                            final_ranks=ranks, adopted_rounds=adopted, **total)


@contextlib.contextmanager
def dense_oracle_engines():
    """Run every vectorized call inside the block on :class:`DenseOracle`."""
    original = ResolvedExecution.build_engine
    ResolvedExecution.build_engine = lambda resolved: DenseOracle(resolved)
    try:
        yield
    finally:
        ResolvedExecution.build_engine = original
