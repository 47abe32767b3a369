"""A per-round oracle for the fault trajectory.

:class:`repro.dynamics.FaultSchedule` hashes and steps the churn and
crash chains a chunk of rounds at a time and memoizes the per-round
totals.  This module keeps the plain per-round form of the same
trajectory: one hash per (round, lane) with the round key and lane state
mixed as Python integers, one ``np.where`` step per round, and a rewind
that resets the chains and replays from round 0.  It shares none of the
schedule's evolution code, so a trajectory mistake in either shows up as
a difference.  It is a reference that tests compare against, not a
second schedule the package uses.
"""

import numpy as np

from repro.dynamics import CHURN, CRASH, FAULT_SALT, JAM, RoundFaults
from repro.simulation.rng import (
    GOLDEN_GAMMA,
    _MASK64,
    _mix64_int,
    bits_to_unit,
    mix64,
)


def round_bits(fault_seed, round_number, kind, num_entities):
    """One round's hash words of one fault lane."""
    root = _mix64_int(fault_seed ^ FAULT_SALT)
    base = _mix64_int((root + (kind + 1) * GOLDEN_GAMMA) & _MASK64)
    round_key = _mix64_int((round_number + 1) * GOLDEN_GAMMA)
    state = _mix64_int((base + round_key) & _MASK64)
    entity_keys = np.arange(
        1, num_entities + 1, dtype=np.uint64
    ) * np.uint64(GOLDEN_GAMMA)
    with np.errstate(over="ignore"):
        return mix64(np.uint64(state) + entity_keys)


class PerRoundFaults:
    """``FaultSchedule.round_faults`` and ``totals``, one round a step."""

    def __init__(self, spec, graph):
        indptr, indices, nodes = graph.adjacency_csr()
        n = len(nodes)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        cols = np.asarray(indices)
        keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        self._num_nodes = n
        self._num_edges = int(np.unique(keys).size)
        self._spec = spec
        self._victims = np.zeros(n, dtype=bool)
        if spec.jamming is not None:
            self._victims = (
                self._uniforms(0, JAM, n) < spec.jamming.fraction
            )
        self._reset()

    def _uniforms(self, round_number, kind, count):
        return bits_to_unit(
            round_bits(self._spec.fault_seed, round_number, kind, count)
        )

    def _reset(self):
        self._rounds_done = 0
        self._edge_up = np.ones(self._num_edges, dtype=bool)
        self._alive = np.ones(self._num_nodes, dtype=bool)

    def _step(self, round_number):
        # State *during* round r is the chain after transition r.
        churn, crash = self._spec.churn, self._spec.crash
        if churn is not None:
            u = self._uniforms(round_number, CHURN, self._num_edges)
            self._edge_up = np.where(
                self._edge_up, u >= churn.p_down, u < churn.p_up
            )
        if crash is not None:
            u = self._uniforms(round_number, CRASH, self._num_nodes)
            self._alive = np.where(
                self._alive, u >= crash.p_crash, u < crash.p_recover
            )

    def round_faults(self, round_number):
        if round_number < self._rounds_done - 1:
            self._reset()
        while self._rounds_done <= round_number:
            self._step(self._rounds_done)
            self._rounds_done += 1
        jam = self._spec.jamming
        jammed = np.zeros(self._num_nodes, dtype=bool)
        if jam is not None and jam.active(round_number):
            jammed = self._victims.copy()
        edge_up = None
        if self._spec.churn is not None:
            edge_up = self._edge_up.copy()
        return RoundFaults(
            alive=self._alive.copy(),
            jammed=jammed,
            edge_up=edge_up,
            suppressed=(
                self._num_edges - int(edge_up.sum())
                if edge_up is not None else 0
            ),
            crashed_count=self._num_nodes - int(self._alive.sum()),
        )

    def totals(self, rounds):
        """Per round: crashed nodes, down links, alive jammed nodes."""
        rows = []
        for round_number in range(rounds):
            faults = self.round_faults(round_number)
            rows.append((
                faults.crashed_count,
                faults.suppressed,
                int((faults.jammed & faults.alive).sum()),
            ))
        return np.array(rows, dtype=np.int64).reshape(rounds, 3)
