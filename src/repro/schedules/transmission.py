"""Per-node periodic transmission schedules.

Every Compete strategy ultimately reduces to the same contract: each
node, while it holds a message, transmits in round ``r`` with a
probability drawn from a short periodic sequence private to that node.
The skeleton strategy gives every node the identical
``(2^-1, ..., 2^-⌈log2 n⌉)`` Decay cycle; the clustered strategy gives
each node a cycle whose length is charged to its cluster's contention
bound instead of to ``n``.  :class:`TransmissionSchedule` is that
contract as a value object, consumed identically by both execution
backends:

* the reference :class:`~repro.core.compete.CompeteProtocol` asks for
  one node's probability in one round
  (:meth:`TransmissionSchedule.probability`), and
* the vectorized engine materialises the whole schedule as a
  ``(cycle_length, n)`` matrix once
  (:meth:`TransmissionSchedule.probability_matrix`) and indexes rows by
  ``round % cycle_length``.

Because both backends read the *same* per-node probability for the same
round and consume exactly one uniform draw per informed node per round,
round-exact backend agreement is preserved for every schedule this class
can express -- the strategy axis never weakens the equivalence
guarantee.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.errors import ConfigurationError

#: Safety cap on the schedule cycle length (the lcm of all per-node
#: periods).  The built-in strategies produce uniform or power-of-two
#: periods whose lcm equals the maximum period; the cap catches a
#: pathological mix of coprime periods before it materialises a huge
#: probability matrix.
MAX_CYCLE_LENGTH = 1 << 16


def decay_probabilities(num_steps: int) -> tuple[float, ...]:
    """The classical Decay cycle ``(2^-1, ..., 2^-num_steps)``.

    >>> decay_probabilities(3)
    (0.5, 0.25, 0.125)
    """
    if num_steps < 1:
        raise ConfigurationError(f"num_steps must be >= 1, got {num_steps}")
    return tuple(2.0 ** (-step) for step in range(1, num_steps + 1))


def next_power_of_two(value: int) -> int:
    """The smallest power of two ``>= value`` (``value`` must be >= 1).

    Power-of-two cycle lengths *nest*: whenever a node with a longer
    cycle is at step ``s`` within the first half of its cycle, every node
    whose (shorter, dividing) cycle contains step ``s`` is at exactly the
    same step.  The clustered schedule relies on this to keep contenders
    with heterogeneous cycle lengths aligned at the steps the Lemma 3.1
    argument needs.

    >>> [next_power_of_two(k) for k in (1, 2, 3, 5, 8, 9)]
    [1, 2, 4, 8, 8, 16]
    """
    if value < 1:
        raise ConfigurationError(f"value must be >= 1, got {value}")
    return 1 << (value - 1).bit_length()


class TransmissionSchedule:
    """Immutable per-node periodic transmission probabilities.

    Parameters
    ----------
    node_probabilities:
        Mapping from node to its probability cycle (a non-empty sequence
        of values in ``(0, 1]``).  Node ``v`` transmits in round ``r``
        (while informed) with probability ``cycle_v[r % len(cycle_v)]``.
    name:
        Label of the strategy that built the schedule (recorded for
        diagnostics).
    """

    def __init__(
        self,
        node_probabilities: Mapping[object, Sequence[float]],
        name: str = "",
    ) -> None:
        if not node_probabilities:
            raise ConfigurationError(
                "node_probabilities must cover at least one node"
            )
        cycles: dict[object, tuple[float, ...]] = {}
        # Each distinct cycle is converted and checked once, and every
        # node with an equal cycle shares the one checked tuple; the
        # first node that brings a bad cycle is the one named.
        checked: dict[tuple, tuple[float, ...]] = {}
        cycle_length = 1
        for node, probabilities in node_probabilities.items():
            given = tuple(probabilities)
            cycle = checked.get(given)
            if cycle is None:
                cycle = tuple(float(p) for p in given)
                if not cycle:
                    raise ConfigurationError(
                        f"node {node!r} has an empty probability cycle"
                    )
                for probability in cycle:
                    if not 0.0 < probability <= 1.0:
                        raise ConfigurationError(
                            f"node {node!r} has transmission probability "
                            f"{probability}, outside (0, 1]"
                        )
                cycle_length = math.lcm(cycle_length, len(cycle))
                if cycle_length > MAX_CYCLE_LENGTH:
                    raise ConfigurationError(
                        f"combined cycle length exceeds {MAX_CYCLE_LENGTH}; "
                        "use nesting (power-of-two) period lengths"
                    )
                checked[given] = cycle
            cycles[node] = cycle
        self._cycles = cycles
        self._cycle_length = cycle_length
        self._name = name

    @property
    def name(self) -> str:
        """Label of the strategy that built the schedule."""
        return self._name

    @property
    def cycle_length(self) -> int:
        """Rounds after which every node's cycle repeats (lcm of periods)."""
        return self._cycle_length

    @property
    def nodes(self) -> tuple:
        """The nodes the schedule covers, in mapping order."""
        return tuple(self._cycles)

    def period(self, node) -> int:
        """Length of ``node``'s probability cycle."""
        return len(self._probabilities_of(node))

    def max_period(self) -> int:
        """The longest per-node cycle in the schedule."""
        return max(len(cycle) for cycle in self._cycles.values())

    def probabilities(self, node) -> tuple[float, ...]:
        """``node``'s full probability cycle."""
        return self._probabilities_of(node)

    def probability(self, node, round_number: int) -> float:
        """``node``'s transmission probability in global ``round_number``."""
        cycle = self._probabilities_of(node)
        return cycle[round_number % len(cycle)]

    def _probabilities_of(self, node) -> tuple[float, ...]:
        try:
            return self._cycles[node]
        except KeyError:
            raise ConfigurationError(
                f"node {node!r} is not covered by this schedule"
            ) from None

    def probability_matrix(self, order: Iterable):
        """The schedule as a dense ``(cycle_length, n)`` float64 matrix.

        ``matrix[r % cycle_length, i]`` is node ``order[i]``'s
        transmission probability in round ``r`` -- the layout the
        vectorized engine indexes one row per round.  Every node of
        ``order`` must be covered by the schedule.
        """
        import numpy as np

        # Nodes with equal cycles share one tuple (see ``__init__``), so
        # grouping columns by tuple identity fills one block per cycle.
        nodes = list(order)
        blocks: dict[int, tuple[tuple[float, ...], list[int]]] = {}
        for column, node in enumerate(nodes):
            cycle = self._probabilities_of(node)
            blocks.setdefault(id(cycle), (cycle, []))[1].append(column)
        matrix = np.empty((self._cycle_length, len(nodes)), dtype=np.float64)
        for cycle, columns in blocks.values():
            matrix[:, columns] = np.resize(cycle, self._cycle_length)[:, None]
        return matrix

    def __eq__(self, other) -> bool:
        if not isinstance(other, TransmissionSchedule):
            return NotImplemented
        return self._cycles == other._cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransmissionSchedule(name={self._name!r}, "
            f"nodes={len(self._cycles)}, cycle={self._cycle_length})"
        )


def uniform_decay_schedule(
    nodes: Iterable, decay_steps: int, name: str = "skeleton"
) -> TransmissionSchedule:
    """The skeleton schedule: every node runs the same global Decay cycle.

    >>> schedule = uniform_decay_schedule([0, 1], 2)
    >>> schedule.probability(0, 0), schedule.probability(1, 3)
    (0.5, 0.25)
    """
    cycle = decay_probabilities(decay_steps)
    return TransmissionSchedule(
        {node: cycle for node in nodes}, name=name
    )
