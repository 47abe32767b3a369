"""The Decay transmission primitive (Algorithm 5, Lemma 3.1).

Decay, introduced by Bar-Yehuda, Goldreich and Itai (1992), is the basic
contention-resolution tool of randomized radio-network algorithms.  One
*round of Decay* at a participating node ``v`` consists of ``⌈log2 n⌉``
time steps; in step ``i`` (1-based) the node transmits its message with
probability ``2^-i`` and stays silent otherwise.

Lemma 3.1 of the paper (quoting [3]): after a single round of Decay, a
listening node with at least one participating neighbour receives a
message with constant probability.  The intuition is that some step has a
transmission probability within a factor two of ``1/k`` where ``k`` is the
number of participating neighbours, and at that step exactly one of the
``k`` transmits with constant probability.

This module provides the round length.  The per-node step rule is
compiled into :func:`~repro.schedules.transmission.uniform_decay_schedule`;
the tests keep a step-by-step form of it, and the analytic Lemma 3.1
bound, as an independent oracle (``tests/decay_oracle.py``).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError


def decay_round_length(num_nodes: int) -> int:
    """Number of time steps in one round of Decay, ``⌈log2 n⌉`` (at least 1)."""
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    return max(1, math.ceil(math.log2(max(num_nodes, 2))))
