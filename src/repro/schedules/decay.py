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

This module provides the round length and the analytic lower bound the
Lemma 3.1 regression tests compare against.  The per-node step rule is
compiled into :func:`~repro.schedules.transmission.uniform_decay_schedule`;
the tests keep a step-by-step form of it as an independent oracle.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: The constant-probability guarantee of Lemma 3.1 is usually quoted with
#: success probability at least 1/(2e); we expose it for the analytic
#: comparison in the Lemma 3.1 regression tests (``tests/test_compete.py``).
DECAY_DEFAULT_CONSTANT = 1.0 / (2.0 * math.e)


def decay_round_length(num_nodes: int) -> int:
    """Number of time steps in one round of Decay, ``⌈log2 n⌉`` (at least 1)."""
    if num_nodes < 1:
        raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
    return max(1, math.ceil(math.log2(max(num_nodes, 2))))


def decay_success_probability_lower_bound(num_contenders: int) -> float:
    """Analytic lower bound on the Lemma 3.1 success probability.

    For a listener with ``k = num_contenders`` participating neighbours,
    consider the Decay step ``i`` with ``2^-i`` closest to ``1/k`` from
    below (so ``1/(2k) < 2^-i <= 1/k``).  The probability that exactly one
    contender transmits at that step is at least

        ``k * p * (1 - p)^(k-1)  >=  (1/2) * (1 - 1/k)^(k-1)  >=  1/(2e)``.

    This is the classical bound; the Lemma 3.1 regression tests check
    that the empirical success rate dominates it for all ``k``.
    """
    if num_contenders < 1:
        raise ConfigurationError(
            f"num_contenders must be >= 1, got {num_contenders}"
        )
    if num_contenders == 1:
        # Step 1 alone transmits with probability 1/2.
        return 0.5
    k = num_contenders
    # Find the step probability p = 2^-i with 1/(2k) < p <= 1/k.
    step = math.ceil(math.log2(k))
    p = 2.0 ** (-step)
    return k * p * (1.0 - p) ** (k - 1)
