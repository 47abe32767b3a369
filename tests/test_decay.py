"""Edge cases of the Decay rule: `repro.schedules.decay` and the
step-by-step oracle of `tests/decay_oracle.py`.

The Compete suites exercise Decay only through full protocol runs; these
tests pin the primitive directly: the degenerate ``n = 1`` network, step
indices past the nominal ``⌈log2 n⌉`` round length (legal -- the
probability just keeps halving), and the behaviour of non-participant
nodes in the one-round simulator.
"""

import math

import numpy as np
import pytest

from decay_oracle import (
    DecayTransmitter,
    decay_transmit_step,
    simulate_decay_round,
)
from repro import topology
from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.messages import Message
from repro.network.radio import RadioNetwork
from repro.schedules.decay import (
    decay_round_length,
    decay_success_probability_lower_bound,
)


class StubRng:
    """Deterministic stand-in for ``numpy.random.Generator.random``."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


# ----------------------------------------------------------------------
# round length
# ----------------------------------------------------------------------
def test_round_length_single_node_is_one_step():
    # ceil(log2 1) = 0, but a round must have at least one step: the
    # n = 1 network still runs a well-defined (trivial) schedule.
    assert decay_round_length(1) == 1
    assert decay_round_length(2) == 1
    assert decay_round_length(3) == 2
    assert decay_round_length(1024) == 10


def test_round_length_rejects_non_positive():
    for bad in (0, -1):
        with pytest.raises(ConfigurationError):
            decay_round_length(bad)


# ----------------------------------------------------------------------
# the step rule
# ----------------------------------------------------------------------
def test_transmit_step_threshold_semantics():
    # Transmit iff the uniform draw is strictly below 2^-step.
    for step in (1, 2, 5):
        threshold = 2.0 ** (-step)
        assert decay_transmit_step(step, StubRng([threshold / 2]))
        assert not decay_transmit_step(step, StubRng([threshold]))


def test_transmit_step_past_round_length_keeps_halving():
    # Step indices past ceil(log2 n) are legal (a protocol may run a
    # longer cycle than the nominal round); the probability simply keeps
    # halving instead of clamping or wrapping.
    n = 16
    past = decay_round_length(n) + 3  # step 7 -> probability 1/128
    threshold = 2.0 ** (-past)
    assert decay_transmit_step(past, StubRng([threshold * 0.999]))
    assert not decay_transmit_step(past, StubRng([threshold * 1.001]))
    # Statistically: the empirical rate at a deep step stays near 2^-step.
    rng = np.random.default_rng(0)
    trials = 20_000
    hits = sum(decay_transmit_step(past, rng) for _ in range(trials))
    assert hits / trials == pytest.approx(threshold, rel=0.35)


def test_transmit_step_rejects_non_positive_index():
    rng = np.random.default_rng(0)
    for bad in (0, -2):
        with pytest.raises(ConfigurationError):
            decay_transmit_step(bad, rng)


def test_transmitter_cycles_and_resets():
    # round_length 2: steps go 1, 2, 1, 2, ... with thresholds 1/2, 1/4.
    draws = [0.4, 0.4, 0.1, 0.6, 0.3]
    transmitter = DecayTransmitter(round_length=2, rng=StubRng(draws))
    assert transmitter.decide() is True      # step 1: 0.4 < 0.5
    assert transmitter.decide() is False     # step 2: 0.4 >= 0.25
    assert transmitter.decide() is True      # step 1 again: 0.1 < 0.5
    assert transmitter.steps_elapsed == 3
    transmitter.reset()
    assert transmitter.steps_elapsed == 0
    assert transmitter.decide() is False     # step 1: 0.6 >= 0.5
    assert transmitter.decide() is False     # step 2: 0.3 >= 0.25


def test_transmitter_single_step_round():
    # round_length 1 (the n = 1 regime): every step is step 1 (p = 1/2).
    transmitter = DecayTransmitter(
        round_length=1, rng=StubRng([0.49, 0.51, 0.0])
    )
    assert [transmitter.decide() for _ in range(3)] == [True, False, True]


# ----------------------------------------------------------------------
# the one-round simulator and non-participants
# ----------------------------------------------------------------------
def test_simulate_decay_round_non_participants_stay_silent():
    star = topology.star_graph(6)  # hub 0, leaves 1..6
    network = RadioNetwork(star)
    message = Message(value=7, source=1)
    rng = np.random.default_rng(1)
    heard = simulate_decay_round(network, {1: message}, rng)
    # Only the participant may have transmitted: the metrics cannot
    # exceed one transmission per step, and nothing a non-participant
    # "said" can have been heard anywhere.
    steps = decay_round_length(star.num_nodes)
    assert network.metrics.rounds == steps
    assert network.metrics.transmissions <= steps
    assert set(heard) <= {0}  # only the hub neighbours the participant
    if 0 in heard:
        assert heard[0] == message
    # Collisions are impossible with a single participant.
    assert network.metrics.collisions == 0


def test_simulate_decay_round_listener_filter():
    path = topology.path_graph(4)
    network = RadioNetwork(path)
    message = Message(value=1, source=1)
    rng = np.random.default_rng(3)
    heard = simulate_decay_round(
        network, {1: message}, rng, listeners=[3]
    )
    # Node 3 is two hops from the only participant: it can never hear it.
    assert heard == {}


def test_simulate_decay_round_single_node_network():
    # n = 1: one step, no listeners, nothing heard -- but the round is
    # still charged to the network's clock.
    single = Graph(nodes=[0])
    network = RadioNetwork(single)
    rng = np.random.default_rng(0)
    heard = simulate_decay_round(network, {0: Message(value=1, source=0)}, rng)
    assert heard == {}
    assert network.metrics.rounds == decay_round_length(1) == 1


def test_lower_bound_monotone_and_constant():
    # The analytic Lemma 3.1 bound stays a genuine constant for every
    # contender count (the property the Monte-Carlo suite leans on).
    values = [
        decay_success_probability_lower_bound(k) for k in range(1, 65)
    ]
    assert values[0] == 0.5
    assert all(v >= 1.0 / (2.0 * math.e) - 1e-12 for v in values)
