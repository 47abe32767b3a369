"""Decay step by step: an independent form of the rule for the tests.

Algorithm 5 of the paper (Bar-Yehuda, Goldreich and Itai's Decay): in
step ``i`` (1-based) of a round of ``⌈log2 n⌉`` steps a participant
transmits with probability ``2^-i``.  The package runs Decay only as
compiled probability cycles
(:func:`repro.schedules.transmission.uniform_decay_schedule` and the
cluster schedules).  This module keeps the rule one draw at a time: the
step decision, a per-node transmitter that walks the steps, and one
round of Decay driven on a :class:`~repro.network.radio.RadioNetwork`,
plus Lemma 3.1's analytic bound on one round's success probability.
It reads nothing of the compiled cycles, so the Lemma 3.1 Monte-Carlo
check in ``tests/test_compete.py``, which runs on it, shares no code
with them.
"""

import dataclasses
import math
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.network.messages import Message
from repro.network.protocol import Action
from repro.network.radio import RadioNetwork
from repro.schedules.decay import decay_round_length


def decay_transmit_step(step_index: int, rng: np.random.Generator) -> bool:
    """Return True if a participant transmits in the given Decay step.

    ``step_index`` is 1-based; the transmission probability is
    ``2^-step_index`` as in Algorithm 5.
    """
    if step_index < 1:
        raise ConfigurationError(f"step_index must be >= 1, got {step_index}")
    return bool(rng.random() < 2.0 ** (-step_index))


@dataclasses.dataclass
class DecayTransmitter:
    """One node's position within repeated Decay rounds.

    Each call to :meth:`decide` advances one time step and reports
    whether to transmit.  After ``round_length`` steps the pattern
    restarts (a fresh round of Decay).

    Attributes
    ----------
    round_length:
        Number of steps per Decay round (``⌈log2 n⌉``).
    rng:
        The node's private random generator.
    """

    round_length: int
    rng: np.random.Generator
    _step: int = dataclasses.field(default=0, init=False)

    def decide(self) -> bool:
        """Advance one time step and return whether to transmit."""
        step_in_round = (self._step % self.round_length) + 1
        self._step += 1
        return decay_transmit_step(step_in_round, self.rng)

    @property
    def steps_elapsed(self) -> int:
        """Total number of time steps consumed so far."""
        return self._step

    def reset(self) -> None:
        """Restart the Decay pattern from step 1."""
        self._step = 0


def simulate_decay_round(
    network: RadioNetwork,
    participants: Mapping[Any, Message],
    rng: np.random.Generator,
    listeners: Optional[Iterable[Any]] = None,
) -> dict[Any, Message]:
    """Simulate one full round of Decay on the radio network.

    Parameters
    ----------
    network:
        The radio network to run on.  Its round counter and metrics
        advance by ``⌈log2 n⌉`` rounds.
    participants:
        Mapping from each participating node to the message it is trying
        to deliver.  All other nodes listen.
    rng:
        Source of randomness (a single generator is fine: the decisions
        are still independent across nodes because each node's draw is a
        separate call).
    listeners:
        Nodes whose receptions should be reported; defaults to every
        non-participant.

    Returns
    -------
    dict
        Mapping from listener to the first message it received during the
        Decay round (listeners that heard nothing are absent).
    """
    graph = network.graph
    num_steps = decay_round_length(graph.num_nodes)
    if listeners is None:
        listeners = [node for node in graph if node not in participants]
    heard: dict[Any, Message] = {}
    for step in range(1, num_steps + 1):
        actions: dict[Any, Action] = {}
        for node, message in participants.items():
            if decay_transmit_step(step, rng):
                actions[node] = Action.transmit(message)
            else:
                actions[node] = Action.listen()
        outcome = network.run_round(actions)
        for node in listeners:
            received = outcome.received[node]
            if isinstance(received, Message) and node not in heard:
                heard[node] = received
    return heard


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
