"""Transmission primitives shared by the paper's algorithms.

* :mod:`repro.schedules.decay` -- the Decay protocol of Bar-Yehuda,
  Goldreich and Itai (Algorithm 5 of the paper): its round length and
  its single-round success guarantee (Lemma 3.1).
  :class:`~repro.core.compete.Compete` runs Decay through the
  :class:`TransmissionSchedule` its strategy compiles.
* :mod:`repro.schedules.transmission` -- per-node periodic transmission
  schedules (:class:`TransmissionSchedule`), the contract both Compete
  strategies compile to and both execution backends consume; includes
  the uniform skeleton Decay cycle.
* :mod:`repro.schedules.cluster` -- the Lemma 2.3 cost-charged cluster
  schedule: per-node Decay cycles priced by cluster contention bounds
  instead of by ``n`` (built over a
  :class:`~repro.core.clustering.ClusterDecomposition`).
"""

from repro.schedules.decay import (
    DECAY_DEFAULT_CONSTANT,
    decay_round_length,
    decay_success_probability_lower_bound,
)
from repro.schedules.transmission import (
    MAX_CYCLE_LENGTH,
    TransmissionSchedule,
    decay_probabilities,
    next_power_of_two,
    uniform_decay_schedule,
)
from repro.schedules.cluster import charged_cycle_steps, cluster_schedule

__all__ = [
    "DECAY_DEFAULT_CONSTANT",
    "decay_round_length",
    "decay_success_probability_lower_bound",
    "MAX_CYCLE_LENGTH",
    "TransmissionSchedule",
    "decay_probabilities",
    "next_power_of_two",
    "uniform_decay_schedule",
    "charged_cycle_steps",
    "cluster_schedule",
]
