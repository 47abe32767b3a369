"""Counter-based fault decision streams.

Fault decisions are *environment* randomness, not trial randomness: a
link that drops in round 17 is down for every trial and every backend
running that configuration.  So the stream is keyed on
``(fault_seed, round, kind, entity)`` -- no trial axis -- using the same
splitmix64 counter-hash idiom as ``rng="decoupled"``
(:mod:`repro.simulation.rng`)::

    u(round, kind, entity) = bits_to_unit(mix64(mix64(base(kind)
                                          + round_key(round))
                                          + entity_key(entity)))

where ``base(kind)`` folds the fault seed (salted so it never collides
with a trial-seed lane) with the model's stream-lane index, and entity
``i`` -- an edge id for churn, a node index for crash and jamming -- uses
the same golden-ratio Weyl keys as the draw streams, and
``round_key(r) = mix64((r + 1) * golden)``.  Every value is a pure hash
of its coordinates: every backend reads the identical words, so their
fault decisions are bit-identical by construction, and any block of
rounds can be recomputed independently (which is how
:class:`~repro.dynamics.schedule.FaultSchedule` replays Markov
trajectories deterministically, a chunk of rounds per
:meth:`FaultStreams.bits_block` call).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.rng import (
    GOLDEN_GAMMA,
    _MASK64,
    _mix64_int,
    bits_to_unit,
    mix64,
)

#: Salt folded into the fault seed so the fault-stream lanes can never
#: collide with the trial-draw lanes of ``rng="decoupled"`` even when
#: ``fault_seed`` equals a trial seed.  (The weight-2669 constant from
#: Pelle Evensen's mixer searches -- any fixed odd word would do; it only
#: has to differ from ``repro.simulation.rng._SEED_SALT``.)
FAULT_SALT = 0xD1B54A32D192ED03


class FaultStreams:
    """Per-``(round, kind, entity)`` uniforms for one fault seed.

    Stateless: :meth:`bits_block` is a pure function of its arguments,
    so calling it for any rounds, any number of times, in any order,
    always returns the same values; :meth:`bits` and :meth:`uniforms`
    are its one-round case.
    """

    def __init__(self, fault_seed: int) -> None:
        fault_seed = int(fault_seed)
        if fault_seed < 0:
            raise ConfigurationError(
                f"fault_seed must be >= 0, got {fault_seed}"
            )
        root = _mix64_int(fault_seed ^ FAULT_SALT)
        # One base per stream lane (see repro.dynamics.models CHURN /
        # CRASH / JAM); precomputing all three is three integer mixes.
        self._bases = tuple(
            _mix64_int((root + (kind + 1) * GOLDEN_GAMMA) & _MASK64)
            for kind in range(3)
        )
        self._fault_seed = fault_seed

    @property
    def fault_seed(self) -> int:
        return self._fault_seed

    def bits_block(
        self, first_round: int, rounds: int, kind: int, num_entities: int
    ) -> np.ndarray:
        """The raw ``uint64`` hash words of ``rounds`` consecutive rounds.

        Shape ``(rounds, num_entities)``: row ``k`` holds round
        ``first_round + k``.  One vectorized pass hashes the round keys,
        the per-round lane states and every entity word, so the words do
        not depend on how a trajectory is cut into blocks.
        """
        if first_round < 0:
            raise ConfigurationError(
                f"round_number must be >= 0, got {first_round}"
            )
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if not 0 <= kind < len(self._bases):
            raise ConfigurationError(
                f"kind must be in [0, {len(self._bases)}), got {kind}"
            )
        if num_entities < 0:
            raise ConfigurationError(
                f"num_entities must be >= 0, got {num_entities}"
            )
        gamma = np.uint64(GOLDEN_GAMMA)
        round_numbers = np.arange(
            first_round + 1, first_round + rounds + 1, dtype=np.uint64
        )
        entity_keys = np.arange(
            1, num_entities + 1, dtype=np.uint64
        ) * gamma
        with np.errstate(over="ignore"):
            states = mix64(
                np.uint64(self._bases[kind]) + mix64(round_numbers * gamma)
            )
            return mix64(states[:, None] + entity_keys)

    def bits(
        self, round_number: int, kind: int, num_entities: int
    ) -> np.ndarray:
        """The raw ``uint64`` hash words: shape ``(num_entities,)``."""
        return self.bits_block(round_number, 1, kind, num_entities)[0]

    def uniforms(
        self, round_number: int, kind: int, num_entities: int
    ) -> np.ndarray:
        """One lane's uniform draws in ``[0, 1)`` for one round."""
        return bits_to_unit(self.bits(round_number, kind, num_entities))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultStreams(fault_seed={self._fault_seed})"
