"""Counter-based draw streams: the ``rng="decoupled"`` fast mode.

The vectorized engine's default randomness policy (``rng="replay"``,
:class:`repro.simulation.vectorized.DrawStreams`) replays the reference
runner's per-(trial, node) ``SeedSequence`` streams so that every backend
agrees round for round.  That guarantee costs real time: one NumPy
``Generator`` per (trial, node).  Their seed words come from one
vectorized pass over ``SeedSequence.spawn``'s mixing, yet building the
16384 streams of an ``n = 16384`` trial still takes about 50 ms on a
2-vCPU VM, and drawing all of their lockstep transmit decisions, at up
to 1024 draws per generator call, another 105-115 ms every 1024 rounds.
The streams are also inherently *stateful*, so they cannot be sharded,
replayed out of order, or skipped past silent rounds.

This module is the stateless alternative.  A draw is a pure hash of its
coordinates::

    u(trial, round, node) = bits_to_unit(mix64(mix64(base(trial)
                                         + round_key(round)) + node_key(node)))

where :func:`mix64` is the splitmix64 finalizer (a bijection on 64-bit
words with full avalanche) and the keys are Weyl-sequence increments of
the golden-ratio constant (``round_key(r) = mix64((r + 1) * golden)``).
No state advances between rounds: any round of any trial can be
evaluated independently, in any process, in one vectorized pass over
the node axis.  :class:`DecoupledStreams` hashes the per-trial round
states ``mix64(base + round_key)`` of 128 consecutive rounds in one
vectorized pass and keeps them while rounds of that chunk are asked
for, so a round pays only the node-axis finalizer; the chunk holds pure
values, so the call order never changes a draw.  All of it is ``uint64``
*array* arithmetic, which wraps modulo 2**64 silently (NumPy scalars
would warn on overflow).  The price is the *contract*: a
decoupled run is seed-reproducible against itself (same seed, same
draws, forever -- pinned by golden values in ``tests/test_rng.py``) but
does **not** reproduce the reference runner's draws, so replay-vs-
decoupled agreement is *distributional*, enforced statistically by
``tests/test_rng_decoupled.py`` rather than round-exactly.

Draw quality: splitmix64 passes BigCrush as a sequential generator; used
here as a counter-mode hash, neighbouring counters are separated by one
full avalanche mix, and ``tests/test_rng.py`` smoke-checks uniformity
(chi-squared) and cross-key independence.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Randomness policies of the vectorized engine.  ``"replay"`` replays
#: the reference runner's per-node streams (round-exact backend parity);
#: ``"decoupled"`` evaluates the counter-based hash of this module
#: (distributional parity, statistically enforced).
RNG_MODES = ("replay", "decoupled")

#: 2**64 wrap mask for the pure-Python key arithmetic below.  (NumPy
#: *array* uint64 ops wrap silently; Python-int scalar arithmetic is kept
#: exact and masked, avoiding NumPy's scalar-overflow warnings.)
_MASK64 = (1 << 64) - 1

#: The golden-ratio Weyl increment of splitmix64: multiplying a counter
#: by an odd constant with good bit dispersion keeps successive keys far
#: apart in Hamming distance before the finalizer mixes them.
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

#: Salt folded into the trial seed so that the trial-key sequence is not
#: the plain integers (seed 0 must not hash the raw zero word).
_SEED_SALT = 0x5851F42D4C957F2D

#: The splitmix64 finalizer's shifts and multipliers as NumPy scalars,
#: built once rather than on every round.
_SHIFT_A, _SHIFT_B, _SHIFT_C = np.uint64(30), np.uint64(27), np.uint64(31)
_MULT_A = np.uint64(0xBF58476D1CE4E5B9)
_MULT_B = np.uint64(0x94D049BB133111EB)

#: Rounds whose per-trial round states :meth:`DecoupledStreams.bits`
#: hashes in one pass: 1 KiB per trial, and the fixed cost of hashing
#: them is paid once per chunk instead of once per round.
_STATE_CHUNK = 128


def _mix64_int(value: int) -> int:
    """The splitmix64 finalizer on one Python integer (exact, masked)."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def mix64(words: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorized over a ``uint64`` array.

    A bijection on 64-bit words: every input bit affects every output
    bit (full avalanche), which is what makes nearby counters hash to
    independent-looking draws.  Overflow is the point -- all arithmetic
    is modulo 2**64.
    """
    words = np.asarray(words, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = (words ^ (words >> _SHIFT_A)) * _MULT_A
        words = (words ^ (words >> _SHIFT_B)) * _MULT_B
        return words ^ (words >> _SHIFT_C)


def bits_to_unit(bits: np.ndarray) -> np.ndarray:
    """Map ``uint64`` words to ``float64`` uniforms in ``[0, 1)``.

    Uses the top 53 bits (the float64 mantissa width), the standard
    construction: every representable value is hit with equal
    probability and the conversion is exact.
    """
    return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


class DecoupledStreams:
    """Counter-based per-(trial, round, node) uniforms for the engine.

    Drop-in alternative to
    :class:`~repro.simulation.vectorized.DrawStreams` under
    ``rng="decoupled"``: :meth:`uniforms` returns the full
    ``(trials, n)`` draw matrix of any round as a pure function of
    ``(seeds, round, node)`` -- no state advances, so the engine never
    tracks which nodes consumed a draw, and any process computing the
    same coordinates gets the same values.

    Parameters
    ----------
    seeds:
        One seed per trial, with the reference runner's semantics:
        a non-negative integer pins the trial's draws forever (a
        negative one is a :class:`~repro.errors.ConfigurationError`,
        not an alias of ``seed + 2**64``); ``None`` takes fresh OS
        entropy (the trial is then not reproducible, exactly like
        passing ``seed=None`` to the reference runner).
    num_nodes:
        Width of the node axis; node ``i`` (engine order) uses node key
        ``(i + 1) * GOLDEN_GAMMA``.
    """

    def __init__(
        self, seeds: Sequence[Optional[int]], num_nodes: int
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError(
                f"num_nodes must be >= 1, got {num_nodes}"
            )
        bases = []
        for seed in seeds:
            if seed is None:
                seed = int(
                    np.random.SeedSequence().generate_state(1, np.uint64)[0]
                )
            elif seed < 0:
                raise ConfigurationError(f"seed must be >= 0, got {seed}")
            bases.append(_mix64_int(int(seed) ^ _SEED_SALT))
        self._bases = np.array(bases, dtype=np.uint64).reshape(-1, 1)
        self._node_keys = (
            np.arange(1, num_nodes + 1, dtype=np.uint64)
            * np.uint64(GOLDEN_GAMMA)
        ).reshape(1, -1)
        self._num_nodes = num_nodes
        # Reusable output/scratch buffers for :meth:`bits` -- the engine
        # calls it once per round, and recycling the two (trials, n)
        # arrays keeps the hot loop allocation-free.
        self._buffer: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        # The round states of chunk ``_chunk`` of :data:`_STATE_CHUNK`
        # rounds: row ``k`` holds round ``_chunk * _STATE_CHUNK + k``.
        self._chunk = -1
        self._states: Optional[np.ndarray] = None

    @property
    def num_trials(self) -> int:
        return int(self._bases.shape[0])

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def bits(self, round_number: int) -> np.ndarray:
        """The raw ``uint64`` hash words of one round, ``(trials, n)``.

        Stateless: calling this for any round, any number of times, in
        any order, always returns the same values for the same seeds.
        The per-trial round states ``mix64(base + round_key)`` are
        hashed :data:`_STATE_CHUNK` rounds at a time, in one vectorized
        pass, and kept until a round outside that chunk is asked for, so
        a round costs only the node-axis finalizer.  The returned array
        is an internal buffer reused by the next call -- copy it if you
        need it to survive.
        """
        if round_number < 0:
            raise ConfigurationError(
                f"round_number must be >= 0, got {round_number}"
            )
        chunk, offset = divmod(round_number, _STATE_CHUNK)
        if chunk != self._chunk:
            first = chunk * _STATE_CHUNK + 1
            round_keys = mix64(
                np.arange(first, first + _STATE_CHUNK, dtype=np.uint64)
                * np.uint64(GOLDEN_GAMMA)
            )
            # Shape (_STATE_CHUNK, trials, 1): row ``k`` broadcasts
            # over the node axis.
            self._states = mix64(round_keys[:, None, None] + self._bases)
            self._chunk = chunk
        if self._buffer is None:
            shape = (self.num_trials, self._num_nodes)
            self._buffer = np.empty(shape, dtype=np.uint64)
            self._scratch = np.empty(shape, dtype=np.uint64)
        out, tmp = self._buffer, self._scratch
        # The splitmix64 finalizer of :func:`mix64`, unrolled onto the
        # reusable buffers (same values, zero allocations).  Array
        # arithmetic wraps modulo 2**64 without a warning.
        np.add(self._states[offset], self._node_keys, out=out)
        np.right_shift(out, _SHIFT_A, out=tmp)
        out ^= tmp
        out *= _MULT_A
        np.right_shift(out, _SHIFT_B, out=tmp)
        out ^= tmp
        out *= _MULT_B
        np.right_shift(out, _SHIFT_C, out=tmp)
        out ^= tmp
        return out

    def uniforms(self, round_number: int) -> np.ndarray:
        """The ``(trials, num_nodes)`` uniform draws of one round."""
        return bits_to_unit(self.bits(round_number))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecoupledStreams(trials={self.num_trials}, "
            f"n={self._num_nodes})"
        )
