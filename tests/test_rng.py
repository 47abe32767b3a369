"""Property tests and golden pins for the decoupled counter rng.

``repro.simulation.rng`` is load-bearing in a way ordinary library code
is not: every decoupled benchmark artifact's numbers are a pure function
of these hashes, so *any* change to the mixing constants or key
derivation silently invalidates every committed ``BENCH_*-decoupled``
artifact.  The golden-value tests below pin the draw function bit-for-
bit; the property tests pin the contracts the engine relies on
(statelessness, cross-process determinism, stream independence,
uniformity).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from stats import chi_squared_uniform, ks_2samp
from repro.errors import ConfigurationError
from repro.simulation.rng import (
    _SEED_SALT,
    GOLDEN_GAMMA,
    RNG_MODES,
    DecoupledStreams,
    _mix64_int,
    bits_to_unit,
    mix64,
)


class TestMix64:
    def test_golden_values(self):
        # Pinned outputs of the splitmix64 finalizer.  If these change,
        # every committed decoupled benchmark artifact is invalidated.
        assert _mix64_int(0) == 0x0
        assert _mix64_int(1) == 0x5692161D100B05E5
        assert _mix64_int(GOLDEN_GAMMA) == 0xE220A8397B1DCDAF

    def test_vectorized_matches_scalar(self):
        words = np.array(
            [0, 1, 2, 12345, 2**63, 2**64 - 1, GOLDEN_GAMMA],
            dtype=np.uint64,
        )
        mixed = mix64(words)
        for word, out in zip(words.tolist(), mixed.tolist()):
            assert out == _mix64_int(int(word))

    def test_bijection_no_collisions_on_sample(self):
        words = np.arange(100_000, dtype=np.uint64)
        assert np.unique(mix64(words)).size == words.size

    def test_avalanche_single_bit_flip(self):
        # Flipping one input bit should flip ~32 output bits.
        base = mix64(np.array([1234567], dtype=np.uint64))[0]
        flipped_bits = []
        for bit in range(64):
            other = mix64(
                np.array([1234567 ^ (1 << bit)], dtype=np.uint64)
            )[0]
            flipped_bits.append(bin(int(base) ^ int(other)).count("1"))
        mean = sum(flipped_bits) / len(flipped_bits)
        assert 24.0 < mean < 40.0


class TestBitsToUnit:
    def test_range_and_endpoints(self):
        bits = np.array([0, 2**64 - 1, 1 << 11], dtype=np.uint64)
        units = bits_to_unit(bits)
        assert units[0] == 0.0
        assert units[1] == (2**53 - 1) * 2.0**-53 < 1.0
        assert units[2] == 2.0**-53


#: The full (trials=2, n=4) draw matrices of seeds [0, 1] in two
#: rounds, pinned to the last ulp.  These values define the decoupled
#: mode.
GOLDEN_UNIFORMS = {
    0: np.array([
        [0.15815688545757012, 0.6191525895482561,
         0.564147401538553, 0.5232343667711707],
        [0.8312489656618005, 0.3348275514550224,
         0.19883222234584297, 0.14804321792011044],
    ]),
    5: np.array([
        [0.0049330649056927856, 0.7357380814785017,
         0.36763275053956457, 0.7962038423965269],
        [0.54646272661866, 0.717181904998084,
         0.9367422019502148, 0.814740466913291],
    ]),
}


def words_by_formula(seeds, round_number, num_nodes):
    """One round's words from the module docstring's formula, in
    Python integers, one (trial, node) at a time."""
    round_key = _mix64_int((round_number + 1) * GOLDEN_GAMMA)
    rows = []
    for seed in seeds:
        state = _mix64_int(_mix64_int(seed ^ _SEED_SALT) + round_key)
        rows.append([
            _mix64_int(state + (node + 1) * GOLDEN_GAMMA)
            for node in range(num_nodes)
        ])
    return np.array(rows, dtype=np.uint64)


class TestDecoupledStreams:
    def test_golden_uniforms(self):
        streams = DecoupledStreams([0, 1], num_nodes=4)
        for round_number, expected in GOLDEN_UNIFORMS.items():
            np.testing.assert_array_equal(
                streams.uniforms(round_number), expected
            )

    def test_chunked_round_states_in_any_order(self):
        # Round states are hashed a chunk of 128 rounds at a time; reads
        # that jump between chunks, backwards and within one must each
        # equal a fresh instance, the per-round formula and the goldens.
        seeds = [0, 1]
        streams = DecoupledStreams(seeds, num_nodes=4)
        for round_number in (0, 127, 128, 255, 3, 1000, 129, 5, 0):
            words = streams.bits(round_number).copy()
            fresh = DecoupledStreams(seeds, num_nodes=4)
            np.testing.assert_array_equal(words, fresh.bits(round_number))
            np.testing.assert_array_equal(
                words, words_by_formula(seeds, round_number, 4)
            )
            if round_number in GOLDEN_UNIFORMS:
                np.testing.assert_array_equal(
                    bits_to_unit(words), GOLDEN_UNIFORMS[round_number]
                )

    def test_stop_early_word_decides_power_of_two_limits_alike(self):
        # ``bits(r, stop_early=True)`` is the word before the
        # finalizer's last step ``x ^ (x >> 31)``, which keeps a word's
        # highest set bit where it was: against every limit 2**j - 1,
        # j = 0..64, the early and the full word decide ``word <= limit``
        # alike.  Hash words almost never lie below a small limit, so
        # random words shifted to put their highest set bit anywhere
        # join them.
        limits = [np.uint64((1 << j) - 1) for j in range(65)]
        streams = DecoupledStreams([0, 1, 2**40], num_nodes=512)
        rng = np.random.default_rng(33)
        random = np.frombuffer(rng.bytes(8 * 4096), dtype=np.uint64)
        random = random >> rng.integers(0, 64, random.size, dtype=np.uint64)
        for round_number in (0, 1, 200):
            early = streams.bits(round_number, stop_early=True).copy()
            full = streams.bits(round_number)
            np.testing.assert_array_equal(
                full, early ^ (early >> np.uint64(31))
            )
            for words, finished in (
                (early, full), (random, random ^ (random >> np.uint64(31))),
            ):
                for limit in limits:
                    np.testing.assert_array_equal(
                        words <= limit, finished <= limit
                    )

    def test_stateless_any_order(self):
        streams = DecoupledStreams([7, 8, 9], num_nodes=32)
        forward = [streams.uniforms(r).copy() for r in range(6)]
        # Re-reading in reverse, with repeats, changes nothing.
        for r in (5, 2, 2, 0, 4, 1, 3, 0):
            np.testing.assert_array_equal(streams.uniforms(r), forward[r])

    def test_same_seed_same_draws(self):
        a = DecoupledStreams([42], num_nodes=100)
        b = DecoupledStreams([42], num_nodes=100)
        for r in (0, 3, 1000):
            np.testing.assert_array_equal(a.uniforms(r), b.uniforms(r))

    def test_trial_rows_are_independent_of_batch(self):
        # Trial draws depend only on the trial's own seed: slicing a
        # batch differently cannot change any row.  This is what makes
        # process-sharding of seed batches sound.
        batch = DecoupledStreams([10, 11, 12, 13], num_nodes=16)
        solo = DecoupledStreams([12], num_nodes=16)
        np.testing.assert_array_equal(
            batch.uniforms(9)[2], solo.uniforms(9)[0]
        )

    def test_cross_process_determinism(self):
        code = (
            "import numpy as np;"
            "from repro.simulation.rng import DecoupledStreams;"
            "s = DecoupledStreams([123, 456], num_nodes=8);"
            "print(repr(s.uniforms(17).tolist()))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(hash_seed)},
            ).stdout
            for hash_seed in ("0", "1")
        }
        assert len(outputs) == 1
        local = DecoupledStreams([123, 456], num_nodes=8)
        assert eval(outputs.pop()) == local.uniforms(17).tolist()

    def test_bits_buffer_is_reused(self):
        # Documented sharp edge: bits() returns an internal buffer.
        streams = DecoupledStreams([5], num_nodes=8)
        first = streams.bits(0)
        kept = first.copy()
        second = streams.bits(1)
        assert second is first  # same buffer object
        assert not np.array_equal(kept, second)

    def test_mantissas_match_uniforms(self):
        # A uniform is its hash word's top 53 bits over 2**53.
        streams = DecoupledStreams([3], num_nodes=64)
        mantissas = streams.bits(4) >> np.uint64(11)
        np.testing.assert_array_equal(
            mantissas.astype(np.float64) * 2.0**-53, streams.uniforms(4)
        )

    def test_none_seed_draws_fresh_entropy(self):
        a = DecoupledStreams([None], num_nodes=4)
        b = DecoupledStreams([None], num_nodes=4)
        assert not np.array_equal(a.uniforms(0), b.uniforms(0))

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="num_nodes"):
            DecoupledStreams([1], num_nodes=0)
        with pytest.raises(ConfigurationError, match="round_number"):
            DecoupledStreams([1], num_nodes=4).bits(-1)
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            DecoupledStreams([1, -1], num_nodes=4)

    def test_rng_modes_constant(self):
        assert RNG_MODES == ("replay", "decoupled")


class TestDrawQuality:
    """Statistical smoke checks on the counter hash (fixed seeds)."""

    def test_marginal_uniformity(self):
        streams = DecoupledStreams(list(range(4)), num_nodes=4096)
        draws = np.concatenate(
            [streams.uniforms(r).ravel() for r in range(4)]
        )
        _, p_value = chi_squared_uniform(draws, bins=64)
        assert p_value > 0.001

    def test_round_streams_independent(self):
        # Draws of adjacent rounds must be uncorrelated: a counter rng
        # whose round keys alias would show up here immediately.
        streams = DecoupledStreams([99], num_nodes=50_000)
        a = streams.uniforms(7).ravel().copy()
        b = streams.uniforms(8).ravel()
        correlation = float(np.corrcoef(a, b)[0, 1])
        assert abs(correlation) < 0.02

    def test_node_streams_independent(self):
        # Adjacent node columns across many rounds.
        streams = DecoupledStreams([1234], num_nodes=2)
        a = np.array([streams.uniforms(r)[0, 0] for r in range(4000)])
        b = np.array([streams.uniforms(r)[0, 1] for r in range(4000)])
        correlation = float(np.corrcoef(a, b)[0, 1])
        assert abs(correlation) < 0.05

    def test_trial_streams_distributionally_identical(self):
        # Different seeds, same distribution (KS on two trials' draws).
        streams = DecoupledStreams([555, 777], num_nodes=5000)
        draws = streams.uniforms(0)
        _, p_value = ks_2samp(draws[0], draws[1])
        assert p_value > 0.001
