"""NumPy-vectorized batch simulation of Compete-style message floods.

:class:`~repro.simulation.runner.ProtocolRunner` advances one node at a
time in pure Python -- ideal for auditing the model, far too slow for the
benchmark sweeps the ROADMAP calls for.  This module is the fast path:
one synchronous round of the whole network (and of a whole *batch* of
independent trials) is a short, fixed sequence of NumPy operations over
flat ``trials * n`` arrays.

The engine exploits a structural fact about the Compete dynamics
(:mod:`repro.core.compete`): the only messages ever on the air are the
initial candidate/dummy messages, and nodes compare them through the
total order of :meth:`repro.network.messages.Message.sort_key`.  Ranking
the messages once up front (Compete ranks the dummies, which share one
value, by their source's key alone) therefore reduces every node's
state to a single integer -- the *rank* of the best message it knows
(0 = knows nothing) -- and a block of ``K`` rounds becomes:

* ``transmit[k] = informed & (uniform_draw[k] < p[round + k])`` for
  each round of the block (the per-node transmission schedule; the
  classical uniform Decay rule ``p = 2^-step`` is one instance),
* ``counts, source`` from one call of the CSR kernel of
  :mod:`repro.simulation.sparse` over ``K * trials`` copies of the
  graph: per listener and round, how many neighbours transmit and,
  where exactly one does, which one,
* then, round by round, ``rank = max(rank, rank[source])`` for
  listeners that hear exactly one transmitter and are not transmitting
  themselves (adopt-if-higher, reading the transmitter's rank as of
  that round), written only at the indices that improve.

``K > 1`` only where the transmit masks cannot depend on adoptions:
when every node of every running trial holds a message at round 0
(every spontaneous run), every node draws in every round.  ``K`` is
then the largest power of two up to 128 with ``K * trials * n`` inside
a lane budget; otherwise, and past the budget, ``K = 1``.  Metric
counters accumulate per node, each block's masks cut at each trial's
last round, and are reduced once after the loop.  Under
:mod:`repro.dynamics` each block reads its rounds' fault rows in one
call, shared by every trial, and the fault counters are one cumulative
sum of the schedule's memoized per-round totals.

Round-exact equivalence with the reference runner
-------------------------------------------------
The engine is a *drop-in* backend, not an approximation: for the same
graph, candidates and seed it reproduces the reference simulation round
for round -- same transmissions, same receptions, same adoption rounds,
same metric counters.  The one subtle requirement is randomness: the
reference gives each node a private generator from
``SeedSequence(seed).spawn(n)`` (:func:`~repro.simulation.runner.spawn_node_rngs`)
and a node consumes exactly one uniform draw per round *while it holds a
message* (uninformed nodes listen without drawing).  :class:`DrawStreams`
replays those per-node streams: the same ``SeedSequence.spawn``
children, whose PCG64 seed words :func:`spawned_seed_words` computes for
all ``n`` nodes of a trial in one NumPy pass instead of through ``n``
``SeedSequence`` objects.  It pre-draws blocks per node and consumes
them one element per informed round, so the k-th decision of every node
matches the reference's k-th decision exactly.  In a spontaneous run
every stream draws every round, so the streams advance in lockstep and
:meth:`DrawStreams.transmit_rows` stores each draw as its one-byte
transmit decision, up to 1024 rounds per generator call, in a store
whose rows are rounds.  The reference runner keeps NumPy's own
``SeedSequence``, so ``tests/test_engine_equivalence.py`` cross-checks
the seeding as well as the rounds, across topology families, strategies
and fault models.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import Graph
from repro.network.metrics import NetworkMetrics
from repro.schedules.transmission import TransmissionSchedule
from repro.simulation.rng import RNG_MODES, DecoupledStreams
from repro.simulation.sparse import CSRAdjacency

#: Rank value meaning "this node knows no message yet".
NO_MESSAGE = 0

#: Uniform draws pre-fetched per (trial, node) stream by the replay
#: path, and the width of a lockstep store's first refill.  A float
#: buffer of ``trials * n * block * 8`` bytes ran no faster at 512 or
#: 2048; lockstep refills keep one byte per draw, so they grow past it.
DEFAULT_DRAW_BLOCK = 128

#: The widest lockstep refill: 1024 one-byte decisions per stream take
#: the bytes of 128 float draws, and a generator call spends 5.4 ns per
#: draw at 1024 draws against 15 ns at 128.
_LOCKSTEP_WIDTH_CAP = 1024

#: Streams per chunk of a lockstep refill, compared in contiguous
#: buffers and then written into the round-major store transposed.
_REFILL_CHUNK = 64

#: The lanes (rounds x trials x nodes) one channel block may span.  A
#: block of ``K`` rounds is the largest power of two up to
#: :data:`DEFAULT_DRAW_BLOCK` with ``K * trials * n`` inside it; past
#: it ``K = 1``.  Of budgets from 4096 to 32768, 16384 ran batches of
#: ``n = 64`` to 4096 fastest on a 2-vCPU VM.
_BLOCK_LANES = 16384

#: NumPy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``):
#: the entropy pool size, the two hash-constant sequences (``A`` mixes
#: entropy into the pool, ``B`` draws the output state from it) and the
#: multipliers of ``mix``.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const: int, multiplier: int):
    """NumPy's ``hashmix`` on a Python int or a ``uint32`` array.

    Returns the mixed value and the next hash constant.
    """
    next_const = (hash_const * multiplier) & _MASK32
    value = ((value ^ hash_const) * next_const) & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x: int, y):
    """NumPy's ``mix`` of pool word ``x`` (a Python int) with ``y``."""
    result = (((_MIX_MULT_L * x) & _MASK32) - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def spawned_seed_words(entropy: int, num_children: int) -> np.ndarray:
    """The PCG64 seed words of every child of a spawned ``SeedSequence``.

    Row ``i`` of the ``(num_children, 4)`` ``uint64`` result equals
    ``SeedSequence(entropy).spawn(num_children)[i].generate_state(4,
    np.uint64)`` bit for bit.  A child's entropy is the parent's words,
    zero-padded to the pool size, followed by its spawn key ``i``.  Every
    pool step before the spawn key is the same for all children, so it
    runs once on Python ints; only the four spawn-key mixing steps and
    the eight output words run over the children, as ``uint32`` lanes.
    """
    entropy = operator.index(entropy)
    if entropy < 0:
        raise ValueError(f"entropy must be non-negative, got {entropy}")
    words = [entropy & _MASK32]
    while entropy >> 32:
        entropy >>= 32
        words.append(entropy & _MASK32)
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    # Spawn key ``i`` is the one word of ``i`` (nodes number < 2**32).
    keys = np.arange(num_children, dtype=np.uint32)
    children = []
    for dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(keys, hash_const, _MULT_A)
        children.append(_mix(pool[dst], value))
    # ``generate_state(4, np.uint64)``: eight 32-bit words cycling over
    # the pool, joined little-endian in pairs.
    hash_const = _INIT_B
    state = []
    for index in range(2 * _POOL_SIZE):
        value, hash_const = _hashmix(
            children[index % _POOL_SIZE], hash_const, _MULT_B
        )
        state.append(value.astype(np.uint64))
    low, high = np.stack(state[0::2], axis=1), np.stack(state[1::2], axis=1)
    return low | (high << np.uint64(32))


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands ``PCG64`` seed words that were computed in advance."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(
                "only PCG64's request for 4 uint64 words is precomputed, "
                f"got {n_words} x {np.dtype(dtype)}"
            )
        return self._words


class DrawStreams:
    """Replays the reference runner's per-node uniform draw streams, batched.

    One stream per (trial, node) pair, seeded exactly like
    :func:`~repro.simulation.runner.spawn_node_rngs`: stream ``i`` of
    trial ``t`` draws from ``default_rng`` of the i-th child of
    ``SeedSequence(seeds[t]).spawn(num_nodes)``.  The children's seed
    words come from :func:`spawned_seed_words`, one NumPy pass per trial;
    a ``None`` seed still takes fresh OS entropy and a negative one still
    raises, because each trial's entropy is read from
    ``SeedSequence(seeds[t])``.  :meth:`take` hands out the next element
    of each requested stream, from ``block`` floats per stream; streams
    not requested in a round advance by nothing, mirroring a listening
    (uninformed) node.  When every stream draws every round, the streams
    advance in lockstep and :meth:`transmit_rows` stores each draw as
    its transmit decision, in refills that start ``block`` rounds wide
    and double up to :data:`_LOCKSTEP_WIDTH_CAP`.  One instance is
    driven by one of the two methods, never both.
    """

    def __init__(
        self,
        seeds: Sequence[Optional[int]],
        num_nodes: int,
        block: int = DEFAULT_DRAW_BLOCK,
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if block < 1:
            raise ConfigurationError(f"block must be >= 1, got {block}")
        self._block = block
        self._num_nodes = num_nodes
        self._generators = [
            np.random.Generator(np.random.PCG64(_SeedWords(words)))
            for seed in seeds
            for words in spawned_seed_words(
                np.random.SeedSequence(seed).entropy, num_nodes
            )
        ]
        self._buffer = None
        # Rows ``[row, filled)`` of :meth:`transmit_rows`' store are not
        # handed out yet; ``next_round`` is the next refill's first.
        self._store = None
        self._row = self._filled = self._next_round = 0

    def take(self, wanted: np.ndarray) -> np.ndarray:
        """Return the next draw of every stream where ``wanted`` is True.

        ``wanted`` is a flat boolean array over the ``trials * num_nodes``
        streams.  The result has the same shape, with ``nan`` in positions
        that were not requested (callers use the draws only in comparisons,
        where ``nan`` compares False).
        """
        if self._buffer is None:
            block, count = self._block, len(self._generators)
            self._buffer = np.empty((count, block), dtype=np.float64)
            for generator, row in zip(self._generators, self._buffer):
                generator.random(out=row)
            # Stream ``i``'s next draw is ``flat[cursor[i]]``; the cursor
            # stays inside row ``i``, in ``[i * block, row_end[i])``.
            self._flat = self._buffer.reshape(-1)
            self._cursor = np.arange(count, dtype=np.int64) * block
            self._row_end = self._cursor + block
        cursor = self._cursor
        draws = np.where(wanted, self._flat[cursor], np.nan)
        cursor += wanted
        # A row is refilled as soon as its last draw is handed out, which
        # keeps every cursor inside its row.  Each generator feeds only
        # its own row, so refilling early changes no draw.
        exhausted = (cursor == self._row_end).nonzero()[0]
        if exhausted.size:
            for row in exhausted.tolist():
                self._generators[row].random(out=self._buffer[row])
            cursor[exhausted] -= self._block
        return draws

    def transmit_rows(self, probabilities, rounds: int) -> np.ndarray:
        """Return every stream's transmit decisions of the next ``rounds``.

        ``probabilities`` is the ``(cycle_length, num_nodes)`` schedule,
        the same on every call.  Row ``k`` of the ``(rounds, trials *
        num_nodes)`` result holds ``draw < probabilities[r % cycle_length,
        i % num_nodes]`` for each stream ``i``, where ``r`` is the ``k``-th
        round not handed out yet.  It is a view of the store, valid until
        the next call, or a copy where the rounds cross a refill.
        """
        parts = []
        while rounds:
            if self._row == self._filled:
                self._refill_rows(probabilities)
            width = min(rounds, self._filled - self._row)
            part = self._store[self._row:self._row + width]
            rounds -= width
            self._row += width
            # A later refill in this call would overwrite the view.
            parts.append(part.copy() if rounds else part)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _refill_rows(self, probabilities: np.ndarray) -> None:
        """Draw the next rounds of every stream into the store, as bits."""
        num_nodes, generators = self._num_nodes, self._generators
        if self._store is None:
            capacity = max(self._block, _LOCKSTEP_WIDTH_CAP)
            self._store = np.empty((capacity, len(generators)), dtype=bool)
            # Each node's cycle as one contiguous row, gathered by phase.
            self._node_cycles = np.ascontiguousarray(probabilities.T)
            width = self._block
        else:
            width = min(2 * self._filled, len(self._store))
        if width != self._filled:
            # Thresholds, draws and bits of one chunk of streams, sized
            # anew only while the width grows: a short run keeps less.
            size = min(_REFILL_CHUNK, num_nodes) * width
            self._chunk_buffers = (
                np.empty(size), np.empty(size), np.empty(size, dtype=bool)
            )
        # ``take``'s "wrap" mode wraps by repeated subtraction, so the
        # phases are reduced here.
        phases = np.arange(self._next_round, self._next_round + width)
        phases %= self._node_cycles.shape[1]
        # Streams run trial-major, so a chunk of nodes has the same
        # thresholds in every trial: gather them once, then fill and
        # compare each trial's chunk in contiguous buffers, and write its
        # transpose into the round-major store.
        for low in range(0, num_nodes, _REFILL_CHUNK):
            count = min(_REFILL_CHUNK, num_nodes - low)
            limits, draws, bits = (
                buffer[:count * width].reshape(count, width)
                for buffer in self._chunk_buffers
            )
            np.take(
                self._node_cycles[low:low + count], phases, axis=1,
                out=limits, mode="clip",
            )
            for first in range(low, len(generators), num_nodes):
                chunk = generators[first:first + count]
                for generator, row in zip(chunk, draws):
                    generator.random(out=row)
                np.less(draws, limits, out=bits)
                self._store[:width, first:first + count] = bits.T
        self._next_round += width
        self._filled, self._row = width, 0


@dataclasses.dataclass(frozen=True)
class BatchOutcome:
    """Per-trial outcome arrays of one :meth:`VectorizedCompeteEngine.run_batch`.

    All arrays share the trial axis; per-node arrays are aligned with
    :attr:`nodes` (the graph's insertion order).

    Attributes
    ----------
    nodes:
        Node order of the per-node axes.
    rounds:
        Rounds executed per trial (a trial stops as soon as it saturates).
    saturated:
        Whether every node ended the trial holding ``winner_rank``.
    final_ranks:
        Each node's final best-message rank (:data:`NO_MESSAGE` = none).
    adopted_rounds:
        Round in which each node adopted its final rank; ``-1`` for ranks
        held since before round 0.  Meaningful only where ``final_ranks``
        is not :data:`NO_MESSAGE`.
    transmissions / receptions / collisions / idle_listens:
        Per-trial metric counters with exactly the semantics of
        :class:`~repro.network.metrics.NetworkMetrics`.
    suppressed_links / crashed_nodes / jammed_listens:
        Per-trial fault counters (:mod:`repro.dynamics`), all zero on
        static runs.
    """

    nodes: tuple
    rounds: np.ndarray
    saturated: np.ndarray
    final_ranks: np.ndarray
    adopted_rounds: np.ndarray
    transmissions: np.ndarray
    receptions: np.ndarray
    collisions: np.ndarray
    idle_listens: np.ndarray
    suppressed_links: np.ndarray
    crashed_nodes: np.ndarray
    jammed_listens: np.ndarray

    @property
    def num_trials(self) -> int:
        return int(self.rounds.shape[0])

    def metrics(self, trial: int) -> NetworkMetrics:
        """Return one trial's counters as a :class:`NetworkMetrics`."""
        return NetworkMetrics(
            rounds=int(self.rounds[trial]),
            transmissions=int(self.transmissions[trial]),
            receptions=int(self.receptions[trial]),
            collisions=int(self.collisions[trial]),
            idle_listens=int(self.idle_listens[trial]),
            suppressed_links=int(self.suppressed_links[trial]),
            crashed_nodes=int(self.crashed_nodes[trial]),
            jammed_listens=int(self.jammed_listens[trial]),
        )


class VectorizedCompeteEngine:
    """Batch-simulates the Compete dynamics on one fixed topology.

    Parameters
    ----------
    graph:
        The communication graph.  Its adjacency structure is snapshotted
        once at construction, in CSR form.
    schedule:
        A :class:`~repro.schedules.transmission.TransmissionSchedule`
        assigning each node its own periodic probability cycle: the
        uniform Decay cycle for the skeleton strategy
        (:func:`~repro.schedules.transmission.uniform_decay_schedule`),
        cost-charged cycles for the clustered one.  The schedule must
        cover every node of the graph.
    max_rounds:
        Round budget per trial.
    rng:
        Randomness policy, one of
        :data:`repro.simulation.rng.RNG_MODES`.  ``"replay"`` (the
        default) replays the reference runner's per-node streams via
        :class:`DrawStreams` -- the round-exact parity mode this
        docstring describes.  ``"decoupled"`` evaluates the stateless
        counter-based hash of
        :class:`~repro.simulation.rng.DecoupledStreams` instead: much
        faster at large ``n``, still exactly reproducible from the
        seeds, but only *distributionally* equivalent to the reference
        (``tests/test_rng_decoupled.py`` enforces that contract
        statistically).
    dynamics:
        Optional :class:`repro.dynamics.FaultSchedule` bound to this
        graph.  Each block of rounds the engine reads the schedule's
        fault rows and applies them to the channel: crashed nodes neither
        transmit nor receive, down links are masked out of the kernel's
        CSR entries, and jammed alive listeners receive nothing.  Fault
        decisions are pure counter hashes shared with the reference
        runner, so the round-exact equivalence contract extends to
        faulty runs unchanged.

    :meth:`repro.api.ResolvedExecution.build_engine` builds the engine a
    config describes.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        schedule: TransmissionSchedule,
        max_rounds: int,
        rng: str = "replay",
        dynamics=None,
    ) -> None:
        if max_rounds < 0:
            raise ConfigurationError(f"max_rounds must be >= 0, got {max_rounds}")
        if rng not in RNG_MODES:
            raise ConfigurationError(
                f"rng must be one of {RNG_MODES}, got {rng!r}"
            )
        self._rng = rng
        self._csr, nodes = CSRAdjacency.from_graph(graph)
        self._nodes = tuple(nodes)
        self._dynamics = dynamics
        if dynamics is not None and tuple(dynamics.nodes) != self._nodes:
            raise ConfigurationError(
                "dynamics was compiled for a different node order; "
                "build the FaultSchedule from the same graph as the "
                "engine"
            )
        # One row of per-node probabilities per round of the cycle; the
        # run loop indexes row ``round % cycle_length``.
        self._probabilities = schedule.probability_matrix(nodes)
        self._max_rounds = max_rounds
        if rng == "decoupled":
            # Pre-scale the probability cycle to inclusive integer limits
            # so the hot loop compares the raw hash words directly: with
            # draw mantissa ``m = bits >> 11``, ``m * 2**-53 < p`` iff
            # ``m < t = ceil(p * 2**53)`` iff ``bits <= (t << 11) - 1``.
            # At ``p = 1`` that limit is 2**64 - 1, so every word
            # transmits; it is set directly, as ``t << 11`` would wrap.
            mantissa_limits = np.ceil(
                self._probabilities * 2.0 ** 53
            ).astype(np.uint64)
            self._limits = np.where(
                self._probabilities < 1.0,
                (mantissa_limits << np.uint64(11)) - np.uint64(1),
                np.iinfo(np.uint64).max,
            )
        else:
            self._limits = None

    @property
    def nodes(self) -> tuple:
        """Node order of the engine's per-node axes."""
        return self._nodes

    @property
    def rng(self) -> str:
        """The randomness policy: ``"replay"`` or ``"decoupled"``."""
        return self._rng

    def run_batch(
        self,
        initial_ranks: np.ndarray,
        winner_rank: Optional[int],
        seeds: Sequence[Optional[int]],
    ) -> BatchOutcome:
        """Run one seeded trial per row of ``initial_ranks``.

        Parameters
        ----------
        initial_ranks:
            Integer array of shape ``(trials, n)``: each node's starting
            message rank (:data:`NO_MESSAGE` for nodes that know nothing),
            aligned with :attr:`nodes`.  Any ``int64`` rank is exact.
        winner_rank:
            The rank whose saturation ends a trial early, or ``None`` to
            always run the full budget (the no-candidate case, where the
            reference run can never succeed either).
        seeds:
            One seed per trial, consumed exactly like the reference
            runner's ``seed`` argument.
        """
        ranks = np.array(initial_ranks, dtype=np.int64)
        num_nodes = len(self._nodes)
        if ranks.ndim != 2 or ranks.shape[1] != num_nodes:
            raise ConfigurationError(
                "initial_ranks must have shape (trials, "
                f"{num_nodes}), got {ranks.shape}"
            )
        num_trials = ranks.shape[0]
        if len(seeds) != num_trials:
            raise ConfigurationError(
                f"got {len(seeds)} seeds for {num_trials} trials"
            )
        if (ranks < NO_MESSAGE).any():
            raise ConfigurationError("ranks must be >= 0 (0 = no message)")

        # Flat (trial-major) views: node ``v`` of trial ``t`` is index
        # ``t * n + v`` in every per-node array below.
        flat_ranks = ranks.reshape(-1)
        adopted = np.full(ranks.shape, -1, dtype=np.int64)
        flat_adopted = adopted.reshape(-1)
        if winner_rank is None:
            saturated = np.zeros(num_trials, dtype=bool)
        else:
            saturated = (ranks == winner_rank).all(axis=1)
        # Rounds each trial runs.  A trial with no informed node can
        # never transmit again (ranks only grow through receptions), so
        # its whole remaining schedule is provably silent and it is
        # charged the full budget without being simulated -- what makes
        # candidate-less leader-election attempts near-free.
        informed = ranks > NO_MESSAGE
        rounds = np.where(saturated, 0, self._max_rounds)
        running = ~saturated & informed.any(axis=1)
        # The nodes that draw this round: informed nodes of running
        # trials.  Updated where a node improves and where a trial stops.
        wanted = informed & running[:, None]
        flat_wanted = wanted.reshape(-1)
        # Per-node counters of the rounds each node transmitted,
        # received, heard a collision, and transmitted while jammed.
        # Rounds add their bool masks into uint8 counters (a same-type
        # add, several times cheaper than one into int64), which move
        # into the int64 totals every 255 rounds, before they can wrap.
        totals = np.zeros((4,) + ranks.shape, dtype=np.int64)
        counters = np.zeros((4,) + ranks.shape, dtype=np.uint8)
        jammed_sent = counters[3]

        kernel = self._csr.transmitter_counts_and_rank_sums
        replay = self._rng == "replay"
        loop_rounds = self._max_rounds if running.any() else 0
        if loop_rounds and replay:
            streams = DrawStreams(seeds, num_nodes)
        elif loop_rounds:
            streams = DecoupledStreams(seeds, num_nodes)
        # When every node of every running trial holds a message at
        # round 0 (every spontaneous run), every node draws every round,
        # so the replay streams advance in lockstep, and who transmits
        # and who hears exactly one transmitter do not depend on ranks.
        # The rounds then run in blocks: one draw comparison and one
        # kernel call over ``block * trials`` copies of the graph per
        # block; only adoption runs round by round.
        lanes = num_trials * num_nodes
        lockstep = bool(informed[running].all())
        block = 1
        while (
            lockstep and block < DEFAULT_DRAW_BLOCK
            and 2 * block * lanes <= _BLOCK_LANES
        ):
            block *= 2
        # Each block's transmit, receive and collide masks, one row per
        # round: they add into the first three counters together.
        masks = np.empty((3, block) + ranks.shape, dtype=bool)
        thresholds = self._probabilities if replay else self._limits
        cycle_length = thresholds.shape[0]
        if block > 1 and not replay:
            # Rows ``round % cycle_length`` of a block's rounds, as one
            # slice wherever the block starts in the cycle.
            thresholds = thresholds.take(
                range(cycle_length + block - 1), axis=0, mode="wrap"
            )
        flushed = 0
        finished = False
        for start in range(0, loop_rounds, block):
            size = min(block, loop_rounds - start)
            if start + size - flushed > 255:
                totals += counters
                counters.fill(0)
                flushed = start
            first = start % cycle_length
            block_masks = masks[:, :size]
            transmit = block_masks[0]
            if not replay:
                window = thresholds[first:first + size]
                for k in range(size):
                    np.less_equal(
                        streams.bits(start + k), window[k], out=transmit[k]
                    )
                transmit &= wanted
            elif lockstep:
                # Stopped trials draw on in lockstep but send nothing.
                decisions = streams.transmit_rows(self._probabilities, size)
                np.logical_and(
                    decisions.reshape(transmit.shape), wanted, out=transmit
                )
            else:
                # Requested draws compare against the probability row;
                # the rest are nan, which compares False.
                draws = streams.take(flat_wanted).reshape(ranks.shape)
                np.less(draws, thresholds[first], out=transmit[0])

            entry_mask = None
            if self._dynamics is not None:
                # The block's fault rows, one per round, broadcast over
                # the trials.  Crash suppression happens *after* the
                # draws above were taken: a crashed node's stream still
                # advances exactly as in the reference runner, where the
                # protocol draws and the network drops the transmission.
                alive, jammed, edge_up = self._dynamics.block(start, size)
                transmit &= alive[:, None]
                listening = ~transmit
                listening &= (alive & ~jammed)[:, None]
                if edge_up is not None:
                    entry_mask = edge_up[:, self._dynamics.entry_edge_ids]
            else:
                listening = ~transmit

            counts, source = kernel(
                transmit.reshape(-1, num_nodes), entry_mask
            )
            counts = counts.reshape(transmit.shape)
            source = source.reshape(size, lanes)
            received, collided = block_masks[1], block_masks[2]
            # Half-duplex: a transmitter hears nothing this round, and
            # crashed or jammed nodes hear nothing either.
            np.equal(counts, 1, out=received)
            received &= listening
            np.greater(counts, 1, out=collided)
            collided &= listening
            for k in range(size):
                heard_now = received[k].ravel().nonzero()[0]
                if heard_now.size == 0:
                    continue
                # Adopt-if-higher, reading each transmitter's rank as of
                # this round: copy ``k * trials + t`` is trial ``t``.
                senders = source[k].take(heard_now)
                if k:
                    senders -= k * lanes
                gained = flat_ranks.take(senders)
                better = gained > flat_ranks.take(heard_now)
                improved = heard_now.compress(better)
                if improved.size == 0:
                    continue
                gained = gained.compress(better)
                flat_ranks[improved] = gained
                flat_adopted[improved] = start + k
                flat_wanted[improved] = True
                # A trial saturates only in a round where its last node
                # adopts the winner rank, so only then is it rechecked
                # (callers pass the top rank, so ``>=`` means adopted).
                if winner_rank is not None and gained.max() >= winner_rank:
                    done = running & (ranks == winner_rank).all(axis=1)
                    if done.any():
                        saturated |= done
                        rounds[done] = start + k + 1
                        running &= ~done
                        wanted[done] = False
                        # The block's later rounds are past these
                        # trials' last one: they count for nothing.
                        block_masks[:, k + 1:, done] = False
                        finished = not running.any()
                        if finished:
                            break
            _add_rounds(counters[:3], block_masks)
            if self._dynamics is not None:
                _add_rounds(jammed_sent, transmit & jammed[:, None])
            if finished:
                break

        # Fault counters: the schedule's per-round totals summed up to
        # each trial's last round.  Silent and budget-exhausted trials
        # are charged every round of the budget, also those after the
        # loop stopped.
        fault_counts = np.zeros((3, num_trials), dtype=np.int64)
        if self._dynamics is not None:
            per_round = self._dynamics.totals(int(rounds.max(initial=0)))
            cumulative = np.zeros((per_round.shape[0] + 1, 3), dtype=np.int64)
            np.cumsum(per_round, axis=0, out=cumulative[1:])
            fault_counts = cumulative[rounds].T
        crashed_nodes, suppressed_links, jam_listeners = fault_counts
        totals += counters
        transmissions, receptions, collisions, jammed_transmissions = (
            totals.sum(axis=2)
        )
        jammed_listens = jam_listeners - jammed_transmissions
        # Each node-round is exactly one of: transmitter, crashed,
        # jammed alive listener, reception, collision or idle listen.
        idle_listens = (
            num_nodes * rounds - transmissions - crashed_nodes
            - jammed_listens - receptions - collisions
        )
        return BatchOutcome(
            nodes=self._nodes,
            rounds=rounds,
            saturated=saturated,
            final_ranks=ranks,
            adopted_rounds=adopted,
            transmissions=transmissions,
            receptions=receptions,
            collisions=collisions,
            idle_listens=idle_listens,
            suppressed_links=suppressed_links,
            crashed_nodes=crashed_nodes,
            jammed_listens=jammed_listens,
        )


def _add_rounds(counter: np.ndarray, masks: np.ndarray) -> None:
    """Add a block's per-round bool masks (rounds on axis -3) into a
    ``uint8`` counter."""
    if masks.shape[-3] == 1:
        counter += masks[..., 0, :, :].view(np.uint8)
    else:
        counter += masks.sum(axis=-3, dtype=np.uint8)


def rank_messages(messages) -> dict:
    """Return the dense rank (1-based) of each distinct message.

    Messages are ranked ascending by
    :meth:`~repro.network.messages.Message.sort_key`, so ``rank(a) >
    rank(b)`` iff ``a.beats(b)`` -- the invariant that lets the engine
    compare integer ranks instead of message objects.  Rank
    :data:`NO_MESSAGE` (0) is reserved for "knows nothing".
    """
    distinct = sorted(set(messages), key=lambda message: message.sort_key())
    return {message: index + 1 for index, message in enumerate(distinct)}
