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
the messages once up front therefore reduces every node's state to a
single integer -- the *rank* of the best message it knows (0 = knows
nothing) -- and one round becomes:

* ``transmit = informed & (uniform_draw < p[round])``  (the per-node
  transmission schedule; the classical uniform Decay rule
  ``p = 2^-step`` is one instance),
* ``counts, unique_rank`` from the CSR kernel of
  :mod:`repro.simulation.sparse`: per listener, how many neighbours
  transmit and, where exactly one does, that neighbour's rank,
* ``rank = max(rank, unique_rank)`` for listeners that are not
  transmitting themselves (adopt-if-higher), written only at the
  indices that improve.

The kernel lays the trials out block-diagonally, so many seeded trials
run through the same calls.  Metric counters accumulate per node and
are reduced once after the loop, at each trial's own finishing round;
under :mod:`repro.dynamics` the per-round fault totals are scalars shared
by every trial.

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
replays those per-node streams from identically-spawned generators,
pre-drawing blocks per node and consuming them one element per informed
round, so the k-th decision of every node matches the reference's k-th
decision exactly.  ``tests/test_engine_equivalence.py`` pins this
equivalence across topology families, strategies and fault models.
"""

from __future__ import annotations

import dataclasses
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
#: path.  Larger blocks amortise the per-generator Python call over more
#: rounds at the cost of ``trials * n * block * 8`` bytes of buffer;
#: 512 and 2048 measured no faster.
DEFAULT_DRAW_BLOCK = 128


class DrawStreams:
    """Replays the reference runner's per-node uniform draw streams, batched.

    One stream per (trial, node) pair, seeded exactly like
    :func:`~repro.simulation.runner.spawn_node_rngs`: trial ``t`` spawns
    ``SeedSequence(seeds[t]).spawn(num_nodes)`` and stream ``i`` draws from
    ``default_rng`` of the i-th child.  :meth:`take` hands out the next
    element of each requested stream; streams that are not requested in a
    round advance by nothing, mirroring a listening (uninformed) node.
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
        self._generators: list[np.random.Generator] = []
        for seed in seeds:
            children = np.random.SeedSequence(seed).spawn(num_nodes)
            self._generators.extend(np.random.default_rng(c) for c in children)
        count = len(self._generators)
        self._buffer = np.empty((count, block), dtype=np.float64)
        for row, generator in enumerate(self._generators):
            generator.random(out=self._buffer[row])
        # Stream ``i``'s next draw is ``flat[cursor[i]]``; the cursor
        # stays inside row ``i``, in ``[i * block, row_end[i])``.
        self._flat = self._buffer.reshape(-1)
        self._cursor = np.arange(count, dtype=np.int64) * block
        self._row_end = self._cursor + block

    def take(self, wanted: np.ndarray) -> np.ndarray:
        """Return the next draw of every stream where ``wanted`` is True.

        ``wanted`` is a flat boolean array over the ``trials * num_nodes``
        streams.  The result has the same shape, with ``nan`` in positions
        that were not requested (callers use the draws only in comparisons,
        where ``nan`` compares False).
        """
        cursor = self._cursor
        draws = np.where(wanted, self._flat[cursor], np.nan)
        cursor += wanted
        # A row is refilled as soon as its last draw is handed out, which
        # keeps every cursor inside its row.  Each generator feeds only
        # its own row, so refilling early changes no draw.
        exhausted = np.flatnonzero(cursor == self._row_end)
        for row in exhausted.tolist():
            self._generators[row].random(out=self._buffer[row])
        cursor[exhausted] -= self._block
        return draws


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
        graph.  Each round the engine resolves the schedule's fault
        state and applies it to the channel: crashed nodes neither
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
            # Pre-scale the probability cycle to integer thresholds so
            # the hot loop compares the raw hash words directly: with
            # draw mantissa ``m = bits >> 11``, ``m * 2**-53 < p`` iff
            # ``m < t = ceil(p * 2**53)`` iff ``bits < t << 11``.  The
            # one inexact corner is ``p >= 1`` (threshold saturates at
            # 2**64 - 1, missing the all-ones word with probability
            # 2**-64 per draw); Decay probabilities never exceed 1/2.
            mantissa_thresholds = np.ceil(
                np.clip(self._probabilities, 0.0, 1.0) * 2.0 ** 53
            ).astype(np.uint64)
            self._thresholds = np.where(
                mantissa_thresholds >= np.uint64(2 ** 53),
                np.iinfo(np.uint64).max,
                mantissa_thresholds << np.uint64(11),
            )
        else:
            self._thresholds = None

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
        sent, heard, clashed, jammed_sent = counters
        # Per-round fault totals, the same for every trial: crashed
        # nodes, down links, alive jammed nodes.
        fault_totals: list[tuple[int, int, int]] = []

        kernel = self._csr.transmitter_counts_and_rank_sums
        replay = self._rng == "replay"
        loop_rounds = self._max_rounds if running.any() else 0
        if loop_rounds and replay:
            streams = DrawStreams(seeds, num_nodes)
        elif loop_rounds:
            streams = DecoupledStreams(seeds, num_nodes)

        cycle_length = self._probabilities.shape[0]
        for round_number in range(loop_rounds):
            if round_number % 255 == 0:
                totals += counters
                counters.fill(0)
            row = round_number % cycle_length
            if replay:
                # Requested draws compare against the probability row;
                # the rest are nan, which compares False.
                transmit = (
                    streams.take(flat_wanted).reshape(ranks.shape)
                    < self._probabilities[row]
                )
            else:
                transmit = streams.bits(round_number) < self._thresholds[row]
                transmit &= wanted

            entry_mask = None
            if self._dynamics is None:
                listening = ~transmit
            else:
                # Crash suppression happens *after* the draws above were
                # taken: a crashed node's stream still advances exactly
                # as in the reference runner, where the protocol draws
                # and the network drops the transmission.
                faults = self._dynamics.round_faults(round_number)
                transmit &= faults.alive
                listening = ~transmit & (faults.alive & ~faults.jammed)
                jammed_sent += (transmit & faults.jammed).view(np.uint8)
                fault_totals.append(_fault_totals(faults))
                if faults.edge_up is not None:
                    entry_mask = faults.edge_up[self._dynamics.entry_edge_ids]

            counts, unique_rank = kernel(transmit, ranks, entry_mask)
            # Half-duplex: a transmitter hears nothing this round, and
            # crashed or jammed nodes hear nothing either.
            sent += transmit.view(np.uint8)
            received = counts == 1
            received &= listening
            heard += received.view(np.uint8)
            collided = counts > 1
            collided &= listening
            clashed += collided.view(np.uint8)
            received &= unique_rank > ranks
            improved = received.ravel().nonzero()[0]
            if improved.size == 0:
                continue
            gained = unique_rank.ravel()[improved]
            flat_ranks[improved] = gained
            flat_adopted[improved] = round_number
            flat_wanted[improved] = True
            # A trial saturates only in a round where its last node
            # adopts the winner rank, so only then is it rechecked
            # (callers pass the top rank, so ``>=`` means adopted).
            if winner_rank is not None and gained.max() >= winner_rank:
                done = running & (ranks == winner_rank).all(axis=1)
                if done.any():
                    saturated |= done
                    rounds[done] = round_number + 1
                    running &= ~done
                    wanted[done] = False
                    if not running.any():
                        break

        # Fault counters: the per-round totals summed up to each trial's
        # last round.  Silent and budget-exhausted trials are charged
        # every round of the budget, also those after the loop stopped.
        fault_counts = np.zeros((3, num_trials), dtype=np.int64)
        if self._dynamics is not None:
            while len(fault_totals) < int(rounds.max(initial=0)):
                fault_totals.append(_fault_totals(
                    self._dynamics.round_faults(len(fault_totals))
                ))
            cumulative = np.zeros((3, len(fault_totals) + 1), dtype=np.int64)
            np.cumsum(
                np.array(fault_totals, dtype=np.int64).reshape(-1, 3).T,
                axis=1, out=cumulative[:, 1:],
            )
            fault_counts = cumulative[:, rounds]
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


def _fault_totals(faults) -> tuple[int, int, int]:
    """One round's crashed nodes, down links and alive jammed nodes."""
    return (
        faults.crashed_count,
        faults.suppressed,
        int(np.count_nonzero(faults.jammed & faults.alive)),
    )


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
