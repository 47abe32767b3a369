"""Statistical replay-vs-decoupled equivalence (the rng contract).

The ``rng="decoupled"`` counter mode does not replay the reference
runner's draw streams, so its correctness claim is distributional: on
every scenario, replay and decoupled runs must induce the same
completion-round distribution.  This module pins that claim with
pre-registered two-sample tests.

Methodology (fixed before looking at any data):

- **Samples.**  Each cell draws ``TRIALS`` completion-round values per
  policy from *disjoint* seed ranges (replay seeds ``0..``, decoupled
  seeds ``10_000..``) so the two samples are independent; identical
  seeds would not help (the policies map seeds to different draws) and
  could mask a bug through incidental coupling.
- **Tests.**  Two-sample Kolmogorov-Smirnov (sensitive to any CDF
  difference) and Mann-Whitney U (sensitive to the location shift a
  biased draw stream would actually cause), both from ``tests/stats.py``.
- **Alpha.**  ``ALPHA = 1e-3`` per test.  With ~7 cells x 2 tests the
  family-wise false-alarm rate under the null stays below ~1.4%, and
  because every seed is fixed the tests are deterministic: a failure is
  a real regression (or a genuinely unlucky pinned sample -- in which
  case re-pinning seed ranges is a reviewed change, not a flake).
- **Power.**  ``test_power_self_check`` verifies the same machinery
  *rejects* a deliberately shifted sample, so a vacuously-passing test
  suite (e.g. a stats helper returning ``p = 1.0``) cannot hide.

The default lane keeps ``TRIALS`` small; the ``stats`` marker re-runs
the layer with a larger sample (see ``pyproject.toml`` and CI's stats
job) for tighter power at the same alpha.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Callable

import numpy as np
import pytest

from stats import ks_2samp, mann_whitney_u
from repro import topology
from repro.api import DEFAULT_ALGORITHMS, ExecutionConfig
from repro.experiments.persistence import validate_bench
from repro.network.graph import Graph

#: Pre-registered per-test significance level (see module docstring).
ALPHA = 1e-3

#: Default-lane sample size per policy per cell.
TRIALS = 40

#: Deep-lane (``-m stats``) sample size.
STATS_TRIALS = 120

#: Disjoint seed bases for the two independent samples.
REPLAY_SEED_BASE = 0
DECOUPLED_SEED_BASE = 10_000

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@dataclasses.dataclass(frozen=True)
class Cell:
    """One (topology x strategy) distributional-agreement cell."""

    name: str
    factory: Callable[[], Graph]
    strategy: str = "skeleton"
    algorithm: str = "broadcast"


#: The pinned cell table: both strategies appear, over paths
#: (n = D + 1), grids (n = Theta(D^2)), a star (maximal contention), a
#: tree and a seeded gnp sample.  The ``-dense`` / ``-sparse`` name
#: suffixes are kept as stable test ids; they name the kernel a cell ran
#: when the engine had two, and every cell now runs the CSR kernel.
CELLS = [
    Cell("grid-skeleton-dense", lambda: topology.grid_graph(8, 8)),
    Cell("grid-clustered-sparse", lambda: topology.grid_graph(8, 8),
         strategy="clustered"),
    Cell("path-skeleton-dense", lambda: topology.path_graph(48)),
    Cell("path-clustered-sparse", lambda: topology.path_graph(48),
         strategy="clustered"),
    Cell("star-skeleton-sparse", lambda: topology.star_graph(48)),
    Cell("tree-clustered-dense", lambda: topology.binary_tree_graph(5),
         strategy="clustered"),
    Cell("gnp-skeleton-dense",
         lambda: topology.connected_gnp_graph(64, 0.08, seed=64)),
]


def completion_rounds(cell: Cell, rng: str, seed_base: int, trials: int):
    """Completion rounds of ``trials`` independent runs of one cell."""
    graph = cell.factory()
    config = ExecutionConfig(
        backend="vectorized",
        strategy=cell.strategy,
        rng=rng,
    )
    results = DEFAULT_ALGORITHMS.run_batch(
        cell.algorithm,
        graph,
        seeds=[seed_base + index for index in range(trials)],
        config=config,
    )
    assert all(result.success for result in results), (
        f"{cell.name} rng={rng}: a trial failed to complete -- the "
        "distributional comparison below would be meaningless"
    )
    return np.array([result.rounds for result in results], dtype=np.float64)


def assert_same_distribution(cell: Cell, trials: int) -> None:
    replay = completion_rounds(cell, "replay", REPLAY_SEED_BASE, trials)
    decoupled = completion_rounds(
        cell, "decoupled", DECOUPLED_SEED_BASE, trials
    )
    _, ks_p = ks_2samp(replay, decoupled)
    _, mw_p = mann_whitney_u(replay, decoupled)
    assert ks_p > ALPHA and mw_p > ALPHA, (
        f"{cell.name}: replay and decoupled completion-round "
        f"distributions diverge (KS p={ks_p:.2e}, MW p={mw_p:.2e}, "
        f"alpha={ALPHA}; replay mean={replay.mean():.1f}, "
        f"decoupled mean={decoupled.mean():.1f})"
    )


def cell_params():
    return [pytest.param(cell, id=cell.name) for cell in CELLS]


@pytest.mark.parametrize("cell", cell_params())
def test_replay_decoupled_distributional_agreement(cell):
    assert_same_distribution(cell, TRIALS)


@pytest.mark.stats
@pytest.mark.parametrize("cell", cell_params())
def test_replay_decoupled_distributional_agreement_deep(cell):
    # Same pre-registered cells and alpha, three times the sample: the
    # CI stats lane trades minutes for power the default lane skips.
    assert_same_distribution(cell, STATS_TRIALS)


def test_power_self_check():
    # The machinery must reject a real difference, or the agreement
    # tests above prove nothing.  Shift one sample by 1.5 standard
    # deviations (the scale of effect these sample sizes are powered
    # for): both tests must flag it at the same alpha they pass
    # unshifted.
    cell = CELLS[0]
    replay = completion_rounds(cell, "replay", REPLAY_SEED_BASE, TRIALS)
    shifted = completion_rounds(
        cell, "decoupled", DECOUPLED_SEED_BASE, TRIALS
    ) + max(2.0, 1.5 * replay.std())
    _, ks_p = ks_2samp(replay, shifted)
    _, mw_p = mann_whitney_u(replay, shifted)
    assert ks_p < ALPHA, f"KS failed to detect an injected shift (p={ks_p})"
    assert mw_p < ALPHA, f"MW failed to detect an injected shift (p={mw_p})"


def test_election_cell_distributional_agreement():
    # Leader election exercises the retry loop and candidate draws on
    # top of Compete; one cell checks the decoupled mode end to end.
    cell = Cell(
        "election-grid-skeleton-dense",
        lambda: topology.grid_graph(6, 6),
        algorithm="leader-election",
    )
    graph = cell.factory()
    samples = {}
    for rng, base in (
        ("replay", REPLAY_SEED_BASE), ("decoupled", DECOUPLED_SEED_BASE)
    ):
        config = ExecutionConfig(
            backend="vectorized", strategy=cell.strategy, rng=rng,
        )
        results = DEFAULT_ALGORITHMS.run_batch(
            "leader-election", graph,
            seeds=[base + i for i in range(TRIALS)],
            config=config, spontaneous=False,
        )
        assert all(result.success for result in results)
        samples[rng] = np.array(
            [result.rounds for result in results], dtype=np.float64
        )
    _, ks_p = ks_2samp(samples["replay"], samples["decoupled"])
    _, mw_p = mann_whitney_u(samples["replay"], samples["decoupled"])
    assert ks_p > ALPHA and mw_p > ALPHA, (ks_p, mw_p)


# ----------------------------------------------------------------------
# Committed decoupled artifacts
# ----------------------------------------------------------------------
def _load(name: str) -> dict:
    path = BENCHMARKS / name
    assert path.exists(), f"committed artifact {name} is missing"
    payload = json.loads(path.read_text())
    validate_bench(payload)
    return payload


def test_committed_n1e5_artifacts_record_decoupled_rng():
    for name in ("BENCH_broadcast-grid-n1e5.json",
                 "BENCH_broadcast-gnp-n1e5.json"):
        payload = _load(name)
        assert payload["rng"] == "decoupled"
        assert payload["workers"] >= 1
        assert payload["scenario"]["rng"] == "decoupled"
        assert payload["topology"]["num_nodes"] >= 99_000
        assert payload["agreement"]["checked_trials"] == 0
        assert payload["engine"]["selected"] == "sparse"


def test_committed_n16384_decoupled_speedup():
    # The headline claim of the decoupled mode: >= 5x wall clock over
    # replay on the same 128x128 grid scenario, same machine, recorded
    # in the two committed twins.
    replay = _load("BENCH_broadcast-grid-n16384.json")
    decoupled = _load("BENCH_broadcast-grid-n16384-decoupled.json")
    assert replay.get("rng", "replay") == "replay"
    assert decoupled["rng"] == "decoupled"
    assert replay["scenario"]["topology_args"] == \
        decoupled["scenario"]["topology_args"]
    assert replay["environment"]["platform"] == \
        decoupled["environment"]["platform"], (
            "the twins must come from the same machine for the ratio "
            "to mean anything"
        )
    ratio = (
        replay["timing"]["vectorized_seconds_per_trial"]
        / decoupled["timing"]["vectorized_seconds_per_trial"]
    )
    assert ratio >= 5.0, f"decoupled speedup regressed: {ratio:.2f}x < 5x"
