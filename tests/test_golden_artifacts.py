"""The golden-artifact test layer: every committed ``BENCH_*.json``.

The committed benchmark baselines are load-bearing twice over -- they
are the perf-regression gate's comparison set *and* the historical
record of every headline number the README/CHANGES cite -- so this
module treats each one as a golden file:

* it must validate against the **current** ``repro-bench/2`` schema,
  which requires every field but the ``dynamics`` blocks;
* its summary statistics must be re-derivable from the recorded
  per-trial series and internally consistent (timing arithmetic,
  filename, scenario identity);
* its scenario block must rebuild through the current code paths --
  :meth:`Scenario.from_dict`, :meth:`Scenario.execution_config`, the
  config identity digest -- and agree with the registry's current
  definition, so a registry edit cannot silently orphan a baseline;
* its topology block must reproduce from the persisted generator
  arguments (the scenario block is documented as rebuilding the
  topology *exactly*; large-``n`` rebuilds carry the ``slow`` marker);
* the paper's claims the data can check -- the skeleton's round bound
  on grids, the clustered schedule's constant cost per hop on paths,
  and the decay baseline's lead -- hold within bands fixed here.
"""

import json
import math
import pathlib

import pytest

from repro.experiments import (
    DEFAULT_REGISTRY,
    artifact_identity,
    bench_filename,
    get_scenario,
    load_bench,
    validate_bench,
)
from repro.experiments.scenarios import Scenario
from repro.topology.validation import summarize_topology

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"
ARTIFACT_PATHS = sorted(BENCHMARKS.glob("BENCH_*.json"))

#: Above this node count the topology rebuild moves to the slow tier
#: (building an n ~ 10^5 graph and its summary, one row pass plus four
#: BFS sweeps, takes seconds per artifact; CI runs it once per push).
#: Every committed topology up to n = 16384 rebuilds in tier-1.
_FAST_REBUILD_NODES = 16384

#: The scenario-block fields that define what an artifact *measures*;
#: they must agree with the current registry definition.  Presentation
#: fields (description, tags) may drift without orphaning a baseline.
_IDENTITY_FIELDS = (
    "family", "topology_args", "algorithm", "collision_model",
    "spontaneous", "strategy", "rng", "margin", "seed", "dynamics",
)


def _param_id(path):
    return path.stem.replace("BENCH_", "")


def _artifact_params():
    assert ARTIFACT_PATHS, "no committed benchmark artifacts found"
    for path in ARTIFACT_PATHS:
        yield pytest.param(path, id=_param_id(path))


def _rebuild_params():
    for path in ARTIFACT_PATHS:
        payload = json.loads(path.read_text())
        marks = (
            (pytest.mark.slow,)
            if payload["topology"]["num_nodes"] > _FAST_REBUILD_NODES
            else ()
        )
        yield pytest.param(path, id=_param_id(path), marks=marks)


@pytest.fixture(scope="module")
def payloads():
    # One validated load per artifact for the whole module.
    return {path: load_bench(path) for path in ARTIFACT_PATHS}


@pytest.mark.parametrize("path", _artifact_params())
def test_validates_against_current_schema(path, payloads):
    # load_bench already ran validate_bench; pin it explicitly so the
    # intent survives refactors of the fixture.
    validate_bench(payloads[path])


@pytest.mark.parametrize("path", _artifact_params())
def test_filename_matches_scenario_name(path, payloads):
    assert path.name == bench_filename(payloads[path]["scenario"]["name"])


@pytest.mark.parametrize("path", _artifact_params())
def test_scenario_block_rebuilds_through_current_code(path, payloads):
    payload = payloads[path]
    scenario = Scenario.from_dict(payload["scenario"])
    assert scenario.name == payload["scenario"]["name"]
    config = scenario.execution_config()
    assert config.backend == "vectorized"
    identity = artifact_identity(payload)
    assert identity == config.identity()
    assert len(identity) == 12 and int(identity, 16) >= 0


@pytest.mark.parametrize("path", _artifact_params())
def test_scenario_block_agrees_with_registry(path, payloads):
    scenario_block = payloads[path]["scenario"]
    name = scenario_block["name"]
    assert name in DEFAULT_REGISTRY, (
        f"{path.name} refers to scenario {name!r} which is no longer "
        "registered; delete the stale baseline or restore the scenario"
    )
    registered = get_scenario(name).to_dict()
    for field in _IDENTITY_FIELDS:
        # Only dynamics may be absent, on both sides, for a static run.
        assert scenario_block.get(field) == registered.get(field), (
            f"{path.name}: scenario.{field} drifted from the registry "
            "definition; the baseline no longer measures the registered "
            "configuration -- re-run and re-commit it"
        )


@pytest.mark.parametrize("path", _artifact_params())
def test_timing_block_is_internally_consistent(path, payloads):
    payload = payloads[path]
    timing = payload["timing"]
    trials = payload["trials"]
    assert math.isclose(
        timing["vectorized_seconds_per_trial"],
        timing["vectorized_seconds"] / trials["vectorized"],
        rel_tol=1e-9,
    )
    if trials["reference"] > 0:
        assert math.isclose(
            timing["reference_seconds_per_trial"],
            timing["reference_seconds"] / trials["reference"],
            rel_tol=1e-9,
        )
        assert math.isclose(
            timing["speedup"],
            timing["reference_seconds_per_trial"]
            / timing["vectorized_seconds_per_trial"],
            rel_tol=1e-9,
        )


@pytest.mark.parametrize("path", _artifact_params())
def test_summary_statistics_rederive_from_per_trial_series(path, payloads):
    payload = payloads[path]
    results = payload["results"]
    per_trial = results["per_trial"]
    num_trials = payload["trials"]["vectorized"]
    assert len(per_trial["success"]) == num_trials
    derived_rate = sum(per_trial["success"]) / num_trials
    assert results["success_rate"] == derived_rate
    for key, block in results.items():
        if key in ("success_rate", "per_trial"):
            continue
        series = per_trial[key]
        assert len(series) == num_trials
        assert block["mean"] == sum(series) / num_trials
        assert block["min"] == min(series)
        assert block["max"] == max(series)


@pytest.mark.parametrize("path", _rebuild_params())
def test_topology_block_reproduces_from_scenario(path, payloads):
    payload = payloads[path]
    scenario = Scenario.from_dict(payload["scenario"])
    graph = scenario.build_graph()
    recorded = payload["topology"]
    assert graph.num_nodes == recorded["num_nodes"]
    assert graph.num_edges == recorded["num_edges"]
    assert graph.max_degree() == recorded["max_degree"]
    summary = summarize_topology(graph)
    assert summary.diameter == recorded["diameter"]


# ----------------------------------------------------------------------
# the paper's claims, checked against the committed data
# ----------------------------------------------------------------------
# Every band below is fixed here, not derived from the data it checks.

#: The static skeleton grid broadcasts: ``n = Theta(D^2)`` from 64 to
#: ~10^5 nodes, both seed policies.
SKELETON_GRIDS = (
    "broadcast-grid-n64", "broadcast-grid-n256", "broadcast-grid-n1024",
    "broadcast-grid-n4096", "broadcast-grid-n16384",
    "broadcast-grid-n16384-decoupled", "broadcast-grid-n1e5",
)

#: Clustered broadcasts on paths (``n = D + 1``) of growing length.
CLUSTERED_PATHS = (
    "broadcast-path-n256-clustered", "broadcast-path-n4096",
    "broadcast-path-n16384",
)


def _committed(name):
    return load_bench(BENCHMARKS / bench_filename(name))


def _mean_rounds(name):
    return _committed(name)["results"]["rounds"]["mean"]


@pytest.mark.parametrize("name", SKELETON_GRIDS)
def test_skeleton_broadcast_tracks_its_round_bound(name):
    # Lemma 3.1's regime: the skeleton finishes in
    # O((D + log n) * log n) rounds.  On grids the mean sits within a
    # quarter above (D + ceil(log2 n)) * ceil(log2 n), at every scale.
    payload = _committed(name)
    scenario = payload["scenario"]
    assert scenario["strategy"] == "skeleton"
    assert "dynamics" not in scenario and scenario["spontaneous"]
    nodes = payload["topology"]["num_nodes"]
    steps = math.ceil(math.log2(nodes))
    bound = (payload["topology"]["diameter"] + steps) * steps
    assert 1.0 <= _mean_rounds(name) / bound <= 1.25


@pytest.mark.parametrize("name", CLUSTERED_PATHS)
def test_clustered_broadcast_pays_constant_rounds_per_hop(name):
    # The cost-charged schedule removes the multiplicative log n where
    # contention is bounded: on paths from n = 256 to n = 16384
    # (ceil(log2 n) from 8 to 14) each hop costs 7 to 8 rounds.
    payload = _committed(name)
    assert payload["scenario"]["strategy"] == "clustered"
    per_hop = _mean_rounds(name) / payload["topology"]["diameter"]
    assert 7.0 <= per_hop <= 8.0


def test_decay_baseline_beats_the_simplified_compete():
    # The committed data do not reproduce the paper's ordering: without
    # the O(D + polylog n) pipeline, the classical repeated-Decay
    # baseline is the fastest broadcast (see DESIGN.md).
    assert (
        _mean_rounds("decay-broadcast-grid-n256")
        < _mean_rounds("broadcast-grid-n256-clustered")
        < _mean_rounds("broadcast-grid-n256")
    )
    assert _mean_rounds("decay-broadcast-path-n32") < _mean_rounds(
        "broadcast-path-n32"
    )
