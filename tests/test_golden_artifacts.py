"""The golden-artifact test layer: every committed ``BENCH_*.json``.

The committed benchmark baselines are load-bearing twice over -- they
are the perf-regression gate's comparison set *and* the historical
record of every headline number the README/CHANGES cite -- so this
module treats each one as a golden file:

* it must validate against the **current** ``repro-bench/1`` schema
  (pre-PR-4 / pre-PR-6 artifacts included: their migration notes promise
  optional fields, and this is where that promise is enforced against
  real data rather than synthetic fixtures);
* its summary statistics must be re-derivable from the recorded
  per-trial series and internally consistent (timing arithmetic,
  filename, scenario identity) -- every artifact under ``benchmarks/``
  carries the series; only the committed legacy fixture under
  ``tests/data/legacy/`` (kept to pin the schema's pre-PR-7 tolerance)
  may omit it;
* its scenario block must rebuild through the current code paths --
  :meth:`Scenario.from_dict`, :meth:`Scenario.execution_config`, the
  config identity digest -- and agree with the registry's current
  definition, so a registry edit cannot silently orphan a baseline;
* its topology block must reproduce from the persisted generator
  arguments (the scenario block is documented as rebuilding the
  topology *exactly*; large-``n`` rebuilds carry the ``slow`` marker).
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
#: Pre-PR-7 artifacts (no ``results.per_trial``) kept as fixtures: they
#: pin the schema's documented legacy tolerance without grandfathering
#: incomplete data into the live baseline set.
LEGACY_DIR = REPO_ROOT / "tests" / "data" / "legacy"
ARTIFACT_PATHS = sorted(BENCHMARKS.glob("BENCH_*.json"))
LEGACY_PATHS = sorted(LEGACY_DIR.glob("BENCH_*.json"))
ALL_PATHS = ARTIFACT_PATHS + LEGACY_PATHS

#: Above this node count the topology rebuild moves to the slow tier
#: (building the n ~ 10^5 graphs plus the two-sweep summary's six BFS
#: passes takes seconds per artifact; CI runs it once per push).
_FAST_REBUILD_NODES = 2000

#: The scenario-block fields that define what an artifact *measures*;
#: they must agree with the current registry definition.  Presentation
#: fields (description, tags) may drift without orphaning a baseline.
_IDENTITY_FIELDS = (
    "family", "topology_args", "algorithm", "collision_model",
    "spontaneous", "strategy", "engine", "rng", "margin", "seed",
    "dynamics",
)


def _param_id(path):
    stem = path.stem.replace("BENCH_", "")
    return f"legacy-{stem}" if path.parent == LEGACY_DIR else stem


def _artifact_params():
    assert ARTIFACT_PATHS, "no committed benchmark artifacts found"
    assert LEGACY_PATHS, "the documented legacy fixture is missing"
    for path in ALL_PATHS:
        yield pytest.param(path, id=_param_id(path))


def _rebuild_params():
    for path in ALL_PATHS:
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
    return {path: load_bench(path) for path in ALL_PATHS}


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
        if field not in scenario_block:
            continue  # optional pre-migration fields
        assert scenario_block[field] == registered[field], (
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
    per_trial = results.get("per_trial")
    if per_trial is None:
        if path.parent == LEGACY_DIR:
            # The one place the pre-PR-7 summaries-only form remains
            # acceptable: the committed fixture that pins the schema's
            # legacy tolerance.  validate_bench already enforced the
            # min <= mean <= max invariant, all that can be re-checked.
            pytest.skip("documented legacy fixture predates per_trial")
        pytest.fail(
            f"{path.name} lacks results.per_trial; live baselines must "
            "carry the series -- regenerate with "
            f"`python -m repro.experiments run {payload['scenario']['name']}`"
        )
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
