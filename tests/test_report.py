"""The trend-report / perf-regression-gate layer (``experiments.report``).

Covers the pre-registered noise-band policy end to end: ok and
regression verdicts, the replay-only round gate, machine-normalized
timing ratios, the non-gating row statuses (baseline-only /
candidate-only / config-changed), byte-identical markdown rendering,
the machine-readable verdict document, and the CLI's exit-code and
one-line-error contract -- including a seeded end-to-end
``run`` -> ``report`` -> verdict smoke.
"""

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    DEFAULT_TIMING_TOLERANCE,
    NoiseBands,
    Scenario,
    artifact_identity,
    build_report,
    compare_artifact_sets,
    load_artifact_set,
    render_markdown,
    run_benchmark,
    verdict_payload,
    write_bench,
)
from repro.experiments.report import dump_verdict
from repro.experiments.cli import main


def _tiny(name, family, topology_args, seed):
    return Scenario(
        name=name, description="report-test scenario", family=family,
        topology_args=topology_args, algorithm="broadcast",
        trials=3, seed=seed,
    )


@pytest.fixture(scope="module")
def baseline():
    """Three real (tiny) artifacts: enough rows to machine-normalize."""
    scenarios = [
        _tiny("tiny-a-star", "star", {"num_leaves": 7}, 5),
        _tiny("tiny-b-path", "path", {"num_nodes": 8}, 6),
        _tiny("tiny-c-grid", "grid", {"rows": 3, "cols": 3}, 7),
    ]
    return {
        scenario.name: run_benchmark(scenario, include_reference=False)
        for scenario in scenarios
    }


def _slow_down(payload, factor):
    payload["timing"]["vectorized_seconds"] *= factor
    payload["timing"]["vectorized_seconds_per_trial"] *= factor


# ----------------------------------------------------------------------
# verdicts under the noise bands
# ----------------------------------------------------------------------
def test_identical_sets_are_ok(baseline):
    report = compare_artifact_sets(baseline, copy.deepcopy(baseline))
    assert report.verdict == "ok"
    assert all(row.status == "ok" for row in report.rows)
    assert report.counts == {
        "compared": 3, "ok": 3, "regressions": 0,
        "baseline_only": 0, "candidate_only": 0, "config_changed": 0,
    }
    # Identical timings normalize to exactly 1.0 via a median of 1.0.
    assert report.machine_factor == 1.0
    for row in report.rows:
        assert row.timing_ratio == 1.0
        assert row.identity == artifact_identity(baseline[row.name])
        outcomes = {check.name: check.outcome for check in row.checks}
        assert outcomes == {"replay-rounds": "pass", "wall-clock": "pass"}


def test_replay_round_drift_is_a_regression(baseline):
    candidate = copy.deepcopy(baseline)
    candidate["tiny-b-path"]["results"]["rounds"]["mean"] += 1.0
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "regression"
    by_name = {row.name: row for row in report.rows}
    assert by_name["tiny-b-path"].status == "regression"
    assert by_name["tiny-a-star"].status == "ok"
    failed = [c for c in by_name["tiny-b-path"].checks if c.outcome == "fail"]
    assert len(failed) == 1
    assert "replay drift" in failed[0].detail
    assert "results.rounds.mean" in failed[0].detail


def test_success_rate_drift_is_a_regression(baseline):
    candidate = copy.deepcopy(baseline)
    candidate["tiny-a-star"]["results"]["success_rate"] = 0.5
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "regression"


def test_single_scenario_slowdown_trips_the_gate(baseline):
    # The acceptance bar: an injected 2x wall-clock slowdown must flip
    # the verdict (tolerance 1.75 < 2, and the median of [2, 1, 1]
    # normalizes by 1.0, leaving the full 2x visible).
    candidate = copy.deepcopy(baseline)
    _slow_down(candidate["tiny-c-grid"], 2.0)
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "regression"
    row = {r.name: r for r in report.rows}["tiny-c-grid"]
    assert row.timing_ratio == pytest.approx(2.0)
    assert row.normalized_timing_ratio == pytest.approx(2.0)
    failed = [c for c in row.checks if c.outcome == "fail"]
    assert [c.name for c in failed] == ["wall-clock"]
    assert "tolerance 1.75x" in failed[0].detail


def test_whole_set_slowdown_reads_as_machine_speed(baseline):
    # Every scenario 2x slower: the median absorbs it (a slower
    # machine, not a regression) under the default policy...
    candidate = copy.deepcopy(baseline)
    for payload in candidate.values():
        _slow_down(payload, 2.0)
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "ok"
    assert report.machine_factor == pytest.approx(2.0)
    # ...but --no-normalize-timing (same-machine mode) gates raw ratios.
    strict = compare_artifact_sets(
        baseline, candidate, NoiseBands(normalize_timing=False)
    )
    assert strict.verdict == "regression"
    assert strict.machine_factor is None
    assert all(row.status == "regression" for row in strict.rows)


def test_too_few_rows_fall_back_to_raw_ratios(baseline):
    # With < MIN_RATIOS_FOR_NORMALIZATION compared scenarios the median
    # is dominated by the row under test, so normalization would hide a
    # real slowdown; raw ratios must gate instead.
    small_base = {"tiny-a-star": baseline["tiny-a-star"]}
    candidate = copy.deepcopy(small_base)
    _slow_down(candidate["tiny-a-star"], 2.0)
    report = compare_artifact_sets(small_base, candidate)
    assert report.machine_factor is None
    assert report.verdict == "regression"


def test_slowdown_inside_tolerance_is_ok(baseline):
    candidate = copy.deepcopy(baseline)
    _slow_down(candidate["tiny-a-star"], 1.5)  # < 1.75 tolerance
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "ok"


def test_one_sided_scenarios_never_gate(baseline):
    candidate = copy.deepcopy(baseline)
    extra = _tiny("tiny-z-new", "complete", {"num_nodes": 6}, 8)
    candidate["tiny-z-new"] = run_benchmark(extra, include_reference=False)
    del candidate["tiny-b-path"]
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "ok"
    counts = report.counts
    assert counts["baseline_only"] == 1
    assert counts["candidate_only"] == 1
    assert counts["compared"] == 2
    by_name = {row.name: row for row in report.rows}
    assert by_name["tiny-b-path"].status == "baseline-only"
    assert by_name["tiny-z-new"].status == "candidate-only"
    # One-sided rows still carry an identity (for the verdict document).
    assert by_name["tiny-z-new"].identity == artifact_identity(
        candidate["tiny-z-new"]
    )


def _edit_strategy(payload):
    payload["scenario"]["strategy"] = "clustered"


def _override_rng(payload):
    # What `run --rng decoupled` writes: the scenario block keeps the
    # registered rng, the top-level field records the one that ran.
    payload["rng"] = "decoupled"


@pytest.mark.parametrize(
    "edit", [_edit_strategy, _override_rng], ids=["strategy", "rng-override"]
)
def test_config_change_is_reported_but_not_gated(baseline, edit):
    candidate = copy.deepcopy(baseline)
    edit(candidate["tiny-a-star"])
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "ok"
    row = {r.name: r for r in report.rows}["tiny-a-star"]
    assert row.status == "config-changed"
    assert report.counts["config_changed"] == 1
    assert report.counts["compared"] == 2
    assert "identity changed" in row.checks[0].detail


def test_decoupled_rows_skip_the_round_gate(baseline):
    # Decoupled-rng artifacts have a distributional (not round-exact)
    # cross-version contract; drifted rounds must not gate.
    base = copy.deepcopy(baseline)
    candidate = copy.deepcopy(baseline)
    for payloads in (base, candidate):
        payloads["tiny-a-star"]["rng"] = "decoupled"
    candidate["tiny-a-star"]["results"]["rounds"]["mean"] += 5.0
    report = compare_artifact_sets(base, candidate)
    assert report.verdict == "ok"
    row = {r.name: r for r in report.rows}["tiny-a-star"]
    rounds_check = {c.name: c for c in row.checks}["replay-rounds"]
    assert rounds_check.outcome == "skipped"
    assert "rng=decoupled" in rounds_check.detail


def test_seed_or_trial_mismatch_skips_the_round_gate(baseline):
    candidate = copy.deepcopy(baseline)
    candidate["tiny-a-star"]["trials"]["base_seed"] = 99
    candidate["tiny-a-star"]["results"]["rounds"]["mean"] += 5.0
    report = compare_artifact_sets(baseline, candidate)
    assert report.verdict == "ok"
    row = {r.name: r for r in report.rows}["tiny-a-star"]
    rounds_check = {c.name: c for c in row.checks}["replay-rounds"]
    assert rounds_check.outcome == "skipped"
    assert "seed/trial mismatch" in rounds_check.detail


def test_noise_bands_validate():
    with pytest.raises(ConfigurationError, match="timing_tolerance"):
        NoiseBands(timing_tolerance=1.0)
    with pytest.raises(ConfigurationError, match="timing_tolerance"):
        NoiseBands(timing_tolerance=0.5)
    assert NoiseBands().timing_tolerance == DEFAULT_TIMING_TOLERANCE


# ----------------------------------------------------------------------
# artifact-set loading
# ----------------------------------------------------------------------
def test_load_artifact_set_from_directory_and_file(tmp_path, baseline):
    for payload in baseline.values():
        write_bench(payload, tmp_path)
    loaded = load_artifact_set(tmp_path)
    assert set(loaded) == set(baseline)
    single = load_artifact_set(tmp_path / "BENCH_tiny-a-star.json")
    assert set(single) == {"tiny-a-star"}


def test_load_artifact_set_rejects_bad_paths(tmp_path, baseline):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigurationError, match="no BENCH_"):
        load_artifact_set(empty)
    with pytest.raises(ConfigurationError, match="neither a file nor"):
        load_artifact_set(tmp_path / "missing")
    # Duplicate scenario names across files are ambiguous.
    dup = tmp_path / "dup"
    dup.mkdir()
    write_bench(baseline["tiny-a-star"], dup)
    renamed = copy.deepcopy(baseline["tiny-a-star"])
    (dup / "BENCH_tiny-a-star-again.json").write_text(json.dumps(renamed))
    with pytest.raises(ConfigurationError, match="duplicate artifact"):
        load_artifact_set(dup)


# ----------------------------------------------------------------------
# markdown rendering
# ----------------------------------------------------------------------
def test_markdown_is_deterministic(tmp_path, baseline):
    base_dir = tmp_path / "base"
    cand_dir = tmp_path / "cand"
    for directory in (base_dir, cand_dir):
        directory.mkdir()
        for payload in baseline.values():
            write_bench(payload, directory)
    first = render_markdown(build_report(base_dir, cand_dir))
    second = render_markdown(build_report(base_dir, cand_dir))
    assert first == second  # byte-identical across runs
    # ...and no volatile content that could break that promise.
    assert "seconds_total" not in first
    assert str(tmp_path) in first  # labels come from the inputs only


def test_markdown_contents(baseline):
    candidate = copy.deepcopy(baseline)
    _slow_down(candidate["tiny-c-grid"], 2.0)
    del candidate["tiny-b-path"]
    report = compare_artifact_sets(baseline, candidate)
    markdown = render_markdown(report)
    assert markdown.startswith("# Benchmark trend report")
    assert "**Verdict: REGRESSION**" in markdown
    assert "| scenario | axes |" in markdown
    assert "**REGRESSION**" in markdown
    assert "baseline-only" in markdown
    # Per-trial series are present, so details carry percentiles and
    # polyline sparklines.
    assert "p50" in markdown and "p90" in markdown
    assert "<svg xmlns=" in markdown and "<polyline" in markdown
    assert "baseline gray, candidate blue" in markdown
    ok_report = compare_artifact_sets(baseline, copy.deepcopy(baseline))
    assert "**Verdict: OK**" in render_markdown(ok_report)


def test_markdown_config_changed_section(baseline):
    candidate = copy.deepcopy(baseline)
    candidate["tiny-a-star"]["scenario"]["strategy"] = "clustered"
    markdown = render_markdown(compare_artifact_sets(baseline, candidate))
    assert "## Config-changed (stale baselines, not gated)" in markdown
    assert "re-commit the baseline" in markdown


# ----------------------------------------------------------------------
# the verdict document
# ----------------------------------------------------------------------
def test_verdict_payload_and_dump(tmp_path, baseline):
    candidate = copy.deepcopy(baseline)
    _slow_down(candidate["tiny-c-grid"], 2.0)
    report = compare_artifact_sets(baseline, candidate)
    payload = verdict_payload(report)
    assert payload["schema"] == "repro-report/1"
    assert payload["verdict"] == "regression"
    assert payload["policy"]["rounds"] == "exact-under-replay"
    assert payload["policy"]["timing_tolerance"] == DEFAULT_TIMING_TOLERANCE
    assert payload["counts"]["regressions"] == 1
    by_name = {entry["name"]: entry for entry in payload["scenarios"]}
    grid = by_name["tiny-c-grid"]
    assert grid["status"] == "regression"
    assert grid["timing_ratio"] == pytest.approx(2.0)
    outcomes = {c["check"]: c["outcome"] for c in grid["checks"]}
    assert outcomes == {"replay-rounds": "pass", "wall-clock": "fail"}
    path = dump_verdict(report, tmp_path / "verdict.json")
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(payload)
    )


# ----------------------------------------------------------------------
# CLI: exit codes, error lines, end-to-end
# ----------------------------------------------------------------------
def _write_set(payloads, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for payload in payloads.values():
        write_bench(payload, directory)
    return directory


def test_cli_report_ok_writes_outputs(tmp_path, capsys, baseline):
    base_dir = _write_set(baseline, tmp_path / "base")
    cand_dir = _write_set(copy.deepcopy(baseline), tmp_path / "cand")
    out = tmp_path / "nested" / "trend.md"
    verdict = tmp_path / "verdict.json"
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(out), "--verdict-json", str(verdict),
        "--fail-on-regression",
    ]) == 0
    captured = capsys.readouterr()
    assert "verdict: ok (3 compared, 0 regression(s)" in captured.err
    assert out.read_text().startswith("# Benchmark trend report")
    assert json.loads(verdict.read_text())["verdict"] == "ok"


def test_cli_report_prints_to_stdout_by_default(tmp_path, capsys, baseline):
    base_dir = _write_set(baseline, tmp_path / "base")
    assert main(["report", str(base_dir), "--against", str(base_dir)]) == 0
    assert "# Benchmark trend report" in capsys.readouterr().out


def test_cli_report_regression_exit_codes(tmp_path, capsys, baseline):
    base_dir = _write_set(baseline, tmp_path / "base")
    candidate = copy.deepcopy(baseline)
    _slow_down(candidate["tiny-c-grid"], 2.0)
    cand_dir = _write_set(candidate, tmp_path / "cand")
    verdict = tmp_path / "verdict.json"
    # Without --fail-on-regression the report is informational (exit 0).
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "trend.md"),
    ]) == 0
    assert "verdict: regression" in capsys.readouterr().err
    # With it, exit 2 -- and the evidence files are still written first.
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "trend2.md"), "--verdict-json", str(verdict),
        "--fail-on-regression",
    ]) == 2
    assert (tmp_path / "trend2.md").exists()
    assert json.loads(verdict.read_text())["verdict"] == "regression"


def test_cli_report_custom_tolerance_and_no_normalize(
    tmp_path, capsys, baseline
):
    base_dir = _write_set(baseline, tmp_path / "base")
    candidate = copy.deepcopy(baseline)
    for payload in candidate.values():
        _slow_down(payload, 2.0)
    cand_dir = _write_set(candidate, tmp_path / "cand")
    # Normalized (default): whole-set slowdown reads as machine speed.
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "a.md"), "--fail-on-regression",
    ]) == 0
    # Raw ratios: the same candidate fails.
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "b.md"), "--no-normalize-timing",
        "--fail-on-regression",
    ]) == 2
    # A generous tolerance waves it through again.
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "c.md"), "--no-normalize-timing",
        "--timing-tolerance", "3.0", "--fail-on-regression",
    ]) == 0
    capsys.readouterr()


def test_cli_report_errors_are_one_line(tmp_path, capsys, baseline):
    base_dir = _write_set(baseline, tmp_path / "base")
    # Malformed candidate JSON: exit 1, one-line error, no traceback.
    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "BENCH_broken.json").write_text("{not json")
    assert main(["report", str(bad_dir), "--against", str(base_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "BENCH_broken.json" in err
    assert "Traceback" not in err
    # Missing candidate directory.
    assert main([
        "report", str(tmp_path / "nope"), "--against", str(base_dir)
    ]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # Bad tolerance value (policy validation surfaces the same way).
    assert main([
        "report", str(base_dir), "--against", str(base_dir),
        "--timing-tolerance", "0.5",
    ]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_validate_errors_are_one_line(tmp_path, capsys):
    # A file that is not UTF-8 at all (UnicodeDecodeError path).
    binary = tmp_path / "BENCH_binary.json"
    binary.write_bytes(b"\xff\xfe\x00broken")
    assert main(["validate", str(binary)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    # A directory where a file is expected (OSError path).
    assert main(["validate", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_end_to_end_run_report_verdict(tmp_path, capsys):
    # The seeded e2e smoke: run a real scenario twice (same seeds),
    # then gate the re-run against the first -- replay determinism must
    # yield an ok verdict with the round gate passing, not skipping.
    base_dir = tmp_path / "base"
    cand_dir = tmp_path / "cand"
    for out in (base_dir, cand_dir):
        assert main([
            "run", "broadcast-star-n32", "--trials", "2",
            "--skip-reference", "--out", str(out),
        ]) == 0
    verdict_path = tmp_path / "verdict.json"
    assert main([
        "report", str(cand_dir), "--against", str(base_dir),
        "--out", str(tmp_path / "trend.md"),
        "--verdict-json", str(verdict_path), "--fail-on-regression",
    ]) == 0
    capsys.readouterr()
    verdict = json.loads(verdict_path.read_text())
    assert verdict["verdict"] == "ok"
    (scenario,) = verdict["scenarios"]
    checks = {c["check"]: c["outcome"] for c in scenario["checks"]}
    assert checks["replay-rounds"] == "pass"
