"""Trend reports and perf-regression verdicts over ``BENCH_*.json`` sets.

This module is the comparison half of the experiment platform: it loads
two artifact sets -- a committed *baseline* (normally ``benchmarks/``)
and a freshly-run *candidate* directory -- joins them by scenario and
execution-config identity (:meth:`repro.api.ExecutionConfig.identity`),
and produces

* a deterministic markdown trend report with hand-rolled inline SVG
  sparklines (stdlib only -- byte-identical for identical inputs, so it
  can be diffed and cached), and
* a machine-readable verdict (``ok`` / ``regression``) that CI's
  ``perf-gate`` job turns into an exit code.

The regression policy is **pre-registered** in :class:`NoiseBands`
rather than decided per run:

* **Round counts are gated exactly, under ``rng="replay"`` only.**
  Replay runs are deterministic functions of ``(config, base_seed)``,
  so when a candidate artifact re-runs the same seeds under the same
  config identity, *any* drift in the results block is a real
  behavioural regression, never noise.  Decoupled-rng rows are not
  round-gated (their cross-version contract is distributional and owned
  by the statistical test layer), and neither are rows whose seed or
  trial count differ.
* **Wall-clock is gated with a relative tolerance, machine-normalized.**
  Baselines are committed from whatever machine produced them, so raw
  candidate/baseline timing ratios mostly measure hardware.  With at
  least :data:`MIN_RATIOS_FOR_NORMALIZATION` compared scenarios the
  per-scenario ratios are divided by their median (the machine-speed
  factor); a scenario whose *normalized* ratio exceeds
  ``timing_tolerance`` regressed relative to its peers.  Below that
  count (or with ``normalize_timing=False``) raw ratios are gated.

See ``docs/EXPERIMENTS.md`` ("Trend reports & regression gates") for the
CLI walkthrough and how CI consumes the verdict.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics
from typing import Any, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.experiments.persistence import load_bench
from repro.experiments.scenarios import Scenario

#: Verdict document layout identifier (the report's own mini-schema).
REPORT_SCHEMA_VERSION = "repro-report/1"

#: Default relative wall-clock tolerance: a compared scenario regresses
#: when its machine-normalized per-trial time exceeds the baseline's by
#: more than this factor.  Chosen below 2x so a genuine doubling always
#: trips the gate, with headroom above CI jitter on millisecond runs.
DEFAULT_TIMING_TOLERANCE = 1.75

#: Median-normalization of timing ratios needs at least this many
#: compared scenarios; below it the median *is* (dominated by) the row
#: under test and normalization would hide any single-scenario slowdown.
MIN_RATIOS_FOR_NORMALIZATION = 3

_CHECK_PASS = "pass"
_CHECK_FAIL = "fail"
_CHECK_SKIPPED = "skipped"

#: Sparkline colors (colorblind-safe gray/blue pair).
_BASELINE_COLOR = "#8a8a8a"
_CANDIDATE_COLOR = "#2f6f9f"


@dataclasses.dataclass(frozen=True)
class NoiseBands:
    """The pre-registered regression policy (see the module docstring).

    Attributes
    ----------
    timing_tolerance:
        Relative wall-clock tolerance (> 1); applied to the normalized
        per-trial timing ratio.
    normalize_timing:
        Divide per-scenario timing ratios by their median (the
        machine-speed factor) before gating, whenever at least
        :data:`MIN_RATIOS_FOR_NORMALIZATION` scenarios compare.  Set
        False for same-machine comparisons where raw ratios are
        meaningful, including whole-suite slowdowns the median would
        absorb.
    """

    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE
    normalize_timing: bool = True

    def __post_init__(self) -> None:
        if not self.timing_tolerance > 1.0:
            raise ConfigurationError(
                "timing_tolerance must be > 1 (it is a slowdown factor), "
                f"got {self.timing_tolerance}"
            )


@dataclasses.dataclass(frozen=True)
class Check:
    """One named comparison applied to a scenario row."""

    name: str
    outcome: str  # pass | fail | skipped
    detail: str


@dataclasses.dataclass
class ScenarioRow:
    """One joined (or unjoined) scenario in the report."""

    name: str
    status: str  # ok | regression | baseline-only | candidate-only | config-changed
    identity: Optional[str] = None
    baseline: Optional[Mapping[str, Any]] = None
    candidate: Optional[Mapping[str, Any]] = None
    checks: list = dataclasses.field(default_factory=list)
    timing_ratio: Optional[float] = None
    normalized_timing_ratio: Optional[float] = None


@dataclasses.dataclass
class TrendReport:
    """The full comparison result: rows + policy + derived verdict."""

    rows: list
    bands: NoiseBands
    machine_factor: Optional[float]
    baseline_label: str
    candidate_label: str

    @property
    def verdict(self) -> str:
        """``"regression"`` iff any compared row failed a gate."""
        if any(row.status == "regression" for row in self.rows):
            return "regression"
        return "ok"

    @property
    def counts(self) -> dict[str, int]:
        counts = {
            "compared": 0,
            "ok": 0,
            "regressions": 0,
            "baseline_only": 0,
            "candidate_only": 0,
            "config_changed": 0,
        }
        for row in self.rows:
            if row.status in ("ok", "regression"):
                counts["compared"] += 1
                counts["ok" if row.status == "ok" else "regressions"] += 1
            else:
                counts[row.status.replace("-", "_")] += 1
        return counts


def artifact_identity(payload: Mapping[str, Any]) -> str:
    """The execution-config identity of one bench payload.

    Rebuilds the scenario from the artifact's ``scenario`` block (the
    block is documented as sufficient for exactly that) and digests its
    :meth:`~repro.experiments.scenarios.Scenario.execution_config` --
    so every axis that changes what a run *means* (strategy, rng,
    collision model, margin, dynamics) changes the key, while
    presentation fields (description, tags) and a recorded ``engine``
    selector do not.
    """
    scenario = Scenario.from_dict(payload["scenario"])
    return scenario.execution_config().identity()


def load_artifact_set(
    path: Union[str, pathlib.Path]
) -> dict[str, dict[str, Any]]:
    """Load a directory of ``BENCH_*.json`` files (or one file) by name.

    Every file is schema-validated on the way in, so a malformed
    artifact fails here with a one-line :class:`ConfigurationError`
    naming the file, before any comparison runs.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        files = sorted(path.glob("BENCH_*.json"))
        if not files:
            raise ConfigurationError(
                f"no BENCH_*.json artifacts found in directory {path}"
            )
    elif path.is_file():
        files = [path]
    else:
        raise ConfigurationError(
            f"artifact path {path} is neither a file nor a directory"
        )
    artifacts: dict[str, dict[str, Any]] = {}
    for file in files:
        payload = load_bench(file)
        name = payload["scenario"]["name"]
        if name in artifacts:
            raise ConfigurationError(
                f"duplicate artifact for scenario {name!r} in {path}"
            )
        artifacts[name] = payload
    return artifacts


def build_report(
    baseline_path: Union[str, pathlib.Path],
    candidate_path: Union[str, pathlib.Path],
    bands: Optional[NoiseBands] = None,
) -> TrendReport:
    """Load both artifact sets from disk and compare them."""
    baseline = load_artifact_set(baseline_path)
    candidate = load_artifact_set(candidate_path)
    return compare_artifact_sets(
        baseline,
        candidate,
        bands,
        baseline_label=str(baseline_path),
        candidate_label=str(candidate_path),
    )


def compare_artifact_sets(
    baseline: Mapping[str, Mapping[str, Any]],
    candidate: Mapping[str, Mapping[str, Any]],
    bands: Optional[NoiseBands] = None,
    *,
    baseline_label: str = "baseline",
    candidate_label: str = "candidate",
) -> TrendReport:
    """Join two artifact sets by (scenario name, config identity).

    Scenarios present on only one side are reported (``baseline-only``
    / ``candidate-only``) but never fail the gate: the candidate is
    typically a small re-run subset of a large committed baseline.  A
    name that joins under a *different* config identity is reported as
    ``config-changed`` and excluded from gating -- the baseline artifact
    is stale, which is a review problem, not a runtime regression.
    """
    bands = bands if bands is not None else NoiseBands()
    rows: list[ScenarioRow] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None:
            rows.append(ScenarioRow(
                name=name, status="candidate-only", candidate=cand,
                identity=artifact_identity(cand),
            ))
            continue
        if cand is None:
            rows.append(ScenarioRow(
                name=name, status="baseline-only", baseline=base,
                identity=artifact_identity(base),
            ))
            continue
        base_id = artifact_identity(base)
        cand_id = artifact_identity(cand)
        if base_id != cand_id:
            rows.append(ScenarioRow(
                name=name, status="config-changed", baseline=base,
                candidate=cand, identity=cand_id,
                checks=[Check(
                    "identity", _CHECK_FAIL,
                    f"execution-config identity changed "
                    f"{base_id} -> {cand_id}; artifacts are not comparable "
                    "(re-commit the baseline)",
                )],
            ))
            continue
        row = ScenarioRow(
            name=name, status="ok", baseline=base, candidate=cand,
            identity=cand_id,
        )
        row.checks.append(_rounds_check(base, cand))
        row.timing_ratio = _timing_ratio(base, cand)
        rows.append(row)

    machine_factor = _machine_factor(rows, bands)
    for row in rows:
        if row.status not in ("ok", "regression"):
            continue
        row.checks.append(
            _timing_check(row, bands, machine_factor)
        )
        if any(check.outcome == _CHECK_FAIL for check in row.checks):
            row.status = "regression"
    return TrendReport(
        rows=rows,
        bands=bands,
        machine_factor=machine_factor,
        baseline_label=baseline_label,
        candidate_label=candidate_label,
    )


# ----------------------------------------------------------------------
# the individual gates
# ----------------------------------------------------------------------
def _rounds_check(
    base: Mapping[str, Any], cand: Mapping[str, Any]
) -> Check:
    """Exact results-block agreement, applicable under replay only."""
    base_rng = base.get("rng", "replay")
    cand_rng = cand.get("rng", "replay")
    if base_rng != "replay" or cand_rng != "replay":
        return Check(
            "replay-rounds", _CHECK_SKIPPED,
            f"not gated: rng={cand_rng} (replay-exactness applies to "
            "replay artifacts only; decoupled parity is distributional)",
        )
    base_trials, cand_trials = base["trials"], cand["trials"]
    if (
        base_trials["base_seed"] != cand_trials["base_seed"]
        or base_trials["vectorized"] != cand_trials["vectorized"]
    ):
        return Check(
            "replay-rounds", _CHECK_SKIPPED,
            "not gated: seed/trial mismatch (baseline seed="
            f"{base_trials['base_seed']} x{base_trials['vectorized']}, "
            f"candidate seed={cand_trials['base_seed']} "
            f"x{cand_trials['vectorized']})",
        )
    base_results, cand_results = base["results"], cand["results"]
    if base_results["success_rate"] != cand_results["success_rate"]:
        return Check(
            "replay-rounds", _CHECK_FAIL,
            "replay drift: results.success_rate "
            f"{base_results['success_rate']} -> "
            f"{cand_results['success_rate']}",
        )
    series_keys = sorted(
        key
        for key in base_results
        if key in cand_results and key not in ("success_rate", "per_trial")
    )
    for key in series_keys:
        for stat in ("mean", "min", "max"):
            base_value = base_results[key][stat]
            cand_value = cand_results[key][stat]
            if base_value != cand_value:
                return Check(
                    "replay-rounds", _CHECK_FAIL,
                    f"replay drift: results.{key}.{stat} "
                    f"{base_value} -> {cand_value} (replay runs are "
                    "deterministic, so any drift is a real regression)",
                )
    return Check(
        "replay-rounds", _CHECK_PASS,
        f"results identical across {', '.join(series_keys)} "
        f"({base_trials['vectorized']} trials, "
        f"seed {base_trials['base_seed']})",
    )


def _timing_ratio(
    base: Mapping[str, Any], cand: Mapping[str, Any]
) -> Optional[float]:
    base_time = base["timing"]["vectorized_seconds_per_trial"]
    cand_time = cand["timing"]["vectorized_seconds_per_trial"]
    if base_time <= 0.0:
        return None
    return cand_time / base_time


def _machine_factor(
    rows: Sequence[ScenarioRow], bands: NoiseBands
) -> Optional[float]:
    ratios = [
        row.timing_ratio
        for row in rows
        if row.status in ("ok", "regression") and row.timing_ratio is not None
    ]
    if not bands.normalize_timing:
        return None
    if len(ratios) < MIN_RATIOS_FOR_NORMALIZATION:
        return None
    return statistics.median(ratios)


def _timing_check(
    row: ScenarioRow, bands: NoiseBands, machine_factor: Optional[float]
) -> Check:
    if row.timing_ratio is None:
        return Check(
            "wall-clock", _CHECK_SKIPPED,
            "not gated: baseline records no positive per-trial time",
        )
    factor = machine_factor if machine_factor else 1.0
    row.normalized_timing_ratio = row.timing_ratio / factor
    scope = (
        f"machine-normalized by median ratio {factor:.3f}"
        if machine_factor
        else "raw ratio (no normalization)"
    )
    detail = (
        f"per-trial wall-clock {row.timing_ratio:.2f}x baseline, "
        f"{row.normalized_timing_ratio:.2f}x after {scope}; "
        f"tolerance {bands.timing_tolerance:g}x"
    )
    if row.normalized_timing_ratio > bands.timing_tolerance:
        return Check("wall-clock", _CHECK_FAIL, detail)
    return Check("wall-clock", _CHECK_PASS, detail)


# ----------------------------------------------------------------------
# the machine-readable verdict
# ----------------------------------------------------------------------
def verdict_payload(report: TrendReport) -> dict[str, Any]:
    """The report as a JSON-serialisable verdict document."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "verdict": report.verdict,
        "baseline": report.baseline_label,
        "candidate": report.candidate_label,
        "policy": {
            "rounds": "exact-under-replay",
            "timing_tolerance": report.bands.timing_tolerance,
            "normalize_timing": report.bands.normalize_timing,
            "machine_factor": report.machine_factor,
        },
        "counts": report.counts,
        "scenarios": [
            {
                "name": row.name,
                "identity": row.identity,
                "status": row.status,
                "timing_ratio": row.timing_ratio,
                "normalized_timing_ratio": row.normalized_timing_ratio,
                "checks": [
                    {
                        "check": check.name,
                        "outcome": check.outcome,
                        "detail": check.detail,
                    }
                    for check in row.checks
                ],
            }
            for row in report.rows
        ],
    }


# ----------------------------------------------------------------------
# markdown + SVG rendering
# ----------------------------------------------------------------------
def render_markdown(report: TrendReport) -> str:
    """The report as deterministic markdown (inline SVG sparklines).

    No timestamps, no environment strings, stable ordering and fixed
    float formatting: rendering the same two artifact sets twice yields
    byte-identical output (pinned by ``tests/test_report.py``).
    """
    counts = report.counts
    lines = [
        "# Benchmark trend report",
        "",
        f"- Baseline: `{report.baseline_label}` "
        f"({_count_with_noun(len([r for r in report.rows if r.baseline is not None]), 'artifact')})",
        f"- Candidate: `{report.candidate_label}` "
        f"({_count_with_noun(len([r for r in report.rows if r.candidate is not None]), 'artifact')})",
        f"- **Verdict: {report.verdict.upper()}** — "
        f"{counts['compared']} compared, {counts['regressions']} "
        f"regression(s), {counts['baseline_only']} baseline-only, "
        f"{counts['candidate_only']} new, {counts['config_changed']} "
        "config-changed",
        "- Policy: replay round counts gated exactly; wall-clock "
        f"tolerance ×{report.bands.timing_tolerance:g} "
        + (
            f"(machine-normalized, median ratio {report.machine_factor:.3f})"
            if report.machine_factor
            else "(raw ratios; no machine normalization)"
        ),
        "",
        "## Summary",
        "",
        "| scenario | axes | rounds mean | Δrounds | ms/trial | ×time | "
        "speedup | status |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in report.rows:
        lines.append(_summary_row(row))
    compared = [row for row in report.rows if row.status in ("ok", "regression")]
    if compared:
        lines += ["", "## Scenario trends", ""]
        for row in compared:
            lines += _detail_section(row)
    config_changed = [row for row in report.rows if row.status == "config-changed"]
    if config_changed:
        lines += ["", "## Config-changed (stale baselines, not gated)", ""]
        for row in config_changed:
            lines.append(f"- `{row.name}`: {row.checks[0].detail}")
    lines.append("")
    return "\n".join(lines)


def _count_with_noun(count: int, noun: str) -> str:
    return f"{count} {noun}{'' if count == 1 else 's'}"


def _axes(payload: Mapping[str, Any]) -> str:
    """Non-default execution axes, compressed for the summary table."""
    scenario = payload["scenario"]
    axes = []
    if scenario.get("strategy", "skeleton") != "skeleton":
        axes.append(scenario["strategy"])
    if payload.get("rng", "replay") != "replay":
        axes.append(payload["rng"])
    if scenario.get("algorithm") not in ("broadcast", None):
        axes.insert(0, scenario["algorithm"])
    return "·".join(axes) if axes else "defaults"


def _summary_row(row: ScenarioRow) -> str:
    def rounds_mean(payload):
        return payload["results"]["rounds"]["mean"]

    def ms_per_trial(payload):
        return payload["timing"]["vectorized_seconds_per_trial"] * 1000.0

    def speedup(payload):
        value = payload["timing"]["speedup"]
        return f"{value:.1f}x" if value is not None else "—"

    if row.status == "baseline-only":
        base = row.baseline
        return (
            f"| {row.name} | {_axes(base)} | {rounds_mean(base):.1f} | — | "
            f"{ms_per_trial(base):.2f} | — | {speedup(base)} | "
            "baseline-only |"
        )
    if row.status == "candidate-only":
        cand = row.candidate
        return (
            f"| {row.name} | {_axes(cand)} | {rounds_mean(cand):.1f} | new | "
            f"{ms_per_trial(cand):.2f} | — | {speedup(cand)} | new |"
        )
    base, cand = row.baseline, row.candidate
    base_rounds, cand_rounds = rounds_mean(base), rounds_mean(cand)
    if base_rounds:
        delta = (cand_rounds - base_rounds) / base_rounds * 100.0
        delta_text = "=" if cand_rounds == base_rounds else f"{delta:+.1f}%"
    else:
        delta_text = "—"
    times = f"{ms_per_trial(base):.2f} → {ms_per_trial(cand):.2f}"
    ratio = (
        f"{row.normalized_timing_ratio:.2f}"
        if row.normalized_timing_ratio is not None
        else "—"
    )
    status = "**REGRESSION**" if row.status == "regression" else row.status
    if row.status == "config-changed":
        status = "config-changed"
    return (
        f"| {row.name} | {_axes(cand)} | "
        f"{base_rounds:.1f} → {cand_rounds:.1f} | {delta_text} | {times} | "
        f"{ratio} | {speedup(base)} → {speedup(cand)} | {status} |"
    )


def _detail_section(row: ScenarioRow) -> list[str]:
    base, cand = row.baseline, row.candidate
    lines = [f"### {row.name}", ""]
    lines.append(
        f"- identity `{row.identity}` · {_axes(cand)} · "
        f"n={cand['topology']['num_nodes']}"
    )
    for label, payload in (("baseline", base), ("candidate", cand)):
        rounds = payload["results"]["rounds"]
        stats = (
            f"mean {rounds['mean']:.1f}, min {rounds['min']:.0f}, "
            f"max {rounds['max']:.0f}"
        )
        per_trial = payload["results"].get("per_trial")
        if per_trial:
            series = per_trial["rounds"]
            stats += (
                f", p50 {_percentile(series, 50):.0f}, "
                f"p90 {_percentile(series, 90):.0f}"
            )
        lines.append(
            f"- {label} rounds: {stats} · success rate "
            f"{payload['results']['success_rate']:.2f}"
        )
    for check in row.checks:
        marker = {"pass": "✓", "fail": "✗", "skipped": "·"}[check.outcome]
        lines.append(f"- {marker} `{check.name}`: {check.detail}")
    lines += ["", _trend_svg(base, cand), "",
              "  <sub>rounds per trial — baseline gray, candidate blue"
              "</sub>", ""]
    return lines


def _percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (q in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ConfigurationError("percentile of an empty series")
    rank = max(1, -(-int(q * len(ordered)) // 100))  # ceil without float
    return float(ordered[min(rank, len(ordered)) - 1])


def _trend_svg(
    base: Mapping[str, Any], cand: Mapping[str, Any]
) -> str:
    """Sparkline of per-trial rounds, or a min/mean/max range plot.

    Hand-rolled SVG, stdlib only; all coordinates are formatted with a
    fixed precision so the markup is deterministic.
    """
    base_series = (base["results"].get("per_trial") or {}).get("rounds")
    cand_series = (cand["results"].get("per_trial") or {}).get("rounds")
    if base_series and cand_series:
        return _sparkline_svg([
            (_BASELINE_COLOR, [float(v) for v in base_series]),
            (_CANDIDATE_COLOR, [float(v) for v in cand_series]),
        ])
    return _range_svg([
        (_BASELINE_COLOR, base["results"]["rounds"]),
        (_CANDIDATE_COLOR, cand["results"]["rounds"]),
    ])


def _svg_open(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" role="img">'
    )


def _sparkline_svg(
    series: Sequence[tuple], width: int = 200, height: int = 42,
    pad: float = 4.0,
) -> str:
    values = [value for _, points in series for value in points]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    parts = [_svg_open(width, height)]
    for color, points in series:
        count = len(points)
        if count == 1:
            points = [points[0], points[0]]
            count = 2
        step = (width - 2 * pad) / (count - 1)
        coords = " ".join(
            f"{pad + index * step:.1f},"
            f"{height - pad - (value - low) * (height - 2 * pad) / span:.1f}"
            for index, value in enumerate(points)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
    parts.append("</svg>")
    return "  " + "".join(parts)


def _range_svg(
    series: Sequence[tuple], width: int = 200, height: int = 42,
    pad: float = 6.0,
) -> str:
    """Horizontal min–max bars with a mean dot, one lane per series."""
    values = [
        block[stat] for _, block in series for stat in ("min", "mean", "max")
    ]
    low, high = min(values), max(values)
    span = (high - low) or 1.0

    def x_of(value: float) -> float:
        return pad + (value - low) * (width - 2 * pad) / span

    parts = [_svg_open(width, height)]
    lane_height = height / len(series)
    for lane, (color, block) in enumerate(series):
        y = lane_height * (lane + 0.5)
        parts.append(
            f'<line x1="{x_of(block["min"]):.1f}" y1="{y:.1f}" '
            f'x2="{x_of(block["max"]):.1f}" y2="{y:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{x_of(block["mean"]):.1f}" cy="{y:.1f}" r="3.5" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "  " + "".join(parts)


def dump_verdict(
    report: TrendReport, path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Write the machine-readable verdict document as JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(verdict_payload(report), indent=2, sort_keys=True) + "\n"
    )
    return path
