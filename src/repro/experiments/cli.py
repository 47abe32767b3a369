"""Command-line entry point: ``python -m repro.experiments <subcommand>``.

Subcommands
-----------
``list``
    Show registered scenarios (optionally filtered by ``--match`` /
    ``--tag``), one per line, or as JSON with ``--json``.
``algorithms``
    Show the algorithm registry (:data:`repro.api.DEFAULT_ALGORITHMS`):
    every runnable algorithm with its declared capabilities.
``run``
    Run one scenario, print its headline numbers, and write
    ``BENCH_<name>.json`` into ``--out`` (default ``benchmarks/``).
``sweep``
    Run every scenario a filter selects, emitting one artifact each.
``validate``
    Load ``BENCH_*.json`` files and check them against the documented
    schema; exits non-zero on the first invalid file (CI uses this).
``report``
    Compare a candidate artifact directory against a committed baseline
    set: emit a deterministic markdown + SVG trend report and an
    ``ok`` / ``regression`` verdict under the pre-registered noise
    bands (CI's ``perf-gate`` job fails the build on regressions via
    ``--fail-on-regression``).

Every subcommand reports bad inputs -- unknown scenarios, unreadable or
malformed artifact files -- as a one-line ``error: ...`` on stderr with
a non-zero exit code, never a traceback.

See ``docs/EXPERIMENTS.md`` for a guided tour.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.api import DEFAULT_ALGORITHMS
from repro.experiments.bench import run_benchmark
from repro.experiments.persistence import load_bench, write_bench
from repro.experiments.report import (
    DEFAULT_TIMING_TOLERANCE,
    NoiseBands,
    build_report,
    dump_verdict,
    render_markdown,
)
from repro.experiments.scenarios import DEFAULT_REGISTRY, Scenario

#: Default output directory for benchmark artifacts.
DEFAULT_OUTPUT_DIR = "benchmarks"


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Benchmark scenarios for the radio-network reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered scenarios"
    )
    _add_filters(list_parser)
    list_parser.add_argument(
        "--json", action="store_true", help="emit the scenarios as JSON"
    )

    algorithms_parser = subparsers.add_parser(
        "algorithms",
        help="list the algorithm registry with declared capabilities",
    )
    algorithms_parser.add_argument(
        "--json", action="store_true", help="emit the registry as JSON"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one scenario and write BENCH_<name>.json"
    )
    run_parser.add_argument("scenario", help="registered scenario name")
    _add_run_options(run_parser)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run every scenario matching a filter"
    )
    _add_filters(sweep_parser)
    sweep_parser.add_argument(
        "--limit", type=int, default=None,
        help="run at most this many scenarios",
    )
    _add_run_options(sweep_parser)

    validate_parser = subparsers.add_parser(
        "validate", help="check BENCH_*.json files against the schema"
    )
    validate_parser.add_argument(
        "paths", nargs="+", help="bench files to validate"
    )

    report_parser = subparsers.add_parser(
        "report",
        help="compare candidate artifacts against a baseline set and "
             "emit a trend report + ok/regression verdict",
    )
    report_parser.add_argument(
        "candidate",
        help="candidate artifact directory (or a single BENCH_*.json)",
    )
    report_parser.add_argument(
        "--against", default=DEFAULT_OUTPUT_DIR, metavar="DIR",
        help="baseline artifact directory or file "
             f"(default: {DEFAULT_OUTPUT_DIR})",
    )
    report_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the markdown report here (default: print to stdout)",
    )
    report_parser.add_argument(
        "--verdict-json", default=None, metavar="FILE",
        help="also write the machine-readable verdict document here",
    )
    report_parser.add_argument(
        "--timing-tolerance", type=float, default=DEFAULT_TIMING_TOLERANCE,
        metavar="X",
        help="relative wall-clock tolerance: a scenario regresses when "
             "its (machine-normalized) per-trial time exceeds the "
             f"baseline's by more than this factor (default: "
             f"{DEFAULT_TIMING_TOLERANCE})",
    )
    report_parser.add_argument(
        "--no-normalize-timing", action="store_true",
        help="gate raw timing ratios instead of dividing by the median "
             "ratio (use for same-machine comparisons)",
    )
    report_parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit with status 2 when the verdict is 'regression' "
             "(what CI's perf-gate job uses)",
    )
    return parser


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--match", default=None, help="substring filter on scenario names"
    )
    parser.add_argument(
        "--tag", default=None, help="keep only scenarios carrying this tag"
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trials", type=int, default=None,
        help="override the scenario's vectorized trial count",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's base seed",
    )
    parser.add_argument(
        "--seeds", type=int, default=None, metavar="N",
        help="run N consecutive seeded batches of the scenario's trial "
             "count instead of one (recorded as trials.seed_batches)",
    )
    parser.add_argument(
        "--rng", choices=("replay", "decoupled"), default=None,
        help="randomness policy: replay (default; round-exact backend "
             "agreement) or decoupled (counter-based fast mode; parity "
             "is distributional, checked by the statistical test layer)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the trial batch across N processes (deterministic: "
             "the artifact is identical for any worker count)",
    )
    parser.add_argument(
        "--reference-trials", type=int, default=None,
        help="how many trials to repeat on the reference backend",
    )
    parser.add_argument(
        "--skip-reference", action="store_true",
        help="skip the reference pass (no speedup / agreement check)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_OUTPUT_DIR,
        help=f"output directory for artifacts (default: {DEFAULT_OUTPUT_DIR})",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        if arguments.command == "list":
            return _command_list(arguments)
        if arguments.command == "algorithms":
            return _command_algorithms(arguments)
        if arguments.command == "run":
            return _command_run(arguments)
        if arguments.command == "sweep":
            return _command_sweep(arguments)
        if arguments.command == "report":
            return _command_report(arguments)
        return _command_validate(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Stdout was closed mid-print (e.g. `report | head`); exit
        # quietly like any well-behaved filter instead of tracebacking.
        # Must precede OSError below: BrokenPipeError subclasses it.
        sys.stderr.close()
        return 0
    except OSError as error:
        # Unreadable inputs / unwritable outputs (missing directory,
        # permissions) are user-facing conditions, not bugs.
        print(f"error: {error}", file=sys.stderr)
        return 1


def _command_list(arguments: argparse.Namespace) -> int:
    scenarios = DEFAULT_REGISTRY.select(
        match=arguments.match, tag=arguments.tag
    )
    if arguments.json:
        print(json.dumps([s.to_dict() for s in scenarios], indent=2))
        return 0
    if not scenarios:
        print("no scenarios match the filter")
        return 0
    width = max(len(scenario.name) for scenario in scenarios)
    for scenario in scenarios:
        tags = f" [{','.join(scenario.tags)}]" if scenario.tags else ""
        print(
            f"{scenario.name:<{width}}  {scenario.algorithm:<15} "
            f"trials={scenario.trials:<3} {scenario.description}{tags}"
        )
    print(f"({len(scenarios)} scenarios)")
    return 0


def _command_algorithms(arguments: argparse.Namespace) -> int:
    algorithms = list(DEFAULT_ALGORITHMS)
    if arguments.json:
        print(json.dumps(
            [
                {
                    "name": algorithm.name,
                    "description": algorithm.description,
                    "collision_models": sorted(
                        model.value for model in algorithm.collision_models
                    ),
                    "supports_spontaneous": algorithm.supports_spontaneous,
                    "requires_spontaneous": algorithm.requires_spontaneous,
                    "spontaneous_default": algorithm.spontaneous_default,
                }
                for algorithm in algorithms
            ],
            indent=2,
        ))
        return 0
    width = max(len(algorithm.name) for algorithm in algorithms)
    for algorithm in algorithms:
        models = ",".join(sorted(
            model.value for model in algorithm.collision_models
        ))
        spontaneous = (
            "required" if algorithm.requires_spontaneous
            else "supported" if algorithm.supports_spontaneous
            else "unsupported"
        )
        print(
            f"{algorithm.name:<{width}}  spontaneous={spontaneous:<11} "
            f"models={models}  {algorithm.description}"
        )
    print(f"({len(algorithms)} algorithms)")
    return 0


def _execute(arguments: argparse.Namespace, scenario: Scenario) -> None:
    payload = run_benchmark(
        scenario,
        trials=arguments.trials,
        seed=arguments.seed,
        seed_batches=arguments.seeds,
        reference_trials=arguments.reference_trials,
        include_reference=not arguments.skip_reference,
        config=scenario.execution_config(rng=arguments.rng),
        workers=arguments.workers,
    )
    path = write_bench(payload, arguments.out)
    timing = payload["timing"]
    results = payload["results"]
    speedup = (
        f"{timing['speedup']:.1f}x vs reference"
        if timing["speedup"] is not None
        else "reference skipped"
    )
    print(
        f"{scenario.name}: success_rate={results['success_rate']:.2f} "
        f"rounds(mean)={results['rounds']['mean']:.0f} "
        f"{timing['vectorized_seconds_per_trial'] * 1000:.1f} ms/trial "
        f"({speedup}) -> {path}"
    )


def _command_run(arguments: argparse.Namespace) -> int:
    scenario = DEFAULT_REGISTRY.get(arguments.scenario)
    _execute(arguments, scenario)
    return 0


def _command_sweep(arguments: argparse.Namespace) -> int:
    scenarios = DEFAULT_REGISTRY.select(
        match=arguments.match, tag=arguments.tag
    )
    if arguments.limit is not None:
        scenarios = scenarios[: arguments.limit]
    if not scenarios:
        print("no scenarios match the filter")
        return 0
    for scenario in scenarios:
        _execute(arguments, scenario)
    print(f"({len(scenarios)} scenarios swept)")
    return 0


def _command_validate(arguments: argparse.Namespace) -> int:
    for path in arguments.paths:
        payload = load_bench(path)
        print(f"{path}: valid ({payload['scenario']['name']})")
    return 0


def _command_report(arguments: argparse.Namespace) -> int:
    report = build_report(
        arguments.against,
        arguments.candidate,
        NoiseBands(
            timing_tolerance=arguments.timing_tolerance,
            normalize_timing=not arguments.no_normalize_timing,
        ),
    )
    markdown = render_markdown(report)
    # The report and verdict files are written before the exit code is
    # decided, so a failing gate still uploads its evidence in CI.
    if arguments.out is not None:
        path = pathlib.Path(arguments.out)
        if path.parent != pathlib.Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(markdown)
    else:
        print(markdown)
    if arguments.verdict_json is not None:
        dump_verdict(report, arguments.verdict_json)
    counts = report.counts
    print(
        f"verdict: {report.verdict} ({counts['compared']} compared, "
        f"{counts['regressions']} regression(s), "
        f"{counts['baseline_only']} baseline-only, "
        f"{counts['candidate_only']} new)",
        file=sys.stderr,
    )
    if report.verdict == "regression" and arguments.fail_on_regression:
        return 2
    return 0
