"""Benchmark subsystem: scenarios, batch runs, persisted results.

This package is how the repository measures itself.  It sweeps the
algorithms of :mod:`repro.core` across the topology families of
:mod:`repro.topology` on the vectorized simulation backend
(:mod:`repro.simulation.vectorized`), re-checks round-exact agreement
with the reference :class:`~repro.simulation.runner.ProtocolRunner` on a
prefix of every run, and persists one schema-validated ``BENCH_*.json``
per scenario -- the baseline any future optimisation PR (e.g. the
paper's clustering machinery) is judged against.

* :mod:`repro.experiments.scenarios` -- :class:`Scenario`,
  :class:`ScenarioRegistry` and the built-in sweep
  (:data:`DEFAULT_REGISTRY`).
* :mod:`repro.experiments.bench` -- :func:`run_benchmark`, the measured
  execution of one scenario.
* :mod:`repro.experiments.persistence` -- the ``repro-bench/2`` JSON
  schema (:func:`validate_bench`, :func:`write_bench`,
  :func:`load_bench`).
* :mod:`repro.experiments.report` -- the trend-report / regression-gate
  layer: :func:`compare_artifact_sets` joins a candidate artifact set
  against a committed baseline by scenario + config identity,
  :func:`render_markdown` emits the deterministic markdown + SVG trend
  report, and the :class:`NoiseBands` policy turns the comparison into
  an ``ok`` / ``regression`` verdict CI can gate on.
* :mod:`repro.experiments.cli` -- the ``python -m repro.experiments``
  command line (``list`` / ``run`` / ``sweep`` / ``validate`` /
  ``report``).

See ``docs/EXPERIMENTS.md`` for the guide, including how to register a
new scenario.
"""

from repro.experiments.bench import (
    DEFAULT_REFERENCE_TRIALS,
    PreparedScenario,
    merge_benchmark_batches,
    prepare_scenario,
    run_benchmark,
)
from repro.experiments.persistence import (
    SCHEMA_VERSION,
    bench_filename,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.experiments.report import (
    DEFAULT_TIMING_TOLERANCE,
    NoiseBands,
    TrendReport,
    artifact_identity,
    build_report,
    compare_artifact_sets,
    load_artifact_set,
    render_markdown,
    verdict_payload,
)
from repro.experiments.scenarios import (
    DEFAULT_REGISTRY,
    Scenario,
    ScenarioRegistry,
    get_scenario,
    iter_scenarios,
)


__all__ = [
    "DEFAULT_REFERENCE_TRIALS",
    "DEFAULT_REGISTRY",
    "DEFAULT_TIMING_TOLERANCE",
    "NoiseBands",
    "PreparedScenario",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioRegistry",
    "TrendReport",
    "artifact_identity",
    "bench_filename",
    "build_report",
    "compare_artifact_sets",
    "get_scenario",
    "iter_scenarios",
    "load_artifact_set",
    "load_bench",
    "merge_benchmark_batches",
    "prepare_scenario",
    "render_markdown",
    "run_benchmark",
    "validate_bench",
    "verdict_payload",
    "write_bench",
]
