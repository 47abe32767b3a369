"""The in-process workloads: cold scenario-to-artifact operations.

One operation is what ``python -m repro.experiments run <scenario>``
does, called through :mod:`repro.experiments`: look the scenario up,
``prepare_scenario`` (topology, diameter, schedule, adjacency),
``run_benchmark`` (vectorized trials, optional reference pass,
aggregation) and ``write_bench`` (validation, JSON).  Every operation
starts cold -- nothing is reused from the previous one -- and runs in
this single-threaded process with ``workers=1``.

Inputs come from the workload seed: operation ``i`` runs trial seed
``seed + i % SEED_CYCLE``.  A trial the committed
``benchmarks/BENCH_*.json`` recorded (at the default seed, the first
two to eight of the cycle, depending on the scenario) must reproduce its
committed row, and a trial that repeats within the run must repeat
exactly.  Cycling through eight trials, rather than repeating one, keeps
a run's median from hanging on a single trial's round count.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pathlib
import time
from typing import Any, Optional

from perfbench import env, layers, spans
from perfbench.stats import median

#: Timed operations per run, whatever the time budget.
MIN_OPERATIONS = 3

#: Operations cycle through this many consecutive trial seeds.
SEED_CYCLE = 8


@dataclasses.dataclass(frozen=True)
class Step:
    """One scenario of an operation."""

    scenario: str
    #: Trials repeated on the reference runner (round-exact agreement).
    reference_trials: int = 0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("replay-grid4096", (Step("broadcast-grid-n4096"),)),
        Workload("decoupled-grid16384", (Step("broadcast-grid-n16384-decoupled"),)),
        Workload(
            "cold-small-sweep",
            (
                Step("broadcast-grid-n1024"),
                Step("broadcast-path-n256-clustered"),
                Step("broadcast-grid-n256-churn", reference_trials=1),
                Step("election-grid-n256-jam"),
            ),
        ),
    )
}


@dataclasses.dataclass
class Operation:
    """Timings and check results of one operation."""

    index: int
    #: Wall-clock seconds of the whole operation, of its ``prepare_scenario``
    #: calls and inside ``AlgorithmRegistry.run_batch`` (node-round steps).
    seconds: float = 0.0
    setup_seconds: float = 0.0
    batch_seconds: float = 0.0
    #: The same three, paced step by step (see :class:`perfbench.env.Pacer`).
    paced_seconds: float = 0.0
    paced_setup: float = 0.0
    paced_batch: float = 0.0
    node_rounds: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


class Expectations:
    """What each operation's per-trial results must be.

    A trial's row is compared with the committed artifact of its
    scenario whenever that artifact recorded the same trial seed, and
    with every earlier run of the same (scenario, seed) in this process.
    """

    def __init__(self, bench_dir: pathlib.Path) -> None:
        self._bench_dir = bench_dir
        self._committed: dict[str, Optional[dict[str, Any]]] = {}
        self._seen: dict[tuple[str, int], dict[str, Any]] = {}
        self.committed_checks = 0

    def committed_row(self, scenario: str, seed: int) -> Optional[dict[str, Any]]:
        if scenario not in self._committed:
            path = self._bench_dir / f"BENCH_{scenario}.json"
            self._committed[scenario] = (
                json.loads(path.read_text()) if path.is_file() else None
            )
        payload = self._committed[scenario]
        if payload is None:
            return None
        index = seed - payload["trials"]["base_seed"]
        per_trial = payload["results"]["per_trial"]
        if not 0 <= index < len(per_trial["rounds"]):
            return None
        return {key: values[index] for key, values in per_trial.items()}

    def check(self, scenario: str, seeds: list[int], payload: dict) -> list[str]:
        problems = []
        if payload["scenario"]["name"] != scenario:
            problems.append(f"artifact names {payload['scenario']['name']!r}")
        trials = payload["trials"]
        if trials["vectorized"] != len(seeds) or trials["base_seed"] != seeds[0]:
            problems.append(f"{scenario}: ran {trials}, expected seeds {seeds}")
            return problems
        per_trial = payload["results"]["per_trial"]
        for index, seed in enumerate(seeds):
            row = {key: values[index] for key, values in per_trial.items()}
            committed = self.committed_row(scenario, seed)
            if committed is not None:
                self.committed_checks += 1
                if committed != row:
                    problems.append(
                        f"{scenario} seed {seed}: {row} differs from the "
                        f"committed artifact's {committed}"
                    )
            earlier = self._seen.setdefault((scenario, seed), row)
            if earlier != row:
                problems.append(f"{scenario} seed {seed}: result not reproducible")
        return problems


def run_operation(
    workload: Workload,
    index: int,
    seed: int,
    out_dir: pathlib.Path,
    expectations: Expectations,
    pacer: Optional[env.Pacer] = None,
    stopwatch: Optional[spans.Stopwatch] = None,
    tracer: Optional[spans.Tracer] = None,
) -> Operation:
    """Run operation ``index`` of ``workload`` and check its artifacts.

    With a ``pacer``, the pace is probed after every step (outside the
    step's timing) and each step's times are paced on their own.
    """
    # Looked up at call time: tracing rebinds the package attributes.
    from repro import experiments

    trial_seed = seed + index % SEED_CYCLE
    operation = Operation(index)
    payloads = []
    batches = []  # (seconds inside run_batch, pacing factor) per step
    if tracer is not None:
        tracer.op = index
        root = tracer.open(layers.ROOT)
    try:
        for step in workload.steps:
            started = time.perf_counter()
            scenario = experiments.get_scenario(step.scenario)
            prepared = experiments.prepare_scenario(scenario)
            setup = time.perf_counter() - started
            batch_before = stopwatch.seconds if stopwatch is not None else 0.0
            payload = experiments.run_benchmark(
                scenario,
                trials=1,
                seed=trial_seed,
                include_reference=step.reference_trials > 0,
                reference_trials=step.reference_trials,
                prepared=prepared,
                workers=1,
            )
            experiments.write_bench(payload, out_dir)
            seconds = time.perf_counter() - started
            payloads.append(payload)
            factor = pacer.factor() if pacer is not None else 1.0
            batches.append(
                (stopwatch.seconds - batch_before if stopwatch is not None else 0.0,
                 factor)
            )
            operation.seconds += seconds
            operation.paced_seconds += seconds * factor
            operation.setup_seconds += setup
            operation.paced_setup += setup * factor
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.op = None
    for step, payload, (seconds, factor) in zip(workload.steps, payloads, batches):
        operation.problems += expectations.check(step.scenario, [trial_seed], payload)
        if step.reference_trials and not payload["agreement"]["round_exact"]:
            operation.problems.append(f"{step.scenario}: reference not checked")
        per_trial = payload["results"]["per_trial"]
        if "attempts" in per_trial:
            # A retried election's rounds include failed attempts the
            # engine charges without simulating them: not node-rounds of
            # work, and their share swings with the seed.
            continue
        operation.node_rounds += payload["topology"]["num_nodes"] * sum(
            per_trial["rounds"]
        )
        operation.batch_seconds += seconds
        operation.paced_batch += seconds * factor
    return operation


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    root: pathlib.Path,
    out_dir: pathlib.Path,
    tracer: Optional[spans.Tracer] = None,
) -> dict[str, Any]:
    """One untimed warm-up, then operations until ``seconds`` are used.

    A new operation starts only while the budget leaves room for a
    typical one, and at least :data:`MIN_OPERATIONS` are timed.  Traced
    runs time whole seed cycles instead -- a new cycle only while the
    budget has room for it, at least one -- so per-operation counts
    average the same trials in every run and repeat exactly.  Failed
    operations are counted and never timed.
    """
    expectations = Expectations(root / "benchmarks")
    patches = spans.Patches()
    stopwatch = None
    if tracer is None:
        stopwatch = spans.Stopwatch()
        stopwatch.install(patches, "repro.api.registry:AlgorithmRegistry.run_batch")
    else:
        missing = layers.install(tracer, patches)
    operations: list[Operation] = []
    failures: list[str] = []
    failed = 0
    pacer = env.Pacer()

    def attempt(index: int) -> Optional[Operation]:
        nonlocal failed
        gc.collect()
        try:
            operation = run_operation(
                workload, index, seed, out_dir, expectations, pacer, stopwatch, tracer
            )
        except Exception as error:  # a failed operation is a result, not a crash
            operation = Operation(index, problems=[f"{type(error).__name__}: {error}"])
            pacer.factor()
        if operation.problems:
            failed += 1
            failures.extend(f"operation {index}: {p}" for p in operation.problems)
            return None
        return operation

    try:
        warmup = attempt(0)
        if tracer is not None:
            tracer.counts.clear()
        typical = warmup.seconds if warmup is not None else 0.0
        started = time.perf_counter()
        index = 1
        batch = SEED_CYCLE if tracer is not None else 1
        minimum = SEED_CYCLE if tracer is not None else MIN_OPERATIONS
        while (
            index <= minimum
            or (index - 1) % batch
            or time.perf_counter() - started + batch * typical <= seconds
        ):
            operation = attempt(index)
            index += 1
            if operation is not None:
                operations.append(operation)
                typical = median([op.seconds for op in operations])
    finally:
        patches.restore()
    result: dict[str, Any] = {
        "attempted": index,
        "failed": failed,
        "failures": failures,
        "operations": operations,
        "committed_checks": expectations.committed_checks,
        "probes": pacer.probes,
    }
    if tracer is not None:
        result["missing_targets"] = missing
    return result


def end_to_end(operations: list[Operation]) -> tuple[dict[str, float], dict[str, int]]:
    """The untraced metrics (medians of paced seconds) and sample counts."""
    metrics = {
        "setup_s": median([op.paced_setup for op in operations]),
        "artifact_s": median([op.paced_seconds for op in operations]),
        "node_rounds_per_s": median(
            [op.node_rounds / op.paced_batch for op in operations]
        ),
    }
    samples = {name: len(operations) for name in metrics}
    return metrics, samples


def wall_clock(operations: list[Operation]) -> dict[str, float]:
    """The same metrics from unpaced wall-clock seconds."""
    return {
        "setup_s": median([op.setup_seconds for op in operations]),
        "artifact_s": median([op.seconds for op in operations]),
        "node_rounds_per_s": median(
            [op.node_rounds / op.batch_seconds for op in operations]
        ),
    }
