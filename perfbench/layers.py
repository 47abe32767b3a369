"""The per-layer metrics: which program entry points are traced, and how.

Each traced target is a public function or method of one of the
program's modules; its span name is ``<module layer>.<what>``.  A
metric ending in ``_s`` is the span's *self time* per operation (except
``simulation.batch_s``, the inclusive time of the batched engine run,
whose self time is ``simulation.loop_s``).  Counts are per operation
too, so with identical operations they repeat exactly between runs.

Every span except the operation root belongs to a named layer, so the
layers' self times add up to the operation time minus the root's own
glue; ``trace.coverage_ratio`` reports that share.
"""

from __future__ import annotations

import collections
from typing import Any, Optional

from perfbench import spans

#: Span name of one whole operation.
ROOT = "op"


def _count_outcome(counts, args, kwargs, outcome) -> None:
    rounds = int(outcome.rounds.sum())
    counts["simulation.rounds"] += rounds
    counts["simulation.node_rounds"] += rounds * len(outcome.nodes)


def _count_draws(counts, args, kwargs, draws) -> None:
    import numpy

    wanted = args[1] if len(args) > 1 else kwargs["wanted"]
    counts["simulation.draws_taken"] += int(numpy.count_nonzero(wanted))


def _count_hash(counts, args, kwargs, words) -> None:
    counts["simulation.hash_words"] += int(words.size)


# Computed bytes of the two reception kernels: every element of the
# arrays each kernel reads or materializes, sized by dtype from the
# shapes (cache effects ignored).  Per (trial, node): the bool transmit
# mask, the int64 ranks and their masked product, two int64 outputs.
_BYTES_PER_TRIAL_NODE = 1 + 8 + 8 + 16


def _count_all_edges(counts, args, kwargs, result) -> None:
    """``counts_and_rank_sums`` gathers every CSR entry of every trial."""
    import numpy

    csr, transmit = args[0], args[1]
    trials, nodes = transmit.shape
    entries = trials * csr.num_entries
    degrees = numpy.diff(csr.indptr)
    counts["simulation.reception_entries"] += entries
    counts["simulation.reception_useful"] += int(transmit.sum(axis=0) @ degrees)
    # Per entry: a bool and an int64 gather for the counts, an int64
    # gather for the ranks, both re-read by the segment sums; the int64
    # index array is read once per gather.
    counts["simulation.reception_bytes"] += (
        entries * (1 + 8 + 8 + 16) + csr.num_entries * 16
        + trials * nodes * _BYTES_PER_TRIAL_NODE
    )


def _count_transmitters(counts, args, kwargs, result) -> None:
    """``transmitter_counts_and_rank_sums`` walks transmitters' rows only."""
    import numpy

    csr, transmit = args[0], args[1]
    trials, nodes = transmit.shape
    flat = numpy.flatnonzero(transmit)
    touched = int(numpy.diff(csr.indptr)[flat % nodes].sum())
    counts["simulation.reception_entries"] += touched
    counts["simulation.reception_useful"] += touched
    # Per transmitter: nine int64 index/offset arrays; per touched
    # entry: the three expanded streams, positions, listeners, flat
    # targets, float64 weights and the two bincount reads.
    counts["simulation.reception_bytes"] += (
        touched * 72 + flat.size * 72 + trials * nodes * _BYTES_PER_TRIAL_NODE
    )


def _count_attempts(counts, args, kwargs, result) -> None:
    counts["core.election_attempts"] += int(result.attempts)


#: ``(target, span name, count hook)``.  Targets are "module:Qual.name".
TRACED = (
    ("repro.experiments.bench:prepare_scenario", "experiments.prepare", None),
    ("repro.experiments.bench:run_benchmark", "experiments.run", None),
    ("repro.experiments.persistence:validate_bench", "experiments.validate", None),
    ("repro.experiments.persistence:write_bench", "experiments.write", None),
    ("repro.experiments.scenarios:Scenario.build_graph", "topology.build", None),
    ("repro.topology.validation:summarize_topology", "topology.summary", None),
    ("repro.api.config:resolve_execution", "api.resolve", None),
    ("repro.api.registry:AlgorithmRegistry.run", "api.dispatch", None),
    ("repro.api.registry:AlgorithmRegistry.run_batch", "api.dispatch", None),
    ("repro.network.graph:Graph.adjacency_csr", "network.adjacency", None),
    ("repro.network.graph:Graph.adjacency_matrix", "network.adjacency", None),
    ("repro.network.radio:RadioNetwork.run_round", "network.run_round", None),
    ("repro.simulation.runner:ProtocolRunner.run", "simulation.reference", None),
    ("repro.api.config:ResolvedExecution.build_engine",
     "simulation.engine_build", None),
    ("repro.simulation.vectorized:VectorizedCompeteEngine.run_batch",
     "simulation.batch", _count_outcome),
    ("repro.simulation.vectorized:DrawStreams.__init__",
     "simulation.draws_init", None),
    ("repro.simulation.vectorized:DrawStreams.take", "simulation.draws", _count_draws),
    ("repro.simulation.rng:DecoupledStreams.bits", "simulation.hash", _count_hash),
    ("repro.simulation.sparse:CSRAdjacency.counts_and_rank_sums",
     "simulation.reception", _count_all_edges),
    ("repro.simulation.sparse:CSRAdjacency.transmitter_counts_and_rank_sums",
     "simulation.reception", _count_transmitters),
    ("repro.dynamics.schedule:FaultSchedule.round_faults", "dynamics.faults", None),
    ("repro.core.compete:Compete.run_batch", "core.assembly", None),
    ("repro.core.broadcast:broadcast", "core.entry", None),
    ("repro.core.broadcast:broadcast_batch", "core.entry", None),
    ("repro.core.leader_election:elect_leader", "core.entry", _count_attempts),
    ("repro.core.decay_broadcast:decay_broadcast", "core.entry", None),
    ("repro.core.decay_broadcast:decay_broadcast_batch", "core.entry", None),
)

#: Lazy properties whose first read per instance is the layer's work.
FIRST_ACCESS = (
    ("repro.api.config:ResolvedExecution.schedule", "schedules.compile"),
)

#: Every per-layer metric, in report order: ``(name, unit, source)``.
#: Sources: ``("self", span)`` self seconds per operation,
#: ``("inclusive", span)`` inclusive seconds per operation,
#: ``("count", key)`` count per operation, ``("ratio", num, den)`` a
#: run-wide ratio of two counts, ``("service",)`` from the service's own
#: responses, ``("trace",)`` computed by the runner.
PER_LAYER = (
    ("topology.build_s", "s", ("self", "topology.build")),
    ("topology.summary_s", "s", ("self", "topology.summary")),
    ("api.resolve_s", "s", ("self", "api.resolve")),
    ("api.resolve_calls", "count", ("count", "api.resolve_calls")),
    ("api.dispatch_s", "s", ("self", "api.dispatch")),
    ("schedules.compile_s", "s", ("self", "schedules.compile")),
    ("schedules.compile_calls", "count", ("count", "schedules.compile_calls")),
    ("network.adjacency_s", "s", ("self", "network.adjacency")),
    ("network.run_round_s", "s", ("self", "network.run_round")),
    ("network.run_round_calls", "count", ("count", "network.run_round_calls")),
    ("simulation.reference_s", "s", ("self", "simulation.reference")),
    ("simulation.engine_build_s", "s", ("self", "simulation.engine_build")),
    ("simulation.batch_s", "s", ("inclusive", "simulation.batch")),
    ("simulation.loop_s", "s", ("self", "simulation.batch")),
    ("simulation.rounds", "count", ("count", "simulation.rounds")),
    ("simulation.node_rounds", "count", ("count", "simulation.node_rounds")),
    ("simulation.draws_s", "s", ("self", "simulation.draws")),
    ("simulation.draws_init_s", "s", ("self", "simulation.draws_init")),
    ("simulation.draws_taken", "count", ("count", "simulation.draws_taken")),
    ("simulation.hash_s", "s", ("self", "simulation.hash")),
    ("simulation.hash_words", "count", ("count", "simulation.hash_words")),
    ("simulation.reception_s", "s", ("self", "simulation.reception")),
    ("simulation.reception_entries", "count",
     ("count", "simulation.reception_entries")),
    ("simulation.reception_useful_ratio", "ratio",
     ("ratio", "simulation.reception_useful", "simulation.reception_entries")),
    ("simulation.reception_bytes", "B", ("count", "simulation.reception_bytes")),
    ("dynamics.faults_s", "s", ("self", "dynamics.faults")),
    ("dynamics.faults_calls", "count", ("count", "dynamics.faults_calls")),
    ("core.entry_s", "s", ("self", "core.entry")),
    ("core.assembly_s", "s", ("self", "core.assembly")),
    ("core.election_attempts", "count", ("count", "core.election_attempts")),
    ("experiments.prepare_s", "s", ("self", "experiments.prepare")),
    ("experiments.run_s", "s", ("self", "experiments.run")),
    ("experiments.validate_s", "s", ("self", "experiments.validate")),
    ("experiments.write_s", "s", ("self", "experiments.write")),
    ("service.submit_ms", "ms", ("service",)),
    ("service.queue_wait_ms", "ms", ("service",)),
    ("service.resolve_ms", "ms", ("service",)),
    ("service.cache_hit_ratio", "ratio", ("service",)),
    ("service.cache_compiles", "count", ("service",)),
    ("service.batch_ms", "ms", ("service",)),
    ("service.job_overhead_ms", "ms", ("service",)),
    ("service.request_p50_ms", "ms", ("service",)),
    ("service.request_p95_ms", "ms", ("service",)),
    ("service.requests_per_s", "1/s", ("service",)),
    ("trace.artifact_s", "s", ("trace",)),
    ("trace.coverage_ratio", "ratio", ("trace",)),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def install(tracer: spans.Tracer, patches: spans.Patches) -> list[str]:
    """Wrap every traced target; returns the targets the program lacks."""
    missing = []
    for target, name, hook in TRACED:
        if not spans.install_span(tracer, patches, target, name, hook):
            missing.append(target)
    for target, name in FIRST_ACCESS:
        if not spans.install_first_access_span(tracer, patches, target, name):
            missing.append(target)
    return missing


def layer_metrics(
    tracer: spans.Tracer, operations: dict[int, tuple[float, float]]
) -> dict[str, float]:
    """The in-process per-layer metrics over ``operations``.

    ``operations`` maps each operation id to ``(seconds, factor)``: its
    wall-clock time and the factor that turns it into paced seconds.
    Counts are read from ``tracer.counts``, which the caller resets to
    cover exactly those operations.  Returns every non-service metric,
    zero where the layer did no work, with ``trace.coverage_ratio`` the
    smallest share of any operation its named layers' self times cover;
    ``trace.artifact_s`` is left to the caller.
    """
    own = spans.self_times(tracer.spans)
    self_seconds: collections.Counter = collections.Counter()
    inclusive: collections.Counter = collections.Counter()
    covered: collections.Counter = collections.Counter()
    for span, own_seconds in zip(tracer.spans, own):
        if span.op not in operations or span.name == ROOT:
            continue
        factor = operations[span.op][1]
        self_seconds[span.name] += own_seconds * factor
        inclusive[span.name] += (span.end - span.start) * factor
        covered[span.op] += own_seconds
    count = max(len(operations), 1)
    metrics: dict[str, float] = {}
    for name, _, source in PER_LAYER:
        kind = source[0]
        if kind == "self":
            metrics[name] = self_seconds[source[1]] / count
        elif kind == "inclusive":
            metrics[name] = inclusive[source[1]] / count
        elif kind == "count":
            metrics[name] = tracer.counts[source[1]] / count
        elif kind == "ratio":
            denominator = tracer.counts[source[2]]
            metrics[name] = (
                tracer.counts[source[1]] / denominator if denominator else 0.0
            )
        elif kind == "service":
            metrics[name] = 0.0
    metrics["trace.coverage_ratio"] = min(
        (covered[op] / seconds for op, (seconds, _) in operations.items()),
        default=0.0,
    )
    return metrics


def zero_metrics(overrides: Optional[dict[str, Any]] = None) -> dict[str, float]:
    """Every per-layer metric at zero, then ``overrides`` applied."""
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics.update(overrides or {})
    return metrics
