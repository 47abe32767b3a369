"""Executes one benchmark scenario and assembles its ``BENCH_*.json`` payload.

A benchmark run measures the *vectorized* backend over the scenario's
full trial batch and, unless disabled, re-runs a prefix of the trials on
the pure-Python *reference* backend to (a) time the speedup headline and
(b) re-verify round-exact backend agreement on live data -- every
benchmark doubles as an equivalence check, so a drift between the
backends can never hide inside a performance number.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import datetime
import platform
import time
from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.network.graph import Graph
from repro.topology.validation import TopologySummary, summarize_topology
from repro.api import DEFAULT_ALGORITHMS, ExecutionConfig
from repro.core.compete import check_seed
from repro.core.leader_election import LeaderElectionResult
from repro.core.parameters import CompeteParameters
from repro.experiments.persistence import SCHEMA_VERSION
from repro.experiments.scenarios import Scenario

#: Reference trials re-run for timing/agreement unless overridden.
DEFAULT_REFERENCE_TRIALS = 2


@dataclasses.dataclass(frozen=True)
class PreparedScenario:
    """A scenario's topology, prepared once for many runs.

    Produced by :func:`prepare_scenario`; holds the built topology
    (with its CSR adjacency memoized), its summary (including the
    diameter) and the round budget derived from it with the scenario's
    margin.  The schedule and the engine are not here: each run binds
    its config to the graph in its own
    :class:`~repro.core.compete.Compete`, so runs that share a prepared
    topology share no mutable state.  ``repro.service`` keeps these in
    an LRU keyed by :func:`repro.service.cache.resolution_key`, so repeated
    requests for the same (config, topology) build the graph and
    measure its diameter once; passing one to :func:`run_benchmark` via
    ``prepared=`` skips that cold path.
    """

    scenario: Scenario
    graph: Graph
    summary: TopologySummary
    parameters: CompeteParameters


def prepare_scenario(scenario: Scenario) -> PreparedScenario:
    """Prepare ``scenario``'s topology as a reusable :class:`PreparedScenario`.

    This is the benchmark's cold path -- topology construction, the
    summary (one memoized pass gives the connectivity verdict, the
    diameter's inputs and the CSR adjacency) and round-budget
    derivation -- factored out so callers (most importantly the
    ``repro.service`` cache) can pay it once and amortise it over many
    runs.
    """
    graph = scenario.build_graph()
    summary = summarize_topology(graph)
    # Derived once, with the already-computed diameter.
    parameters = CompeteParameters.from_graph(
        graph, diameter=summary.diameter, margin=scenario.margin
    )
    return PreparedScenario(
        scenario=scenario,
        graph=graph,
        summary=summary,
        parameters=parameters,
    )


def run_benchmark(
    scenario: Scenario,
    *,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    seed_batches: Optional[int] = None,
    reference_trials: Optional[int] = None,
    include_reference: bool = True,
    rng: Optional[str] = None,
    workers: Optional[int] = None,
    prepared: Optional[PreparedScenario] = None,
) -> dict[str, Any]:
    """Run ``scenario`` and return its schema-valid benchmark payload.

    Parameters
    ----------
    scenario:
        What to run (see :class:`~repro.experiments.scenarios.Scenario`).
    trials:
        Override the scenario's vectorized trial count (per seed batch).
    seed:
        Override the scenario's base seed; trial ``i`` uses ``seed + i``
        on both backends, which is what makes agreement checkable.
    seed_batches:
        Run this many consecutive seeded batches of ``trials`` trials
        (default 1): batch ``b`` trial ``i`` uses seed
        ``base + b * trials + i``, so the total sample is
        ``trials * seed_batches`` distinct seeds.  The batch count is
        recorded in the artifact's ``trials`` block.
    reference_trials:
        How many of the trials to repeat on the reference backend
        (capped at the total trial count; default 2).
    include_reference:
        Set False to skip the reference pass entirely -- faster, but the
        payload then carries no speedup and no agreement check.
    rng:
        Override the scenario's randomness policy (one of
        :data:`~repro.simulation.rng.RNG_MODES`).  The run records it in
        the payload's top-level ``rng``; every other execution axis is
        the scenario's own (:meth:`Scenario.execution_config`), so the
        artifact's scenario block names what ran.
    workers:
        Shard the vectorized trial batch across this many processes
        (default 1: run in-process).  Seeds are split into contiguous
        chunks and merged back in submission order, so the payload is
        identical for any worker count -- per-trial draws depend only on
        the trial's own seed under both rng policies, which is what
        makes the sharding sound.  The effective count is recorded in
        the payload's top-level ``workers`` field.
    prepared:
        A :class:`PreparedScenario` from :func:`prepare_scenario` to
        reuse (the ``repro.service`` cache seam): the topology, diameter
        summary and round budget are taken from it instead of being
        recomputed.  It must have been prepared for this scenario's
        topology and execution identity (checked; the rng policy is
        free, since preparation reads none); results are identical with
        or without it.

    Raises
    ------
    SimulationError
        If a reference trial disagrees with its vectorized counterpart
        (the equivalence guarantee is broken -- never ignore this), or
        if a worker process dies mid-batch (the error names the seed
        chunk that was lost).

    Notes
    -----
    Under the ``"decoupled"`` rng policy the reference pass (if any) is
    timing-only: the reference runner replays its per-node streams while
    the vectorized engine hashes counters, so their draws differ by
    design and round-exact agreement is not checked (the payload records
    ``agreement.checked_trials == 0``).  Distributional agreement is
    enforced separately by the statistical test layer.
    """
    per_batch = trials if trials is not None else scenario.trials
    if per_batch < 1:
        raise ConfigurationError(f"trials must be >= 1, got {per_batch}")
    num_batches = seed_batches if seed_batches is not None else 1
    if num_batches < 1:
        raise ConfigurationError(
            f"seed_batches must be >= 1, got {num_batches}"
        )
    if reference_trials is not None and reference_trials < 0:
        raise ConfigurationError(
            f"reference_trials must be >= 0, got {reference_trials}"
        )
    num_workers = workers if workers is not None else 1
    if num_workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {num_workers}")
    check_seed(seed)
    config = scenario.execution_config(rng=rng)
    num_trials = per_batch * num_batches
    base_seed = seed if seed is not None else scenario.seed
    seeds = [base_seed + index for index in range(num_trials)]

    if prepared is None:
        prepared = prepare_scenario(scenario)
    else:
        # Scenario *names* may differ: the service cache deliberately
        # shares one prepared topology across scenarios with identical
        # execution identity and topology (e.g. the service-cold /
        # service-warm probe pair).  What must match is everything the
        # topology and its round budget were prepared from.
        have, want = [
            (s.family, dict(s.topology_args), s.execution_config().identity())
            for s in (prepared.scenario, scenario)
        ]
        if have != want:
            raise ConfigurationError(
                f"prepared resolution is for scenario "
                f"{prepared.scenario.name!r} {have}, not "
                f"{scenario.name!r} {want}"
            )
    graph = prepared.graph
    summary = prepared.summary
    parameters = prepared.parameters

    effective_workers = min(num_workers, num_trials)
    started = time.perf_counter()
    if effective_workers > 1:
        # Contiguous seed chunks, merged back in submission order: the
        # result list is byte-identical to the workers=1 run because
        # each trial's draws depend only on its own seed.
        chunks = [
            chunk.tolist()
            for chunk in np.array_split(
                np.asarray(seeds), effective_workers
            )
            if chunk.size
        ]
        vectorized = _run_sharded(scenario, parameters, chunks, config)
    else:
        vectorized = _run_trials(
            scenario, graph, parameters, seeds, "vectorized", config
        )
    vectorized_seconds = time.perf_counter() - started

    num_reference = 0
    reference_seconds: Optional[float] = None
    if include_reference:
        num_reference = min(
            num_trials,
            reference_trials
            if reference_trials is not None
            else DEFAULT_REFERENCE_TRIALS,
        )
    num_checked = 0
    if num_reference:
        started = time.perf_counter()
        reference = _run_trials(
            scenario, graph, parameters, seeds[:num_reference], "reference",
            config,
        )
        reference_seconds = time.perf_counter() - started
        if config.rng == "replay":
            _check_agreement(scenario, vectorized[:num_reference], reference)
            num_checked = num_reference
        # Decoupled draws differ from the replayed reference streams by
        # design -- the reference pass is timing-only and the payload
        # records zero checked trials (statistical tests own parity).

    payload = {
        "schema": SCHEMA_VERSION,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scenario": scenario.to_dict(),
        "topology": {
            "num_nodes": summary.num_nodes,
            "num_edges": summary.num_edges,
            "diameter": summary.diameter,
            "max_degree": summary.max_degree,
        },
        "schedule": {
            "decay_steps": parameters.decay_steps,
            "num_decay_rounds": parameters.num_decay_rounds,
            "total_rounds": parameters.total_rounds,
        },
        "trials": {
            "vectorized": num_trials,
            "per_batch": per_batch,
            "seed_batches": num_batches,
            "reference": num_reference,
            "base_seed": base_seed,
        },
        "rng": config.rng,
        "workers": effective_workers,
        "results": _summarise(_per_trial(scenario, vectorized)),
        "timing": _timing(
            vectorized_seconds, num_trials, reference_seconds, num_reference
        ),
        "agreement": _agreement(num_checked),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    if scenario.dynamics is not None:
        # Top-level mirror of the fault environment (also persisted in
        # the scenario block), so report tooling can read the fault axis
        # without parsing scenario internals.  Absent on static runs.
        payload["dynamics"] = scenario.dynamics.describe()
    return payload


def _run_sharded(
    scenario: Scenario,
    parameters: CompeteParameters,
    chunks: Sequence[Sequence[int]],
    config: ExecutionConfig,
) -> list:
    """Run contiguous seed chunks across a process pool, merged in order.

    A worker process that dies (OOM-killed, segfaulted, ``os._exit``)
    surfaces from :class:`~concurrent.futures.ProcessPoolExecutor` as a
    bare ``BrokenProcessPool`` with no hint of *what* was lost; here it
    is chained into a :class:`SimulationError` naming the failing
    chunk's seed range so the caller can retry or bisect.
    ``KeyboardInterrupt`` shuts the pool down without waiting for the
    remaining chunks -- the service layer reuses this path and must be
    able to abandon a run promptly.
    """
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=len(chunks)
    )
    interrupted = False
    try:
        futures = [
            (
                pool.submit(
                    _worker_run_trials, scenario, parameters, chunk, config
                ),
                chunk,
            )
            for chunk in chunks
        ]
        merged = []
        for future, chunk in futures:
            try:
                merged.extend(future.result())
            except concurrent.futures.process.BrokenProcessPool as error:
                raise SimulationError(
                    f"worker process died while running scenario "
                    f"{scenario.name!r} seeds {chunk[0]}..{chunk[-1]} "
                    f"({len(chunk)} trial(s)); the whole sharded batch "
                    "is lost -- re-run, or lower workers= if the "
                    "machine is memory-constrained"
                ) from error
        return merged
    except (KeyboardInterrupt, SystemExit):
        # Don't block the interrupt on unfinished chunks: drop queued
        # work and leave running workers to die with the process group.
        interrupted = True
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if not interrupted:
            pool.shutdown(wait=True, cancel_futures=True)


def merge_benchmark_batches(payloads: Sequence[dict]) -> dict[str, Any]:
    """Merge per-batch :func:`run_benchmark` payloads into one artifact.

    The service layer streams a job's seed batches as they finish -- one
    schema-valid payload per batch, produced by consecutive
    ``run_benchmark(..., trials=per_batch, seed=base + b * per_batch)``
    calls -- and this reassembles them into the single payload the
    one-shot ``run_benchmark(..., seed_batches=len(payloads))`` call
    would have produced: concatenated per-trial series, re-derived
    summary statistics, summed wall-clock.  The ``results`` block is
    byte-identical to the one-shot run's (both are deterministic
    functions of config + seeds) -- and with the reference pass disabled
    so are ``trials`` and ``agreement`` (per-batch reference reruns
    check a prefix of *each* batch, the one-shot run a prefix of the
    whole) -- and the merged payload validates under the same
    ``repro-bench/2`` schema.
    """
    if not payloads:
        raise ConfigurationError("cannot merge zero benchmark batches")
    first = payloads[0]
    per_batch = first["trials"]["vectorized"]
    for index, payload in enumerate(payloads):
        if payload["scenario"] != first["scenario"]:
            raise ConfigurationError(
                "cannot merge benchmark batches of different scenarios"
            )
        if payload["trials"]["vectorized"] != per_batch:
            raise ConfigurationError(
                f"batch {index} ran {payload['trials']['vectorized']} "
                f"trial(s), expected {per_batch} -- batches must be "
                "uniform to merge"
            )
        expected_seed = first["trials"]["base_seed"] + index * per_batch
        if payload["trials"]["base_seed"] != expected_seed:
            raise ConfigurationError(
                f"batch {index} starts at seed "
                f"{payload['trials']['base_seed']}, expected "
                f"{expected_seed} -- batches must be seed-contiguous"
            )
    num_batches = len(payloads)
    num_trials = per_batch * num_batches

    per_trial = {
        key: [
            value
            for payload in payloads
            for value in payload["results"]["per_trial"][key]
        ]
        for key in first["results"]["per_trial"]
    }
    reference_trials = sum(p["trials"]["reference"] for p in payloads)

    merged = dict(first)
    merged["trials"] = dict(
        first["trials"],
        vectorized=num_trials,
        per_batch=per_batch,
        seed_batches=num_batches,
        reference=reference_trials,
    )
    merged["results"] = _summarise(per_trial)
    merged["timing"] = _timing(
        sum(p["timing"]["vectorized_seconds"] for p in payloads),
        num_trials,
        sum(p["timing"]["reference_seconds"] or 0.0 for p in payloads),
        reference_trials,
    )
    merged["agreement"] = _agreement(
        sum(p["agreement"]["checked_trials"] for p in payloads)
    )
    return merged


def _run_trials(
    scenario: Scenario,
    graph,
    parameters: CompeteParameters,
    seeds: Sequence[int],
    backend: str,
    config: ExecutionConfig,
) -> list:
    """Run every seed through the registry on ``backend``.

    Dispatch is by algorithm name via
    :data:`repro.api.DEFAULT_ALGORITHMS` -- registering a new baseline
    makes it benchmarkable with no edits here.  The pre-derived
    ``parameters`` ride inside the config so the diameter is not
    recomputed per trial.  The vectorized trials are one
    :meth:`~repro.api.registry.AlgorithmRegistry.run_batch` call; the
    reference pass is one :meth:`~repro.api.registry.AlgorithmRegistry.run`
    call per seed, so ``run_batch`` times the vectorized work alone
    (``perfbench``'s ``node_rounds_per_s`` stopwatch wraps it).
    """
    if backend == "reference" and config.rng == "decoupled":
        # The reference runner has no counter mode (the config layer
        # rejects the combination); its timing pass always replays.
        run_config = config.replace(
            backend=backend, rng="replay", parameters=parameters
        )
    else:
        run_config = config.replace(backend=backend, parameters=parameters)
    if backend == "vectorized":
        return DEFAULT_ALGORITHMS.run_batch(
            scenario.algorithm, graph, seeds=seeds, config=run_config,
            spontaneous=scenario.spontaneous,
        )
    return [
        DEFAULT_ALGORITHMS.run(
            scenario.algorithm, graph, seed=seed, config=run_config,
            spontaneous=scenario.spontaneous,
        )
        for seed in seeds
    ]


def _worker_run_trials(
    scenario: Scenario,
    parameters: CompeteParameters,
    seeds: Sequence[int],
    config: ExecutionConfig,
) -> list:
    """One worker process's share of the vectorized trial batch.

    Module-level so :class:`~concurrent.futures.ProcessPoolExecutor` can
    pickle it; rebuilds the (deterministic) topology locally instead of
    shipping the adjacency structure across the process boundary.
    """
    graph = scenario.build_graph()
    return _run_trials(
        scenario, graph, parameters, seeds, "vectorized", config
    )


def _check_agreement(
    scenario: Scenario, vectorized: Sequence, reference: Sequence
) -> None:
    """Raise unless each reference trial matches its vectorized twin."""
    for index, (fast, slow) in enumerate(zip(vectorized, reference)):
        same = (
            fast.success == slow.success
            and fast.rounds == slow.rounds
            and fast.metrics.as_dict() == slow.metrics.as_dict()
        )
        if isinstance(slow, LeaderElectionResult):
            same = (
                same
                and fast.leader == slow.leader
                and fast.attempts == slow.attempts
            )
        else:
            # Broadcast-shaped results (Compete-based or the classical
            # Decay baseline) all carry the message and reception times.
            same = (
                same
                and fast.message == slow.message
                and dict(fast.reception_rounds) == dict(slow.reception_rounds)
            )
        if not same:
            raise SimulationError(
                f"backend disagreement in scenario {scenario.name!r}, trial "
                f"{index}: the vectorized engine no longer matches the "
                "reference runner round for round"
            )


def _per_trial(scenario: Scenario, results: Sequence) -> dict[str, list]:
    """The payload's raw per-trial series (``results.per_trial``).

    The trend-report subsystem derives percentiles and sparklines from
    them, and the golden-artifact test layer re-derives every summary
    statistic, so a drift between the series and its summary can never
    persist.
    """
    series: dict[str, list] = {
        "rounds": [result.rounds for result in results],
        "transmissions": [result.metrics.transmissions for result in results],
        "receptions": [result.metrics.receptions for result in results],
        "collisions": [result.metrics.collisions for result in results],
    }
    if scenario.dynamics is not None:
        # Robustness series, recorded only for fault-injected scenarios
        # so the 30+ committed static artifacts keep their exact keys
        # (the golden suite re-derives every summary from per_trial --
        # summary and series must always appear together).
        series["delivery_rate"] = [
            result.metrics.delivery_ratio for result in results
        ]
        series["suppressed_links"] = [
            result.metrics.suppressed_links for result in results
        ]
        series["crashed_nodes"] = [
            result.metrics.crashed_nodes for result in results
        ]
        series["jammed_listens"] = [
            result.metrics.jammed_listens for result in results
        ]
    for attribute in DEFAULT_ALGORITHMS.get(scenario.algorithm).extra_series:
        series[attribute] = [getattr(result, attribute) for result in results]
    series["success"] = [bool(result.success) for result in results]
    return series


def _summarise(per_trial: dict[str, list]) -> dict[str, Any]:
    """The payload's ``results`` block: ``per_trial`` and its summaries."""
    successes = per_trial["success"]
    results: dict[str, Any] = {"success_rate": sum(successes) / len(successes)}
    for key, values in per_trial.items():
        if key != "success":
            results[key] = _series(values)
    results["per_trial"] = per_trial
    return results


def _timing(
    vectorized_seconds: float,
    num_trials: int,
    reference_seconds: Optional[float],
    num_reference: int,
) -> dict[str, Any]:
    """The payload's ``timing`` block; no reference trials, no speedup."""
    vec_per_trial = vectorized_seconds / num_trials
    ref_per_trial = (
        reference_seconds / num_reference if num_reference else None
    )
    return {
        "vectorized_seconds": vectorized_seconds,
        "vectorized_seconds_per_trial": vec_per_trial,
        "reference_seconds": reference_seconds if num_reference else None,
        "reference_seconds_per_trial": ref_per_trial,
        "speedup": (
            ref_per_trial / vec_per_trial
            if ref_per_trial is not None and vec_per_trial > 0
            else None
        ),
    }


def _agreement(checked_trials: int) -> dict[str, Any]:
    """The payload's ``agreement`` block.

    ``round_exact`` is True iff agreement was actually checked; a
    disagreement raises instead of persisting, so it is never a false
    True.
    """
    return {
        "checked_trials": checked_trials,
        "round_exact": checked_trials > 0,
    }


def _series(values: Sequence[float]) -> dict[str, float]:
    return {
        "mean": float(sum(values) / len(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }
