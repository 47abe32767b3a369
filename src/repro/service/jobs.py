"""Job queue and execution: bounded, cancellable, timeout-guarded.

A *job* is one benchmark request -- a scenario plus run overrides --
executed as a sequence of seed batches so results can stream out as they
finish.  :class:`JobManager` owns the bounded ``asyncio`` queue (whose
``put_nowait`` failure is the service's backpressure signal: the request
is rejected with ``queue-full`` rather than buffered without bound),
``job_workers`` worker tasks draining it, the
:class:`~repro.service.cache.CachedResolver` all jobs share, and the one
CPU thread that keeps the CPU-bound calls off the event loop.

The concurrency model: the event loop does I/O; one CPU thread runs
preparations and batches first-in first-out; jobs interleave at batch
boundaries; parallel CPU work happens only through ``workers=``.  Two
threads of one process share one interpreter lock, so a second CPU
thread would not add throughput, only slow each batch by contending
with the first.  ``job_workers`` sets how many jobs are in flight, and
their batches take turns on the thread, so a short job is not stuck
behind a long one.  The thread is not the loop's default executor, so
name lookups and other default-executor work never queue behind a
batch.

Each batch is one
:func:`~repro.experiments.bench.run_benchmark` call reusing the cached
:class:`~repro.experiments.bench.PreparedScenario` -- the same code path
an in-process caller takes, which is what makes service results
byte-identical to local runs -- and multi-process trial sharding inside
a batch rides the same ``workers=`` seam.  Each batch records the
seconds it waited for the CPU thread and the seconds it ran
(``batch_timing`` in the job status; beside the payload of each
``batch`` stream event).  Timeouts and cancellation are cooperative at
batch boundaries: a running batch is never killed mid-trial (its thread
cannot be), but no further batch starts once the deadline passed or a
cancel arrived, and the job records how far it got.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import time
from typing import Any, Optional

from repro.errors import ReproError
from repro.experiments.bench import merge_benchmark_batches, run_benchmark
from repro.experiments.scenarios import Scenario
from repro.service.cache import CachedResolver, ResolutionCache
from repro.service.protocol import RequestError, RunOverrides

#: Job lifecycle states.
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled", "timeout"
)

#: States a job can no longer leave.
TERMINAL_STATES = ("done", "failed", "cancelled", "timeout")

#: Default bound on the job queue (backpressure threshold).
DEFAULT_QUEUE_SIZE = 64

#: Default number of jobs in flight at once (their batches take turns on
#: the one CPU thread).
DEFAULT_JOB_WORKERS = 2


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """What a job runs: one scenario plus validated overrides."""

    scenario: Scenario
    overrides: RunOverrides = RunOverrides()


class Job:
    """One enqueued benchmark request and its evolving state."""

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.id = job_id
        self.spec = spec
        self.state = "queued"
        self.error: Optional[str] = None
        self.batches: list[dict[str, Any]] = []
        # Per batch: seconds waited for the CPU thread, seconds run.
        self.batch_timing: list[dict[str, float]] = []
        self.batches_total = (
            spec.overrides.seed_batches
            if spec.overrides.seed_batches is not None
            else 1
        )
        self.result: Optional[dict[str, Any]] = None
        self.resolve_outcome: Optional[str] = None
        self.resolve_seconds: Optional[float] = None
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.cancel_requested = False
        # Set whenever a batch lands or the state changes; streaming
        # consumers wait on it and re-check the job.
        self.changed = asyncio.Event()

    def _mark(self, state: str, error: Optional[str] = None) -> None:
        self.state = state
        if error is not None:
            self.error = error
        if state in TERMINAL_STATES:
            self.finished_at = time.time()
        self.changed.set()

    @property
    def wall_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        end = self.finished_at if self.finished_at is not None else time.time()
        return end - self.started_at

    def to_dict(self, *, include_batches: bool = False) -> dict[str, Any]:
        """The job as the ``status`` response reports it."""
        payload: dict[str, Any] = {
            "job": self.id,
            "state": self.state,
            "scenario": self.spec.scenario.name,
            "batches_total": self.batches_total,
            "batches_done": len(self.batches),
            "resolve": {
                "outcome": self.resolve_outcome,
                "seconds": self.resolve_seconds,
            },
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "batch_timing": list(self.batch_timing),
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        elif include_batches and self.batches:
            payload["batches"] = list(self.batches)
        return payload


class JobManager:
    """The service's execution core: queue, workers, shared cache, CPU thread.

    Start with :meth:`start` (idempotent) and dispose with
    :meth:`close`.  Tests drive it directly -- without the HTTP layer --
    or construct it unstarted to exercise backpressure deterministically.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResolutionCache] = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        job_workers: int = DEFAULT_JOB_WORKERS,
        default_timeout: Optional[float] = None,
    ) -> None:
        if queue_size < 1:
            raise RequestError(
                "bad-request", f"queue_size must be >= 1, got {queue_size}"
            )
        if job_workers < 1:
            raise RequestError(
                "bad-request", f"job_workers must be >= 1, got {job_workers}"
            )
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-cpu"
        )
        self.resolver = CachedResolver(cache, executor=self._executor)
        self._queue: asyncio.Queue[Job] = asyncio.Queue(maxsize=queue_size)
        self._job_workers = job_workers
        self._default_timeout = default_timeout
        self._jobs: dict[str, Job] = {}
        self._counter = 0
        self._workers: list[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the worker tasks (requires a running event loop)."""
        while len(self._workers) < self._job_workers:
            self._workers.append(
                asyncio.get_running_loop().create_task(self._worker())
            )

    async def close(self) -> None:
        """Cancel the workers and release the CPU thread.

        Jobs in flight end ``cancelled``, their error saying how many
        batches finished; queued jobs stay ``queued``.  Work queued on
        the thread never starts; a batch already running finishes, and
        the thread exits after it.
        """
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- submission / queries ------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job, or reject it when the queue is full.

        Raises
        ------
        RequestError
            With code ``queue-full`` -- the backpressure contract; the
            HTTP transport turns it into a 429.
        """
        self._counter += 1
        job = Job(f"job-{self._counter}", spec)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._counter -= 1
            raise RequestError(
                "queue-full",
                f"job queue is full ({self._queue.maxsize} pending); "
                "retry after some jobs finish",
            ) from None
        self._jobs[job.id] = job
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise RequestError(
                "unknown-job", f"no such job {job_id!r}"
            ) from None

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job now, or a running one at its next batch."""
        job = self.get(job_id)
        if job.state == "queued":
            job.cancel_requested = True
            job._mark("cancelled")
        elif job.state not in TERMINAL_STATES:
            job.cancel_requested = True
        return job

    def stats(self) -> dict[str, Any]:
        states: dict[str, int] = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            states[job.state] += 1
        return {
            "queue": {
                "depth": self._queue.qsize(),
                "capacity": self._queue.maxsize,
            },
            "jobs": states,
            "cache": self.resolver.stats(),
        }

    # -- execution -----------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self._queue.get()
            try:
                if job.state == "queued" and not job.cancel_requested:
                    await self.execute(job)
            finally:
                self._queue.task_done()

    async def execute(self, job: Job) -> None:
        """Run ``job`` to a terminal state (resolution, batches, merge)."""
        spec = job.spec
        overrides = spec.overrides
        job.started_at = time.time()
        job._mark("running")
        timeout = (
            overrides.timeout_seconds
            if overrides.timeout_seconds is not None
            else self._default_timeout
        )
        deadline = (
            job.started_at + timeout if timeout is not None else None
        )
        try:
            prepared, outcome, seconds = await self.resolver.resolve(
                spec.scenario
            )
            job.resolve_outcome = outcome
            job.resolve_seconds = seconds

            per_batch = (
                overrides.trials
                if overrides.trials is not None
                else spec.scenario.trials
            )
            base_seed = (
                overrides.seed
                if overrides.seed is not None
                else spec.scenario.seed
            )
            loop = asyncio.get_running_loop()
            for batch in range(job.batches_total):
                if job.cancel_requested:
                    job._mark("cancelled")
                    return
                if deadline is not None and time.time() >= deadline:
                    job._mark(
                        "timeout",
                        f"deadline of {timeout}s reached after "
                        f"{len(job.batches)}/{job.batches_total} batch(es)",
                    )
                    return
                submitted = time.perf_counter()
                payload, started, finished = await loop.run_in_executor(
                    self._executor,
                    self._timed_batch,
                    spec,
                    prepared,
                    per_batch,
                    base_seed + batch * per_batch,
                )
                job.batch_timing.append({
                    "wait_seconds": started - submitted,
                    "run_seconds": finished - started,
                })
                job.batches.append(payload)
                job.changed.set()
            job.result = (
                merge_benchmark_batches(job.batches)
                if len(job.batches) > 1
                else job.batches[0]
            )
            job._mark("done")
        except asyncio.CancelledError:
            job._mark(
                "cancelled",
                f"server shut down after {len(job.batches)}/"
                f"{job.batches_total} batch(es)",
            )
            raise
        except ReproError as error:
            job._mark("failed", str(error))
        except Exception as error:  # defensive: never kill the worker
            job._mark("failed", f"{type(error).__name__}: {error}")

    def _timed_batch(self, *args):
        """One batch on the CPU thread, with when it started and ended."""
        started = time.perf_counter()
        payload = self._run_batch(*args)
        return payload, started, time.perf_counter()

    def _run_batch(self, spec, prepared, trials, seed):
        return run_benchmark(
            spec.scenario,
            trials=trials,
            seed=seed,
            include_reference=spec.overrides.include_reference,
            workers=spec.overrides.workers,
            prepared=prepared,
        )
