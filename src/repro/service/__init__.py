"""``repro.service``: the simulation-serving layer (stdlib-only).

An ``asyncio`` job-queue server that accepts benchmark requests over
HTTP or stdio JSON lines, caches prepared topologies (graph, diameter
summary, round budget, CSR adjacency) in an LRU keyed by execution
identity + topology digest, runs every job's CPU work on one thread
(jobs interleave batch by batch), and streams per-batch results -- see
``docs/EXPERIMENTS.md`` ("Serving simulations").

Layout: :mod:`~repro.service.protocol` (wire format and validation),
:mod:`~repro.service.cache` (LRU + single-flight resolver),
:mod:`~repro.service.jobs` (queue, workers, cancellation/timeouts),
:mod:`~repro.service.server` (HTTP and stdio transports),
:mod:`~repro.service.loadgen` (the load driver that produces the
``BENCH_service-*`` artifacts).  Start one with
``python -m repro.service``.
"""

from repro.service.cache import (
    DEFAULT_CACHE_CAPACITY,
    CachedResolver,
    ResolutionCache,
    resolution_key,
)
from repro.service.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_QUEUE_SIZE,
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobManager,
    JobSpec,
)
from repro.service.protocol import (
    ERROR_CODES,
    OPERATIONS,
    SERVICE_SCHEMA,
    Request,
    RequestError,
    RunOverrides,
    error_response,
    ok_response,
    parse_request,
)
from repro.service.server import ServiceServer, serve_stdio

__all__ = [
    "CachedResolver",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_JOB_WORKERS",
    "DEFAULT_QUEUE_SIZE",
    "ERROR_CODES",
    "JOB_STATES",
    "Job",
    "JobManager",
    "JobSpec",
    "OPERATIONS",
    "Request",
    "RequestError",
    "ResolutionCache",
    "RunOverrides",
    "SERVICE_SCHEMA",
    "ServiceServer",
    "TERMINAL_STATES",
    "error_response",
    "ok_response",
    "parse_request",
    "resolution_key",
    "serve_stdio",
]
