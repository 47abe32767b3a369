"""The resolution cache: prepared topologies served warm.

Every cold benchmark run pays topology construction, the diameter
summary, round-budget derivation and the CSR adjacency build before the
first trial draws a bit (:func:`repro.experiments.bench.prepare_scenario`).
The service amortises that over repeated requests with a small LRU of
:class:`~repro.experiments.bench.PreparedScenario` entries keyed by
:func:`resolution_key` -- the config's execution identity joined with a
:func:`repro.api.topology_digest` of the scenario's topology
description -- so two requests share an entry exactly when they would
prepare the identical topology and budget, and two configs that execute
identically on *different* graphs never collide.  An entry holds no
schedule, engine or fault schedule: each job's runs bind the config to
the graph themselves, so concurrent jobs on one entry share nothing they
mutate.

:class:`ResolutionCache` is the synchronous LRU (usable on its own);
:class:`CachedResolver` is the ``asyncio`` facade the server uses,
adding single-flight coalescing: concurrent requests for the same key
await one shared preparation instead of preparing it twice.

The service's concurrency model: the event loop does I/O; one CPU
thread runs preparations and batches first-in first-out; jobs
interleave at batch boundaries; parallel CPU work happens only through
``workers=``.  So a cache-miss preparation runs on the executor the
resolver is handed -- the :class:`~repro.service.jobs.JobManager`'s CPU
thread -- never on the loop's default executor, where it would contend
for the interpreter lock with the batches.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import time
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.api import topology_digest
from repro.experiments.bench import PreparedScenario, prepare_scenario
from repro.experiments.scenarios import Scenario

#: Default number of prepared topologies kept warm.  Entries hold the
#: full graph and its CSR adjacency, so the budget is deliberately
#: modest; size it to the working set of distinct (config, topology)
#: pairs, not to the request volume.
DEFAULT_CACHE_CAPACITY = 32


def resolution_key(scenario: Scenario) -> str:
    """The cache key for running ``scenario``: its config's
    :meth:`~repro.api.ExecutionConfig.identity` and its topology digest.
    Like the identity, it leaves out the backend, since both backends
    agree round for round."""
    identity = scenario.execution_config().identity()
    topology = topology_digest(scenario.family, scenario.topology_args)
    return f"{identity}:{topology}"


class ResolutionCache:
    """A synchronous LRU of :class:`PreparedScenario` entries."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self._capacity = capacity
        self._entries: collections.OrderedDict[str, PreparedScenario] = (
            collections.OrderedDict()
        )
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[PreparedScenario]:
        """The entry for ``key`` (refreshed as most-recently-used), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry

    def put(self, key: str, prepared: PreparedScenario) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = prepared
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def stats(self) -> dict[str, int]:
        """Counters for the ``stats`` endpoint (and the tests)."""
        return {
            "capacity": self._capacity,
            "entries": len(self._entries),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }


class CachedResolver:
    """Single-flight async resolution over a :class:`ResolutionCache`.

    ``resolve`` returns ``(prepared, outcome, seconds)`` where
    ``outcome`` is ``"hit"`` (served from the LRU), ``"miss"`` (this
    call prepared the topology) or ``"coalesced"`` (another in-flight
    call for the same key prepared it; this one awaited it), and
    ``seconds`` is the time this caller spent obtaining the entry --
    the number the ``BENCH_service-*`` artifacts report as cold-vs-warm
    resolve latency, including any wait for ``executor``.  ``compile``
    is the preparation function, run on ``executor``, and the
    ``compiles`` counter counts its calls.
    """

    def __init__(
        self,
        cache: Optional[ResolutionCache] = None,
        *,
        executor: concurrent.futures.Executor,
        compile: Callable[[Scenario], PreparedScenario] = prepare_scenario,
    ) -> None:
        self._cache = cache if cache is not None else ResolutionCache()
        self._executor = executor
        self._compile = compile
        self._inflight: dict[str, asyncio.Future] = {}
        self._compiles = 0
        self._coalesced = 0

    @property
    def cache(self) -> ResolutionCache:
        return self._cache

    def stats(self) -> dict[str, int]:
        return dict(
            self._cache.stats(),
            compiles=self._compiles,
            coalesced=self._coalesced,
            inflight=len(self._inflight),
        )

    async def resolve(
        self, scenario: Scenario
    ) -> tuple[PreparedScenario, str, float]:
        key = resolution_key(scenario)
        started = time.perf_counter()
        prepared = self._cache.get(key)
        if prepared is not None:
            return prepared, "hit", time.perf_counter() - started

        pending = self._inflight.get(key)
        if pending is not None:
            self._coalesced += 1
            prepared = await asyncio.shield(pending)
            return prepared, "coalesced", time.perf_counter() - started

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            self._compiles += 1
            prepared = await loop.run_in_executor(
                self._executor, self._compile, scenario
            )
        except BaseException as error:
            future.set_exception(error)
            # A coalesced awaiter that never retrieves the exception
            # would log noise at teardown; mark it retrieved.
            future.exception()
            raise
        else:
            future.set_result(prepared)
            self._cache.put(key, prepared)
            return prepared, "miss", time.perf_counter() - started
        finally:
            del self._inflight[key]
