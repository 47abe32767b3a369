"""The serving layer: protocol, cache, jobs, transports.

Everything here drives the real pipeline on tiny scenarios -- the
service's core guarantee is that a served result is *byte-identical* to
an in-process :func:`run_benchmark` call, so the tests never mock the
benchmark path itself.  Async pieces run under ``asyncio.run`` inside
plain test functions (no pytest-asyncio in the dependency budget).
"""

import asyncio
import concurrent.futures
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.experiments import prepare_scenario, run_benchmark, validate_bench
from repro.experiments.scenarios import DEFAULT_REGISTRY, Scenario
from repro.service import (
    CachedResolver,
    Job,
    JobManager,
    JobSpec,
    RequestError,
    ResolutionCache,
    RunOverrides,
    ServiceServer,
    error_response,
    ok_response,
    parse_request,
    resolution_key,
    serve_stdio,
)
from repro.service.loadgen import attach_service_block

TINY = Scenario(
    name="svc-tiny",
    description="test-only broadcast on a small star",
    family="star",
    topology_args={"num_leaves": 7},
    algorithm="broadcast",
    trials=3,
    seed=11,
)

#: Same execution axes as TINY, different topology: the identity digest
#: matches, so only the topology digest keeps their cache keys apart.
TINY_OTHER_TOPOLOGY = Scenario(
    name="svc-tiny-wide",
    description="same config, wider star",
    family="star",
    topology_args={"num_leaves": 15},
    algorithm="broadcast",
    trials=3,
    seed=11,
)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
def test_parse_request_rejects_malformed():
    for payload, fragment in [
        (["not", "an", "object"], "JSON object"),
        ({"op": "frobnicate"}, "op must be one of"),
        ({"op": "status"}, "'job' id"),
        ({"op": "run"}, "scenario"),
        ({"op": "run", "scenario": "no-such"}, "not registered"),
        ({"op": "run", "scenario": "broadcast-path-n32", "trials": 0},
         "trials"),
        ({"op": "run", "scenario": "broadcast-path-n32", "trials": True},
         "boolean"),
        ({"op": "run", "scenario": "broadcast-path-n32", "seed": -1},
         "seed must be >= 0"),
        ({"op": "run", "scenario": {**TINY.to_dict(), "seed": -1}},
         "seed must be >= 0"),
        ({"op": "run", "scenario": {**TINY.to_dict(), "margin": 0}},
         "margin must be > 0"),
        ({"op": "run", "scenario": {**TINY.to_dict(), "margin": -1}},
         "margin must be > 0"),
        ({"op": "run",
          "scenario": {**TINY.to_dict(), "margin": float("nan")}},
         "margin must be > 0"),
        ({"op": "run", "scenario": "broadcast-path-n32",
          "timeout_seconds": 0}, "timeout_seconds"),
        ({"op": "sweep", "limit": 0}, "limit"),
        ({"op": "run", "scenario": "broadcast-path-n32", "id": 7},
         "id must be a string"),
    ]:
        with pytest.raises(RequestError, match=None) as excinfo:
            parse_request(payload)
        assert fragment in str(excinfo.value)

    unknown = pytest.raises(
        RequestError, parse_request, {"op": "run", "scenario": "no-such"}
    )
    assert unknown.value.code == "unknown-scenario"


def test_parse_request_accepts_registered_and_inline_scenarios():
    request = parse_request(
        {"op": "run", "scenario": "broadcast-path-n32", "trials": 2,
         "seed_batches": 2, "id": "abc"}
    )
    assert request.scenario.name == "broadcast-path-n32"
    assert request.overrides == RunOverrides(trials=2, seed_batches=2)
    assert request.id == "abc"

    inline = parse_request({"op": "run", "scenario": TINY.to_dict()})
    assert inline.scenario.name == TINY.name
    assert inline.scenario.topology_args == TINY.topology_args

    with pytest.raises(RequestError, match="engine") as bad:
        parse_request(
            {"op": "run", "scenario": {**TINY.to_dict(), "engine": "dense"}}
        )
    assert bad.value.code == "bad-request"

    # A misspelt key is refused, not silently run as the default.
    typo = {**TINY.to_dict(), "stratgy": "clustered"}
    with pytest.raises(RequestError, match="stratgy") as bad:
        parse_request({"op": "run", "scenario": typo})
    assert bad.value.code == "bad-request"


def test_response_envelopes_echo_request_id():
    assert ok_response({"x": 1}, request_id="r1") == {
        "schema": "repro-service/1", "ok": True, "id": "r1", "x": 1,
    }
    failure = error_response("queue-full", "busy", request_id="r2")
    assert failure["ok"] is False
    assert failure["id"] == "r2"
    assert failure["error"]["code"] == "queue-full"
    # Unknown codes degrade to internal rather than leaking junk.
    assert error_response("nope", "x")["error"]["code"] == "internal"


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_resolution_key_separates_topologies_and_unifies_identities():
    key_a = resolution_key(TINY)
    key_b = resolution_key(TINY_OTHER_TOPOLOGY)
    # Same execution identity (the prefix) -- different topology digest.
    assert key_a.split(":")[0] == key_b.split(":")[0]
    assert key_a != key_b

    # The registered cold/warm probe pair shares one key by design.
    cold = DEFAULT_REGISTRY.get("service-cold")
    warm = DEFAULT_REGISTRY.get("service-warm")
    assert resolution_key(cold) == resolution_key(warm)


def test_resolution_cache_lru_eviction_and_counters():
    with pytest.raises(ConfigurationError):
        ResolutionCache(0)
    cache = ResolutionCache(2)
    assert cache.get("a") is None  # miss
    cache.put("a", "A")
    cache.put("b", "B")
    assert cache.get("a") == "A"  # refreshes a as most-recent
    cache.put("c", "C")  # evicts b (the LRU entry)
    assert "b" not in cache
    assert cache.get("a") == "A" and cache.get("c") == "C"
    stats = cache.stats()
    assert stats == {
        "capacity": 2, "entries": 2, "hits": 3, "misses": 1, "evictions": 1,
    }


def test_cached_resolver_coalesces_concurrent_compiles():
    compiles = []

    def slow_compile(scenario):
        compiles.append(scenario.name)
        time.sleep(0.2)
        return f"prepared-{scenario.name}"

    async def scenario_pair(executor):
        resolver = CachedResolver(executor=executor, compile=slow_compile)
        first, second = await asyncio.gather(
            resolver.resolve(TINY), resolver.resolve(TINY)
        )
        third = await resolver.resolve(TINY)
        return first, second, third, resolver.stats()

    with concurrent.futures.ThreadPoolExecutor(1) as executor:
        first, second, third, stats = asyncio.run(scenario_pair(executor))
    assert len(compiles) == 1, "duplicate requests must share one compile"
    assert first[0] == second[0] == third[0] == "prepared-svc-tiny"
    assert {first[1], second[1]} == {"miss", "coalesced"}
    assert third[1] == "hit"
    assert stats["compiles"] == 1 and stats["coalesced"] == 1
    assert stats["hits"] == 1


def test_cached_resolver_propagates_compile_failure_then_recovers():
    attempts = []

    def flaky_compile(scenario):
        attempts.append(1)
        if len(attempts) == 1:
            raise ConfigurationError("transient failure")
        return "ok"

    async def drive(executor):
        resolver = CachedResolver(executor=executor, compile=flaky_compile)
        with pytest.raises(ConfigurationError, match="transient"):
            await resolver.resolve(TINY)
        prepared, outcome, _ = await resolver.resolve(TINY)
        return prepared, outcome

    with concurrent.futures.ThreadPoolExecutor(1) as executor:
        prepared, outcome = asyncio.run(drive(executor))
    assert prepared == "ok" and outcome == "miss"
    assert len(attempts) == 2, "a failed compile must not be cached"


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def _wait_terminal(manager, job, deadline=60.0):
    async def poll():
        end = time.monotonic() + deadline
        while job.state not in ("done", "failed", "cancelled", "timeout"):
            assert time.monotonic() < end, f"job stuck in {job.state}"
            await asyncio.sleep(0.02)

    return poll()


def test_job_results_are_byte_identical_to_in_process_run():
    local = run_benchmark(TINY, include_reference=False)

    async def serve_one():
        manager = JobManager()
        manager.start()
        try:
            job = manager.submit(JobSpec(scenario=TINY))
            await _wait_terminal(manager, job)
            return job
        finally:
            await manager.close()

    job = asyncio.run(serve_one())
    assert job.state == "done"
    assert job.resolve_outcome == "miss"
    served = job.result
    assert served["results"] == local["results"]
    assert served["trials"] == local["trials"]
    assert served["scenario"] == local["scenario"]
    assert served["agreement"] == local["agreement"]


def test_job_seed_batches_stream_and_merge():
    local = run_benchmark(TINY, trials=4, include_reference=False)

    async def serve_batched():
        manager = JobManager()
        manager.start()
        try:
            job = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(trials=2, seed_batches=2),
            ))
            await _wait_terminal(manager, job)
            return job
        finally:
            await manager.close()

    job = asyncio.run(serve_batched())
    assert job.state == "done"
    assert len(job.batches) == 2
    assert job.result["results"] == local["results"]
    assert job.result["trials"]["vectorized"] == 4


def test_job_timeout_and_cancel_paths():
    async def drive():
        manager = JobManager()
        manager.start()
        try:
            # Deadline in the past by the first batch check -> timeout
            # before any batch runs.
            timed_out = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(
                    seed_batches=2, timeout_seconds=1e-6
                ),
            ))
            await _wait_terminal(manager, timed_out)

            # Cancel a job while its first batch is running: the flag is
            # honoured at the batch boundary.
            started = threading.Event()
            release = threading.Event()
            real_batch = manager._run_batch

            def gated_batch(spec, prepared, trials, seed):
                started.set()
                assert release.wait(30)
                return real_batch(spec, prepared, trials, seed)

            manager._run_batch = gated_batch
            running = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(seed_batches=3),
            ))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, started.wait, 30)
            manager.cancel(running.id)
            release.set()
            await _wait_terminal(manager, running)
            return timed_out, running
        finally:
            await manager.close()

    timed_out, cancelled = asyncio.run(drive())
    assert timed_out.state == "timeout"
    assert timed_out.batches == []
    assert "deadline" in timed_out.error
    assert cancelled.state == "cancelled"
    assert len(cancelled.batches) == 1, "running batch completes; no more start"
    assert cancelled.result is None


def test_queue_full_rejection_and_queued_cancel():
    async def drive():
        # Not started: nothing drains the queue, so capacity is exact.
        manager = JobManager(queue_size=2)
        first = manager.submit(JobSpec(scenario=TINY))
        manager.submit(JobSpec(scenario=TINY))
        with pytest.raises(RequestError) as excinfo:
            manager.submit(JobSpec(scenario=TINY))
        assert excinfo.value.code == "queue-full"

        cancelled = manager.cancel(first.id)
        assert cancelled.state == "cancelled"

        with pytest.raises(RequestError) as unknown:
            manager.get("job-999")
        assert unknown.value.code == "unknown-job"

        stats = manager.stats()
        assert stats["queue"] == {"depth": 2, "capacity": 2}
        assert stats["jobs"]["cancelled"] == 1
        await manager.close()

    asyncio.run(drive())


def _record_cpu_work(manager, log):
    """Log ``(kind, thread id, start, end)`` of every batch and compile."""

    def recorded(kind, call):
        def wrapper(*args):
            start = time.perf_counter()
            try:
                return call(*args)
            finally:
                log.append((
                    kind, threading.get_ident(), start, time.perf_counter()
                ))

        return wrapper

    manager._run_batch = recorded("batch", manager._run_batch)
    manager.resolver._compile = recorded(
        "compile", manager.resolver._compile
    )


def test_concurrent_jobs_prepare_and_run_on_one_thread_in_turn():
    # A warm job and a cache miss in flight together: every preparation
    # and every batch runs on the one CPU thread, never two at a time.
    async def drive():
        manager = JobManager(job_workers=2)
        manager.resolver.cache.put(
            resolution_key(TINY), prepare_scenario(TINY)
        )
        log = []
        _record_cpu_work(manager, log)
        manager.start()
        try:
            jobs = [
                manager.submit(JobSpec(
                    scenario=scenario,
                    overrides=RunOverrides(trials=1, seed_batches=3),
                ))
                for scenario in (TINY, TINY_OTHER_TOPOLOGY)
            ]
            for job in jobs:
                await _wait_terminal(manager, job)
        finally:
            await manager.close()
        return jobs, log

    jobs, log = asyncio.run(drive())
    assert [job.state for job in jobs] == ["done", "done"]
    assert [job.resolve_outcome for job in jobs] == ["hit", "miss"]
    assert sorted(kind for kind, *_ in log) == ["batch"] * 6 + ["compile"]
    assert len({thread for _, thread, _, _ in log}) == 1
    intervals = sorted((start, end) for _, _, start, end in log)
    for (_, end), (next_start, _) in zip(intervals, intervals[1:]):
        assert end <= next_start


def test_short_job_finishes_before_a_long_jobs_last_batch_starts():
    # Jobs in flight interleave at batch boundaries: a 1-batch job
    # submitted beside a 3-batch one does not wait for all three.
    async def drive():
        manager = JobManager(job_workers=2)
        starts = {}
        real_batch = manager._run_batch

        def logged_batch(spec, prepared, trials, seed):
            starts[seed] = time.time()
            return real_batch(spec, prepared, trials, seed)

        manager._run_batch = logged_batch
        manager.start()
        try:
            long = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(trials=1, seed=11, seed_batches=3),
            ))
            short = manager.submit(JobSpec(
                scenario=TINY, overrides=RunOverrides(trials=1, seed=100),
            ))
            await _wait_terminal(manager, long)
            await _wait_terminal(manager, short)
        finally:
            await manager.close()
        return long, short, starts

    long, short, starts = asyncio.run(drive())
    assert long.state == short.state == "done"
    assert sorted(starts) == [11, 12, 13, 100]
    assert short.finished_at < starts[13]


def test_a_batch_that_raises_fails_its_job_and_the_thread_runs_on():
    async def drive():
        # One job worker: the second job runs only after the first
        # failed, so it shows the worker and the CPU thread survived.
        manager = JobManager(job_workers=1)
        threads = {}
        real_batch = manager._run_batch

        def exploding_batch(spec, prepared, trials, seed):
            threads[seed] = threading.get_ident()
            if seed == 100:
                raise RuntimeError("batch exploded")
            return real_batch(spec, prepared, trials, seed)

        manager._run_batch = exploding_batch
        manager.start()
        try:
            broken = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(seed=100, seed_batches=2),
            ))
            after = manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(trials=1, seed_batches=2),
            ))
            await _wait_terminal(manager, broken)
            await _wait_terminal(manager, after)
        finally:
            await manager.close()
        return broken, after, threads

    broken, after, threads = asyncio.run(drive())
    assert broken.state == "failed"
    assert broken.error == "RuntimeError: batch exploded"
    assert broken.batches == [] and broken.result is None
    assert after.state == "done" and len(after.batches) == 2
    assert sorted(threads) == [11, 12, 100]
    assert len(set(threads.values())) == 1


def test_close_with_running_and_queued_jobs_starts_no_more_work():
    started = threading.Event()
    release = threading.Event()
    ran = []
    cpu_threads = []

    async def drive():
        manager = JobManager(job_workers=2)
        real_batch = manager._run_batch

        def gated_batch(spec, prepared, trials, seed):
            ran.append(seed)
            cpu_threads.append(threading.current_thread())
            started.set()
            assert release.wait(30)
            return real_batch(spec, prepared, trials, seed)

        manager._run_batch = gated_batch
        manager.start()
        running, waiting, queued = [
            manager.submit(JobSpec(
                scenario=TINY,
                overrides=RunOverrides(seed=seed, seed_batches=2),
            ))
            for seed in (100, 200, 300)
        ]
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, started.wait, 30)
        # The second job is in flight too: its first batch waits for
        # the CPU thread once its resolve is recorded.
        end = time.monotonic() + 30
        while waiting.resolve_outcome is None:
            assert time.monotonic() < end, "second job never resolved"
            await asyncio.sleep(0.01)
        closing = time.monotonic()
        await asyncio.wait_for(manager.close(), timeout=5)
        return (running, waiting, queued), time.monotonic() - closing

    try:
        jobs, close_seconds = asyncio.run(drive())
    finally:
        release.set()
    assert close_seconds < 5
    # Both jobs in flight end cancelled, saying how far they got; the
    # job that never started stays queued.
    for job in jobs[:2]:
        assert job.state == "cancelled"
        assert job.finished_at is not None
        assert job.error == "server shut down after 0/2 batch(es)"
    assert jobs[2].state == "queued"
    assert [job.batches for job in jobs] == [[], [], []]
    (thread,) = cpu_threads
    thread.join(timeout=10)
    assert not thread.is_alive(), "the CPU thread outlived its batch"
    assert ran == [100], "work queued behind the running batch started"


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
def _http(base_url, method, path, payload=None):
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        base_url + path, data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_http_end_to_end_run_status_cancel_and_errors():
    local = run_benchmark(TINY, include_reference=False)

    async def drive():
        server = ServiceServer(JobManager())
        await server.start()
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()

        def call(method, path, payload=None):
            return _http(url, method, path, payload)

        try:
            status, health = await loop.run_in_executor(
                None, call, "GET", "/healthz"
            )
            assert (status, health["ok"]) == (200, True)

            # Inline scenario: served without registration.
            status, submitted = await loop.run_in_executor(
                None, call, "POST", "/v1/run",
                {"scenario": TINY.to_dict()},
            )
            assert status == 200
            job_id = submitted["job"]
            while True:
                status, job = await loop.run_in_executor(
                    None, call, "GET", f"/v1/jobs/{job_id}"
                )
                assert status == 200
                if job["state"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.05)
            assert job["state"] == "done"
            assert job["result"]["results"] == local["results"]

            status, body = await loop.run_in_executor(
                None, call, "GET", "/v1/jobs/job-999"
            )
            assert status == 404
            assert body["error"]["code"] == "unknown-job"

            status, body = await loop.run_in_executor(
                None, call, "POST", "/v1/run", {"scenario": "no-such"}
            )
            assert status == 404
            assert body["error"]["code"] == "unknown-scenario"

            # A refused request echoes its string id, as stdio does.
            status, body = await loop.run_in_executor(
                None, call, "POST", "/v1/run", {"trials": 2, "id": "r1"}
            )
            assert status == 400
            assert body["error"]["code"] == "bad-request"
            assert body["id"] == "r1"

            status, stats = await loop.run_in_executor(
                None, call, "GET", "/v1/stats"
            )
            assert status == 200
            assert stats["stats"]["jobs"]["done"] >= 1
        finally:
            await server.close()

    asyncio.run(drive())


def test_http_queue_full_maps_to_429():
    async def drive():
        manager = JobManager(queue_size=1, job_workers=1)
        started = threading.Event()
        release = threading.Event()
        real_batch = manager._run_batch

        def gated_batch(spec, prepared, trials, seed):
            started.set()
            assert release.wait(30)
            return real_batch(spec, prepared, trials, seed)

        manager._run_batch = gated_batch
        server = ServiceServer(manager)
        await server.start()
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()

        def run_one():
            return _http(url, "POST", "/v1/run",
                         {"scenario": TINY.to_dict()})

        try:
            status, _ = await loop.run_in_executor(None, run_one)
            assert status == 200  # picked up by the (blocked) worker
            await loop.run_in_executor(None, started.wait, 30)
            status, _ = await loop.run_in_executor(None, run_one)
            assert status == 200  # sits in the queue (capacity 1)
            status, body = await loop.run_in_executor(None, run_one)
            assert status == 429
            assert body["error"]["code"] == "queue-full"
        finally:
            release.set()
            await server.close()

    asyncio.run(drive())


def test_http_stream_emits_batches_then_end():
    async def drive():
        server = ServiceServer(JobManager())
        await server.start()
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()

        def call(method, path, payload=None):
            return _http(url, method, path, payload)

        def read_stream(job_id):
            events = []
            with urllib.request.urlopen(
                f"{url}/v1/jobs/{job_id}/stream", timeout=60
            ) as response:
                for line in response:
                    events.append(json.loads(line))
            return events

        try:
            status, submitted = await loop.run_in_executor(
                None, call, "POST", "/v1/run",
                {"scenario": TINY.to_dict(), "trials": 1,
                 "seed_batches": 3},
            )
            assert status == 200
            events = await loop.run_in_executor(
                None, read_stream, submitted["job"]
            )
            status, job = await loop.run_in_executor(
                None, call, "GET", f"/v1/jobs/{submitted['job']}"
            )
            assert status == 200
        finally:
            await server.close()
        assert [event["event"] for event in events] == [
            "batch", "batch", "batch", "end",
        ]
        assert [event.get("batch") for event in events[:3]] == [0, 1, 2]
        assert events[-1]["state"] == "done"
        assert events[-1]["result"]["trials"]["vectorized"] == 3
        # Each batch's wait for the CPU thread and its run time ride
        # beside the payload, which stays a plain artifact.
        timing = []
        for event in events[:3]:
            validate_bench(event["payload"])
            assert event["wait_seconds"] >= 0 and event["run_seconds"] > 0
            timing.append({
                "wait_seconds": event["wait_seconds"],
                "run_seconds": event["run_seconds"],
            })
        assert job["batch_timing"] == timing
        # The status dates the job's life, and its wall clock is the
        # span from start to finish.
        assert job["created_at"] <= job["started_at"] <= job["finished_at"]
        assert job["wall_seconds"] == job["finished_at"] - job["started_at"]

    asyncio.run(drive())


def _raw_http(port, request, close_write):
    """Send raw request bytes, then read until the server closes.

    ``close_write`` half-closes the client side after sending, as a
    client that gave up mid-body does.  The socket timeout turns a hung
    server into a test failure instead of a hang.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize(
    "request_bytes, close_write, answered",
    [
        # A negative Content-Length is a malformed request: 400.
        (b"POST /v1/run HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
         False, True),
        # A body shorter than its Content-Length, then the client hangs
        # up: nothing to answer, so the connection just closes.
        (b"POST /v1/run HTTP/1.1\r\nContent-Length: 64\r\n\r\n"
         b'{"scenario": "svc', True, False),
        # A request line or a header line over the reader's 64 KiB line
        # limit: 400.
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", False, True),
        (b"POST /v1/run HTTP/1.1\r\nX-Long: " + b"a" * 70_000
         + b"\r\n\r\n", False, True),
        # A client that stops sending but keeps its side open, inside
        # the headers or before a promised body: the read deadline
        # closes the connection quietly.
        (b"GET /healthz HTTP/1.1\r\nHost: x\r\n", False, False),
        (b"POST /v1/run HTTP/1.1\r\nContent-Length: 64\r\n\r\n",
         False, False),
    ],
    ids=["negative-length", "short-body", "long-request-line", "long-header",
         "stalled-headers", "stalled-body"],
)
def test_http_malformed_body_ends_as_response_or_quiet_close(
    caplog, monkeypatch, request_bytes, close_write, answered
):
    # Well under _raw_http's 10-s socket timeout, so a missing deadline
    # fails the test instead of passing it late.
    monkeypatch.setattr(
        "repro.service.server._REQUEST_READ_SECONDS", 0.5
    )

    async def drive():
        server = ServiceServer(JobManager())
        await server.start()
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()
        try:
            reply = await loop.run_in_executor(
                None, _raw_http, server.port, request_bytes, close_write
            )
            # The server still answers afterwards.
            health = await loop.run_in_executor(
                None, _http, url, "GET", "/healthz"
            )
        finally:
            await server.close()
        return reply, health

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        reply, health = asyncio.run(drive())
    if answered:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body)["error"]["code"] == "bad-request"
    else:
        assert reply == b""
    assert health[0] == 200 and health[1]["ok"] is True
    # No "Unhandled exception in client_connected_cb" traceback.
    assert [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ] == []


def _read_until_closed(sock):
    """Bytes a client gets until the server closes or resets."""
    received = 0
    try:
        while chunk := sock.recv(65536):
            received += len(chunk)
    except ConnectionResetError:
        pass
    return received


@pytest.mark.parametrize("suffix", ["", "/stream"], ids=["status", "stream"])
def test_http_client_that_stops_reading_is_cut_off(
    caplog, monkeypatch, suffix
):
    # A finished job whose status, and whose stream, are megabytes long,
    # and a client that asks for one and never reads.  Small socket
    # buffers at both ends leave most of the response unsent, so the
    # handler waits in drain until the write deadline aborts the
    # connection.
    monkeypatch.setattr(
        "repro.service.server._RESPONSE_WRITE_SECONDS", 0.3
    )
    blob = {"blob": "x" * (2 << 20)}

    async def drive():
        manager = JobManager()
        job = Job("job-big", JobSpec(scenario=TINY))
        job.batches.append(blob)
        job.batch_timing.append({"wait_seconds": 0.0, "run_seconds": 0.0})
        job.result = blob
        job._mark("done")
        manager._jobs[job.id] = job
        server = ServiceServer(manager)
        handlers = []
        started = asyncio.Event()
        handle = server._handle_connection

        async def tracked(reader, writer):
            handlers.append(asyncio.current_task())
            started.set()
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
            )
            await handle(reader, writer)

        server._handle_connection = tracked
        await server.start()
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()
        client = socket.socket()
        client.settimeout(10)
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            client.connect(("127.0.0.1", server.port))
            client.sendall(
                f"GET /v1/jobs/job-big{suffix} HTTP/1.1\r\n\r\n".encode()
            )
            await asyncio.wait_for(started.wait(), 5)
            # The handler ends while the client still holds its socket
            # open and unread.
            done, _ = await asyncio.wait(handlers, timeout=5)
            assert done == set(handlers)
            received = await loop.run_in_executor(
                None, _read_until_closed, client
            )
            health = await loop.run_in_executor(
                None, _http, url, "GET", "/healthz"
            )
        finally:
            client.close()
            await server.close()
        return received, health

    with caplog.at_level(logging.ERROR, logger="asyncio"):
        received, health = asyncio.run(drive())
    assert received < len(blob["blob"])
    assert health[0] == 200 and health[1]["ok"] is True
    assert [
        record for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ] == []


# ----------------------------------------------------------------------
# stdio transport
# ----------------------------------------------------------------------
def test_stdio_transport_round_trip():
    async def drive():
        server_sock, client_sock = socket.socketpair()
        server_reader, server_writer = await asyncio.open_connection(
            sock=server_sock
        )
        client_reader, client_writer = await asyncio.open_connection(
            sock=client_sock
        )
        manager = JobManager()
        session = asyncio.create_task(
            serve_stdio(manager, server_reader, server_writer)
        )

        async def call(payload):
            client_writer.write(json.dumps(payload).encode() + b"\n")
            await client_writer.drain()
            return json.loads(await client_reader.readline())

        try:
            pong = await call({"op": "ping", "id": "p1"})
            assert pong == {
                "schema": "repro-service/1", "ok": True, "id": "p1",
                "pong": True,
            }

            bad = await call({"op": "status", "id": "p2"})
            assert bad["ok"] is False and bad["id"] == "p2"
            assert bad["error"]["code"] == "bad-request"

            garbage_response = await call("not an object")
            assert garbage_response["error"]["code"] == "bad-request"

            submitted = await call({
                "op": "run", "scenario": TINY.to_dict(), "trials": 1,
                "id": "p3",
            })
            assert submitted["ok"] is True and submitted["id"] == "p3"
            while True:
                status = await call({
                    "op": "status", "job": submitted["job"],
                })
                if status["state"] in ("done", "failed"):
                    break
                await asyncio.sleep(0.05)
            assert status["state"] == "done"
            assert status["result"]["trials"]["vectorized"] == 1

            # A sweep submits one job per matching registered scenario.
            swept = await call({
                "op": "sweep", "tag": "baseline", "trials": 1, "id": "p4",
            })
            assert swept["ok"] is True and swept["id"] == "p4"
            assert [entry["scenario"] for entry in swept["jobs"]] == [
                scenario.name
                for scenario in DEFAULT_REGISTRY.select(tag="baseline")
            ]
            for entry in swept["jobs"]:
                while True:
                    status = await call({"op": "status", "job": entry["job"]})
                    if status["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert status["state"] == "done"
        finally:
            client_writer.close()
            await asyncio.wait_for(session, timeout=10)
            server_writer.close()
            await server_writer.wait_closed()
            await client_writer.wait_closed()
            await manager.close()

    asyncio.run(drive())


# ----------------------------------------------------------------------
# loadgen helpers
# ----------------------------------------------------------------------
def test_attach_service_block_keeps_payload_schema_valid():
    payload = run_benchmark(TINY, include_reference=False)
    status = {
        "job": "job-1",
        "result": payload,
        "resolve": {"outcome": "hit", "seconds": 1e-5},
        "wall_seconds": 0.5,
    }
    stats = {
        "queue": {"depth": 0, "capacity": 64},
        "cache": {"hits": 1, "misses": 1, "evictions": 0, "entries": 1,
                  "compiles": 1},
    }
    extended = attach_service_block(status, stats)
    validate_bench(extended)
    assert extended["service"]["resolve"]["outcome"] == "hit"
    assert extended["service"]["cache"]["hits"] == 1
    # The original payload is not mutated.
    assert "service" not in payload
