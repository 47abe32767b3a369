"""``python -m repro.service.loadgen``: drive a server, record artifacts.

A stdlib-only load driver for the HTTP transport.  It either targets a
running server (``--url``) or spawns one itself on an ephemeral port
(``--spawn``, the CI path), then:

1. pushes a *mixed* workload through the queue -- several ``run``
   requests plus a ``sweep`` over the smoke tag -- and polls every job
   to a terminal state;
2. runs the cold/warm cache probe: ``service-cold`` on a fresh cache
   (the resolver compiles), then ``service-warm`` -- a scenario with the
   identical execution identity and topology digest -- which must hit
   the LRU;
3. writes ``BENCH_service-cold.json`` / ``BENCH_service-warm.json``:
   the jobs' benchmark payloads (already valid ``repro-bench/2``
   documents, since the service runs the same
   :func:`~repro.experiments.bench.run_benchmark` path), each extended
   with a ``service`` block recording the resolve outcome and latency
   plus queue/cache statistics.  ``--min-speedup`` turns the cold/warm
   resolve ratio into an exit-code assertion (CI uses 5).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Mapping, Optional

from repro.errors import SimulationError
from repro.experiments.persistence import write_bench

#: How long to poll a job before declaring the driver stuck.
_POLL_DEADLINE_SECONDS = 900.0
_POLL_INTERVAL_SECONDS = 0.2


class ServiceClient:
    """A minimal blocking JSON client for the HTTP transport."""

    def __init__(self, base_url: str) -> None:
        self.base_url = base_url.rstrip("/")

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> dict[str, Any]:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            # Protocol errors (400/404/429/500) still carry a JSON
            # envelope; surface it instead of the bare status.
            detail = error.read().decode("utf-8", errors="replace")
            raise SimulationError(
                f"{method} {path} -> HTTP {error.code}: {detail}"
            ) from None

    def run(self, scenario: str, **overrides: Any) -> str:
        response = self.request(
            "POST", "/v1/run", {"scenario": scenario, **overrides}
        )
        return response["job"]

    def sweep(self, **fields: Any) -> list[str]:
        response = self.request("POST", "/v1/sweep", fields)
        return [entry["job"] for entry in response["jobs"]]

    def status(self, job: str) -> dict[str, Any]:
        return self.request("GET", f"/v1/jobs/{job}")

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/v1/stats")["stats"]

    def wait(self, job: str) -> dict[str, Any]:
        """Poll ``job`` to a terminal state and return its final status."""
        deadline = time.monotonic() + _POLL_DEADLINE_SECONDS
        while True:
            status = self.status(job)
            if status["state"] in ("done", "failed", "cancelled", "timeout"):
                if status["state"] != "done":
                    raise SimulationError(
                        f"job {job} ended {status['state']}: "
                        f"{status.get('error', '(no error recorded)')}"
                    )
                return status
            if time.monotonic() > deadline:
                raise SimulationError(
                    f"job {job} still {status['state']} after "
                    f"{_POLL_DEADLINE_SECONDS:.0f}s"
                )
            time.sleep(_POLL_INTERVAL_SECONDS)


def spawn_server(extra_args: Optional[list[str]] = None):
    """Start ``python -m repro.service`` on an ephemeral port.

    Returns ``(process, base_url)`` once the server prints its
    ``listening on host:port`` line.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"]
        + (extra_args or []),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert process.stdout is not None
    line = process.stdout.readline().strip()
    if not line.startswith("listening on "):
        process.kill()
        raise SimulationError(
            f"server did not report its address, got {line!r}"
        )
    return process, "http://" + line[len("listening on "):]


def drive_mixed_load(client: ServiceClient, *, trials: int) -> int:
    """Queue several runs plus a smoke sweep; wait for all. Returns count."""
    jobs = [
        client.run("broadcast-path-n32", trials=trials),
        client.run("broadcast-grid-n64", trials=trials, seed_batches=2),
        client.run("election-complete-n32", trials=trials),
    ]
    jobs += client.sweep(tag="smoke", limit=3, trials=trials)
    for job in jobs:
        client.wait(job)
    return len(jobs)


def run_probe(
    client: ServiceClient, scenario: str, *, trials: Optional[int]
) -> dict[str, Any]:
    """Run one cache-probe scenario to completion; return its status."""
    overrides: dict[str, Any] = {}
    if trials is not None:
        overrides["trials"] = trials
    return client.wait(client.run(scenario, **overrides))


def attach_service_block(
    status: Mapping[str, Any], stats: Mapping[str, Any]
) -> dict[str, Any]:
    """The job's bench payload with the ``service`` sidecar block.

    ``validate_bench`` ignores unknown top-level fields, so the extended
    payload still validates under ``repro-bench/2``.
    """
    payload = dict(status["result"])
    payload["service"] = {
        "schema": "repro-service/1",
        "job": status["job"],
        "resolve": dict(status["resolve"]),
        "wall_seconds": status["wall_seconds"],
        "queue": dict(stats["queue"]),
        "cache": {
            key: stats["cache"][key]
            for key in ("hits", "misses", "evictions", "entries", "compiles")
        },
    }
    return payload


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Drive a repro.service server and record the "
                    "cold/warm cache-probe artifacts.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="base URL of a running server")
    target.add_argument("--spawn", action="store_true",
                        help="spawn a private server on an ephemeral port")
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_service-*.json "
                             "(omit to skip writing)")
    parser.add_argument("--trials", type=int, default=None,
                        help="override trials for every request")
    parser.add_argument("--mixed-trials", type=int, default=2,
                        help="trials for the mixed-load phase "
                             "(default: %(default)s)")
    parser.add_argument("--skip-mixed", action="store_true",
                        help="run only the cold/warm probe")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless cold/warm resolve ratio is at "
                             "least this (CI uses 5)")
    args = parser.parse_args(argv)

    process = None
    try:
        if args.spawn:
            process, base_url = spawn_server()
        else:
            base_url = args.url
        client = ServiceClient(base_url)
        client.request("GET", "/healthz")

        if not args.skip_mixed:
            count = drive_mixed_load(client, trials=args.mixed_trials)
            print(f"mixed load: {count} jobs done")

        cold = run_probe(client, "service-cold", trials=args.trials)
        warm = run_probe(client, "service-warm", trials=args.trials)
        stats = client.stats()

        cold_s = cold["resolve"]["seconds"]
        warm_s = warm["resolve"]["seconds"]
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(
            f"cold resolve ({cold['resolve']['outcome']}): {cold_s:.4f}s  "
            f"warm resolve ({warm['resolve']['outcome']}): {warm_s:.6f}s  "
            f"speedup: {speedup:.1f}x"
        )

        if args.out is not None:
            out = pathlib.Path(args.out)
            for status in (cold, warm):
                path = write_bench(attach_service_block(status, stats), out)
                print(f"wrote {path}")

        if warm["resolve"]["outcome"] != "hit":
            print("error: warm probe did not hit the resolution cache",
                  file=sys.stderr)
            return 1
        if args.min_speedup is not None and speedup < args.min_speedup:
            print(
                f"error: cold/warm speedup {speedup:.1f}x below required "
                f"{args.min_speedup:.1f}x",
                file=sys.stderr,
            )
            return 1
        return 0
    finally:
        if process is not None:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
