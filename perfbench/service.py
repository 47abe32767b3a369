"""The ``service-closed-loop`` workload: HTTP against ``python -m repro.service``.

The benchmark spawns the server as a child process with the pinned
thread environment and talks to it over loopback HTTP only.

* **Set-up** (``setup_s``): spawn -> ``/healthz`` -> one cold request
  per plan scenario, timed to the last ``end`` event; done
  :data:`SETUP_REPEATS` times with a fresh server each time and reported
  as the median.  The last server stays up, warm, for the closed loop.
* **Closed loop**: :data:`CLIENTS` client threads share one fixed,
  seeded request plan; each sends its next request when its last one
  completed.  A request is ``POST /v1/run`` and then
  ``GET /v1/jobs/<id>/stream`` read to its ``end`` event, so its latency
  runs from send to the merged result, never quantised by polling.
* **Plan**: groups of 25 requests -- each of the five registered plan
  scenarios four times (warm cache hits, each with its own trial seed
  inside the committed artifact's seed range) and five inline
  ``gnp`` ``n=256`` scenarios with fresh topology seeds (cache misses) --
  shuffled by the seed.  The same seed gives the same plan in any
  process.

Every response is validated (``validate_bench``, requested scenario,
seeds and trial count); trials the committed artifacts recorded must
match them; identical requests must return identical results; and
after the timed phase the first request of every scenario kind is
re-run in this process and must match the served result exactly.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import os
import pathlib
import random
import select
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from perfbench import env
from perfbench.inprocess import Expectations

#: Concurrent closed-loop clients.
CLIENTS = 2

#: Fresh-server set-up sequences per run.
SETUP_REPEATS = 3

#: Plan requests per second of ``--seconds`` (sized so the loop takes
#: about the requested time on a 2-vCPU machine).
REQUESTS_PER_SECOND = 11.0

#: Requests per plan group: four of each registered scenario, five inline.
REPEATS_PER_GROUP = 4
INLINE_PER_GROUP = 5

#: Longest wait for a server to bind, or for one request.
SPAWN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass(frozen=True)
class PlanScenario:
    """A registered scenario in the plan and the trials one request runs."""

    name: str
    trials: int
    seed_batches: int
    #: Request seeds are ``seed + offset`` with ``0 <= offset < window``,
    #: so at the default seed every trial lies in the committed artifact.
    seed_window: int


PLAN_SCENARIOS = (
    PlanScenario("broadcast-grid-n64", trials=4, seed_batches=1, seed_window=5),
    PlanScenario("election-complete-n32", trials=2, seed_batches=1, seed_window=3),
    PlanScenario("broadcast-grid-n256", trials=2, seed_batches=1, seed_window=7),
    PlanScenario("broadcast-grid-n64-churn", trials=4, seed_batches=1, seed_window=5),
    PlanScenario("broadcast-gnp-n256", trials=2, seed_batches=2, seed_window=5),
)

GROUP_SIZE = REPEATS_PER_GROUP * len(PLAN_SCENARIOS) + INLINE_PER_GROUP

INLINE_TRIALS = 2
INLINE_SEED_WINDOW = 7


def inline_scenario(topology_seed: int) -> dict[str, Any]:
    """An unregistered ``G(256, 0.03)`` broadcast scenario."""
    return {
        "name": f"inline-gnp-n256-t{topology_seed}",
        "family": "gnp",
        "topology_args": {
            "num_nodes": 256, "edge_probability": 0.03, "seed": topology_seed,
        },
        "algorithm": "broadcast",
        "trials": INLINE_TRIALS,
    }


def _registered_request(entry: PlanScenario, seed: int) -> dict[str, Any]:
    request = {"scenario": entry.name, "trials": entry.trials, "seed": seed}
    if entry.seed_batches > 1:
        request["seed_batches"] = entry.seed_batches
    return request


def build_plan(seed: int, seconds: float) -> dict[str, list[dict[str, Any]]]:
    """The seeded request plan: set-up requests plus the closed-loop list."""
    rng = random.Random(seed)
    setup = [_registered_request(entry, seed) for entry in PLAN_SCENARIOS]
    setup.append({
        "scenario": inline_scenario(rng.randrange(1, 2**31)),
        "trials": INLINE_TRIALS, "seed": seed,
    })
    groups = max(2, round(seconds * REQUESTS_PER_SECOND / GROUP_SIZE))
    # Each scenario walks its seed window in turn, so every plan spreads
    # its requests evenly over the same offsets; the order is shuffled.
    offsets = {entry: itertools.cycle(range(entry.seed_window)) for entry in PLAN_SCENARIOS}
    inline_offsets = itertools.cycle(range(INLINE_SEED_WINDOW))
    requests = []
    for _ in range(groups):
        group: list[Optional[PlanScenario]] = [
            entry for entry in PLAN_SCENARIOS for _ in range(REPEATS_PER_GROUP)
        ] + [None] * INLINE_PER_GROUP
        rng.shuffle(group)
        for entry in group:
            if entry is None:
                requests.append({
                    "scenario": inline_scenario(rng.randrange(1, 2**31)),
                    "trials": INLINE_TRIALS,
                    "seed": seed + next(inline_offsets),
                })
            else:
                requests.append(_registered_request(entry, seed + next(offsets[entry])))
    return {"setup": setup, "requests": requests}


def request_key(request: dict[str, Any]) -> str:
    return json.dumps(request, sort_keys=True)


@dataclasses.dataclass
class Outcome:
    """What one request returned and how long its parts took."""

    request: dict[str, Any]
    latency: float = 0.0
    submit: float = 0.0
    batch_seconds: float = 0.0
    end: Optional[dict[str, Any]] = None
    status: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    #: Wall-clock to paced seconds, for the request's plan group.
    factor: float = 1.0


class Client:
    """Blocking HTTP/1.1 client, one connection per call (as the server)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )

    def call(self, method: str, path: str, payload: Any = None) -> tuple[int, Any]:
        connection = self._connect()
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def run(self, request: dict[str, Any], *, with_status: bool) -> Outcome:
        """Submit ``request`` and read its stream to the ``end`` event."""
        outcome = Outcome(request)
        started = time.perf_counter()
        try:
            status, reply = self.call("POST", "/v1/run", request)
            outcome.submit = time.perf_counter() - started
            if status != 200:
                error = reply.get("error", {}) if isinstance(reply, dict) else {}
                outcome.error = f"HTTP {status} {error.get('code')}: {error.get('message')}"
                return outcome
            job = reply["job"]
            connection = self._connect()
            try:
                connection.request("GET", f"/v1/jobs/{job}/stream")
                response = connection.getresponse()
                if response.status != 200:
                    outcome.error = f"stream HTTP {response.status}"
                    return outcome
                for line in response:
                    event = json.loads(line)
                    if event["event"] == "batch":
                        outcome.batch_seconds += (
                            event["payload"]["timing"]["vectorized_seconds"]
                        )
                    elif event["event"] == "end":
                        outcome.end = event
                        break
            finally:
                connection.close()
            outcome.latency = time.perf_counter() - started
            if outcome.end is None:
                outcome.error = "stream closed before its end event"
            elif outcome.end["state"] != "done":
                outcome.error = f"job ended {outcome.end['state']}: {outcome.end.get('error')}"
            elif with_status:
                _, outcome.status = self.call("GET", f"/v1/jobs/{job}")
        except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
            outcome.error = f"{type(error).__name__}: {error}"
        return outcome


class Server:
    """One ``python -m repro.service`` child process on an ephemeral port."""

    def __init__(self, root: pathlib.Path, log: pathlib.Path) -> None:
        child_env = dict(os.environ, **env.THREAD_ENV)
        child_env["PYTHONPATH"] = str(root / "src")
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            cwd=root, env=child_env, stdout=subprocess.PIPE, stderr=self._log,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], SPAWN_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not start (first line {line!r})")
        host, _, port = line[len("listening on "):].strip().rpartition(":")
        self.client = Client(host, int(port))

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        self._log.close()


def closed_loop(
    client: Client, requests: list[dict[str, Any]], *, with_status: bool
) -> tuple[list[Outcome], float]:
    """Serve ``requests`` from :data:`CLIENTS` closed-loop threads."""
    outcomes: list[Optional[Outcome]] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            outcomes[index] = client.run(requests[index], with_status=with_status)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, time.perf_counter() - started


class Checker:
    """Correctness of served results (see the module docstring)."""

    def __init__(self, root: pathlib.Path) -> None:
        self._expectations = Expectations(root / "benchmarks")
        self._results: dict[str, dict[str, Any]] = {}
        self._first: dict[str, Outcome] = {}

    @property
    def committed_checks(self) -> int:
        return self._expectations.committed_checks

    def check(self, outcome: Outcome) -> list[str]:
        from repro.experiments import validate_bench

        request = outcome.request
        result = outcome.end.get("result")
        if result is None:
            return ["done job carries no result"]
        try:
            validate_bench(result)
        except Exception as error:
            return [f"invalid artifact: {error}"]
        scenario = request["scenario"]
        name = scenario if isinstance(scenario, str) else scenario["name"]
        total = request["trials"] * request.get("seed_batches", 1)
        seeds = [request["seed"] + i for i in range(total)]
        problems = self._expectations.check(name, seeds, result)
        key = request_key(request)
        earlier = self._results.setdefault(key, result["results"])
        if earlier != result["results"]:
            problems.append(f"{name}: identical requests returned different results")
        kind = name if isinstance(scenario, str) else "inline"
        self._first.setdefault(kind, outcome)
        return problems

    def rerun_locally(self) -> tuple[int, list[str]]:
        """Re-run the first request of each scenario kind in this process.

        Returns ``(reruns, problems)``.
        """
        from repro.experiments import Scenario, get_scenario, run_benchmark

        problems = []
        for kind, outcome in self._first.items():
            request = outcome.request
            scenario = request["scenario"]
            try:
                scenario = (
                    get_scenario(scenario) if isinstance(scenario, str)
                    else Scenario.from_dict(scenario)
                )
                local = run_benchmark(
                    scenario, trials=request["trials"], seed=request["seed"],
                    seed_batches=request.get("seed_batches"),
                    include_reference=False, workers=1,
                )
            except Exception as error:
                problems.append(f"{kind}: local re-run failed: {error}")
                continue
            if local["results"] != outcome.end["result"]["results"]:
                problems.append(f"{kind}: served result differs from a local run")
        return len(self._first), problems


def node_rounds(outcome: Outcome) -> int:
    result = outcome.end["result"]
    return result["topology"]["num_nodes"] * sum(result["results"]["per_trial"]["rounds"])


def measure(
    seed: int, seconds: float, root: pathlib.Path, run_dir: pathlib.Path, *, traced: bool
) -> dict[str, Any]:
    """Set up :data:`SETUP_REPEATS` times, then serve the plan closed-loop.

    The loop runs one plan group at a time and probes the CPU pace (see
    :class:`perfbench.env.Pacer`) between groups, while the server is
    idle; each request is paced by the factor of its group.
    """
    plan = build_plan(seed, seconds)
    checker = Checker(root)
    failures: list[str] = []
    attempted = failed = 0
    setups: list[tuple[float, float]] = []
    segments: list[tuple[list[Outcome], float, float]] = []
    server: Optional[Server] = None
    pacer = env.Pacer()

    def judge(outcomes: list[Outcome]) -> list[Outcome]:
        nonlocal attempted, failed
        good = []
        for outcome in outcomes:
            attempted += 1
            problems = [outcome.error] if outcome.error else checker.check(outcome)
            if problems:
                failed += 1
                failures.extend(f"{request_key(outcome.request)}: {p}" for p in problems)
            else:
                good.append(outcome)
        return good

    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(root, run_dir / "server.log")
            status, _ = server.client.call("GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"/healthz answered HTTP {status}")
            outcomes = [
                server.client.run(request, with_status=False)
                for request in plan["setup"]
            ]
            setups.append((time.perf_counter() - started, pacer.factor()))
            judge(outcomes)
        _, before = server.client.call("GET", "/v1/stats")
        pacer.factor()
        requests = plan["requests"]
        for first in range(0, len(requests), GROUP_SIZE):
            outcomes, wall = closed_loop(
                server.client, requests[first:first + GROUP_SIZE], with_status=traced
            )
            segments.append((outcomes, wall, pacer.factor()))
        _, after = server.client.call("GET", "/v1/stats")
        peak_rss = env.peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()
    good = []
    # Per plan group: node-rounds served, wall-clock seconds, pacing
    # factor and mean request latency.
    groups = []
    for outcomes, wall, factor in segments:
        served = judge(outcomes)
        for outcome in served:
            outcome.factor = factor
        good += served
        groups.append((
            sum(node_rounds(o) for o in served), wall, factor,
            sum(o.latency for o in served) / max(len(served), 1),
        ))
    reruns, local = checker.rerun_locally()
    attempted += reruns
    failed += len(local)
    failures.extend(local)
    cache_before, cache_after = before["stats"]["cache"], after["stats"]["cache"]
    return {
        "plan": plan,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "good": good,
        "setups": setups,
        "groups": groups,
        "probes": pacer.probes,
        "peak_rss_mb": peak_rss,
        "cache_delta": {
            key: cache_after[key] - cache_before[key]
            for key in ("hits", "misses", "compiles")
        },
        "committed_checks": checker.committed_checks,
    }
