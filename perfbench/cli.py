"""Command line: run one workload (or all of them) and print the result.

The last line of standard output is the result object the benchmark
contract defines: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` untraced
(``--trace 0``) or its per-layer metrics traced (``--trace 1``).  The
line before it, prefixed ``perfbench-detail``, records sample counts,
the service's latency percentiles, failures and the environment (CPUs,
NumPy/OpenBLAS versions, thread settings, CPU-steal share).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from typing import Any

from perfbench import env, inprocess, layers, service, spans
from perfbench.stats import Summary, median, percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Workload names, in report order.
WORKLOADS = tuple(inprocess.WORKLOADS) + ("service-closed-loop",)

#: End-to-end metrics and units (``BENCHMARK.json`` lists the same).
END_TO_END = {
    "setup_s": "s",
    "artifact_s": "s",
    "node_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The seed the committed ``benchmarks/BENCH_*.json`` artifacts used.
DEFAULT_SEED = 2017

DETAIL_PREFIX = "perfbench-detail "


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="Run one benchmark workload (or 'all') and print metrics.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cpu_before = env.cpu_times()
    if args.workload == "service-closed-loop":
        metrics, detail = measure_service(args, run_dir)
    else:
        metrics, detail = measure_inprocess(args, run_dir)
    detail["environment"] = dict(
        env.describe(), steal_share=env.steal_share(cpu_before, env.cpu_times())
    )
    correct = detail["failed"] == 0
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = END_TO_END if not args.trace else layers.UNITS
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    for failure in detail["failures"][:20]:
        print(f"failure: {failure}")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def measure_inprocess(args, run_dir: pathlib.Path) -> tuple[dict, dict]:
    workload = inprocess.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    outcome = inprocess.measure(
        workload, args.seed, args.seconds, ROOT, run_dir / "artifacts", tracer
    )
    operations = outcome["operations"]
    detail: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "failures": outcome["failures"],
        "failure_ratio": outcome["failed"] / outcome["attempted"],
        "committed_checks": outcome["committed_checks"],
    }
    if not operations:
        return {name: 0.0 for name in END_TO_END} | layers.zero_metrics(), detail
    if tracer is None:
        metrics, samples = inprocess.end_to_end(operations)
        metrics["peak_rss_mb"] = env.peak_rss_mb()
        samples["peak_rss_mb"] = 1
        detail["samples"] = samples
        detail["wall_clock"] = dict(
            inprocess.wall_clock(operations), pace_s=median(outcome["probes"])
        )
        return metrics, detail
    metrics = layers.layer_metrics(tracer, {
        op.index: (op.seconds, op.paced_seconds / op.seconds) for op in operations
    })
    metrics["trace.artifact_s"] = median([op.paced_seconds for op in operations])
    detail["samples"] = {"operations": len(operations)}
    detail["missing_targets"] = outcome["missing_targets"]
    trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"spans": tracer.to_records(),
                                      "counts": dict(tracer.counts)}))
    detail["trace_file"] = str(trace_path.relative_to(ROOT))
    return metrics, detail


def measure_service(args, run_dir: pathlib.Path) -> tuple[dict, dict]:
    outcome = service.measure(
        args.seed, args.seconds, ROOT, run_dir, traced=bool(args.trace)
    )
    good = outcome["good"]
    detail: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "failures": outcome["failures"],
        "failure_ratio": outcome["failed"] / max(outcome["attempted"], 1),
        "committed_checks": outcome["committed_checks"],
        "plan_requests": len(outcome["plan"]["requests"]),
    }
    if not good:
        return {name: 0.0 for name in END_TO_END} | layers.zero_metrics(), detail
    groups = outcome["groups"]
    latency_ms = Summary.of([o.latency * o.factor * 1e3 for o in good])
    paced_wall = sum(wall * factor for _, wall, factor, _ in groups)
    wall = sum(wall for _, wall, _, _ in groups)
    # A plan group has a fixed mix of scenarios, so its mean latency is
    # steady where the median of the mixed request latencies jumps
    # between the scenarios' clusters.
    artifact_s = median([latency * factor for _, _, factor, latency in groups])
    detail["requests"] = {
        "samples": latency_ms.samples, "p50_ms": latency_ms.median,
        "tail_q": latency_ms.tail_q, "tail_ms": latency_ms.tail,
        "requests_per_s": len(good) / paced_wall,
    }
    detail["wall_clock"] = {
        "setup_s": median([seconds for seconds, _ in outcome["setups"]]),
        "artifact_s": median([latency for _, _, _, latency in groups]),
        "request_p95_ms": percentile([o.latency * 1e3 for o in good], 95.0),
        "requests_per_s": len(good) / wall,
        "node_rounds_per_s": median([n / wall for n, wall, _, _ in groups]),
        "pace_s": median(outcome["probes"]),
    }
    if not args.trace:
        metrics = {
            "setup_s": median([s * f for s, f in outcome["setups"]]),
            "artifact_s": artifact_s,
            "node_rounds_per_s": median([n / (w * f) for n, w, f, _ in groups]),
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
        detail["samples"] = {
            "setup_s": len(outcome["setups"]),
            "artifact_s": len(groups),
            "node_rounds_per_s": len(groups),
            "peak_rss_mb": 1,
        }
        return metrics, detail

    def paced_ms(values) -> float:
        return median([v * o.factor * 1e3 for o, v in zip(good, values)])

    walls = [o.status["wall_seconds"] for o in good]
    resolves = [o.status["resolve"]["seconds"] for o in good]
    cache = outcome["cache_delta"]
    lookups = cache["hits"] + cache["misses"]
    metrics = layers.zero_metrics({
        "service.submit_ms": paced_ms([o.submit for o in good]),
        "service.queue_wait_ms": paced_ms(
            [o.latency - o.submit - w for o, w in zip(good, walls)]
        ),
        "service.resolve_ms": paced_ms(resolves),
        "service.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "service.cache_compiles": cache["compiles"],
        "service.batch_ms": paced_ms([o.batch_seconds for o in good]),
        "service.job_overhead_ms": paced_ms(
            [w - r - o.batch_seconds for o, w, r in zip(good, walls, resolves)]
        ),
        "service.request_p50_ms": latency_ms.median,
        "service.request_p95_ms": percentile(
            [o.latency * o.factor * 1e3 for o in good], 95.0
        ),
        "service.requests_per_s": len(good) / paced_wall,
        "trace.artifact_s": artifact_s,
    })
    detail["samples"] = {"requests": latency_ms.samples}
    return metrics, detail


def run_all(args) -> int:
    """Every workload in a fresh process; a table of metrics and checks."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        modes = (0, 1) if args.trace else (0,)
        for trace in modes:
            command = [
                sys.executable, str(ROOT / "perfbench" / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            started = time.perf_counter()
            completed = subprocess.run(command, capture_output=True, text=True)
            lines = completed.stdout.strip().splitlines()
            detail = next(
                (json.loads(line[len(DETAIL_PREFIX):]) for line in lines
                 if line.startswith(DETAIL_PREFIX)), None,
            )
            try:
                result = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                result = None
            if completed.returncode != 0 or result is None or not result["correct"]:
                status = 1
                print(f"{workload} (trace {trace}): FAILED "
                      f"(exit {completed.returncode})")
                print("\n".join(lines[-22:]) or completed.stderr[-2000:])
                continue
            rows.append((workload, trace, result, detail,
                         time.perf_counter() - started))
    for workload, trace, result, detail, wall in rows:
        samples = detail.get("samples", {})
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}, "
              f"{wall:.0f} s; failure_ratio {detail['failure_ratio']:.3g} "
              f"of {result['attempted']}; "
              f"{detail['committed_checks']} trials checked against "
              f"committed artifacts; steal "
              f"{detail['environment']['steal_share']:.1%})")
        idle = [name for name, metric in result["metrics"].items()
                if trace and metric["value"] == 0]
        for name, metric in result["metrics"].items():
            if name in idle:
                continue
            count = samples.get(name, samples.get("operations",
                                                  samples.get("requests", "")))
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']:<6s}"
                  f" n={count}")
        if idle:
            print(f"  ({len(idle)} per-layer metrics read 0: this workload "
                  "does not reach those layers)")
        if "requests" in detail:
            r = detail["requests"]
            tail = (f", p{r['tail_q']:g} {r['tail_ms']:.1f} ms"
                    if r["tail_q"] is not None else "")
            print(f"  requests (paced): p50 {r['p50_ms']:.1f} ms{tail} over "
                  f"{r['samples']} requests, {r['requests_per_s']:.2f} requests/s")
        if "wall_clock" in detail:
            print("  unpaced wall-clock: " + ", ".join(
                f"{name} {value:.6g}" for name, value in detail["wall_clock"].items()
            ))
    if args.trace:
        untraced = {w: r for w, t, r, _, _ in rows if t == 0}
        for workload, trace, result, _, _ in rows:
            if trace and workload in untraced:
                overhead = (result["metrics"]["trace.artifact_s"]["value"]
                            - untraced[workload]["metrics"]["artifact_s"]["value"])
                print(f"tracing overhead on {workload}: {overhead:+.4f} s "
                      "(traced artifact_s - untraced artifact_s)")
    if rows:
        print("\nenvironment: " + json.dumps(rows[0][3]["environment"], sort_keys=True))
    return status
