"""``python -m repro.service``: start the simulation server.

HTTP (default)::

    python -m repro.service --host 127.0.0.1 --port 8750

prints one parseable line once bound -- ``listening on 127.0.0.1:8750``
-- which is what :mod:`repro.service.loadgen` waits for when it spawns
a server itself (``--port 0`` binds an ephemeral port and reports it).

stdio::

    python -m repro.service --stdio

reads one JSON request per line on stdin and writes one JSON response
per line on stdout (the embedding transport; no socket involved).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
from typing import Optional

from repro.service.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_QUEUE_SIZE,
    JobManager,
)
from repro.service.cache import DEFAULT_CACHE_CAPACITY, ResolutionCache
from repro.service.server import ServiceServer, serve_stdio


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve benchmark simulations over HTTP or stdio.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8750,
                        help="bind port; 0 picks an ephemeral port "
                             "(default: %(default)s)")
    parser.add_argument("--stdio", action="store_true",
                        help="serve JSON lines on stdin/stdout instead "
                             "of HTTP")
    parser.add_argument("--queue-size", type=int,
                        default=DEFAULT_QUEUE_SIZE,
                        help="bounded job-queue capacity; submissions "
                             "beyond it are rejected (default: "
                             "%(default)s)")
    parser.add_argument("--cache-size", type=int,
                        default=DEFAULT_CACHE_CAPACITY,
                        help="resolution-cache LRU capacity (default: "
                             "%(default)s)")
    parser.add_argument("--job-workers", type=int,
                        default=DEFAULT_JOB_WORKERS,
                        help="jobs in flight at once (default: "
                             "%(default)s).  The event loop does I/O; "
                             "one CPU thread runs preparations and "
                             "batches first-in first-out; jobs "
                             "interleave at batch boundaries; parallel "
                             "CPU work happens only through a run "
                             "request's workers field")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default per-job timeout in seconds "
                             "(requests may override; default: none)")
    return parser


def _build_manager(args: argparse.Namespace) -> JobManager:
    return JobManager(
        cache=ResolutionCache(args.cache_size),
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        default_timeout=args.timeout,
    )


async def _run_http(args: argparse.Namespace) -> None:
    server = ServiceServer(
        _build_manager(args), host=args.host, port=args.port
    )
    await server.start()
    print(f"listening on {server.host}:{server.port}", flush=True)
    try:
        await server.serve_forever()
    finally:
        await server.close()


class _BlockingStdoutWriter:
    """A write/drain facade over ``sys.stdout``.

    ``connect_write_pipe`` rejects a stdout that is a regular file
    (``python -m repro.service --stdio > log``), so the stdio transport
    writes synchronously instead: responses are single JSON lines, small
    enough that a blocking flush never stalls the loop meaningfully.
    """

    def write(self, data: bytes) -> None:
        sys.stdout.buffer.write(data)

    async def drain(self) -> None:
        sys.stdout.buffer.flush()


async def _run_stdio(args: argparse.Namespace) -> None:
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()

    # Feed stdin from a thread rather than connect_read_pipe: works
    # identically whether stdin is a pipe, a tty, or a redirected file.
    def pump() -> None:
        for line in sys.stdin.buffer:
            loop.call_soon_threadsafe(reader.feed_data, line)
        loop.call_soon_threadsafe(reader.feed_eof)

    threading.Thread(
        target=pump, daemon=True, name="repro-service-stdin"
    ).start()
    manager = _build_manager(args)
    try:
        await serve_stdio(manager, reader, _BlockingStdoutWriter())
    finally:
        await manager.close()


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_run_stdio(args) if args.stdio else _run_http(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
