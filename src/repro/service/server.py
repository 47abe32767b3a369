"""The ``asyncio`` simulation server: JSON over HTTP and stdio.

One :class:`ServiceServer` wraps a
:class:`~repro.service.jobs.JobManager` and exposes the
``repro-service/1`` protocol over two transports, both stdlib-only:

* **HTTP/1.1** (hand-rolled over ``asyncio`` streams -- no framework,
  one request per connection, ``Connection: close``):

  ===========================================  ===========================
  ``GET  /healthz``                            liveness (``ping``)
  ``GET  /v1/stats``                           queue/cache/job counters
  ``POST /v1/run``                             enqueue one job -> job id
  ``POST /v1/sweep``                           enqueue matching scenarios
  ``GET  /v1/jobs/<id>``                       status (+ result when done)
  ``POST /v1/jobs/<id>/cancel``                cancel queued/running job
  ``GET  /v1/jobs/<id>/stream``                per-batch results as JSON
                                               lines until terminal
  ===========================================  ===========================

  Protocol error codes map onto status codes: ``bad-request`` -> 400,
  ``unknown-scenario``/``unknown-job`` -> 404, ``queue-full`` -> **429**
  (the backpressure contract), ``internal`` -> 500.

* **stdio JSON lines** (:func:`serve_stdio`): one request object per
  line, one response per line, correlated by the client-chosen ``id``
  field; job batches are fetched by polling ``status`` like any other
  client.  This is the embedding-friendly transport (drive the service
  as a child process over pipes).

``python -m repro.service`` starts either transport; see
:mod:`repro.service.__main__`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping, Optional

from repro.errors import ReproError
from repro.experiments.scenarios import DEFAULT_REGISTRY
from repro.service.jobs import (
    TERMINAL_STATES,
    JobManager,
    JobSpec,
)
from repro.service.protocol import (
    Request,
    RequestError,
    error_response,
    ok_response,
    parse_request,
)

#: HTTP status for each protocol error code.
_HTTP_STATUS = {
    "bad-request": 400,
    "unknown-scenario": 404,
    "unknown-job": 404,
    "queue-full": 429,
    "internal": 500,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Largest accepted request body; a run request is a few hundred bytes,
#: so anything near this is abuse, not traffic.
_MAX_BODY_BYTES = 1 << 20

#: Streaming consumers re-check job state at least this often, so a
#: missed wakeup can only delay a batch, never lose it.
_STREAM_POLL_SECONDS = 0.5

#: Deadline for reading one request (request line, headers and body).
#: A client that has not sent its whole request by then is closed on
#: quietly, so a half-open connection cannot hold its handler forever.
_REQUEST_READ_SECONDS = 10.0


class ServiceServer:
    """The HTTP transport bound to one :class:`JobManager`."""

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager if manager is not None else JobManager()
        self._host = host
        self._port = port
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._host

    async def start(self) -> None:
        """Bind the listening socket and start the job workers."""
        self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- shared op dispatch (used by both transports) -------------------
    def dispatch(self, request: Request) -> dict[str, Any]:
        """Execute one non-streaming protocol request."""
        if request.op == "ping":
            return ok_response({"pong": True}, request_id=request.id)
        if request.op == "stats":
            return ok_response(
                {"stats": self.manager.stats()}, request_id=request.id
            )
        if request.op == "status":
            job = self.manager.get(request.job)
            return ok_response(
                job.to_dict(include_batches=True), request_id=request.id
            )
        if request.op == "cancel":
            job = self.manager.cancel(request.job)
            return ok_response(
                {"job": job.id, "state": job.state}, request_id=request.id
            )
        if request.op == "run":
            job = self.manager.submit(
                JobSpec(scenario=request.scenario, overrides=request.overrides)
            )
            return ok_response(
                {"job": job.id, "state": job.state}, request_id=request.id
            )
        # op == "sweep"
        scenarios = DEFAULT_REGISTRY.select(
            match=request.match, tag=request.tag
        )
        if request.limit is not None:
            scenarios = scenarios[: request.limit]
        jobs = [
            self.manager.submit(
                JobSpec(scenario=scenario, overrides=request.overrides)
            )
            for scenario in scenarios
        ]
        return ok_response(
            {"jobs": [{"job": job.id, "scenario": job.spec.scenario.name}
                      for job in jobs]},
            request_id=request.id,
        )

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), _REQUEST_READ_SECONDS
                )
            except RequestError as error:
                # Malformed framing, answered before any routing.
                return await _send_json(
                    writer, 400, error_response(error.code, str(error))
                )
            except asyncio.TimeoutError:
                # The request did not arrive whole before the deadline
                # (a stalled or half-open client): close quietly.
                return
            if method is None:
                return
            await self._route(method, path, body, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            # The client hung up, possibly mid-body: nothing to answer.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None, None, None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await _read_line(reader)
            if line in (b"", b"\r\n", b"\n"):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
        if content_length < 0:
            raise RequestError("bad-request", "negative Content-Length")
        content_length = min(content_length, _MAX_BODY_BYTES)
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0]
        try:
            if path == "/healthz" and method == "GET":
                return await _send_json(
                    writer, 200, ok_response({"pong": True})
                )
            if path == "/v1/stats" and method == "GET":
                return await _send_json(
                    writer, 200,
                    ok_response({"stats": self.manager.stats()}),
                )
            if path in ("/v1/run", "/v1/sweep"):
                if method != "POST":
                    return await _send_json(
                        writer, 405,
                        error_response("bad-request", "use POST"),
                    )
                payload = _decode_body(body)
                payload["op"] = path.rsplit("/", 1)[1]
                request = parse_request(payload, registry=DEFAULT_REGISTRY)
                return await _send_json(writer, 200, self.dispatch(request))
            if path.startswith("/v1/jobs/"):
                tail = path[len("/v1/jobs/"):]
                if tail.endswith("/cancel") and method == "POST":
                    request = Request(op="cancel", job=tail[: -len("/cancel")])
                    return await _send_json(
                        writer, 200, self.dispatch(request)
                    )
                if tail.endswith("/stream") and method == "GET":
                    job_id = tail[: -len("/stream")]
                    return await self._stream_job(writer, job_id)
                if "/" not in tail and method == "GET":
                    request = Request(op="status", job=tail)
                    return await _send_json(
                        writer, 200, self.dispatch(request)
                    )
            await _send_json(
                writer, 404,
                error_response("bad-request", f"no route for {method} {path}"),
            )
        except RequestError as error:
            await _send_json(
                writer,
                _HTTP_STATUS.get(error.code, 500),
                error_response(error.code, str(error)),
            )
        except ReproError as error:
            await _send_json(
                writer, 400, error_response("bad-request", str(error))
            )
        except Exception as error:  # pragma: no cover - defensive
            await _send_json(
                writer, 500,
                error_response(
                    "internal", f"{type(error).__name__}: {error}"
                ),
            )

    async def _stream_job(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        """Stream a job's batches as JSON lines until it is terminal.

        The response has no ``Content-Length``; per HTTP/1.1 the close
        delimits the body (``Connection: close`` is set on every
        response anyway).  Each line is one event object:
        ``{"event": "batch", "batch": i, "payload": ..., "wait_seconds":
        ..., "run_seconds": ...}`` per finished batch (the seconds it
        waited for the CPU thread and ran there, beside the payload),
        then one ``{"event": "end", ...}`` with the job's final state
        (and merged result when it completed).
        """
        job = self.manager.get(job_id)  # may raise unknown-job
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            job.changed.clear()
            while sent < len(job.batches):
                line = json.dumps(
                    {
                        "event": "batch",
                        "job": job.id,
                        "batch": sent,
                        "payload": job.batches[sent],
                        **job.batch_timing[sent],
                    },
                    sort_keys=True,
                )
                writer.write(line.encode("utf-8") + b"\n")
                await writer.drain()
                sent += 1
            if job.state in TERMINAL_STATES:
                break
            try:
                await asyncio.wait_for(
                    job.changed.wait(), timeout=_STREAM_POLL_SECONDS
                )
            except asyncio.TimeoutError:
                pass  # periodic re-check; a wakeup can never be lost
        end = {
            "event": "end",
            "job": job.id,
            "state": job.state,
            "batches": sent,
        }
        if job.error is not None:
            end["error"] = job.error
        if job.result is not None:
            end["result"] = job.result
        writer.write(json.dumps(end, sort_keys=True).encode("utf-8") + b"\n")
        await writer.drain()


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line over the reader's limit is a 400."""
    try:
        return await reader.readline()
    except ValueError:
        # ``readline`` reports a line over the limit as ValueError.
        raise RequestError(
            "bad-request", "request line or header line too long"
        ) from None


def _decode_body(body: bytes) -> dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RequestError(
            "bad-request", f"request body is not valid JSON: {error}"
        ) from None
    if not isinstance(payload, Mapping):
        raise RequestError("bad-request", "request body must be an object")
    return dict(payload)


async def _send_json(
    writer: asyncio.StreamWriter, status: int, payload: Mapping[str, Any]
) -> None:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()


async def serve_stdio(
    manager: JobManager,
    reader: asyncio.StreamReader,
    writer,
) -> None:
    """The stdio transport: JSON-lines request/response over one pipe.

    Reads one JSON request per line and writes one JSON response per
    line (correlated via the optional ``id`` field).  EOF ends the
    session.  ``writer`` is anything with ``write(bytes)`` and
    ``async drain()`` -- a real :class:`asyncio.StreamWriter` or the
    blocking stdout facade ``python -m repro.service --stdio`` uses.
    """
    server = ServiceServer(manager)
    manager.start()
    while True:
        line = await reader.readline()
        if not line:
            break
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        request_id = None
        try:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as error:
                raise RequestError(
                    "bad-request", f"not valid JSON: {error}"
                ) from None
            if isinstance(payload, Mapping):
                raw_id = payload.get("id")
                request_id = raw_id if isinstance(raw_id, str) else None
            request = parse_request(payload, registry=DEFAULT_REGISTRY)
            response = server.dispatch(request)
        except RequestError as error:
            response = error_response(
                error.code, str(error), request_id=request_id
            )
        except ReproError as error:
            response = error_response(
                "bad-request", str(error), request_id=request_id
            )
        except Exception as error:  # pragma: no cover - defensive
            response = error_response(
                "internal", f"{type(error).__name__}: {error}",
                request_id=request_id,
            )
        writer.write(
            json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
        )
        await writer.drain()
