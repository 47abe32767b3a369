"""The ``repro-service/1`` wire protocol: JSON requests and responses.

One request/response vocabulary is shared by both transports (HTTP and
stdio JSON lines), so the parsing and validation live here, away from
any socket code.  Like the bench schema in
:mod:`repro.experiments.persistence`, validation is by hand (stdlib
only) and every rejection names the offending field; a malformed request
becomes a structured error response, never a traceback on the server.

Operations
----------
``run``
    Enqueue one benchmark job: a scenario (a registered name or an
    inline scenario object) plus run overrides (``trials``, ``seed``,
    ``seed_batches``, ``workers``, ``include_reference``,
    ``timeout_seconds``).
``sweep``
    Enqueue one job per registered scenario matching ``match``/``tag``
    (bounded by ``limit``), sharing the run overrides.
``status``
    One job's state, progress and (when finished) merged result.
``cancel``
    Cancel a queued job, or request cooperative cancellation of a
    running one (takes effect at the next batch boundary).
``stats``
    Server counters: resolution-cache hits/misses/evictions, queue
    depth, jobs by state.
``ping``
    Liveness probe.

Error codes
-----------
``bad-request`` (malformed JSON or fields), ``unknown-scenario``,
``unknown-job``, ``queue-full`` (backpressure: the bounded job queue
rejected the submission -- HTTP maps this to 429), ``internal``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional

from repro.errors import ConfigurationError
from repro.experiments.scenarios import Scenario, get_scenario

#: Protocol identifier, echoed in every response envelope.
SERVICE_SCHEMA = "repro-service/1"

#: The operations a request may name.
OPERATIONS = ("run", "sweep", "status", "cancel", "stats", "ping")

#: Machine-readable error codes (the HTTP transport maps them to status
#: codes; stdio clients switch on them directly).
ERROR_CODES = (
    "bad-request",
    "unknown-scenario",
    "unknown-job",
    "queue-full",
    "internal",
)

#: Run-override fields accepted by ``run`` and ``sweep`` requests, with
#: their expected types (bool is checked strictly -- JSON ``true``, not
#: a truthy number).
_OVERRIDE_FIELDS = {
    "trials": int,
    "seed": int,
    "seed_batches": int,
    "workers": int,
    "include_reference": bool,
    "timeout_seconds": (int, float),
}


class RequestError(ConfigurationError):
    """A request that cannot be served, with a protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code


@dataclasses.dataclass(frozen=True)
class RunOverrides:
    """Validated run-level options shared by ``run`` and ``sweep``."""

    trials: Optional[int] = None
    seed: Optional[int] = None
    seed_batches: Optional[int] = None
    workers: Optional[int] = None
    include_reference: bool = False
    timeout_seconds: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class Request:
    """One parsed, validated protocol request."""

    op: str
    scenario: Optional[Scenario] = None
    overrides: RunOverrides = RunOverrides()
    job: Optional[str] = None
    match: Optional[str] = None
    tag: Optional[str] = None
    limit: Optional[int] = None
    #: Client-chosen correlation id, echoed verbatim in the response
    #: (how stdio clients pair pipelined requests with replies).
    id: Optional[str] = None


def parse_request(payload: Any) -> Request:
    """Validate one decoded JSON request against the protocol.

    ``payload`` is the decoded JSON value (must be an object).  Scenario
    *names* resolve through
    :func:`~repro.experiments.scenarios.get_scenario`; inline scenario
    objects are built through :meth:`Scenario.from_dict` and need no
    registration.

    Raises
    ------
    RequestError
        With code ``bad-request`` or ``unknown-scenario``.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(
            "bad-request", "request must be a JSON object"
        )
    op = payload.get("op")
    if op not in OPERATIONS:
        raise RequestError(
            "bad-request",
            f"op must be one of {OPERATIONS}, got {op!r}",
        )
    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise RequestError("bad-request", "id must be a string")

    if op in ("status", "cancel"):
        job = payload.get("job")
        if not isinstance(job, str) or not job:
            raise RequestError(
                "bad-request", f"op {op!r} requires a 'job' id string"
            )
        return Request(op=op, job=job, id=request_id)

    if op in ("stats", "ping"):
        return Request(op=op, id=request_id)

    overrides = _parse_overrides(payload)
    if op == "run":
        scenario = _parse_scenario(payload.get("scenario"))
        return Request(
            op=op, scenario=scenario, overrides=overrides, id=request_id
        )

    # op == "sweep"
    match = payload.get("match")
    tag = payload.get("tag")
    limit = payload.get("limit")
    if match is not None and not isinstance(match, str):
        raise RequestError("bad-request", "match must be a string")
    if tag is not None and not isinstance(tag, str):
        raise RequestError("bad-request", "tag must be a string")
    if limit is not None and (
        isinstance(limit, bool) or not isinstance(limit, int) or limit < 1
    ):
        raise RequestError("bad-request", "limit must be an integer >= 1")
    return Request(
        op=op, match=match, tag=tag, limit=limit, overrides=overrides,
        id=request_id,
    )


def _parse_scenario(value: Any) -> Scenario:
    if isinstance(value, str) and value:
        try:
            return get_scenario(value)
        except ConfigurationError:
            raise RequestError(
                "unknown-scenario",
                f"scenario {value!r} is not registered",
            ) from None
    if isinstance(value, Mapping):
        try:
            return Scenario.from_dict(value)
        except (ConfigurationError, KeyError, TypeError, ValueError) as error:
            raise RequestError(
                "bad-request", f"invalid inline scenario: {error}"
            ) from None
    raise RequestError(
        "bad-request",
        "run requires 'scenario': a registered name or a scenario object",
    )


def _parse_overrides(payload: Mapping[str, Any]) -> RunOverrides:
    values: dict[str, Any] = {}
    for field, types in _OVERRIDE_FIELDS.items():
        value = payload.get(field)
        if value is None:
            continue
        if types is not bool and isinstance(value, bool):
            raise RequestError(
                "bad-request", f"{field} must not be a boolean"
            )
        if not isinstance(value, types):
            raise RequestError(
                "bad-request",
                f"{field} has wrong type {type(value).__name__}",
            )
        values[field] = value
    for field in ("trials", "seed_batches", "workers"):
        if field in values and values[field] < 1:
            raise RequestError(
                "bad-request", f"{field} must be >= 1, got {values[field]}"
            )
    if values.get("seed", 0) < 0:
        raise RequestError(
            "bad-request", f"seed must be >= 0, got {values['seed']}"
        )
    if "timeout_seconds" in values:
        values["timeout_seconds"] = float(values["timeout_seconds"])
        if not values["timeout_seconds"] > 0:
            raise RequestError(
                "bad-request", "timeout_seconds must be > 0"
            )
    return RunOverrides(**values)


def ok_response(
    payload: Mapping[str, Any], *, request_id: Optional[str] = None
) -> dict[str, Any]:
    """The success envelope: ``{"schema", "ok": true, **payload}``."""
    response: dict[str, Any] = {"schema": SERVICE_SCHEMA, "ok": True}
    if request_id is not None:
        response["id"] = request_id
    response.update(payload)
    return response


def error_response(
    code: str, message: str, *, request_id: Optional[str] = None
) -> dict[str, Any]:
    """The failure envelope, with a machine-readable ``error.code``."""
    if code not in ERROR_CODES:
        code = "internal"
    response: dict[str, Any] = {
        "schema": SERVICE_SCHEMA,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response
