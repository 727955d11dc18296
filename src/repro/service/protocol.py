"""Versioned wire protocol of the admission service.

One request or response per line, JSON-encoded (JSON-lines framing —
trivially debuggable with ``nc`` and ``jq``).  Every message carries the
protocol version under ``"v"``; requests from a *newer* protocol are
refused loudly, mirroring the schema-version discipline of
:mod:`repro.io` / :mod:`repro.scenario.serialization`.

Requests::

    {"v": 2, "id": 7, "op": "admit",   "flow": {<repro.io flow doc>}}
    {"v": 2, "id": 8, "op": "release", "flow_name": "call3"}
    {"v": 2, "id": 9, "op": "query",   "flow_name": "call3"}
    {"v": 2, "id": 10, "op": "stats"}
    {"v": 2, "id": 11, "op": "snapshot", "path": "state.json"}
    {"v": 2, "id": 12, "op": "metrics"}
    {"v": 2, "id": 13, "op": "health"}

Protocol v2 (v1 requests remain accepted) adds the fault-tolerance
surface:

* the ``health`` verb — per-shard liveness/restart/journal status plus
  server queue depth; cheap enough to poll;
* an **error-code taxonomy**: error responses carry ``"code"``, one of
  :data:`ERROR_CODES`; codes in :data:`RETRYABLE_CODES` mean the same
  request may succeed if re-sent (see :func:`is_retryable`), others are
  fatal for that request.  Shedding responses include ``retry_after``
  (seconds the client should wait);
* an **idempotency key**: requests may carry ``"idem"`` (an opaque
  string unique per logical operation).  The server caches the
  successful response per key and replays it for duplicates, so a
  client that retries an ``admit``/``release`` whose response was lost
  — a crashed connection, a dropped reply — never double-applies it;
* a **per-request deadline**: ``"deadline_s"`` (seconds from when the
  server reads the request; a request sent while a batch runs is read
  only after that batch ends).  A request still queued past its
  deadline is answered with ``deadline_exceeded`` instead of being
  processed — stale work is shed, not served.

Protocol v3 added the replication surface: replication fields in
``health``/``stats`` payloads (``replicas``, per-shard
``standby_alive`` / ``replication_lag_ops``, and the ``failovers`` /
``failover_s_total`` / ``cold_restores`` totals; ``stats_version`` 4),
and a ``rebalance`` verb that moved the service to a new shard layout.

Protocol v4 serves one engine (multi-shard serving was removed):

* ``rebalance`` left :data:`OPS`, so a ``rebalance`` request is
  answered ``bad_request`` like any unknown op;
* ``admit`` payloads carry only ``accepted`` and ``reason`` (no
  ``shards`` / ``cross_shard``), and ``query`` payloads only
  ``admitted`` and ``worst_response``;
* ``stats_version`` 5 drops the shard-layout fields and counters, and
  ``health`` drops ``n_shards`` (its ``shards`` list has one entry).

Every other v1–v3 request stays a valid v4 request.

Additive to v2 (no version bump — absent fields mean "untraced"):
requests may carry ``"trace"``, a distributed-tracing context object
``{"id": <trace id>, "span": <client span id>}`` (see
:mod:`repro.telemetry.tracing`).  A tracing server adopts the client's
trace id (minting one when absent), records its own spans under it,
propagates the context into shard workers, and echoes the server-side
``trace`` context in the response so clients can correlate.

``metrics`` returns the service's telemetry snapshots (merged across
shard workers; see :mod:`repro.telemetry`) — empty when telemetry is
disabled.  ``stats`` responses are versioned via ``stats_version``:
version 2 added the merged telemetry snapshot under ``"telemetry"``,
version 3 adds supervisor restart totals (older clients ignore unknown
keys).

``id`` is an opaque client token echoed in the response; ``at`` is an
optional replay timestamp (seconds into the trace) carried for log
fidelity and ignored by the server.  Responses::

    {"v": 2, "id": 7, "ok": true,  ...op-specific payload...}
    {"v": 2, "id": 8, "ok": false, "error": "flow 'x' is not admitted",
     "code": "bad_request"}
    {"v": 2, "id": 9, "ok": false, "error": "service overloaded",
     "code": "overloaded", "retry_after": 0.05}

The ``admit`` payload mirrors the service decision: ``accepted`` and
``reason``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.io import flow_from_dict, flow_to_dict
from repro.model.flow import Flow

#: Current protocol version (v2 added health / error codes / idem /
#: deadlines, v3 the replication fields and a rebalance verb, v4 removed
#: that verb; every other v1–v3 request remains a valid v4 request).
PROTOCOL_VERSION = 4

#: Operations the service understands.
OPS = (
    "admit", "release", "query", "stats", "snapshot", "metrics", "health",
)

# ----------------------------------------------------------------------
# Error-code taxonomy (v2)
# ----------------------------------------------------------------------
#: The request itself is invalid (malformed, unknown flow, duplicate
#: name, ...); re-sending it verbatim can never succeed.
ERR_BAD_REQUEST = "bad_request"
#: The server shed the request before processing (queue over its
#: limit); retry after the advertised ``retry_after``.
ERR_OVERLOADED = "overloaded"
#: The request's own deadline passed while it was queued.
ERR_DEADLINE = "deadline_exceeded"
#: The owning shard's worker is down (recovering or permanently dead);
#: a supervised shard may be back for the retry.
ERR_UNAVAILABLE = "shard_unavailable"
#: Unexpected server-side failure.
ERR_INTERNAL = "internal"

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_OVERLOADED,
    ERR_DEADLINE,
    ERR_UNAVAILABLE,
    ERR_INTERNAL,
)

#: Codes a client may transparently retry (with backoff).
RETRYABLE_CODES = frozenset({ERR_OVERLOADED, ERR_DEADLINE, ERR_UNAVAILABLE})


def is_retryable(doc: Mapping[str, Any]) -> bool:
    """True when a response document is a retryable failure."""
    return not doc.get("ok", False) and doc.get("code") in RETRYABLE_CODES


class ProtocolError(ValueError):
    """A request line is malformed or from an unsupported protocol."""


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    op: str
    id: Any = None
    flow: Flow | None = None
    flow_name: str | None = None
    at: float | None = None
    path: str | None = None
    #: Idempotency key: the server replays the cached successful
    #: response for a duplicate key instead of re-applying the op.
    idem: str | None = None
    #: Per-request deadline in seconds from when the server reads the
    #: request (after any batch running at its arrival); queued
    #: requests past it are shed with ``deadline_exceeded``.
    deadline_s: float | None = None
    #: Distributed-tracing context (``{"id": ..., "span": ...}``);
    #: additive to v2 — ``None`` means the request is untraced.
    trace: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(
                f"unknown op {self.op!r}; expected one of {list(OPS)}"
            )
        if self.op == "admit" and self.flow is None:
            raise ProtocolError("admit request: missing 'flow'")
        if self.op in ("release", "query") and not self.flow_name:
            raise ProtocolError(f"{self.op} request: missing 'flow_name'")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ProtocolError(
                f"request: negative deadline_s {self.deadline_s!r}"
            )

    @property
    def target(self) -> str | None:
        """Flow the request concerns (None for stats/snapshot/metrics)."""
        if self.flow is not None:
            return self.flow.name
        return self.flow_name


def request_to_dict(req: Request) -> dict[str, Any]:
    doc: dict[str, Any] = {"v": PROTOCOL_VERSION, "op": req.op}
    if req.id is not None:
        doc["id"] = req.id
    if req.flow is not None:
        doc["flow"] = flow_to_dict(req.flow)
    if req.flow_name is not None:
        doc["flow_name"] = req.flow_name
    if req.at is not None:
        doc["at"] = req.at
    if req.path is not None:
        doc["path"] = req.path
    if req.idem is not None:
        doc["idem"] = req.idem
    if req.deadline_s is not None:
        doc["deadline_s"] = req.deadline_s
    if req.trace is not None:
        doc["trace"] = dict(req.trace)
    return doc


def _trace_from_doc(doc: Mapping[str, Any]) -> dict[str, Any] | None:
    """Validate the optional ``trace`` field of a request document."""
    raw = doc.get("trace")
    if raw is None:
        return None
    if not isinstance(raw, Mapping):
        raise ProtocolError(f"request: 'trace' must be an object, got {raw!r}")
    trace_id = raw.get("id")
    if not isinstance(trace_id, str) or not trace_id:
        raise ProtocolError(
            "request: 'trace' must carry a non-empty string 'id'"
        )
    ctx: dict[str, Any] = {"id": trace_id}
    span = raw.get("span")
    if span is not None:
        ctx["span"] = str(span)
    return ctx


def request_from_dict(doc: Mapping[str, Any]) -> Request:
    if not isinstance(doc, Mapping):
        raise ProtocolError("request must be a JSON object")
    version = doc.get("v")
    if not isinstance(version, int):
        raise ProtocolError("request: missing integer protocol version 'v'")
    if version > PROTOCOL_VERSION:
        raise ProtocolError(
            f"request protocol v{version} is newer than the supported "
            f"v{PROTOCOL_VERSION}"
        )
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request: missing 'op'")
    flow = None
    if "flow" in doc:
        try:
            flow = flow_from_dict(doc["flow"])
        except Exception as exc:
            raise ProtocolError(f"admit request: bad flow document: {exc}")
    at = doc.get("at")
    if at is not None:
        try:
            at = float(at)
        except (TypeError, ValueError):
            raise ProtocolError(f"request: non-numeric 'at' value {at!r}")
    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        try:
            deadline_s = float(deadline_s)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"request: non-numeric 'deadline_s' value {deadline_s!r}"
            )
    flow_name = doc.get("flow_name")
    path = doc.get("path")
    idem = doc.get("idem")
    return Request(
        op=op,
        id=doc.get("id"),
        flow=flow,
        flow_name=str(flow_name) if flow_name is not None else None,
        at=at,
        path=str(path) if path is not None else None,
        idem=str(idem) if idem is not None else None,
        deadline_s=deadline_s,
        trace=_trace_from_doc(doc),
    )


def response_to_dict(
    request_id: Any, payload: Mapping[str, Any] | None = None, *,
    ok: bool = True, error: str | None = None, code: str | None = None,
    retry_after: float | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {"v": PROTOCOL_VERSION, "id": request_id, "ok": ok}
    if error is not None:
        doc["ok"] = False
        doc["error"] = error
        if code is not None:
            doc["code"] = code
        if retry_after is not None:
            doc["retry_after"] = retry_after
    if payload:
        doc.update(payload)
    return doc


def encode_line(doc: Mapping[str, Any]) -> bytes:
    """Compact one-line JSON encoding with trailing newline."""
    return (
        json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
    ).encode()


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one JSON-lines message; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("message must be a JSON object")
    return doc
