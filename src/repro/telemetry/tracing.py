"""Distributed request tracing and the crash flight recorder.

:mod:`repro.telemetry` answers *how much* work the system did; this
module answers *where one request's time went*.  A trace is a set of
**spans** — named, timed intervals carrying a shared ``trace`` id —
minted at the system edge (the TCP server, or the replay driver),
propagated through protocol requests (the additive ``trace`` field)
into shard workers, and recorded wherever work happens:

* ``server.admit`` / ``server.release`` — queue + dispatch time of one
  request inside :class:`~repro.service.server.AdmissionServer`;
* ``shard.request`` / ``shard.release`` — the op's execution inside a
  shard backend (worker process or inline);
* ``admission.request`` — the controller's admission decision, nested
  under the shard span, with fixed-point solver attribution
  (``fp.solves`` / ``fp.iterations`` tags) folded in by
  :mod:`repro.util.fixed_point`.

Spans land in a **bounded per-process ring buffer** (old spans fall
off; tracing can run forever).  Worker rings are drained over the
shard pipes and folded into the parent's ring exactly like registry
snapshots, so one process ends up holding the fleet's recent spans —
:func:`to_chrome_trace` then renders them as Chrome trace-event JSON
(``chrome://tracing`` / https://ui.perfetto.dev), one track per
``(process, incarnation)`` so a supervised worker respawn shows up as
a track split.

Zero overhead when disabled
---------------------------
Mirrors the registry contract: the module global :data:`TRACER` is
``None`` when tracing is off, hot paths read it once and skip
everything on ``None`` — no allocation, no clock reads.  Tracing is
observational only: enabling it changes no decision or simulation
result.  Set ``REPRO_TRACE=1`` to enable at import time.

Flight recorder
---------------
:func:`write_flight_record` snapshots the evidence that is otherwise
lost with a dead worker — the last N spans, the registry state, and
the supervisor's op-journal position — into a self-contained
post-mortem JSON document.  The worker supervisor
(:class:`repro.service.sharding._ProcessShard`) calls it on every
dead-worker detection, before its one restore path runs, and on
permanent degradation.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Span-record schema version (embedded in flight records).
TRACE_VERSION = 1

#: Flight-record schema version.
FLIGHT_VERSION = 1

#: Default ring-buffer capacity (spans kept per process).
DEFAULT_CAPACITY = 4096


class _TraceSpan:
    """Context manager: one open span on a tracer's stack."""

    __slots__ = (
        "_tracer", "_name", "_trace", "_span", "_parent", "_tags",
        "_ts", "_start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent: str | None,
        tags: dict[str, float] | None,
    ):
        self._tracer = tracer
        self._name = name
        self._trace = trace_id
        self._span = span_id
        self._parent = parent
        self._tags = tags

    @property
    def context(self) -> dict[str, str]:
        """``{"id", "span"}`` — what a child (or the wire) propagates."""
        return {"id": self._trace, "span": self._span}

    def annotate(self, key: str, n: float = 1.0) -> None:
        """Accumulate a numeric tag on this span."""
        if self._tags is None:
            self._tags = {}
        self._tags[key] = self._tags.get(key, 0.0) + n

    def __enter__(self) -> "_TraceSpan":
        self._tracer._stack.append(self)
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        stack = self._tracer._stack
        # Defensive: the body may have unbalanced the stack (it never
        # should); bookkeeping must not raise out of __exit__.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive
            stack.remove(self)
        if exc_type is not None:
            self.annotate("error")
        self._tracer.record(
            name=self._name,
            trace=self._trace,
            span=self._span,
            parent=self._parent,
            ts=self._ts,
            dur=elapsed,
            tags=self._tags,
        )


class _NullSpan:
    """Shared no-op span used when tracing is disabled."""

    __slots__ = ()

    context = None

    def annotate(self, key: str, n: float = 1.0) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-process span recorder: id minting + bounded ring buffer.

    ``proc`` labels which process the spans belong to (``"server"``,
    ``"shard0"``, ...) and ``incarnation`` which respawn of it — the
    pair becomes the track identity in the Chrome export.  Span and
    trace ids embed the pid, so ids minted in different worker
    processes never collide.
    """

    def __init__(
        self,
        proc: str = "main",
        incarnation: int = 0,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.proc = proc
        self.incarnation = int(incarnation)
        self.capacity = capacity
        self.spans: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0
        self._stack: list[_TraceSpan] = []
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    # -- id minting -----------------------------------------------------
    def mint_trace(self) -> str:
        return f"t{self._pid:x}.{next(self._ids)}"

    def mint_span(self) -> str:
        return f"s{self._pid:x}.{next(self._ids)}"

    # -- recording ------------------------------------------------------
    def span(
        self,
        name: str,
        trace: Mapping[str, Any] | None = None,
        tags: dict[str, float] | None = None,
    ) -> _TraceSpan:
        """Open a span: explicit parent context, else the innermost
        open span, else a fresh root trace."""
        if trace is not None:
            trace_id = str(trace.get("id") or self.mint_trace())
            parent = trace.get("span")
            parent = str(parent) if parent is not None else None
        elif self._stack:
            top = self._stack[-1]
            trace_id = top._trace
            parent = top._span
        else:
            trace_id = self.mint_trace()
            parent = None
        return _TraceSpan(self, name, trace_id, self.mint_span(), parent, tags)

    def current_context(self) -> dict[str, str] | None:
        """Propagation context of the innermost open span, or None."""
        if not self._stack:
            return None
        return self._stack[-1].context

    def annotate(self, key: str, n: float = 1.0) -> None:
        """Accumulate a numeric tag on the innermost open span (no-op
        when no span is open)."""
        if self._stack:
            self._stack[-1].annotate(key, n)

    def record(
        self,
        *,
        name: str,
        trace: str,
        span: str | None = None,
        parent: str | None = None,
        ts: float,
        dur: float,
        tags: Mapping[str, float] | None = None,
        proc: str | None = None,
        inc: int | None = None,
    ) -> None:
        """Append one finished span record to the ring."""
        doc: dict[str, Any] = {
            "trace": trace,
            "span": span or self.mint_span(),
            "name": name,
            "proc": proc if proc is not None else self.proc,
            "inc": int(inc) if inc is not None else self.incarnation,
            "ts": ts,
            "dur": dur,
        }
        if parent is not None:
            doc["parent"] = parent
        if tags:
            doc["tags"] = dict(tags)
        if len(self.spans) == self.spans.maxlen:
            self.dropped += 1
        self.spans.append(doc)

    # -- cross-process exchange -----------------------------------------
    def drain(self) -> list[dict[str, Any]]:
        """Pop every buffered span (what a worker ships to its parent)."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def extend(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Fold drained span records (e.g. from a worker) into the ring."""
        for doc in spans:
            if len(self.spans) == self.spans.maxlen:
                self.dropped += 1
            self.spans.append(dict(doc))

    def snapshot(self) -> list[dict[str, Any]]:
        """Copy of the buffered spans, oldest first (non-draining)."""
        return [dict(doc) for doc in self.spans]

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0


# ----------------------------------------------------------------------
# Process-local activation (mirrors repro.telemetry.REGISTRY)
# ----------------------------------------------------------------------
#: The active tracer, or ``None`` when tracing is disabled.  Hot paths
#: read this module attribute once and skip all tracing on ``None``.
TRACER: Tracer | None = None


def tracing_enabled() -> bool:
    return TRACER is not None


def enable_tracing(
    tracer: Tracer | None = None,
    *,
    proc: str = "main",
    incarnation: int = 0,
    capacity: int = DEFAULT_CAPACITY,
) -> Tracer:
    """Install (and return) the process-local tracer.

    Idempotent like :func:`repro.telemetry.enable`: enabling while
    enabled keeps the current tracer unless an explicit one is passed.
    """
    global TRACER
    if tracer is not None:
        TRACER = tracer
    elif TRACER is None:
        TRACER = Tracer(proc=proc, incarnation=incarnation, capacity=capacity)
    return TRACER


def disable_tracing() -> Tracer | None:
    """Turn tracing off; returns the tracer that was active."""
    global TRACER
    active, TRACER = TRACER, None
    return active


def span(name: str, trace: Mapping[str, Any] | None = None):
    """Module-level convenience: a real span when tracing is on, the
    shared no-op span otherwise."""
    tr = TRACER
    if tr is None:
        return NULL_SPAN
    return tr.span(name, trace=trace)


def annotate(key: str, n: float = 1.0) -> None:
    tr = TRACER
    if tr is not None:
        tr.annotate(key, n)


def current_context() -> dict[str, str] | None:
    tr = TRACER
    if tr is None:
        return None
    return tr.current_context()


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def to_chrome_trace(
    spans: Iterable[Mapping[str, Any]],
) -> dict[str, Any]:
    """Render span records as a Chrome trace-event JSON object.

    Loadable in ``chrome://tracing`` and Perfetto.  Every distinct
    ``(proc, inc)`` pair becomes its own track (a synthetic ``pid``
    plus a ``process_name`` metadata event), so a shard worker that was
    killed and respawned renders as two adjacent tracks — the track
    split *is* the crash.  Trace/span/parent ids and tags travel in
    each event's ``args`` (click a slice to see them; slices of one
    request share ``args.trace``).
    """
    records = sorted(
        (dict(s) for s in spans),
        key=lambda s: (float(s.get("ts", 0.0)), str(s.get("span", ""))),
    )
    pid_of: dict[tuple[str, int], int] = {}
    events: list[dict[str, Any]] = []
    meta: list[dict[str, Any]] = []
    for s in records:
        key = (str(s.get("proc", "main")), int(s.get("inc", 0)))
        pid = pid_of.get(key)
        if pid is None:
            pid = pid_of[key] = len(pid_of) + 1
            proc, inc = key
            label = proc if inc == 0 else f"{proc} (incarnation {inc})"
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
            meta.append(
                {
                    "name": "process_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"sort_index": pid},
                }
            )
        args: dict[str, Any] = {"trace": s.get("trace")}
        if s.get("parent") is not None:
            args["parent"] = s["parent"]
        if s.get("span") is not None:
            args["span"] = s["span"]
        args.update(s.get("tags") or {})
        name = str(s.get("name", "span"))
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(float(s.get("ts", 0.0)) * 1e6, 3),
                "dur": max(round(float(s.get("dur", 0.0)) * 1e6, 3), 0.001),
                "pid": pid,
                "tid": 1,
                "args": args,
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: Any) -> list[dict[str, Any]]:
    """Check ``doc`` is a loadable Chrome trace-event object.

    Returns the duration (``"ph": "X"``) events; raises
    :class:`ValueError` on anything a trace viewer would refuse.  Used
    by the CI ``trace-smoke`` gate and the export tests.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("chrome trace must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace missing 'traceEvents' list")
    complete: list[dict[str, Any]] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, Mapping):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for field in ("name", "ph", "pid"):
            if field not in ev:
                raise ValueError(f"traceEvents[{i}] missing {field!r}")
        if ev["ph"] == "X":
            for field in ("ts", "dur"):
                if not isinstance(ev.get(field), (int, float)):
                    raise ValueError(
                        f"traceEvents[{i}] missing numeric {field!r}"
                    )
            complete.append(dict(ev))
    return complete


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def write_flight_record(
    directory: str | Path,
    *,
    reason: str,
    shard: int,
    incarnation: int,
    restarts: int,
    journal: Mapping[str, Any],
    spans: Iterable[Mapping[str, Any]] | None = None,
    registry: Mapping[str, Any] | None = None,
    shard_telemetry: Mapping[str, Any] | None = None,
    max_spans: int = 256,
    extra: Mapping[str, Any] | None = None,
) -> str:
    """Write one post-mortem JSON document; returns its path.

    ``journal`` is the supervisor's op-journal position (length, limit,
    baseline size — enough to know what a recovery will replay);
    ``spans`` the parent's recent span records (the last ``max_spans``
    are kept); ``registry`` the parent-process registry snapshot and
    ``shard_telemetry`` the dead shard's last-known merged snapshot.
    The file name is deterministic per (shard, incarnation, restart,
    reason).  Every worker process, primary or standby, is a new
    incarnation, so successive failovers keep separate documents even
    when a warm promotion leaves the restart count unchanged.
    """
    from datetime import datetime, timezone

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    recent = list(spans or [])
    doc: dict[str, Any] = {
        "v": FLIGHT_VERSION,
        "kind": "flight_record",
        "reason": reason,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "shard": int(shard),
        "incarnation": int(incarnation),
        "restarts": int(restarts),
        "journal": dict(journal),
        "spans": recent[-max_spans:],
        "spans_dropped": max(len(recent) - max_spans, 0),
        "registry": dict(registry) if registry else None,
        "shard_telemetry": dict(shard_telemetry) if shard_telemetry else None,
    }
    if extra:
        doc["extra"] = dict(extra)
    path = directory / (
        f"flight_shard{int(shard)}_i{int(incarnation)}_r{int(restarts)}"
        f"_{reason}.json"
    )
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return str(path)


def load_flight_record(path: str | Path) -> dict[str, Any]:
    """Read a flight record back, refusing newer schema versions."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != "flight_record":
        raise ValueError(f"{path}: not a flight-record document")
    version = doc.get("v", FLIGHT_VERSION)
    if version > FLIGHT_VERSION:
        raise ValueError(
            f"{path}: flight record v{version} is newer than the "
            f"supported v{FLIGHT_VERSION}"
        )
    return doc


if os.environ.get("REPRO_TRACE"):  # pragma: no cover - env-driven
    enable_tracing()
