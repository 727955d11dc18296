"""Trace replay: scenario families x arrival processes -> request streams.

The load driver turns any registered scenario family into a
reproducible admission-request stream: the family supplies the
*workload* (a pool of flows, or a recorded churn storyline), an
*arrival process* supplies the timing, and a deterministic seed makes
the whole trace a pure function of its parameters — the same contract
scenario families themselves obey.

Arrival processes:

* ``poisson``  — i.i.d. exponential inter-arrivals at ``rate`` req/s
  (the classic call-arrival model);
* ``burst``    — groups of ``burst_size`` simultaneous requests every
  ``burst_gap`` seconds (the batching/coalescing stress case);
* ``recorded`` — the scenario's own admit/release storyline (base flows
  then churn events) replayed verbatim at a uniform pace.

Generated traces interleave admissions with releases of the oldest live
flow once ``hold`` flows are in flight, so a long trace models a
steady-state service under churn rather than a monotone fill.  Admitted
clones are renamed ``<base>@<seq>`` to keep names unique trace-wide.

A trace serialises to a JSON-lines *request log* in which every line is
a valid :mod:`repro.service.protocol` request — a saved trace can be
piped to a live server verbatim.  :func:`replay_service` drives a
:class:`~repro.service.sharding.ShardedAdmissionService` in micro-
batches, :func:`replay_serial` feeds the same ops one at a time to a
fresh in-process :class:`~repro.core.admission.AdmissionController`
(the parity reference for batching, worker backends, recovery and the
wire), and :func:`replay_tcp` drives a live server over the wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.admission import AdmissionController
from repro.core.context import AnalysisOptions
from repro.model.flow import Flow
from repro.model.network import Network
from repro.scenario.model import Scenario
from repro.service.protocol import (
    Request,
    decode_line,
    encode_line,
    is_retryable,
    request_from_dict,
    request_to_dict,
)
# The wire fetchers live in the numpy-free client module; the
# benchmark's TCP client still imports them from here.
from repro.service.client import (  # noqa: F401
    fetch_health_tcp,
    fetch_metrics_tcp,
    fetch_stats_tcp,
)
from repro.service.retry import RetryPolicy, connect_with_backoff
from repro.service.sharding import _apply_op, _engine_op
from repro.telemetry import tracing as _tracing

ARRIVALS = ("poisson", "burst", "recorded")


@dataclass(frozen=True)
class ReplayTrace:
    """A named, reproducible request stream."""

    name: str
    requests: tuple[Request, ...]

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    def admits(self) -> tuple[Request, ...]:
        return tuple(r for r in self.requests if r.op == "admit")


def _arrival_offsets(
    arrival: str,
    n: int,
    *,
    rate: float,
    burst_size: int,
    burst_gap: float,
    seed: int,
) -> list[float]:
    if arrival == "poisson":
        if rate <= 0:
            raise ValueError("poisson arrivals need rate > 0")
        rng = np.random.default_rng(seed)
        return list(np.cumsum(rng.exponential(1.0 / rate, size=n)))
    if arrival == "burst":
        if burst_size < 1:
            raise ValueError("burst arrivals need burst_size >= 1")
        return [(i // burst_size) * burst_gap for i in range(n)]
    if arrival == "recorded":
        if rate <= 0:
            raise ValueError("recorded arrivals need rate > 0")
        return [i / rate for i in range(n)]
    raise ValueError(f"unknown arrival process {arrival!r}; one of {ARRIVALS}")


def trace_from_scenario(
    scenario: Scenario,
    *,
    n_requests: int | None = None,
    arrival: str = "poisson",
    rate: float = 100.0,
    burst_size: int = 16,
    burst_gap: float = 0.05,
    hold: int = 8,
    seed: int = 0,
    name: str | None = None,
) -> ReplayTrace:
    """Build a request stream from a scenario (see module docstring).

    ``recorded`` replays the scenario's own workload events verbatim
    (optionally capped at ``n_requests``); the synthetic processes clone
    flows round-robin from the scenario's admit pool and release the
    oldest live flow once ``hold`` are in flight.
    """
    events = scenario.workload_events()
    ops: list[tuple[str, Flow | None, str | None]] = []
    if arrival == "recorded":
        for ev in events:
            ops.append((ev.action, ev.flow, ev.flow_name))
        if n_requests is not None:
            ops = ops[:n_requests]
    else:
        pool = [ev.flow for ev in events if ev.action == "admit"]
        if not pool:
            raise ValueError(
                f"scenario {scenario.name!r} offers no flows to replay"
            )
        if hold < 1:
            raise ValueError("hold must be >= 1")
        total = 64 if n_requests is None else n_requests
        live: deque[str] = deque()
        seq = 0
        while len(ops) < total:
            if len(live) >= hold:
                ops.append(("release", None, live.popleft()))
                continue
            base = pool[seq % len(pool)]
            clone = dataclasses.replace(base, name=f"{base.name}@{seq}")
            ops.append(("admit", clone, None))
            live.append(clone.name)
            seq += 1
    offsets = _arrival_offsets(
        arrival,
        len(ops),
        rate=rate,
        burst_size=burst_size,
        burst_gap=burst_gap,
        seed=seed,
    )
    requests = tuple(
        Request(
            op=op,
            id=i,
            flow=flow,
            flow_name=flow_name,
            at=round(float(at), 9),
        )
        for i, ((op, flow, flow_name), at) in enumerate(zip(ops, offsets))
    )
    label = name or f"{scenario.name}/{arrival}x{len(requests)}[seed={seed}]"
    return ReplayTrace(name=label, requests=requests)


def trace_from_family(
    family: str,
    params: Mapping[str, Any] | None = None,
    **kwargs: Any,
) -> ReplayTrace:
    """Build a trace straight from a registered scenario family."""
    from repro.scenario.registry import REGISTRY

    scenario = REGISTRY.build(family, **dict(params or {}))
    return trace_from_scenario(scenario, **kwargs)


# ----------------------------------------------------------------------
# Request-log files (JSON lines of protocol requests)
# ----------------------------------------------------------------------
def save_trace(path: str | Path, trace: ReplayTrace) -> None:
    """Write the trace as a replayable protocol request log."""
    with open(path, "wb") as fh:
        for req in trace.requests:
            fh.write(encode_line(request_to_dict(req)))


def load_trace(path: str | Path) -> ReplayTrace:
    """Read a request log back into a trace."""
    path = Path(path)
    requests = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        requests.append(request_from_dict(decode_line(line)))
    return ReplayTrace(name=path.stem, requests=tuple(requests))


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplaySummary:
    """Outcome of one replay run."""

    trace: str
    n_requests: int
    offered: int
    accepted: int
    rejected: int
    released: int
    errors: int
    elapsed_s: float
    #: Accept/reject of every ``admit`` request, in trace order — the
    #: unit of parity between service, serial and over-the-wire replays.
    admit_decisions: tuple[bool, ...] = field(repr=False)
    #: Requests re-sent by the TCP driver (reconnects and retryable
    #: error codes); 0 for in-process replays and fault-free runs.
    retries: int = 0

    @property
    def accept_rate(self) -> float:
        return self.accepted / self.offered if self.offered else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.n_requests / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _summarize(
    trace: ReplayTrace,
    payloads: Sequence[Mapping[str, Any]],
    elapsed_s: float,
    retries: int = 0,
) -> ReplaySummary:
    offered = accepted = rejected = released = errors = 0
    decisions: list[bool] = []
    for req, payload in zip(trace.requests, payloads):
        if "error" in payload:
            errors += 1
            if req.op == "admit":
                offered += 1
                rejected += 1
                decisions.append(False)
            continue
        if req.op == "admit":
            offered += 1
            ok = bool(payload.get("accepted"))
            decisions.append(ok)
            if ok:
                accepted += 1
            else:
                rejected += 1
        elif req.op == "release":
            released += 1
    return ReplaySummary(
        trace=trace.name,
        n_requests=trace.n_requests,
        offered=offered,
        accepted=accepted,
        rejected=rejected,
        released=released,
        errors=errors,
        elapsed_s=elapsed_s,
        admit_decisions=tuple(decisions),
        retries=retries,
    )


def _batches(requests: Sequence[Request], batch: int):
    if batch < 1:
        raise ValueError("batch must be >= 1")
    for i in range(0, len(requests), batch):
        yield list(requests[i : i + batch])


def replay_service(service, trace: ReplayTrace, *, batch: int = 16) -> ReplaySummary:
    """Drive a :class:`ShardedAdmissionService` in micro-batches.

    When tracing is enabled in this process, every request is stamped
    with a fresh trace id (``<trace name>#<index>``) so per-request
    spans recorded by the service and its worker are
    correlatable — the in-process analogue of a traced TCP replay.
    """
    requests: Sequence[Request] = trace.requests
    if _tracing.TRACER is not None:
        requests = [
            dataclasses.replace(req, trace={"id": f"{trace.name}#{i}"})
            for i, req in enumerate(trace.requests)
        ]
    payloads: list[Mapping[str, Any]] = []
    start = time.perf_counter()
    for chunk in _batches(requests, batch):
        payloads.extend(service.process_batch(chunk))
    return _summarize(trace, payloads, time.perf_counter() - start)


def replay_serial(
    network: Network,
    trace: ReplayTrace,
    options: AnalysisOptions | None = None,
) -> ReplaySummary:
    """Feed the trace one op at a time to a fresh in-process engine.

    This is the parity reference: each request runs through the
    service's own op function, with no batching, worker or wire, and
    the service must reproduce these decisions bit for bit.
    """
    ctrl = AdmissionController(network, options)
    start = time.perf_counter()
    payloads = [_apply_op(ctrl, _engine_op(req)) for req in trace.requests]
    return _summarize(trace, payloads, time.perf_counter() - start)


async def replay_over_tcp(
    host: str,
    port: int,
    trace: ReplayTrace,
    *,
    window: int = 64,
    connect_timeout: float = 5.0,
    retry: RetryPolicy | None = None,
    request_timeout: float | None = None,
    trace_requests: bool = False,
) -> ReplaySummary:
    """Drive a live server; pipelines ``window`` requests at a time.

    With ``trace_requests`` every request carries a client-minted trace
    context (``{"id": "<trace name>#<index>"}``); a tracing server
    adopts those ids for its server/shard spans, so one request's wire
    trip is followable end to end in the exported Chrome trace — and a
    retried request's re-execution (possibly on a respawned worker
    incarnation) shares the original trace id.

    With ``retry`` set, the driver is resilient: connection losses
    reconnect with backoff and re-send the unanswered suffix of the
    current window, retryable error responses (``overloaded``,
    ``deadline_exceeded``, ``shard_unavailable``) are re-sent after a
    backoff delay, and every mutating request carries an idempotency
    key so a re-send of a request the server already executed replays
    the cached response instead of double-applying.  ``request_timeout``
    (seconds per response read) turns a silent stall into a retryable
    connection loss.  The retry budget is ``retry.attempts`` re-send
    rounds per window; past it the replay raises.  Jitter is
    deterministic (see :class:`~repro.service.retry.RetryPolicy`), so a
    faulted replay is as reproducible as a clean one.
    """
    policy = retry
    indexed: list[tuple[int, Request]] = []
    for i, req in enumerate(trace.requests):
        # Stamp the wire id with the trace index so responses can be
        # matched by id: after a mid-batch connection drop the server
        # may have answered a *suffix* of the in-flight window, so
        # arrival order alone would mispair responses with requests.
        changes: dict[str, Any] = {"id": i}
        if policy is not None and req.op in ("admit", "release"):
            changes["idem"] = f"{trace.name}#{i}"
        if trace_requests:
            changes["trace"] = {"id": f"{trace.name}#{i}"}
        indexed.append((i, dataclasses.replace(req, **changes)))

    reader, writer = await connect_with_backoff(
        host, port, timeout=connect_timeout, policy=policy
    )
    results: dict[int, Mapping[str, Any]] = {}
    retries = 0
    start = time.perf_counter()

    async def read_response() -> dict[str, Any]:
        if request_timeout is not None:
            line = await asyncio.wait_for(reader.readline(), request_timeout)
        else:
            line = await reader.readline()
        if not line:
            raise ConnectionError("server closed the connection mid-replay")
        return decode_line(line)

    async def reconnect() -> None:
        nonlocal reader, writer
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        reader, writer = await connect_with_backoff(
            host, port, timeout=connect_timeout, policy=policy
        )

    try:
        for chunk_start in range(0, len(indexed), max(1, window)):
            pending = indexed[chunk_start : chunk_start + max(1, window)]
            attempt = 0
            while pending:
                if attempt > 0:
                    if policy is None or attempt > policy.attempts:
                        raise RuntimeError(
                            f"replay retries exhausted with "
                            f"{len(pending)} request(s) unanswered"
                        )
                    retries += len(pending)
                    await asyncio.sleep(
                        policy.delay(attempt - 1, key=f"chunk:{chunk_start}")
                    )
                redo: list[tuple[int, Request]] = []
                unanswered: dict[int, tuple[int, Request]] = {
                    idx: (idx, req) for idx, req in pending
                }
                try:
                    for _, req in pending:
                        writer.write(encode_line(request_to_dict(req)))
                    await writer.drain()
                    for _ in range(len(pending)):
                        doc = await read_response()
                        # Match by id (the trace index stamped above): a
                        # connection dropped mid-window may answer only a
                        # subset, so order alone would mispair.
                        entry = unanswered.pop(doc.get("id"), None)
                        if entry is None:
                            continue  # duplicate/stray answer — ignore
                        idx, req = entry
                        if policy is not None and is_retryable(doc):
                            redo.append((idx, req))
                        elif doc.get("ok"):
                            results[idx] = doc
                        else:
                            results[idx] = {
                                "error": doc.get(
                                    "error", "unknown server error"
                                )
                            }
                    pending = redo
                    attempt += 1
                except (
                    ConnectionError,
                    OSError,
                    asyncio.TimeoutError,
                    asyncio.IncompleteReadError,
                ):
                    if policy is None:
                        raise
                    # Everything still unanswered (plus any retryable
                    # responses already collected) re-sends on a fresh
                    # connection.  The server-side idempotency cache
                    # makes re-sending an executed-but-unanswered
                    # mutation safe.
                    pending = redo + list(unanswered.values())
                    attempt += 1
                    await reconnect()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown
            pass
    payloads = [results[i] for i in range(len(indexed))]
    return _summarize(trace, payloads, time.perf_counter() - start, retries)


def replay_tcp(host: str, port: int, trace: ReplayTrace, **kwargs) -> ReplaySummary:
    """Synchronous wrapper around :func:`replay_over_tcp`."""
    return asyncio.run(replay_over_tcp(host, port, trace, **kwargs))
