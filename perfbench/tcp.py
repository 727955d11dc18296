"""TCP workloads: one client connection against an unchanged ``serve``.

The request stream is generated here; the server only receives it over
the wire.  Writes come from :func:`trace_from_scenario` (round-robin
clones of the family's flow pool, releasing the oldest live flow once
``hold`` are in flight); each write is followed by ``queries`` status
queries of recently admitted names.  The scenario is fixed per workload,
so every seed offers the same writes and the same reference decisions;
the seed draws the open-loop due times and the query targets.  Run-to-run
spread then comes from arrivals and the machine, not from one seed's
flow pool being cheaper to analyse than another's.

One server, one connection, one continuing request sequence:

1. warm-up: the first ``WARMUP`` requests one at a time (untimed, so
   lazy imports and caches settle before anything is measured);
2. open loop: ``rate x open_share x seconds`` requests at seeded Poisson
   due times, each timed from its due time (independent callers);
3. closed loop: ``sat_rps x (1 - open_share) x seconds`` requests with
   ``window`` in flight, for throughput.

Before the timed phases a serial :class:`AdmissionController` answers
the same sequence; every response is compared with its answer.

The client runs pinned to the first CPU and the server, shard workers
included, to the last; a calibrator on the server's CPU gives the
reference-speed times the gated metrics use (see :mod:`speed`).  With
the shard workers spread over both CPUs, ``fat-tree-tcp`` throughput
spread from run to run by 0.11-0.12 (interquartile range over median,
five runs) even at the reference speed: requests handed between
processes on two CPUs slow down more than either CPU does.  On one CPU
it spread by 0.035, and it was 6% lower than on two.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

import layers
import spans
import speed
from measure import (
    WORK,
    Metric,
    Pass,
    children_of,
    counter,
    peak_rss_mb,
    percentile,
    ratio,
    timing,
)

HERE = Path(__file__).resolve().parent
WARMUP = 16
#: Client send lag (p99) above which a run is invalid, not measured.
LAG_BOUND_MS = 20.0
#: A response later than this counts as missing.
RESPONSE_TIMEOUT_S = 60.0
#: Server setups per run; ``setup_s`` is their median.
SETUPS = 5


@dataclass(frozen=True)
class TcpWorkload:
    name: str
    family: str
    #: Scenario-family parameters (fixed: see the module docstring).
    params: tuple[tuple[str, Any], ...]
    shards: int
    workers: bool
    queries: int
    hold: int
    #: Open-loop offered rate (req/s), a quarter of the closed-loop
    #: throughput or less: at half of it the open loop queues so much
    #: that its latency percentiles spread by more than the benchmark's
    #: bounds from run to run.
    rate: float
    #: Share of ``--seconds`` spent in the open loop.
    open_share: float
    #: Closed-loop requests per second of the rest of the run (sizes the
    #: fixed closed-loop work; below the measured throughput).
    sat_rps: float
    #: Closed-loop requests in flight: eight model a batch client such
    #: as ``replay --connect`` (with its default of 64 the throughput
    #: spread more from run to run).
    window: int
    #: Query answers include the worst-case bound (exact on one shard).
    check_bound: bool


VOIP = TcpWorkload(
    name="voip-star-tcp",
    family="voip-star",
    params=(("n_hosts", 16), ("n_calls", 16), ("seed", 1)),
    shards=1,
    workers=False,
    queries=3,
    hold=12,
    rate=160.0,
    open_share=0.5,
    sat_rps=600.0,
    window=8,
    check_bound=True,
)

FAT_TREE = TcpWorkload(
    name="fat-tree-tcp",
    family="fat-tree",
    params=(
        ("spines", 2), ("leaves", 4), ("hosts_per_leaf", 4), ("n_flows", 24),
        ("utilization", 0.6), ("seed", 11),
    ),
    shards=2,
    workers=True,
    queries=1,
    hold=12,
    rate=29.0,
    # Writes here are few and their latency spreads widely (each is one
    # to three holistic analyses, queued behind the others): the open
    # loop gets most of the run, so that its median rests on over a
    # hundred writes; the closed loop keeps about 500 requests, as
    # fewer spread its throughput more.
    open_share=0.7,
    sat_rps=110.0,
    window=8,
    check_bound=False,
)


# ----------------------------------------------------------------------
# Request stream and reference answers
# ----------------------------------------------------------------------
def make_ops(wl: TcpWorkload, scenario, n_total: int, seed: int) -> list[tuple]:
    """``(op, flow, name)`` triples: writes plus status queries."""
    from repro.service.replay import trace_from_scenario

    trace = trace_from_scenario(
        scenario, n_requests=n_total // (1 + wl.queries) + 1,
        hold=wl.hold, seed=seed,
    )
    rng = np.random.default_rng([seed, 7])
    recent: deque[str] = deque(maxlen=wl.hold + 4)
    ops: list[tuple] = []
    for req in trace.requests:
        if req.op == "admit":
            ops.append(("admit", req.flow, req.flow.name))
            recent.append(req.flow.name)
        else:
            ops.append(("release", None, req.flow_name))
        for _ in range(wl.queries):
            ops.append(("query", None, recent[int(rng.integers(len(recent)))]))
    return ops[:n_total]


def encode(ops: list[tuple]) -> list[bytes]:
    from repro.service.protocol import Request, encode_line, request_to_dict

    return [
        encode_line(
            request_to_dict(
                Request(
                    op=op, id=i, flow=flow,
                    flow_name=None if op == "admit" else name,
                )
            )
        )
        for i, (op, flow, name) in enumerate(ops)
    ]


def reference(scenario, ops: list[tuple], check_bound: bool) -> list[tuple]:
    """Serial-controller answers, with the service's op semantics."""
    from repro.core.admission import AdmissionController

    ctrl = AdmissionController(scenario.network, scenario.options)
    out: list[tuple] = []
    for op, flow, name in ops:
        if op == "admit":
            out.append(("admit", ctrl.request(flow).accepted))
        elif op == "release":
            try:
                ctrl.release(name)
                out.append(("release",))
            except KeyError:
                out.append(("error",))
        else:
            admitted = any(f.name == name for f in ctrl.admitted_flows)
            bound = None
            if check_bound and admitted and ctrl.last_analysis is not None:
                bound = ctrl.last_analysis.result(name).worst_response
            out.append(("query", admitted, bound))
    return out


def corrupt(expected: list[tuple]) -> list[tuple]:
    """Flip the first admit decision (self-check: the run must fail)."""
    out = list(expected)
    for i, ans in enumerate(out):
        if ans[0] == "admit":
            out[i] = ("admit", not ans[1])
            break
    return out


def judge(expected: tuple, raw: bytes | None, check_bound: bool) -> bool:
    """True when a response matches the reference answer."""
    from repro.service.protocol import ERR_INTERNAL, RETRYABLE_CODES

    if raw is None:
        return False
    doc = json.loads(raw)
    if not doc.get("ok"):
        code = doc.get("code")
        if code in RETRYABLE_CODES or code == ERR_INTERNAL:
            return False
        return expected == ("error",)
    kind = expected[0]
    if kind == "admit":
        return doc.get("accepted") is expected[1]
    if kind == "release":
        return bool(doc.get("released"))
    if kind == "query":
        if doc.get("admitted") is not expected[1]:
            return False
        return not check_bound or doc.get("worst_response") == expected[2]
    return False


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """``serve`` through the launcher, pinned to ``cpu``; torn down by
    :meth:`stop`.  ``launched`` and ``ready`` are the times of the launch
    and of the ``listening on`` line."""

    def __init__(self, wl: TcpWorkload, scenario_path: Path, workdir: Path,
                 cpu: int, spans_dir: Path | None = None):
        cmd = [sys.executable, str(HERE / "serve.py")]
        if spans_dir is not None:
            cmd += ["--spans", str(spans_dir)]
        cmd += [
            "serve", str(scenario_path), "--port", "0",
            "--shards", str(wl.shards),
        ]
        if wl.workers:
            cmd.append("--workers")
        if spans_dir is not None:
            cmd.append("--telemetry")
        self.log = open(workdir / "server.log", "ab")
        self._drainer: threading.Thread | None = None
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log,
            start_new_session=True, cwd=HERE.parent,
        )
        try:
            # Shard workers are forked later and inherit the affinity.
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.port = self._await_listening(deadline=self.launched + 120.0)
        except BaseException:
            self.stop()
            raise
        self.ready = time.perf_counter()

    def _await_listening(self, deadline: float) -> int:
        # Raw reads: a buffered readline could swallow the line into a
        # buffer the selector cannot see.
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        text = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not sel.select(timeout=deadline - time.perf_counter()):
                    break
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                text += chunk
                for line in text.split(b"\n")[:-1]:
                    if line.startswith(b"listening on "):
                        self._drainer = threading.Thread(
                            target=self._drain, args=(fd,), daemon=True
                        )
                        self._drainer.start()
                        return int(line.rsplit(b":", 1)[1])
        raise RuntimeError("server did not report 'listening on'")

    def _drain(self, fd: int) -> None:
        """Keep the server's stdout pipe from filling up."""
        while True:
            try:
                chunk = os.read(fd, 65536)
            except OSError:
                return
            if not chunk:
                return
            self.log.write(chunk)

    def pids(self) -> list[int]:
        return [self.proc.pid, *children_of(self.proc.pid)]


    def stop(self) -> None:
        """Graceful SIGTERM, escalating to SIGKILL of the whole group
        (shard workers included), then wait until the group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        if self._drainer is not None:
            self._drainer.join(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def fetch(port: int, op: str) -> dict[str, Any]:
    from repro.service.replay import fetch_metrics_tcp, fetch_stats_tcp

    return (fetch_metrics_tcp if op == "metrics" else fetch_stats_tcp)(
        "127.0.0.1", port
    )


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
@dataclass
class Timeline:
    due: np.ndarray
    sent: np.ndarray
    recv: np.ndarray
    raw: list


async def _drive(port: int, lines: list[bytes], n_open: int,
                 offsets: np.ndarray, window: int) -> Timeline:
    n = len(lines)
    sent = np.full(n, np.nan)
    recv = np.full(n, np.nan)
    due = np.full(n, np.nan)
    raw: list = [None] * n
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=16 * 1024 * 1024
    )
    perf = time.perf_counter
    got = 0

    async def receive(upto: int, on_each=None) -> None:
        nonlocal got
        while got < upto:
            line = await asyncio.wait_for(reader.readline(), RESPONSE_TIMEOUT_S)
            if not line:
                raise ConnectionError("server closed the connection")
            recv[got] = perf()
            raw[got] = line
            got += 1
            if on_each is not None:
                on_each()

    def send(i: int) -> None:
        writer.write(lines[i])
        sent[i] = perf()

    try:
        for i in range(min(WARMUP, n)):
            send(i)
            due[i] = sent[i]
            await receive(i + 1)
        first = min(WARMUP, n)
        stop_open = min(first + n_open, n)
        reading = asyncio.ensure_future(receive(stop_open))
        t0 = perf() + 0.02
        due[first:stop_open] = t0 + offsets[: stop_open - first]
        for i in range(first, stop_open):
            delay = due[i] - perf()
            if delay > 0:
                await asyncio.sleep(delay)
            send(i)
        await reading
        nxt = stop_open

        def refill() -> None:
            nonlocal nxt
            if nxt < n:
                due[nxt] = perf()
                send(nxt)
                nxt += 1

        for _ in range(min(window, n - nxt)):
            refill()
        await receive(n, refill)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass  # unanswered requests stay missing and count as failed
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return Timeline(due, sent, recv, raw)


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------
def sizes(wl: TcpWorkload, seconds: float) -> tuple[int, int]:
    return max(1, round(wl.rate * wl.open_share * seconds)), max(
        wl.window, round(wl.sat_rps * (1 - wl.open_share) * seconds)
    )


@functools.lru_cache(maxsize=1)
def _prepare(wl: TcpWorkload, seed: int, seconds: float):
    """Scenario, request stream, due times and reference answers (shared
    by the untraced and traced pass of one run)."""
    from repro.scenario.registry import REGISTRY

    scenario = REGISTRY.build(wl.family, **dict(wl.params))
    n_open, n_sat = sizes(wl, seconds)
    ops = make_ops(wl, scenario, WARMUP + n_open + n_sat, seed)
    offsets = np.cumsum(
        np.random.default_rng([seed, 11]).exponential(1.0 / wl.rate, n_open)
    )
    expected = reference(scenario, ops, wl.check_bound)
    return scenario, ops, encode(ops), n_open, offsets, expected


def run(wl: TcpWorkload, seed: int, seconds: float, *, traced: bool,
        corrupt_reference: bool = False) -> Pass:
    from repro.scenario.serialization import save_scenario_file

    workdir = WORK / f"{wl.name}-{os.getpid()}-{'t' if traced else 'u'}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        scenario, ops, lines, n_open, offsets, expected = _prepare(
            wl, seed, seconds
        )
        path = workdir / "scenario.json"
        # The server gets topology and options only; flows arrive as
        # requests.
        save_scenario_file(path, replace(scenario, flows=()))
        if corrupt_reference:
            expected = corrupt(expected)
        return _serve_and_measure(
            wl, workdir, path, ops, lines, n_open, offsets, expected, traced
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _serve_and_measure(wl, workdir, path, ops, lines, n_open, offsets,
                       expected, traced) -> Pass:
    spans_dir = workdir / "spans" if traced else None
    client_cpu, server_cpu = speed.cpus()
    setups = []
    with speed.pinned(client_cpu), speed.SpeedMonitor(server_cpu) as mon:
        for _ in range(SETUPS - 1):
            probe = Server(wl, path, workdir, server_cpu)
            setups.append((probe.launched, probe.ready))
            probe.stop()
        server = Server(wl, path, workdir, server_cpu, spans_dir)
        setups.append((server.launched, server.ready))
        try:
            # select() takes microsecond timeouts where epoll rounds up
            # to whole milliseconds, which would show up as generator lag.
            with asyncio.Runner(
                loop_factory=lambda: asyncio.SelectorEventLoop(
                    selectors.SelectSelector()
                )
            ) as runner:
                timeline = runner.run(
                    _drive(server.port, lines, n_open, offsets, wl.window)
                )
            rss = peak_rss_mb(server.pids())
            stats = fetch(server.port, "stats") if server.proc.poll() is None else {}
            snap = None
            if traced and server.proc.poll() is None:
                snap = fetch(server.port, "metrics").get("merged")
        finally:
            server.stop()

    n = len(ops)
    ok = np.array([
        judge(expected[i], timeline.raw[i], wl.check_bound) for i in range(n)
    ])
    first, stop_open = WARMUP, WARMUP + n_open
    answered = ok & ~np.isnan(timeline.recv)
    wall = np.where(answered, timeline.recv - timeline.due, math.inf)
    latency = np.full(n, math.inf)
    latency[answered] = mon.ref_seconds(
        timeline.due[answered], timeline.recv[answered]
    )
    open_lat = latency[first:stop_open]
    kinds = np.array([op for op, _, _ in ops])
    open_kinds = kinds[first:stop_open]
    lag = (timeline.sent - timeline.due)[first:stop_open]
    lag_p99 = percentile(lag[~np.isnan(lag)], 99) * 1e3
    sat = slice(stop_open, n)
    failed = int((~ok).sum())
    if np.isnan(timeline.recv[sat]).all():
        sat_start = sat_end = 0.0
    else:
        sat_start = float(np.nanmin(timeline.sent[sat]))
        sat_end = float(np.nanmax(timeline.recv[sat]))
    work_s = float(mon.ref_seconds(sat_start, sat_end))
    # Requests the closed loop completed correctly, per second.
    throughput = ratio(int(ok[sat].sum()), work_s)
    setup_s = mon.ref_seconds(*zip(*setups))
    # The gated latency is that of writes (admits and releases): they
    # carry the analysis, while a query's latency is mostly whether it
    # queued behind one.
    writes = open_lat[open_kinds != "query"]

    e2e = {
        "setup_s": Metric("setup_s", float(np.median(setup_s)), "s", len(setups)),
        "throughput_ops_s": Metric("throughput_ops_s", throughput, "1/s", n - stop_open),
        "op_p50_ms": Metric("op_p50_ms", percentile(writes, 50) * 1e3, "ms", len(writes)),
        "peak_rss_mb": Metric("peak_rss_mb", rss, "MiB", len(server.pids()) or 1),
    }
    report = [e2e["setup_s"], Metric("throughput_rps", throughput, "req/s", n - stop_open)]
    report += timing("write", writes)
    for kind in ("admit", "release", "query"):
        report += timing(kind, open_lat[open_kinds == kind])
    wall_writes = wall[first:stop_open][open_kinds != "query"]
    report += [
        Metric("failed_share", ratio(failed, n), "fraction", n),
        Metric("peak_rss_mb", rss, "MiB", 1),
        Metric("client.send_lag_p99_ms", lag_p99, "ms", len(lag)),
        Metric("wall.setup_s", float(np.median([b - a for a, b in setups])), "s", len(setups)),
        Metric("wall.throughput_rps", ratio(int(ok[sat].sum()), sat_end - sat_start), "req/s", n - stop_open),
        Metric("wall.write_p50_ms", percentile(wall_writes, 50) * 1e3, "ms", len(wall_writes)),
        Metric("speed.slowdown", mon.slowdown(), "ratio", 1),
    ]
    result = Pass(
        e2e=e2e,
        report=report,
        attempted=n,
        failed=failed,
        checks=[f"{wl.name}: {n} responses compared with the serial controller"],
        work_s=work_s,
        notes=[
            f"open loop: {n_open} requests at {wl.rate:g} req/s (Poisson); "
            f"closed loop: {n - stop_open} requests, window {wl.window}; "
            "op_p50_ms is write_p50_ms, the median of open-loop writes",
            f"service stats: offered={stats.get('offered')} "
            f"accepted={stats.get('accepted')} rejected={stats.get('rejected')} "
            f"cross_shard={stats.get('cross_shard_offered')} "
            f"rollbacks={stats.get('rollbacks')}",
        ],
    )
    if lag_p99 > LAG_BOUND_MS:
        result.invalid = (
            f"client send lag p99 {lag_p99:.2f} ms exceeds {LAG_BOUND_MS} ms"
        )
    if spans_dir is not None:
        _layers(result, spans.load_dir(spans_dir), timeline, snap, stats,
                first, stop_open, lag_p99)
    return result


def _layers(result: Pass, sets, timeline: Timeline, snap, stats,
            first: int, stop_open: int, lag_p99: float) -> None:
    """Per-layer metrics of a traced pass: protocol, dispatch wait and
    return, sharding, admission, context and the analysis engine."""
    server = [s for s in sets if s.proc == "server"]
    n_req = int(np.sum(~np.isnan(timeline.recv)))
    decode = ("protocol.decode_line", "protocol.request_from_dict")
    encode_ = ("protocol.response_to_dict", "protocol.encode_line")
    n_dec = spans.count(server, ["protocol.decode_line"])
    n_enc = spans.count(server, ["protocol.encode_line"])

    # Batch windows and the request ids each one carried.
    b_start, b_end, b_ids = [], [], []
    for s in server:
        m = s.mask(["sharding.process_batch"])
        idx = np.flatnonzero(m)
        pos = {int(i): k for k, i in enumerate(idx)}
        ids: list[list[int]] = [[] for _ in idx]
        for span_i, rid in zip(s.rid_span, s.rid):
            k = pos.get(int(span_i))
            if k is not None:
                ids[k].append(int(rid))
        b_start.append(s.start[idx])
        b_end.append(s.end[idx])
        b_ids += ids
    bs = np.concatenate(b_start) if b_start else np.zeros(0)
    be = np.concatenate(b_end) if b_end else np.zeros(0)
    start_of = np.full(len(timeline.recv), np.nan)
    end_of = np.full(len(timeline.recv), np.nan)
    for k, ids in enumerate(b_ids):
        for rid in ids:
            if 0 <= rid < len(start_of):
                start_of[rid] = bs[k]
                end_of[rid] = be[k]
    wait = start_of - timeline.sent
    back = timeline.recv - end_of
    batch = end_of - start_of
    op_idx = slice(first, stop_open)
    lat = timeline.recv[op_idx] - timeline.due[op_idx]
    lag = timeline.sent[op_idx] - timeline.due[op_idx]
    total_lat = np.nansum(lat)

    admission = ("admission.request", "admission.release")
    busy = [s.intervals(list(admission)) for s in sets]
    busy_s = np.concatenate([b[0] for b in busy]) if busy else np.zeros(0)
    busy_e = np.concatenate([b[1] for b in busy]) if busy else np.zeros(0)
    batch_time = float(np.sum(be - bs))
    pipe = batch_time - float(np.sum(spans.covered((bs, be), (busy_s, busy_e))))
    n_batched = sum(len(ids) for ids in b_ids)
    n_adm = spans.count(sets, list(admission))
    adm_incl = spans.inclusive_total(sets, list(admission))
    requests = counter(snap, "admission.requests")
    offered = float(stats.get("offered") or 0)

    engine, counts = layers.engine(sets, snap, n_adm)

    def mean_ms(metric: str, span: str) -> Metric:
        k = spans.count(sets, [span])
        return Metric(
            metric, ratio(spans.inclusive_total(sets, [span]), k) * 1e3, "ms", k
        )

    result.layers = [
        Metric("client.send_lag_p99_ms", lag_p99, "ms", stop_open - first),
        Metric("protocol.decode_us", ratio(spans.inclusive_total(server, decode), n_dec) * 1e6, "us", n_dec),
        Metric("protocol.encode_us", ratio(spans.inclusive_total(server, encode_), n_enc) * 1e6, "us", n_enc),
        *_pcts("server.wait_ms", wait[op_idx], (50, 99)),
        *_pcts("server.return_ms", back[op_idx], (50,)),
        Metric("server.batch_size_mean", ratio(n_batched, len(b_ids)), "count", len(b_ids)),
        Metric("sharding.batch_ms", ratio(batch_time, len(b_ids)) * 1e3, "ms", len(b_ids)),
        Metric("sharding.pipe_ms_per_op", ratio(pipe, n_batched) * 1e3, "ms", n_batched),
        Metric("sharding.pipe_share", ratio(pipe, batch_time), "fraction", len(b_ids)),
        Metric("sharding.cross_shard_share", ratio(float(stats.get("cross_shard_offered") or 0), offered), "fraction", int(offered)),
        Metric("sharding.rollbacks", float(stats.get("rollbacks") or 0), "count", int(offered)),
        Metric("client.lag_share", ratio(np.nansum(lag), total_lat), "fraction", len(lat)),
        Metric("server.wait_share", ratio(np.nansum(wait[op_idx]), total_lat), "fraction", len(lat)),
        Metric("sharding.batch_share", ratio(np.nansum(batch[op_idx]), total_lat), "fraction", len(lat)),
        Metric("server.return_share", ratio(np.nansum(back[op_idx]), total_lat), "fraction", len(lat)),
        Metric("protocol.share", ratio(spans.inclusive_total(server, decode + encode_), batch_time + spans.inclusive_total(server, decode + encode_)), "fraction", n_dec),
        mean_ms("admission.request_ms", "admission.request"),
        mean_ms("admission.release_ms", "admission.release"),
        Metric("admission.self_share", ratio(spans.self_total(sets, list(admission)), adm_incl), "fraction", n_adm),
        Metric("admission.fast_reject_share", ratio(counter(snap, "admission.fast_rejects"), requests), "fraction", int(requests)),
        mean_ms("context.build_ms", "context.build"),
        mean_ms("utilization.check_ms", "utilization.check"),
        *engine,
    ]
    result.counts = {**counts, "requests": float(n_req)}


def _pcts(prefix: str, seconds: np.ndarray, qs) -> list[Metric]:
    values = seconds[~np.isnan(seconds)]
    return [
        Metric(f"{prefix}_p{q}", percentile(values, q) * 1e3, "ms", len(values))
        for q in qs
    ]
