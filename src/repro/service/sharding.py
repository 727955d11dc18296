"""Sharded online admission control.

Every shard runs the incremental engine,
:class:`~repro.core.hierarchy.HierarchicalAdmissionController`: it keeps
its analysis state between requests, so an admit re-solves only the
flows the candidate interferes with and a release only the jitter
entries the released flow can lower.  Its decisions, jitter tables and
bounds are bit-identical to those of the serial
:class:`~repro.core.admission.AdmissionController`, which re-runs the
holistic analysis over the whole admitted set per request and remains
the parity reference (:func:`~repro.service.replay.replay_serial`).
One engine is still bounded by one core, so this module partitions the
*network* into link-disjoint shards — every directed link is owned by
exactly one shard — and gives each shard its own controller, so
requests touching different shards are independent and can be served
in parallel.

Link ownership follows switch ownership: each switch is assigned to a
shard (deterministically — a SHA-256 hash of the switch name, or an
explicit ``shard_map``), a host↔switch link belongs to its switch's
shard, a switch↔switch link to its lexicographically smaller switch's
shard, and the rare switchless link hashes its canonical endpoint pair.
The assignment is a pure function of the topology and the shard count:
two routers built from the same network agree bit for bit, across
processes and machines (regular ``hash()`` is salted per process and
would not).

Shard-local flows — every link of the route in one shard — are admitted
by that shard's controller alone.  On a trace of shard-local requests
the shard sees exactly the op subsequence a serial controller would,
in order, so its decisions are **identical to the serial controller's**
(the tier-1 parity tests assert this).

Flows crossing shards use a *two-phase accept*: the flow is tentatively
requested on every shard its route touches (ascending shard id); if any
shard rejects, the tentative accepts are rolled back and the request is
rejected.  Each touched shard checks the flow against every flow it
shares a link with, but jitter a flow accumulates in one shard is not
propagated into the next shard's analysis — cross-shard decisions are
therefore an approximation of the global holistic fixed point (flagged
``cross_shard=True`` on the decision), which is the price of
shard-parallel serving.  Workloads needing exact cross-shard decisions
run with ``n_shards=1``.

Batching: :meth:`ShardedAdmissionService.process_batch` takes a slice
of protocol requests and coalesces consecutive shard-local operations
into per-shard micro-batches.  With process-backed shards
(``workers=True``) the micro-batches of one run are dispatched to all
shard workers before any reply is awaited, so a burst spanning N shards
is served N-wide; each shard drains its sub-batch over its live
controller state (converged jitter table, demand profiles, stage
memos).  Results are reassembled in
submission order — batched decisions are identical to one-at-a-time
decisions by construction.

Fault tolerance: with ``supervise=True`` (the default) a worker-backed
shard that dies is respawned and its **exact** pre-crash state rebuilt
from a baseline snapshot (``export_state``) plus a bounded append-only
**op journal** of committed mutations — accepted admits and successful
releases, the only ops that change controller state (a rejected admit
rolls back its tentative writes, and queries are pure).  The in-flight
batch the crash interrupted is then re-applied on the recovered worker,
so its payloads are exactly the uninterrupted run's payloads: recovery
is decision-parity-preserving, and the tier-1 fault tests assert
byte-identical final state against a fault-free run.  The journal is
compacted into a fresh baseline whenever it outgrows
``journal_limit``, bounding both replay time and memory.  After
``max_restarts`` failed recoveries the shard degrades permanently to
``shard_unavailable`` error payloads, exactly like the unsupervised
path.  Deterministic faults (:mod:`repro.service.faults`) are applied
inside the worker, keyed to its op counter and incarnation, so crash
scenarios replay identically on every run.

Replication: with ``replicas=1`` (worker-backed, supervised) each
shard additionally owns a :class:`~repro.service.replication.
StandbyReplica` — a warm standby worker fed every committed op as it
is journaled (ship-on-commit with batched acks and a high-water mark).
A dying primary is then *promoted over* instead of cold-restarted: the
standby replays only the ops past its high-water mark, re-runs the
interrupted batch, and becomes the new primary while a replacement
standby catches up from the current recipe in the background.  Cold
recovery remains the fallback whenever the standby is unusable (dead,
wedged, or compaction outran a severed ship link).  Failovers never
burn the ``max_restarts`` budget — only cold restores do.  The same
snapshot + catch-up machinery backs
:meth:`ShardedAdmissionService.rebalance`: live re-sharding that cuts
over atomically between batches.
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.telemetry import tracing as _tracing
from repro.core.context import AnalysisOptions
from repro.core.hierarchy import HierarchicalAdmissionController
from repro.model.flow import Flow
from repro.model.network import Network
from repro.service.faults import FaultPlan, FaultSpec, WorkerFaults
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNAVAILABLE,
    Request,
)
from repro.service.replication import StandbyReplica, reassign_shard_states
from repro.util.mp import mp_context


def _stable_hash(text: str) -> int:
    """Process-independent 64-bit hash (``hash()`` is salted)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class ShardRouter:
    """Deterministic link → shard assignment (see module docstring)."""

    def __init__(
        self,
        network: Network,
        n_shards: int,
        *,
        shard_map: Mapping[str, int] | None = None,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        remaining = dict(shard_map or {})
        self._switch_shard: dict[str, int] = {}
        for node in network.nodes():
            if not node.is_switch:
                continue
            if node.name in remaining:
                sid = int(remaining.pop(node.name))
                if not 0 <= sid < n_shards:
                    raise ValueError(
                        f"shard_map[{node.name!r}]={sid} out of range "
                        f"for {n_shards} shard(s)"
                    )
            else:
                sid = _stable_hash(f"switch:{node.name}") % n_shards
            self._switch_shard[node.name] = sid
        if remaining:
            raise ValueError(
                f"shard_map names unknown switches: {sorted(remaining)}"
            )
        self._link_shard: dict[tuple[str, str], int] = {}
        for link in network.links():
            self._link_shard[(link.src, link.dst)] = self._assign(
                link.src, link.dst
            )

    def _assign(self, a: str, b: str) -> int:
        sa = self._switch_shard.get(a)
        sb = self._switch_shard.get(b)
        if sa is not None and sb is not None:
            return sa if a <= b else sb
        if sa is not None:
            return sa
        if sb is not None:
            return sb
        lo, hi = sorted((a, b))
        return _stable_hash(f"link:{lo}|{hi}") % self.n_shards

    # ------------------------------------------------------------------
    def shard_of_switch(self, name: str) -> int:
        try:
            return self._switch_shard[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a switch of this network") from None

    def shard_of_link(self, src: str, dst: str) -> int:
        try:
            return self._link_shard[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r}") from None

    def shards_for_route(self, route: Sequence[str]) -> tuple[int, ...]:
        """Sorted shard ids a route's links touch."""
        return tuple(
            sorted({self.shard_of_link(a, b) for a, b in zip(route, route[1:])})
        )

    def shards_for_flow(self, flow: Flow) -> tuple[int, ...]:
        return self.shards_for_route(flow.route)

    def assignment(self) -> dict[str, int]:
        """Copy of the switch → shard map (stats / state documents)."""
        return dict(self._switch_shard)


# ----------------------------------------------------------------------
# Shard backends
# ----------------------------------------------------------------------
#: A shard op: ("request", Flow) | ("release", name) | ("query", name).
ShardOp = tuple


def _apply_op(
    ctrl: HierarchicalAdmissionController, op: ShardOp, shard_id: int = 0
) -> dict[str, Any]:
    """Execute one op on a shard's controller; errors become payloads
    (a shard worker must survive bad requests)."""
    kind = op[0]
    try:
        if kind == "request":
            reg = _telemetry.REGISTRY
            if reg is None:
                decision = ctrl.request(op[1])
            else:
                start = time.perf_counter()
                decision = ctrl.request(op[1])
                reg.observe(
                    f"service.shard.{shard_id}.admit_s",
                    time.perf_counter() - start,
                )
            return {"accepted": decision.accepted, "reason": decision.reason}
        if kind == "release":
            ctrl.release(op[1])
            return {"released": True}
        if kind == "query":
            result = ctrl.flow_results.get(op[1])
            if result is None:
                return {"admitted": False}
            return {"admitted": True, "worst_response": result.worst_response}
        return {"error": f"unknown shard op {kind!r}", "code": ERR_BAD_REQUEST}
    except (KeyError, ValueError) as exc:
        return {"error": str(exc), "code": ERR_BAD_REQUEST}


def _apply_traced(
    ctrl: HierarchicalAdmissionController,
    op: ShardOp,
    shard_id: int,
    ctx: Mapping[str, Any] | None,
) -> dict[str, Any]:
    """Like :func:`_apply_op`, under a ``shard.<kind>`` tracing span
    when a trace context travelled with the op."""
    tr = _tracing.TRACER
    if tr is None or ctx is None:
        return _apply_op(ctrl, op, shard_id)
    with tr.span(f"shard.{op[0]}", trace=ctx):
        return _apply_op(ctrl, op, shard_id)


class _InlineShard:
    """In-process shard: the controller runs in the service's process."""

    def __init__(
        self,
        network: Network,
        options: AnalysisOptions | None,
        *,
        shard_id: int = 0,
    ):
        self.shard_id = shard_id
        self._ctrl = HierarchicalAdmissionController(network, options)

    def send_batch(
        self,
        ops: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> None:
        if traces is None:
            self._pending = [
                _apply_op(self._ctrl, op, self.shard_id) for op in ops
            ]
        else:
            self._pending = [
                _apply_traced(self._ctrl, op, self.shard_id, ctx)
                for op, ctx in zip(ops, traces)
            ]

    def recv_batch(self) -> list[dict[str, Any]]:
        out, self._pending = self._pending, None
        return out

    def begin_export(self) -> None:
        pass

    def finish_export(self) -> tuple[tuple[Flow, ...], dict]:
        return self._ctrl.export_state()

    def restore(self, flows: Sequence[Flow], jitters: Mapping) -> None:
        self._ctrl = HierarchicalAdmissionController.restore(
            self._ctrl.network,
            self._ctrl.options,
            flows=flows,
            jitters=jitters,
        )

    def telemetry_snapshot(self) -> dict[str, Any] | None:
        # Inline shards record straight into the service process's own
        # registry: nothing separate to collect (returning a snapshot
        # here would double-count on merge).
        return None

    def trace_snapshot(self) -> list[dict[str, Any]] | None:
        # Same story for spans: inline shards record into the service
        # process's own tracer ring.
        return None

    def health(self) -> dict[str, Any]:
        return {
            "backend": "inline",
            "alive": True,
            "failed": False,
            "supervised": False,
            "restarts": 0,
            "journal_len": 0,
            "recovery_s_total": 0.0,
            "replicas": 0,
            "standby_alive": False,
            "replication_lag_ops": 0,
            "failovers": 0,
            "failover_s_total": 0.0,
            "cold_restores": 0,
        }

    def close(self) -> None:
        pass


def _shard_worker(
    conn, network, options, shard_id=0,
    telemetry_on=False, faults: Sequence[FaultSpec] = (),
    tracing_on=False, incarnation=0,
) -> None:
    """Process body of one shard: a controller behind a message pipe.

    ``faults`` are this incarnation's injected faults (already filtered
    by shard and incarnation), applied against a monotone op counter
    just before each op executes — so a ``kill`` interrupts a batch
    mid-way exactly like a real crash (abrupt pipe EOF, no reply).

    With ``tracing_on``, ops whose batch carried a trace context are
    executed under ``shard.<kind>`` spans recorded into this worker's
    own ring buffer (labelled with its shard id and incarnation — the
    Chrome-export track identity); the parent drains it with a
    ``("trace",)`` message.
    """
    # Workers forked while the asyncio front end is live inherit its
    # signal wakeup fd and Python-level handlers.  Left in place, a
    # SIGTERM aimed at *this child* (standby teardown, rebalance close)
    # would write into the shared wakeup socketpair and the parent's
    # loop would read it as its own shutdown request.  Detach before
    # serving; SIGINT is ignored so a terminal Ctrl-C reaches only the
    # front end, which drains in-flight batches and closes us cleanly.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    if telemetry_on:
        # Fork inherits the parent's registry *contents* too; start
        # from a clean one so the parent's pre-fork counts are not
        # re-merged when this worker's snapshot is collected.
        _telemetry.enable(_telemetry.Registry())
    if tracing_on:
        # Same reasoning for the span ring: a fresh, worker-labelled
        # tracer so parent spans are never drained twice.
        _tracing.enable_tracing(
            _tracing.Tracer(proc=f"shard{shard_id}", incarnation=incarnation)
        )
    ctrl = HierarchicalAdmissionController(network, options)
    injected = WorkerFaults(faults) if faults else None
    n_ops = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        kind = msg[0]
        if kind == "batch":
            traces = msg[2] if len(msg) > 2 else None
            payloads = []
            for i, op in enumerate(msg[1]):
                if injected is not None:
                    injected.before_op(n_ops)
                n_ops += 1
                ctx = traces[i] if traces is not None else None
                payloads.append(_apply_traced(ctrl, op, shard_id, ctx))
            if traces is not None:
                # Traced replies piggyback the ring drain so the parent
                # accumulates this incarnation's spans continuously —
                # a later kill can only lose the current batch's spans,
                # and every incarnation that served a batch gets a track
                # in the export.
                tr = _tracing.TRACER
                conn.send((payloads, tr.drain() if tr is not None else []))
            else:
                conn.send(payloads)
        elif kind == "export":
            conn.send(ctrl.export_state())
        elif kind == "telemetry":
            reg = _telemetry.REGISTRY
            conn.send(reg.snapshot() if reg is not None else None)
        elif kind == "trace":
            tr = _tracing.TRACER
            conn.send(tr.drain() if tr is not None else None)
        elif kind == "restore":
            ctrl = HierarchicalAdmissionController.restore(
                network, options, flows=msg[1], jitters=msg[2]
            )
            conn.send(True)
        elif kind == "close":
            conn.send(True)
            return
        else:  # pragma: no cover - defensive
            conn.send({"error": f"unknown shard message {kind!r}"})


class _ProcessShard:
    """Process-backed shard: real multi-core parallelism + supervision.

    ``send_batch``/``recv_batch`` are split so the service can dispatch
    one micro-batch to *every* shard before collecting any reply —
    that's where the shard-parallel speedup comes from.

    A dying worker must never desync the request/reply pairing.  With
    ``supervise=False`` every pipe failure marks the shard dead, pending
    ops are answered with error payloads, and the connection is never
    read again (so a stale buffered reply can never be mispaired with a
    later exchange).  With ``supervise=True`` (the default) a failure
    instead triggers :meth:`_recover`: the dead worker is torn down, a
    fresh incarnation is spawned, its state is rebuilt exactly from the
    baseline snapshot plus the op journal, and the interrupted exchange
    is re-run on it — the caller never sees the crash.  Only after
    ``max_restarts`` consecutive failed recoveries does the shard
    degrade permanently.

    ``op_timeout`` (seconds, optional) bounds every reply wait via
    ``Connection.poll``; a wedged-but-alive worker (e.g. an injected
    ``hang`` fault) then times out and is recovered like a crash.
    """

    DEAD_ERROR = "shard worker is not running"

    def __init__(
        self,
        network: Network,
        options: AnalysisOptions | None,
        *,
        shard_id: int = 0,
        supervise: bool = True,
        max_restarts: int = 5,
        journal_limit: int = 256,
        fault_plan: FaultPlan | None = None,
        op_timeout: float | None = None,
        close_timeout: float = 5.0,
        flight_dir: str | None = None,
        replicas: int = 0,
    ):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if journal_limit < 1:
            raise ValueError("journal_limit must be >= 1")
        if replicas not in (0, 1):
            raise ValueError("replicas must be 0 or 1 (one warm standby)")
        if replicas and not supervise:
            raise ValueError("replicas require supervise=True")
        self.shard_id = shard_id
        self._worker_args = (network, options)
        self._supervise = bool(supervise)
        self._max_restarts = max_restarts
        self._journal_limit = journal_limit
        self._fault_plan = fault_plan
        self._op_timeout = op_timeout
        self._close_timeout = close_timeout
        #: Directory for post-mortem flight records (None disables).
        self._flight_dir = flight_dir
        self._incarnation = 0
        #: Monotone incarnation allocator: every spawned worker —
        #: primary respawn or standby — takes the next number, so
        #: telemetry/trace track identities never collide.
        self._incarnations = 0
        self._restarts = 0
        self._recovery_s_total = 0.0
        #: Recovery recipe: state snapshot to restore first (None = a
        #: fresh controller) ...
        self._baseline: tuple[tuple[Flow, ...], dict] | None = None
        #: ... then this journal of committed state-changing ops
        #: (accepted admits, successful releases), replayed in order.
        self._journal: list[ShardOp] = []
        #: Absolute committed-op sequence accounting: ``_seq`` counts
        #: every op ever committed, the journal covers
        #: ``[_journal_base, _seq)`` (the baseline covers the rest).
        self._seq = 0
        self._journal_base = 0
        self._replicas = int(replicas)
        self._standby: StandbyReplica | None = None
        self._standby_generation = 0
        self._failovers = 0
        self._failover_s_total = 0.0
        self._promotion_attempts = 0
        self._dead = False
        self._pending_ops: list[ShardOp] | None = None
        self._pending_traces: list | None = None
        #: Last successfully polled worker registry snapshot — folded
        #: into ``_retired`` when that incarnation dies, so merged
        #: telemetry never regresses below what a client already saw.
        self._last_snapshot: dict[str, Any] | None = None
        self._retired: _telemetry.Registry | None = None
        self._spawn()
        if self._replicas:
            self._spawn_standby()

    # -- lifecycle ------------------------------------------------------
    def _spawn(self) -> None:
        ctx = mp_context()
        self._conn, child = ctx.Pipe()
        faults: tuple[FaultSpec, ...] = ()
        if self._fault_plan is not None:
            faults = self._fault_plan.worker_faults(
                shard=self.shard_id, incarnation=self._incarnation
            )
        self._proc = ctx.Process(
            target=_shard_worker,
            args=(
                child, *self._worker_args, self.shard_id,
                _telemetry.enabled(), faults,
                _tracing.tracing_enabled(), self._incarnation,
            ),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def _next_incarnation(self) -> int:
        self._incarnations += 1
        return self._incarnations

    def _spawn_standby(self) -> None:
        """Spawn a warm standby and start its background catch-up from
        the current recovery recipe (non-blocking: the restore/replay
        acks drain lazily while the primary keeps serving)."""
        if not self._replicas or self._dead:
            return
        generation = self._standby_generation
        self._standby_generation += 1
        standby = StandbyReplica(
            self._worker_args,
            shard_id=self.shard_id,
            incarnation=self._next_incarnation(),
            generation=generation,
            fault_plan=self._fault_plan,
            op_timeout=self._op_timeout,
        )
        standby.catch_up(self._baseline, self._journal, self._journal_base)
        self._standby = standby

    def _drop_standby(self) -> None:
        if self._standby is not None:
            self._standby.destroy()
            self._standby = None

    def _repair_standby(self) -> None:
        """Replace a dead standby (e.g. a ``kill_standby`` fault) so
        the shard regains its warm failover target."""
        if not self._replicas or self._dead:
            return
        standby = self._standby
        if standby is not None and standby.alive:
            return
        self._drop_standby()
        self._spawn_standby()

    def _replication_gauge(self) -> None:
        standby = self._standby
        if standby is None:
            return
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.set_gauge(
                f"service.shard.{self.shard_id}.replication.lag_ops",
                float(self._seq - standby.applied),
            )

    def _teardown(self, timeout: float = 1.0) -> None:
        """Force the current worker down: close pipe, terminate, kill."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=timeout)
        if self._proc.is_alive():  # pragma: no cover - stubborn worker
            self._proc.kill()
            self._proc.join(timeout=timeout)

    def _mark_dead(self) -> None:
        self._flight("degraded")
        self._retire_telemetry()
        self._dead = True
        self._drop_standby()
        self._teardown()

    def _retire_telemetry(self) -> None:
        """Fold the dead incarnation's last-polled snapshot into the
        retired registry, preserving merged-snapshot monotonicity."""
        if self._last_snapshot is None:
            return
        if self._retired is None:
            self._retired = _telemetry.Registry()
        self._retired.merge(self._last_snapshot)
        self._last_snapshot = None

    def _flight(self, reason: str, incarnation: int | None = None) -> None:
        """Write a post-mortem flight record (best effort, never raises)."""
        if self._flight_dir is None:
            return
        reg = _telemetry.REGISTRY
        tr = _tracing.TRACER
        baseline_flows = (
            len(self._baseline[0]) if self._baseline is not None else 0
        )
        try:
            _tracing.write_flight_record(
                self._flight_dir,
                reason=reason,
                shard=self.shard_id,
                incarnation=(
                    self._incarnation if incarnation is None else incarnation
                ),
                restarts=self._restarts,
                journal={
                    "len": len(self._journal),
                    "limit": self._journal_limit,
                    "baseline_flows": baseline_flows,
                },
                spans=tr.snapshot() if tr is not None else None,
                registry=reg.snapshot() if reg is not None else None,
                shard_telemetry=self._last_snapshot,
            )
        except OSError:  # pragma: no cover - disk trouble must not kill ops
            return
        if reg is not None:
            reg.add("service.flight_records")

    def _recv(self):
        """One pipe reply, bounded by ``op_timeout`` when configured."""
        if self._op_timeout is not None and not self._conn.poll(
            self._op_timeout
        ):
            raise TimeoutError(
                f"shard {self.shard_id} worker reply exceeded "
                f"{self._op_timeout}s"
            )
        return self._conn.recv()

    # -- supervised recovery --------------------------------------------
    def _recover(
        self,
        in_flight: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]] | None:
        """Respawn the worker, rebuild exact state, re-run ``in_flight``.

        Returns the in-flight ops' payloads (``[]`` when none), or None
        once the restart budget is exhausted — the shard is then dead.
        The rebuilt state is byte-identical to the pre-crash state: the
        baseline is an exact ``export_state`` snapshot and the journal
        holds every committed mutation since, in order (rejected admits
        and queries never change controller state, so omitting them is
        exact, not lossy).  Re-running the interrupted batch on that
        state yields exactly the payloads an uninterrupted run would
        have produced.

        ``traces`` are the in-flight ops' trace contexts: journal replay
        runs *untraced* (it is state reconstruction, not request work),
        but the interrupted batch re-runs with its original contexts, so
        the respawned incarnation's spans join the retried requests'
        traces — the track split in the Chrome export.

        With a live standby, **promotion** is tried first (see
        :meth:`_promote`) — warm failover that replays only the ops
        past the standby's high-water mark and never burns a restart.
        The cold loop below is the fallback.
        """
        self._flight("worker_death")
        self._retire_telemetry()
        payloads = self._promote(in_flight, traces)
        if payloads is not None:
            return payloads
        while self._restarts < self._max_restarts:
            self._restarts += 1
            start = time.perf_counter()
            self._teardown()
            self._incarnation = self._next_incarnation()
            self._spawn()
            try:
                if self._baseline is not None:
                    self._conn.send(
                        ("restore", self._baseline[0], self._baseline[1])
                    )
                    self._recv()
                if self._journal:
                    self._conn.send(("batch", list(self._journal)))
                    self._recv()
                payloads: list[dict[str, Any]] = []
                if in_flight:
                    if traces is not None:
                        self._conn.send(
                            ("batch", list(in_flight), list(traces))
                        )
                        payloads, spans = self._recv()
                        tr = _tracing.TRACER
                        if tr is not None and spans:
                            # The replacement's re-run spans: the retried
                            # requests' trace ids on the new
                            # incarnation's track.
                            tr.extend(spans)
                    else:
                        self._conn.send(("batch", list(in_flight)))
                        payloads = self._recv()
            except (BrokenPipeError, EOFError, OSError, TimeoutError):
                # The replacement died during replay (e.g. a fault
                # targeting this incarnation): burn another restart.
                continue
            elapsed = time.perf_counter() - start
            self._recovery_s_total += elapsed
            reg = _telemetry.REGISTRY
            if reg is not None:
                reg.add(f"service.shard.{self.shard_id}.restarts")
                reg.observe(
                    f"service.shard.{self.shard_id}.recovery_s", elapsed
                )
            tr = _tracing.TRACER
            if tr is not None:
                # Parent-side recovery span, labelled with the *new*
                # incarnation's track so the respawn is visible even
                # before the worker records its first op span.
                tr.record(
                    name="shard.recovery",
                    trace=tr.mint_trace(),
                    ts=time.time() - elapsed,
                    dur=elapsed,
                    proc=f"shard{self.shard_id}",
                    inc=self._incarnation,
                    tags={"restarts": float(self._restarts)},
                )
            # A cold restore invalidates whatever standby was left (it
            # may hold state the failed promotion partially advanced);
            # rebuild it from the recipe the new primary just replayed.
            if self._replicas:
                self._drop_standby()
                self._spawn_standby()
            return payloads
        self._mark_dead()
        return None

    def _promote(
        self,
        in_flight: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]] | None:
        """Warm failover: make the standby the new primary.

        Barrier-syncs the ship link (drains every outstanding ack, so
        the high-water mark is exact), replays only the journal ops past
        it, re-runs the interrupted batch, and adopts the standby's
        pipe/process.  Returns the in-flight payloads, or None when the
        standby is unusable — dead (``kill_standby``), killed by an
        injected ``kill:during=promotion``, wedged past the op timeout,
        or stranded behind a compaction — in which case the cold
        recovery loop takes over.  The promoted state is rebuilt from
        exactly the recipe cold recovery uses (baseline + committed-op
        journal), so promoted decisions are byte-identical to it.
        """
        standby = self._standby
        if standby is None:
            return None
        self._standby = None
        start = time.perf_counter()
        if self._fault_plan is not None:
            attempt = self._promotion_attempts
            self._promotion_attempts += 1
            if any(
                f.at == attempt
                for f in self._fault_plan.promotion_faults(self.shard_id)
            ):
                # Injected standby death mid-promotion: fall back cold.
                standby.destroy()
                return None
        else:
            self._promotion_attempts += 1
        sync_timeout = (
            self._op_timeout if self._op_timeout is not None else 30.0
        )
        if not standby.sync(sync_timeout):
            standby.destroy()
            return None
        if standby.applied < self._journal_base:
            # Compaction folded ops the severed ship link never
            # delivered — the gap is no longer replayable.
            standby.destroy()
            return None
        gap = self._journal[standby.applied - self._journal_base:]
        self._teardown()
        self._conn, self._proc = standby.detach()
        self._incarnation = standby.incarnation
        try:
            if gap:
                self._conn.send(("batch", list(gap)))
                self._recv()
            payloads: list[dict[str, Any]] = []
            if in_flight:
                if traces is not None:
                    self._conn.send(("batch", list(in_flight), list(traces)))
                    payloads, spans = self._recv()
                    tr = _tracing.TRACER
                    if tr is not None and spans:
                        tr.extend(spans)
                else:
                    self._conn.send(("batch", list(in_flight)))
                    payloads = self._recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError):
            # The promoted worker died too (e.g. a kill fault aimed at
            # its incarnation): the cold loop tears it down and takes
            # over from the unchanged recipe.
            return None
        elapsed = time.perf_counter() - start
        self._failovers += 1
        self._failover_s_total += elapsed
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add(f"service.shard.{self.shard_id}.failovers")
            reg.observe(
                f"service.shard.{self.shard_id}.failover_s", elapsed
            )
        tr = _tracing.TRACER
        if tr is not None:
            tr.record(
                name="shard.failover",
                trace=tr.mint_trace(),
                ts=time.time() - elapsed,
                dur=elapsed,
                proc=f"shard{self.shard_id}",
                inc=self._incarnation,
                tags={
                    "failovers": float(self._failovers),
                    "replayed_ops": float(len(gap)),
                },
            )
        # Replacement standby: spawned now, caught up in the background.
        self._spawn_standby()
        return payloads

    def _commit(
        self, ops: Sequence[ShardOp], payloads: Sequence[Mapping[str, Any]]
    ) -> None:
        """Journal the batch's committed mutations, ship them to the
        standby (ship-on-commit: the standby is never ahead of the
        journal), repair a dead standby, compact when due."""
        if not self._supervise:
            return
        committed: list[ShardOp] = []
        for op, payload in zip(ops, payloads):
            if "error" in payload:
                continue
            if op[0] == "request" and payload.get("accepted"):
                committed.append(op)
            elif op[0] == "release":
                committed.append(op)
        if committed:
            self._journal.extend(committed)
            start_seq = self._seq
            self._seq += len(committed)
            if self._standby is not None:
                self._standby.ship(committed, start_seq)
        self._replication_gauge()
        self._repair_standby()
        if len(self._journal) > self._journal_limit:
            self._compact()

    def _compact(self) -> None:
        """Fold the journal into a fresh baseline snapshot.

        The worker has already applied every journaled op, so exporting
        *now* captures baseline+journal in one snapshot; only then is
        the journal cleared.  If the export exchange fails, the old
        recipe is still intact — recover and retry the compaction on
        the next commit.
        """
        try:
            self._conn.send(("export",))
            snapshot = self._recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError):
            self._recover([])
            return
        self._baseline = snapshot
        self._journal = []
        self._journal_base = self._seq
        standby = self._standby
        if standby is not None and standby.shipped < self._journal_base:
            # A severed ship link (drop_journal) left the standby with a
            # gap the compacted journal can no longer replay: it could
            # never be promoted again.  Rebuild it from the fresh
            # baseline instead.
            self._drop_standby()
            self._spawn_standby()

    # -- batch interface -------------------------------------------------
    def send_batch(
        self,
        ops: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> None:
        ops = list(ops)
        self._pending_ops = ops
        self._pending_traces = list(traces) if traces is not None else None
        if self._dead:
            return
        try:
            if traces is not None:
                self._conn.send(("batch", ops, self._pending_traces))
            else:
                self._conn.send(("batch", ops))
        except (BrokenPipeError, OSError):
            if self._supervise:
                # recv_batch's failing read triggers the recovery (the
                # in-flight ops are re-applied there either way).
                pass
            else:
                self._mark_dead()

    def recv_batch(self) -> list[dict[str, Any]]:
        ops, self._pending_ops = self._pending_ops or [], None
        traces, self._pending_traces = self._pending_traces, None
        if not self._dead:
            payloads: list[dict[str, Any]] | None
            try:
                reply = self._recv()
                # Traced batches reply ``(payloads, drained spans)``.
                if traces is not None:
                    payloads, spans = reply
                    tr = _tracing.TRACER
                    if tr is not None and spans:
                        tr.extend(spans)
                else:
                    payloads = reply
            except (EOFError, OSError, TimeoutError):
                payloads = (
                    self._recover(ops, traces) if self._supervise else None
                )
                if payloads is None:
                    self._mark_dead()
            if payloads is not None:
                self._commit(ops, payloads)
                return payloads
        return [
            {"error": self.DEAD_ERROR, "code": ERR_UNAVAILABLE}
            for _ in ops
        ]

    # -- state exchange ---------------------------------------------------
    def begin_export(self) -> None:
        if self._dead:
            raise RuntimeError(self.DEAD_ERROR)
        try:
            self._conn.send(("export",))
        except (BrokenPipeError, OSError):
            # The send usually still succeeds into the pipe buffer even
            # when the worker just died; a failure here means the pipe
            # itself is gone — recover and re-issue so finish_export has
            # a reply to pair with.
            if self._supervise and self._recover([]) is not None:
                try:
                    self._conn.send(("export",))
                    return
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
            self._mark_dead()
            raise RuntimeError(self.DEAD_ERROR) from None

    def finish_export(self) -> tuple[tuple[Flow, ...], dict]:
        try:
            return self._recv()
        except (EOFError, OSError, TimeoutError):
            if self._supervise and self._recover([]) is not None:
                try:
                    self._conn.send(("export",))
                    return self._recv()
                except (BrokenPipeError, EOFError, OSError, TimeoutError):
                    pass
            self._mark_dead()
            raise RuntimeError(self.DEAD_ERROR) from None

    def restore(self, flows: Sequence[Flow], jitters: Mapping) -> None:
        if self._dead:
            raise RuntimeError(self.DEAD_ERROR)
        flows = tuple(flows)
        jitters = dict(jitters)
        if self._supervise:
            # An explicit restore *is* the new recovery recipe.  The
            # absolute op sequence stays monotone; the journal restarts
            # empty at the new baseline.  A standby caught up to the
            # *old* recipe is stale by definition — rebuild it.
            self._baseline = (flows, jitters)
            self._journal = []
            self._journal_base = self._seq
            self._drop_standby()
        try:
            self._conn.send(("restore", flows, jitters))
            self._recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError):
            # _recover replays the just-installed baseline, so a
            # successful recovery leaves exactly the requested state.
            if self._supervise and self._recover([]) is not None:
                return
            self._mark_dead()
            raise RuntimeError(self.DEAD_ERROR) from None
        if self._replicas:
            self._spawn_standby()

    def telemetry_snapshot(self) -> dict[str, Any] | None:
        """Merged retired + current-incarnation registry snapshot.

        Snapshots of incarnations that died are folded (at their last
        polled value) into a retired registry, and every result merges
        retired + current — so across worker kills and respawns the
        counters a poller sees are **monotone**: they never regress
        below a previously returned value, even though each respawned
        worker starts its own registry from zero.  ``None`` only when
        telemetry is disabled or nothing was ever collected.
        """
        current: dict[str, Any] | None = None
        if not self._dead:
            try:
                self._conn.send(("telemetry",))
                current = self._recv()
            except (BrokenPipeError, EOFError, OSError, TimeoutError):
                if self._supervise:
                    self._recover([])
                else:
                    self._mark_dead()
        if current is not None:
            self._last_snapshot = current
        if self._retired is None:
            return current
        merged = _telemetry.Registry()
        merged.merge(self._retired.snapshot())
        if current is not None:
            merged.merge(current)
        return merged.snapshot()

    def trace_snapshot(self) -> list[dict[str, Any]] | None:
        """Drain the worker's span ring (None when dead or untraced).

        Spans buffered in an incarnation that crashes before a drain
        die with it — the flight recorder is the capture path for
        those.
        """
        if self._dead or _tracing.TRACER is None:
            return None
        try:
            self._conn.send(("trace",))
            return self._recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError):
            if self._supervise:
                self._recover([])
            else:
                self._mark_dead()
            return None

    # -- introspection / shutdown ----------------------------------------
    def health(self) -> dict[str, Any]:
        standby = self._standby
        return {
            "backend": "process",
            # alive is the instantaneous process state (a supervised
            # shard whose crash has not been observed yet reports
            # False until the next op recovers it); failed is the
            # permanent give-up flag.
            "alive": bool(not self._dead and self._proc.is_alive()),
            "failed": self._dead,
            "supervised": self._supervise,
            "restarts": self._restarts,
            "journal_len": len(self._journal),
            "recovery_s_total": self._recovery_s_total,
            "replicas": self._replicas,
            "standby_alive": bool(standby is not None and standby.alive),
            # Committed ops the standby is not yet known to hold
            # (in-flight acks + anything a severed link never shipped).
            "replication_lag_ops": (
                self._seq - standby.applied if standby is not None else 0
            ),
            "failovers": self._failovers,
            "failover_s_total": self._failover_s_total,
            # Cold restores are exactly the PR 7 restart count;
            # promotions never increment it.
            "cold_restores": self._restarts,
        }

    def graceful_close(self) -> None:
        """Clean shutdown: drain the ship link, then write final
        flight records for every live incarnation (primary and
        standby) before the ordinary close escalation."""
        standby = self._standby
        if standby is not None:
            standby.drain(timeout_s=self._close_timeout)
        if not self._dead:
            self._flight("clean_shutdown")
            if standby is not None and standby.alive:
                self._flight(
                    "clean_shutdown_standby", incarnation=standby.incarnation
                )
        self.close()

    def close(self) -> None:
        """Shut the worker down, escalating if it does not cooperate.

        Polite close message first; if the worker does not acknowledge
        and exit within ``close_timeout`` (it may be wedged mid-op),
        escalate terminate → kill.  A wedged worker can therefore never
        hang ``close()`` longer than ~3 timeouts.
        """
        if self._standby is not None:
            self._standby.close(timeout=self._close_timeout)
            self._standby = None
        if not self._dead:
            try:
                self._conn.send(("close",))
                if self._conn.poll(self._close_timeout):
                    self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._dead = True
        self._proc.join(timeout=self._close_timeout)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(timeout=self._close_timeout)
        if self._proc.is_alive():  # pragma: no cover - stubborn worker
            self._proc.kill()
            self._proc.join(timeout=self._close_timeout)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceDecision:
    """Service-level admission outcome (protocol ``admit`` payload)."""

    accepted: bool
    reason: str
    shards: tuple[int, ...]
    cross_shard: bool

    def to_payload(self) -> dict[str, Any]:
        return {
            "accepted": self.accepted,
            "reason": self.reason,
            "shards": list(self.shards),
            "cross_shard": self.cross_shard,
        }


class ShardedAdmissionService:
    """N admission controllers behind one request interface.

    Parameters
    ----------
    network:
        The shared topology (every shard holds all of it; shards differ
        only in which flows they own).
    n_shards:
        Link partition count; ``1`` reproduces the serial controller
        exactly for every request.
    shard_map:
        Optional explicit switch → shard assignment (defaults to the
        deterministic hash of :class:`ShardRouter`).
    workers:
        ``True`` backs every shard with its own worker process
        (multi-core serving); ``False`` (default) keeps shards inline —
        bit-identical decisions either way.
    supervise:
        With worker-backed shards, respawn a dead worker and restore
        its exact state (baseline snapshot + op journal) instead of
        permanently degrading the shard.  Inline shards cannot crash
        independently, so the flag only matters with ``workers=True``.
    max_restarts / journal_limit / op_timeout / close_timeout:
        Supervision tuning — restart budget per shard, journal length
        that triggers compaction into a fresh baseline, optional bound
        on every worker reply wait, and the shutdown-escalation
        timeout.
    replicas:
        ``1`` gives every worker-backed shard a warm standby worker fed
        by the primary's journal (ship-on-commit): a dying primary is
        promoted over instead of cold-restarted, and
        :meth:`rebalance` gets its transfer machinery.  Requires
        ``workers=True`` and ``supervise=True``.  ``0`` (default)
        preserves the PR 7 cold-recovery behaviour exactly.
    fault_plan:
        Optional deterministic :class:`~repro.service.faults.FaultPlan`;
        its worker faults are injected inside the shard workers (and
        therefore require ``workers=True``); its replication faults
        (``kill_standby`` / ``drop_journal`` / ``kill:during=promotion``)
        additionally require ``replicas >= 1``.
    flight_dir:
        Directory for post-mortem flight records: on every dead-worker
        detection and on permanent shard degradation the supervisor
        snapshots recent spans + registry state + op-journal position
        into a JSON document there (None disables; see
        :func:`repro.telemetry.tracing.write_flight_record`).
    """

    def __init__(
        self,
        network: Network,
        *,
        n_shards: int = 1,
        options: AnalysisOptions | None = None,
        shard_map: Mapping[str, int] | None = None,
        workers: bool = False,
        supervise: bool = True,
        max_restarts: int = 5,
        journal_limit: int = 256,
        replicas: int = 0,
        fault_plan: FaultPlan | None = None,
        op_timeout: float | None = None,
        close_timeout: float = 5.0,
        flight_dir: str | None = None,
    ):
        self.network = network
        self.options = options or AnalysisOptions()
        self.workers = bool(workers)
        self.supervise = bool(supervise)
        self.replicas = int(replicas)
        self.fault_plan = fault_plan
        if self.replicas and not self.workers:
            raise ValueError("replicas require workers=True")
        if (
            fault_plan is not None
            and fault_plan.worker_faults()
            and not self.workers
        ):
            raise ValueError(
                "worker faults (kill/hang/slow_batch) require workers=True"
            )
        if (
            fault_plan is not None
            and fault_plan.replication_faults()
            and not (self.workers and self.replicas)
        ):
            raise ValueError(
                "replication faults (kill_standby/drop_journal/"
                "kill:during=promotion) require workers=True and "
                "replicas >= 1"
            )
        self.router = ShardRouter(network, n_shards, shard_map=shard_map)
        # Everything a shard backend needs besides its id — kept so
        # rebalance() can build new-layout backends with identical
        # resilience settings.
        self._shard_kwargs: dict[str, Any] = dict(
            supervise=supervise,
            max_restarts=max_restarts,
            journal_limit=journal_limit,
            replicas=self.replicas,
            fault_plan=fault_plan,
            op_timeout=op_timeout,
            close_timeout=close_timeout,
            flight_dir=flight_dir,
        )
        self._shards: list[Any] = [
            self._make_shard(sid) for sid in range(n_shards)
        ]
        #: flow name -> shard ids holding it (insertion = admission order).
        self._flow_shards: dict[str, tuple[int, ...]] = {}
        self._counters = {
            "offered": 0,
            "accepted": 0,
            "rejected": 0,
            "released": 0,
            "errors": 0,
            "cross_shard_offered": 0,
            "batches": 0,
            "rollbacks": 0,
            "rebalances": 0,
        }

    def _make_shard(self, sid: int) -> Any:
        """Build one shard backend under the service's resilience knobs."""
        if self.workers:
            return _ProcessShard(
                self.network,
                self.options,
                shard_id=sid,
                **self._shard_kwargs,
            )
        return _InlineShard(self.network, self.options, shard_id=sid)

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def admitted_names(self) -> tuple[str, ...]:
        return tuple(self._flow_shards)

    def flow_assignment(self) -> dict[str, tuple[int, ...]]:
        """Copy of the flow → shard-ids mapping (admission order)."""
        return dict(self._flow_shards)

    def __enter__(self) -> "ShardedAdmissionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down shard backends (terminates worker processes)."""
        for shard in self._shards:
            shard.close()

    def shutdown(self) -> None:
        """Graceful close: every live shard (and its standby) finishes
        its queued ops and writes a clean-shutdown flight record before
        the workers come down — the counterpart of :meth:`close`, which
        only guarantees termination."""
        for shard in self._shards:
            getattr(shard, "graceful_close", shard.close)()

    # ------------------------------------------------------------------
    # Live rebalancing (journal-driven state transfer, atomic cutover)
    # ------------------------------------------------------------------
    def rebalance(
        self,
        shard_map: Mapping[str, int] | None = None,
        *,
        n_shards: int | None = None,
    ) -> dict[str, Any]:
        """Move to a new shard layout without dropping a single flow.

        Exactly the standby recipe, pointed at a new layout: the old
        shards export their state (snapshot + implied journal position),
        :func:`~repro.service.replication.reassign_shard_states`
        re-routes every admitted flow (with its converged jitter
        entries) under the new :class:`ShardRouter`, fresh backends are
        built and caught up from the re-routed states, and the service
        atomically cuts over — callers only ever see the old layout or
        the new one, never a mix, because the swap happens between
        batches (``process_batch`` treats the ``rebalance`` op as a
        flush barrier).  Restoring afterwards is byte-identical to
        restoring a snapshot into a service built with the new map.

        Raises :class:`ValueError` for a bad map or when any admitted
        flow is currently cross-shard (its per-shard states diverge by
        design; release it first).
        """
        if shard_map is None and n_shards is None:
            raise ValueError("rebalance needs shard_map or n_shards")
        if n_shards is None:
            if not shard_map:
                raise ValueError("rebalance shard_map must be non-empty")
            n_shards = max(int(s) for s in shard_map.values()) + 1
        new_router = ShardRouter(self.network, n_shards, shard_map=shard_map)
        states = self.export_shard_states()
        new_states, new_flow_shards = reassign_shard_states(
            states, self._flow_shards, new_router
        )
        old_shards = self._shards
        old_router = self.router
        self.router = new_router
        try:
            new_shards = [
                self._make_shard(sid) for sid in range(new_router.n_shards)
            ]
        except Exception:
            self.router = old_router
            raise
        for shard, (flows, jitters) in zip(new_shards, new_states):
            shard.restore(flows, jitters)
        moved = sum(
            1
            for name, sids in new_flow_shards.items()
            if sids != self._flow_shards.get(name)
        )
        # Atomic cutover: swap the full layout in one step, then retire
        # the old backends.
        self._shards = new_shards
        self._flow_shards = dict(new_flow_shards)
        for shard in old_shards:
            shard.close()
        self._counters["rebalances"] += 1
        _telemetry.add("service.rebalances")
        return {
            "rebalanced": True,
            "n_shards": new_router.n_shards,
            "moved_flows": moved,
            "admitted": len(self._flow_shards),
            "switch_shards": new_router.assignment(),
        }

    # ------------------------------------------------------------------
    # Single-request interface (thin wrappers over one-op batches)
    # ------------------------------------------------------------------
    def admit(self, flow: Flow) -> ServiceDecision:
        """Route ``flow`` to its shard(s) and decide admission."""
        payload = self.process_batch([Request(op="admit", flow=flow)])[0]
        if "error" in payload:
            raise ValueError(payload["error"])
        return ServiceDecision(
            accepted=payload["accepted"],
            reason=payload["reason"],
            shards=tuple(payload["shards"]),
            cross_shard=payload["cross_shard"],
        )

    def release(self, flow_name: str) -> None:
        payload = self.process_batch(
            [Request(op="release", flow_name=flow_name)]
        )[0]
        if "error" in payload:
            raise KeyError(payload["error"])

    def query(self, flow_name: str) -> dict[str, Any]:
        return self.process_batch(
            [Request(op="query", flow_name=flow_name)]
        )[0]

    def stats(self) -> dict[str, Any]:
        shard_flows = [0] * self.n_shards
        cross = 0
        for shards in self._flow_shards.values():
            if len(shards) > 1:
                cross += 1
            for sid in shards:
                shard_flows[sid] += 1
        health = self.health()
        out = {
            # Response layout version: 2 added the optional merged
            # "telemetry" snapshot, 3 the supervisor totals
            # ("restarts", "recovery_s_total"), 4 the replication
            # totals ("replicas", "failovers", "failover_s_total",
            # "cold_restores").  Strictly additive, so older clients
            # keep working unchanged.
            "stats_version": 4,
            "n_shards": self.n_shards,
            "workers": self.workers,
            "admitted": len(self._flow_shards),
            "admitted_cross_shard": cross,
            "shard_flows": shard_flows,
            "switch_shards": self.router.assignment(),
            "restarts": health["restarts"],
            "recovery_s_total": health["recovery_s_total"],
            "replicas": self.replicas,
            "failovers": health["failovers"],
            "failover_s_total": health["failover_s_total"],
            "cold_restores": health["cold_restores"],
            **self._counters,
        }
        if _telemetry.enabled():
            out["telemetry"] = self.metrics()["merged"]
        return out

    def health(self) -> dict[str, Any]:
        """Liveness/recovery summary (the protocol ``health`` payload).

        ``status`` is ``"ok"`` while no shard backend has *permanently*
        failed and ``"degraded"`` once any has (restart budget
        exhausted, or unsupervised crash); a supervised shard between
        crash and recovery still counts as ok.  Cheap: pure parent-side
        bookkeeping, no worker round-trips.
        """
        shards = [
            dict(shard.health(), shard=sid)
            for sid, shard in enumerate(self._shards)
        ]
        dead = [s["shard"] for s in shards if s["failed"]]
        return {
            "status": "degraded" if dead else "ok",
            "n_shards": self.n_shards,
            "workers": self.workers,
            "supervise": self.supervise,
            "replicas": self.replicas,
            "restarts": sum(s["restarts"] for s in shards),
            "recovery_s_total": sum(s["recovery_s_total"] for s in shards),
            "failovers": sum(s.get("failovers", 0) for s in shards),
            "failover_s_total": sum(
                s.get("failover_s_total", 0.0) for s in shards
            ),
            "cold_restores": sum(s.get("cold_restores", 0) for s in shards),
            "dead_shards": dead,
            "shards": shards,
        }

    def metrics(self) -> dict[str, Any]:
        """Telemetry snapshots of the service process and its shards.

        Returns ``{"enabled", "process", "shards", "merged"}`` where
        ``process`` is this process's registry snapshot (inline shards
        record here), ``shards`` has one entry per worker-backed shard
        (None for inline shards or dead workers) and ``merged`` folds
        them all into one snapshot.  All values are None/empty when
        telemetry is disabled.
        """
        reg = _telemetry.REGISTRY
        process = reg.snapshot() if reg is not None else None
        shard_snaps = [shard.telemetry_snapshot() for shard in self._shards]
        merged = _telemetry.merge_snapshots(
            snap
            for snap in [process, *shard_snaps]
            if snap is not None
        )
        out = {
            "enabled": reg is not None,
            "process": process,
            "shards": shard_snaps,
            "merged": merged,
        }
        tr = _tracing.TRACER
        out["tracing"] = tr is not None
        if tr is not None:
            # Drain worker span rings into the parent ring, then expose
            # the fleet's recent spans — the trace-export data source.
            for shard in self._shards:
                spans = shard.trace_snapshot()
                if spans:
                    tr.extend(spans)
            out["trace_spans"] = tr.snapshot()
        return out

    # ------------------------------------------------------------------
    # Batch execution with per-shard coalescing
    # ------------------------------------------------------------------
    def process_batch(
        self, requests: Sequence[Request]
    ) -> list[dict[str, Any]]:
        """Execute a request slice; results in submission order.

        Consecutive shard-local ops are coalesced into per-shard
        micro-batches and (with process backends) dispatched to all
        shards before any reply is collected.  Cross-shard admissions,
        ``stats`` and ``snapshot`` are barriers: they see every earlier
        op's effect and are seen by every later op — so batched
        semantics are exactly the one-at-a-time semantics.
        """
        self._counters["batches"] += 1
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add("service.batches")
            reg.observe("service.batch_size", len(requests))
        results: list[dict[str, Any] | None] = [None] * len(requests)
        # One planned run: per-shard op lists plus their result slots.
        run: dict[int, list[tuple[int, ShardOp]]] = {}
        # Planning view of name -> shards, so a release can find a flow
        # admitted earlier in the same run.
        planned = dict(self._flow_shards)

        traced = _tracing.TRACER is not None

        def flush() -> None:
            if not run:
                return
            order = sorted(run)
            for sid in order:
                ops = [op for _, op in run[sid]]
                if traced:
                    self._shards[sid].send_batch(
                        ops,
                        traces=[requests[pos].trace for pos, _ in run[sid]],
                    )
                else:
                    self._shards[sid].send_batch(ops)
            collected = []
            for sid in order:
                payloads = self._shards[sid].recv_batch()
                collected.extend(
                    (pos, sid, op, payload)
                    for (pos, op), payload in zip(run[sid], payloads)
                )
            # Account in SUBMISSION order, not shard order: a name
            # admitted, released and re-admitted on different shards
            # within one run must fold into the bookkeeping exactly as
            # one-at-a-time execution would.
            for pos, sid, op, payload in sorted(collected):
                self._account(op, payload, sid)
                results[pos] = payload
                # Reconcile the optimistic planning entry of an admit
                # the shard in fact rejected (or errored).
                if op[0] == "request" and op[1].name not in self._flow_shards:
                    planned.pop(op[1].name, None)
            run.clear()

        for pos, req in enumerate(requests):
            if req.op == "admit":
                if (
                    req.flow.name in planned
                    and req.flow.name not in self._flow_shards
                ):
                    # The name was planned optimistically earlier in this
                    # run; resolve whether that admit really succeeded
                    # before deciding this one — one-at-a-time semantics.
                    flush()
                shards = self._plan_admit(req.flow, planned)
                if isinstance(shards, dict):  # immediate error payload
                    results[pos] = shards
                    self._counters["errors"] += 1
                elif len(shards) == 1:
                    run.setdefault(shards[0], []).append(
                        (pos, ("request", req.flow))
                    )
                    # Optimistic planning entry: a later release in this
                    # batch routes to the same shard, which authoritatively
                    # errors if the admit was in fact rejected — exactly
                    # the serial KeyError semantics.
                    planned[req.flow.name] = shards
                else:
                    flush()
                    results[pos] = self._admit_cross_shard(
                        req.flow, shards, trace=req.trace if traced else None
                    )
                    planned = dict(self._flow_shards)
            elif req.op == "release":
                shards = planned.pop(req.flow_name, None)
                if shards is None:
                    results[pos] = {
                        "error": f"flow {req.flow_name!r} is not admitted",
                        "code": ERR_BAD_REQUEST,
                    }
                    self._counters["errors"] += 1
                elif len(shards) == 1:
                    run.setdefault(shards[0], []).append(
                        (pos, ("release", req.flow_name))
                    )
                else:
                    flush()
                    results[pos] = self._release_cross_shard(
                        req.flow_name,
                        shards,
                        trace=req.trace if traced else None,
                    )
            elif req.op == "query":
                flush()
                results[pos] = self._query(req.flow_name)
            elif req.op == "stats":
                flush()
                results[pos] = self.stats()
            elif req.op == "snapshot":
                flush()
                results[pos] = self._snapshot(req.path)
            elif req.op == "metrics":
                flush()  # barrier: include every earlier op's counts
                results[pos] = self.metrics()
            elif req.op == "health":
                flush()  # barrier: reflect every earlier op's recoveries
                results[pos] = self.health()
            elif req.op == "rebalance":
                flush()  # barrier: cut over between batches, never mid-run
                try:
                    results[pos] = self.rebalance(
                        req.shard_map, n_shards=req.n_shards
                    )
                except (KeyError, ValueError, RuntimeError) as exc:
                    results[pos] = {
                        "error": f"rebalance failed: {exc}",
                        "code": ERR_BAD_REQUEST,
                    }
                    self._counters["errors"] += 1
                else:
                    planned = dict(self._flow_shards)
            else:  # pragma: no cover - Request.__post_init__ rejects
                results[pos] = {"error": f"unknown op {req.op!r}"}
        flush()
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _plan_admit(
        self, flow: Flow, planned: Mapping[str, tuple[int, ...]]
    ) -> tuple[int, ...] | dict[str, Any]:
        if flow.name in planned:
            return {
                "error": f"flow name {flow.name!r} already admitted",
                "code": ERR_BAD_REQUEST,
            }
        try:
            shards = self.router.shards_for_flow(flow)
        except KeyError as exc:
            return {"error": str(exc), "code": ERR_BAD_REQUEST}
        return shards

    def _account(
        self, op: ShardOp, payload: Mapping[str, Any], shard: int
    ) -> None:
        """Fold one shard-local result into the service bookkeeping."""
        if op[0] == "request":
            if "error" in payload:
                self._counters["errors"] += 1
                return
            self._counters["offered"] += 1
            if payload["accepted"]:
                self._counters["accepted"] += 1
                self._flow_shards[op[1].name] = (shard,)
            else:
                self._counters["rejected"] += 1
            # Decorate with the service-level routing fields.
            payload["shards"] = [shard]  # type: ignore[index]
            payload["cross_shard"] = False  # type: ignore[index]
        elif op[0] == "release":
            if "error" in payload:
                self._counters["errors"] += 1
                return
            self._counters["released"] += 1
            self._flow_shards.pop(op[1], None)

    def _admit_cross_shard(
        self,
        flow: Flow,
        shards: tuple[int, ...],
        trace: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Two-phase accept: tentative per-shard admits, then commit or
        roll back."""
        traces = [trace] if trace is not None else None
        accepted: list[int] = []
        for sid in shards:
            self._shards[sid].send_batch([("request", flow)], traces=traces)
            payload = self._shards[sid].recv_batch()[0]
            if "error" in payload:
                self._rollback(flow.name, accepted)
                # Errored admits count only as errors, never as offered
                # — same accounting as the shard-local path.
                self._counters["errors"] += 1
                out = {"error": f"shard {sid}: {payload['error']}"}
                if "code" in payload:
                    out["code"] = payload["code"]
                return out
            if not payload["accepted"]:
                self._rollback(flow.name, accepted)
                self._counters["offered"] += 1
                self._counters["cross_shard_offered"] += 1
                self._counters["rejected"] += 1
                return ServiceDecision(
                    accepted=False,
                    reason=f"shard {sid}: {payload['reason']}",
                    shards=shards,
                    cross_shard=True,
                ).to_payload()
            accepted.append(sid)
        self._flow_shards[flow.name] = shards
        self._counters["offered"] += 1
        self._counters["cross_shard_offered"] += 1
        self._counters["accepted"] += 1
        return ServiceDecision(
            accepted=True,
            reason="all deadlines met on every shard",
            shards=shards,
            cross_shard=True,
        ).to_payload()

    def _rollback(self, flow_name: str, shard_ids: Sequence[int]) -> None:
        if shard_ids:
            self._counters["rollbacks"] += 1
            _telemetry.add("service.rollbacks")
        for sid in shard_ids:
            self._shards[sid].send_batch([("release", flow_name)])
            self._shards[sid].recv_batch()

    def _release_cross_shard(
        self,
        flow_name: str,
        shards: tuple[int, ...],
        trace: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        traces = [trace] if trace is not None else None
        for sid in shards:
            self._shards[sid].send_batch([("release", flow_name)], traces=traces)
        failures = []
        for sid in shards:
            payload = self._shards[sid].recv_batch()[0]
            if "error" in payload:
                failures.append(f"shard {sid}: {payload['error']}")
        # The service-level view drops the flow either way (a dead
        # shard's state is gone regardless), but a partial release is
        # reported as the error it is, not as success.
        self._flow_shards.pop(flow_name, None)
        if failures:
            self._counters["errors"] += 1
            return {"error": "; ".join(failures), "released": True}
        self._counters["released"] += 1
        return {"released": True, "shards": list(shards)}

    def _query(self, flow_name: str) -> dict[str, Any]:
        shards = self._flow_shards.get(flow_name)
        if shards is None:
            return {"admitted": False}
        # Every touched shard bounds the flow against its own
        # interferers; the honest service-level bound is the worst one.
        for sid in shards:
            self._shards[sid].send_batch([("query", flow_name)])
        collected = [
            (sid, self._shards[sid].recv_batch()[0]) for sid in shards
        ]
        for sid, shard_payload in collected:
            if "error" in shard_payload:
                # Never report a bound computed from a partial view —
                # a missing shard could be the dominating one.
                out = {
                    "error": f"shard {sid}: {shard_payload['error']}",
                    "admitted": True,
                    "shards": list(shards),
                }
                if "code" in shard_payload:
                    out["code"] = shard_payload["code"]
                return out
        payload: dict[str, Any] = {"admitted": True}
        worst = None
        for _, shard_payload in collected:
            wr = shard_payload.get("worst_response")
            if wr is not None and (worst is None or wr > worst):
                worst = wr
        if worst is not None:
            payload["worst_response"] = worst
        payload["shards"] = list(shards)
        payload["cross_shard"] = len(shards) > 1
        return payload

    def _snapshot(self, path: str | None) -> dict[str, Any]:
        from repro.service.state import (  # cycle-free lazy import
            save_service_state,
            service_state_to_dict,
        )

        # Bad paths and dead shard workers must yield an error payload,
        # not blow up a whole batch after earlier ops already committed.
        try:
            if path:
                save_service_state(path, self)
                return {"path": path, "admitted": len(self._flow_shards)}
            return {"state": service_state_to_dict(self)}
        except (OSError, RuntimeError) as exc:
            return {"error": f"snapshot failed: {exc}"}

    # ------------------------------------------------------------------
    # State export / import (used by repro.service.state)
    # ------------------------------------------------------------------
    def export_shard_states(self) -> list[tuple[tuple[Flow, ...], dict]]:
        """Per-shard ``(flows, jitter entries)`` in shard-id order.

        Exports are pipelined (all shards asked first, then collected)
        so a worker-backed snapshot stalls for the slowest shard, not
        the sum of all shards.
        """
        for shard in self._shards:
            shard.begin_export()
        return [shard.finish_export() for shard in self._shards]

    def import_shard_states(
        self,
        states: Sequence[tuple[Sequence[Flow], Mapping]],
        flow_shards: Mapping[str, Sequence[int]],
    ) -> None:
        """Install exported shard states (snapshot restore)."""
        if len(states) != self.n_shards:
            raise ValueError(
                f"{len(states)} shard states for {self.n_shards} shard(s)"
            )
        for shard, (flows, jitters) in zip(self._shards, states):
            shard.restore(flows, jitters)
        self._flow_shards = {
            name: tuple(int(s) for s in shards)
            for name, shards in flow_shards.items()
        }
