"""Online admission control behind one request interface.

The service runs one engine,
:class:`~repro.core.hierarchy.HierarchicalAdmissionController`: it keeps
its analysis state between requests, so an admit re-solves only the
flows the candidate interferes with and a release only the jitter
entries the released flow can lower.  Its decisions, jitter tables and
bounds are bit-identical to those of the serial
:class:`~repro.core.admission.AdmissionController`, which re-runs the
holistic analysis over the whole admitted set per request and remains
the parity reference (:func:`~repro.service.replay.replay_serial`).
Every admit is therefore decided against the holistic fixed point of
the whole admitted set (Sec. 3.5 of the paper), and every served
decision, reason, release outcome and queried bound equals the serial
controller's.

The engine runs inline, in the service's process, or (``workers=True``)
in one supervised worker process.  The backend names keep their shard
vocabulary: the engine is shard 0 (``service.shard.0.*`` telemetry,
the ``shard0`` trace track, the flight record's ``shard`` field).

Batching: :meth:`ShardedAdmissionService.process_batch` takes a slice
of protocol requests and sends each run of consecutive admit, release
and query ops to the engine in one message; the engine drains it over
its live state (converged jitter table, demand profiles, stage memos).
``stats``, ``snapshot``, ``metrics`` and ``health`` are barriers
between runs.  Results come back in submission order, so batched
decisions are identical to one-at-a-time decisions by construction.

Fault tolerance: with ``supervise=True`` (the default) a worker that
dies is respawned and its **exact** pre-crash state rebuilt from a
baseline snapshot (``export_state``) plus a bounded append-only **op
journal** of committed mutations — accepted admits and successful
releases, the only ops that change controller state (a rejected admit
rolls back its tentative writes, and queries are pure).  The in-flight
batch the crash interrupted is then re-applied on the recovered worker,
so its payloads are exactly the uninterrupted run's payloads: recovery
is decision-parity-preserving, and the tier-1 fault tests assert
byte-identical final state against a fault-free run.  The journal is
compacted into a fresh baseline whenever it outgrows
``journal_limit``, bounding both replay time and memory.  After
``max_restarts`` failed recoveries the engine degrades permanently to
``shard_unavailable`` error payloads, exactly like the unsupervised
path.  Deterministic faults (:mod:`repro.service.faults`) are applied
inside the worker, keyed to its op counter and incarnation, so crash
scenarios replay identically on every run.

Replication: with ``replicas=1`` (worker-backed, supervised) the
engine additionally owns a :class:`~repro.service.replication.
StandbyReplica` — a warm standby worker fed every committed op as it
is journaled (ship-on-commit with batched acks and a high-water mark).
A dying primary is then *promoted over* instead of cold-restarted: the
standby replays only the ops past its high-water mark, re-runs the
interrupted batch, and becomes the new primary while a replacement
standby catches up from the current recipe in the background.  Cold
recovery remains the fallback whenever the standby is unusable (dead,
wedged, or compaction outran a severed ship link).  Failovers never
burn the ``max_restarts`` budget — only cold restores do.
"""

from __future__ import annotations

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
from repro.service.replication import StandbyReplica
from repro.util.mp import mp_context


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
        # args[0], not str(): str() of a KeyError quotes its message.
        return {"error": exc.args[0], "code": ERR_BAD_REQUEST}


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

    def run_batch(
        self,
        ops: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]]:
        if traces is None:
            return [_apply_op(self._ctrl, op, self.shard_id) for op in ops]
        return [
            _apply_traced(self._ctrl, op, self.shard_id, ctx)
            for op, ctx in zip(ops, traces)
        ]

    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
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
    # SIGTERM aimed at *this child* (standby teardown) would write into
    # the shared wakeup socketpair and the parent's loop would read it
    # as its own shutdown request.  Detach before
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
    """Process-backed shard: the controller runs in a supervised worker.

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
    def run_batch(
        self,
        ops: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]]:
        ops = list(ops)
        traces = list(traces) if traces is not None else None
        if not self._dead:
            payloads: list[dict[str, Any]] | None
            try:
                if traces is not None:
                    self._conn.send(("batch", ops, traces))
                else:
                    self._conn.send(("batch", ops))
                reply = self._recv()
                # Traced batches reply ``(payloads, drained spans)``.
                if traces is not None:
                    payloads, spans = reply
                    tr = _tracing.TRACER
                    if tr is not None and spans:
                        tr.extend(spans)
                else:
                    payloads = reply
            except (BrokenPipeError, EOFError, OSError, TimeoutError):
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
    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        if self._dead:
            raise RuntimeError(self.DEAD_ERROR)
        try:
            self._conn.send(("export",))
            return self._recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError):
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


def _engine_op(req: Request) -> ShardOp:
    """The engine op of an ``admit``, ``release`` or ``query`` request."""
    if req.op == "admit":
        return ("request", req.flow)
    return (req.op, req.flow_name)


#: Requests the engine executes; every other op is a batch barrier.
_ENGINE_OPS = frozenset({"admit", "release", "query"})


class ShardedAdmissionService:
    """One admission engine behind the service's request interface.

    Parameters
    ----------
    network:
        The topology the engine admits flows on.
    options:
        Analysis options of the engine.
    workers:
        ``True`` runs the engine in a worker process (supervision,
        replication and worker fault injection need one); ``False``
        (default) keeps it inline — bit-identical decisions either way.
    supervise:
        With a worker-backed engine, respawn a dead worker and restore
        its exact state (baseline snapshot + op journal) instead of
        permanently degrading the service.  An inline engine cannot
        crash independently, so the flag only matters with
        ``workers=True``.
    max_restarts / journal_limit / op_timeout / close_timeout:
        Supervision tuning — restart budget, journal length that
        triggers compaction into a fresh baseline, optional bound on
        every worker reply wait, and the shutdown-escalation timeout.
    replicas:
        ``1`` gives the worker a warm standby worker fed by the
        primary's journal (ship-on-commit): a dying primary is promoted
        over instead of cold-restarted.  Requires ``workers=True`` and
        ``supervise=True``.  ``0`` (default) keeps cold recovery only.
    fault_plan:
        Optional deterministic :class:`~repro.service.faults.FaultPlan`.
        Every fault must target shard 0, the one engine.  Its worker
        faults are injected inside the worker (and therefore require
        ``workers=True``); its replication faults (``kill_standby`` /
        ``drop_journal`` / ``kill:during=promotion``) additionally
        require ``replicas >= 1``.
    flight_dir:
        Directory for post-mortem flight records: on every dead-worker
        detection and on permanent degradation the supervisor snapshots
        recent spans + registry state + op-journal position into a JSON
        document there (None disables; see
        :func:`repro.telemetry.tracing.write_flight_record`).
    """

    def __init__(
        self,
        network: Network,
        *,
        options: AnalysisOptions | None = None,
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
        if fault_plan is not None:
            stray = sorted(
                {f.shard for f in fault_plan.faults if f.shard not in (None, 0)}
            )
            if stray:
                raise ValueError(
                    f"fault plan targets shard(s) {stray}: the service runs "
                    "one engine, shard 0"
                )
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
        if self.workers:
            self._engine: Any = _ProcessShard(
                network,
                self.options,
                supervise=supervise,
                max_restarts=max_restarts,
                journal_limit=journal_limit,
                replicas=self.replicas,
                fault_plan=fault_plan,
                op_timeout=op_timeout,
                close_timeout=close_timeout,
                flight_dir=flight_dir,
            )
        else:
            self._engine = _InlineShard(network, self.options)
        #: Admitted flow names, in admission order.
        self._admitted: dict[str, None] = {}
        self._counters = {
            "offered": 0,
            "accepted": 0,
            "rejected": 0,
            "released": 0,
            "errors": 0,
            "batches": 0,
        }

    # ------------------------------------------------------------------
    @property
    def admitted_names(self) -> tuple[str, ...]:
        return tuple(self._admitted)

    def __enter__(self) -> "ShardedAdmissionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the engine backend (terminates worker processes)."""
        self._engine.close()

    def shutdown(self) -> None:
        """Graceful close: a live worker (and its standby) finishes its
        queued ops and writes a clean-shutdown flight record before
        coming down — the counterpart of :meth:`close`, which only
        guarantees termination."""
        getattr(self._engine, "graceful_close", self._engine.close)()

    # ------------------------------------------------------------------
    # Single-request interface (thin wrappers over one-op batches)
    # ------------------------------------------------------------------
    def admit(self, flow: Flow) -> ServiceDecision:
        """Decide admission of ``flow``."""
        payload = self.process_batch([Request(op="admit", flow=flow)])[0]
        if "error" in payload:
            raise ValueError(payload["error"])
        return ServiceDecision(
            accepted=payload["accepted"], reason=payload["reason"]
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
        health = self.health()
        out = {
            # Response layout version: 2 added the optional merged
            # "telemetry" snapshot, 3 the supervisor totals
            # ("restarts", "recovery_s_total"), 4 the replication
            # totals ("replicas", "failovers", "failover_s_total",
            # "cold_restores").  5 dropped the shard-layout fields
            # ("n_shards", "admitted_cross_shard", "shard_flows",
            # "switch_shards") and their counters
            # ("cross_shard_offered", "rollbacks", "rebalances").
            "stats_version": 5,
            "workers": self.workers,
            "admitted": len(self._admitted),
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

        ``status`` is ``"ok"`` while the engine backend has not
        *permanently* failed and ``"degraded"`` once it has (restart
        budget exhausted, or unsupervised crash); a supervised worker
        between crash and recovery still counts as ok.  Cheap: pure
        parent-side bookkeeping, no worker round-trips.  ``shards``
        holds the one backend's entry.
        """
        shard = dict(self._engine.health(), shard=0)
        return {
            "status": "degraded" if shard["failed"] else "ok",
            "workers": self.workers,
            "supervise": self.supervise,
            "replicas": self.replicas,
            "restarts": shard["restarts"],
            "recovery_s_total": shard["recovery_s_total"],
            "failovers": shard["failovers"],
            "failover_s_total": shard["failover_s_total"],
            "cold_restores": shard["cold_restores"],
            "dead_shards": [0] if shard["failed"] else [],
            "shards": [shard],
        }

    def metrics(self) -> dict[str, Any]:
        """Telemetry snapshots of the service process and its engine.

        Returns ``{"enabled", "process", "shards", "merged"}`` where
        ``process`` is this process's registry snapshot (an inline
        engine records here), ``shards`` is a one-element list holding
        the worker's snapshot (None inline or when the worker is dead)
        and ``merged`` folds them into one snapshot.  All values are
        None/empty when telemetry is disabled.
        """
        reg = _telemetry.REGISTRY
        process = reg.snapshot() if reg is not None else None
        shard_snap = self._engine.telemetry_snapshot()
        merged = _telemetry.merge_snapshots(
            snap for snap in (process, shard_snap) if snap is not None
        )
        out = {
            "enabled": reg is not None,
            "process": process,
            "shards": [shard_snap],
            "merged": merged,
        }
        tr = _tracing.TRACER
        out["tracing"] = tr is not None
        if tr is not None:
            # Drain the worker's span ring into the parent ring, then
            # expose recent spans — the trace-export data source.
            spans = self._engine.trace_snapshot()
            if spans:
                tr.extend(spans)
            out["trace_spans"] = tr.snapshot()
        return out

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def process_batch(
        self, requests: Sequence[Request]
    ) -> list[dict[str, Any]]:
        """Execute a request slice; results in submission order.

        Each run of consecutive admit, release and query ops goes to
        the engine as one batch, in order.  ``stats``, ``snapshot``,
        ``metrics`` and ``health`` are barriers: they see every earlier
        op's effect and are seen by every later op — so batched
        semantics are exactly the one-at-a-time semantics.
        """
        self._counters["batches"] += 1
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add("service.batches")
            reg.observe("service.batch_size", len(requests))
        results: list[dict[str, Any] | None] = [None] * len(requests)
        run: list[int] = []
        traced = _tracing.TRACER is not None

        def flush() -> None:
            if not run:
                return
            ops = [_engine_op(requests[pos]) for pos in run]
            traces = [requests[pos].trace for pos in run] if traced else None
            payloads = self._engine.run_batch(ops, traces)
            for pos, op, payload in zip(run, ops, payloads):
                self._account(op, payload)
                results[pos] = payload
            run.clear()

        for pos, req in enumerate(requests):
            if req.op in _ENGINE_OPS:
                run.append(pos)
                continue
            flush()
            if req.op == "stats":
                results[pos] = self.stats()
            elif req.op == "snapshot":
                results[pos] = self._snapshot(req.path)
            elif req.op == "metrics":
                results[pos] = self.metrics()
            elif req.op == "health":
                results[pos] = self.health()
            else:  # pragma: no cover - Request.__post_init__ rejects
                results[pos] = {"error": f"unknown op {req.op!r}"}
        flush()
        return results  # type: ignore[return-value]

    def _account(self, op: ShardOp, payload: Mapping[str, Any]) -> None:
        """Fold one engine result into the service bookkeeping."""
        if "error" in payload:
            self._counters["errors"] += 1
        elif op[0] == "request":
            self._counters["offered"] += 1
            if payload["accepted"]:
                self._counters["accepted"] += 1
                self._admitted[op[1].name] = None
            else:
                self._counters["rejected"] += 1
        elif op[0] == "release":
            self._counters["released"] += 1
            self._admitted.pop(op[1], None)

    def _snapshot(self, path: str | None) -> dict[str, Any]:
        from repro.service.state import (  # cycle-free lazy import
            save_service_state,
            service_state_to_dict,
        )

        # Bad paths and a dead worker must yield an error payload, not
        # blow up a whole batch after earlier ops already committed.
        try:
            if path:
                save_service_state(path, self)
                return {"path": path, "admitted": len(self._admitted)}
            return {"state": service_state_to_dict(self)}
        except (OSError, RuntimeError) as exc:
            return {"error": f"snapshot failed: {exc}"}

    # ------------------------------------------------------------------
    # State export / import (used by repro.service.state)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        """The engine's ``(admitted flows, jitter-table entries)``."""
        return self._engine.export_state()

    def import_state(self, flows: Sequence[Flow], jitters: Mapping) -> None:
        """Install an exported engine state (snapshot restore)."""
        self._engine.restore(flows, jitters)
        self._admitted = dict.fromkeys(f.name for f in flows)
