"""Online admission control behind one request interface.

The service runs one engine,
:class:`~repro.core.admission.AdmissionController`: it keeps its
analysis state between requests, so an admit re-solves only the flows
the candidate interferes with and a release only the jitter entries the
released flow can lower.  Its decisions, jitter tables and bounds are
bit-identical to a from-scratch analysis of the admitted set, so every
admit is decided against the holistic fixed point of the whole admitted
set (Sec. 3.5 of the paper).  Batching, worker backends, recovery and
the wire leave the answers alone: every served decision, reason,
release outcome and queried bound equals that of a fresh in-process
engine fed the same ops (:func:`~repro.service.replay.replay_serial`).

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
dies is replaced and its **exact** pre-crash state rebuilt from a
baseline snapshot (``export_state``) plus a bounded append-only **op
journal** of committed mutations — accepted admits and successful
releases, the only ops that change controller state (a rejected admit
rolls back its tentative writes, and queries are pure).  The in-flight
batch the crash interrupted is then re-applied on the replacement, so
its payloads are exactly the uninterrupted run's payloads: recovery is
decision-parity-preserving, and the tier-1 fault tests assert
byte-identical final state against a fault-free run.  The journal is
compacted into a fresh baseline whenever it outgrows
``journal_limit``, bounding both replay time and memory.  After
``max_restarts`` failed cold restores the engine degrades permanently
to ``shard_unavailable`` error payloads, exactly like the unsupervised
path.  Deterministic faults (:mod:`repro.service.faults`) are applied
inside the worker, keyed to its op counter and incarnation, so crash
scenarios replay identically on every run.

There is one restore path.  Every worker — the first primary, a warm
standby, a cold replacement — runs behind one handle,
:class:`~repro.service.replication.StandbyReplica`, and every
replacement takes over through one routine
(:meth:`_ProcessShard._take_over`): sync its acks, refuse it if its
high-water mark is below the journal base, replay the journal past
that mark, adopt it, re-run the interrupted batch.  With
``replicas=1`` (worker-backed, supervised) the engine keeps a **warm
standby** fed every committed op as it is journaled (ship-on-commit
with batched acks and a high-water mark), and a dying primary is first
*promoted over*: its gap is only the ship lag.  When there is no
standby, or it is unusable (dead, wedged, or compaction outran a
severed ship link), a **cold restore** spawns a fresh worker and
catches it up from the whole recipe.  Its high-water mark is then the
last committed op, so its gap is empty and its state is exactly the
recipe's: the cold restore is exact for the same reason the promotion
is.  Failovers never burn the ``max_restarts`` budget — only cold
restores do.  After either kind, a fresh standby catches up from the
current recipe in the background.
"""

from __future__ import annotations

import os
import signal
import stat
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.telemetry import tracing as _tracing
from repro.core.admission import AdmissionController
from repro.core.context import AnalysisOptions
from repro.model.flow import Flow
from repro.model.network import Network
from repro.service.faults import FaultPlan, FaultSpec, WorkerFaults
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_UNAVAILABLE,
    Request,
)
from repro.service.replication import StandbyReplica


# ----------------------------------------------------------------------
# Shard backends
# ----------------------------------------------------------------------
#: A shard op: ("request", Flow) | ("release", name) | ("query", name).
ShardOp = tuple

#: The engine's shard id: the service runs one engine, shard 0, and
#: telemetry names, trace tracks, flight records and fault plans keep
#: that vocabulary.
SHARD_ID = 0

#: What a dead or wedged worker raises out of an exchange.
_PIPE_ERRORS = (BrokenPipeError, EOFError, OSError, TimeoutError)


def _apply_op(ctrl: AdmissionController, op: ShardOp) -> dict[str, Any]:
    """Execute one op on the engine's controller; errors become payloads
    (a worker must survive bad requests)."""
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
                    f"service.shard.{SHARD_ID}.admit_s",
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
    ctrl: AdmissionController,
    op: ShardOp,
    ctx: Mapping[str, Any] | None,
) -> dict[str, Any]:
    """Like :func:`_apply_op`, under a ``shard.<kind>`` tracing span
    when a trace context travelled with the op."""
    tr = _tracing.TRACER
    if tr is None or ctx is None:
        return _apply_op(ctrl, op)
    with tr.span(f"shard.{op[0]}", trace=ctx):
        return _apply_op(ctrl, op)


class _InlineShard:
    """In-process shard: the controller runs in the service's process."""

    def __init__(self, network: Network, options: AnalysisOptions | None):
        self._ctrl = AdmissionController(network, options)

    def run_batch(
        self,
        ops: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]]:
        if traces is None:
            return [_apply_op(self._ctrl, op) for op in ops]
        return [
            _apply_traced(self._ctrl, op, ctx)
            for op, ctx in zip(ops, traces)
        ]

    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        return self._ctrl.export_state()

    def restore(self, flows: Sequence[Flow], jitters: Mapping) -> None:
        self._ctrl = AdmissionController.restore(
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


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket this process inherited but descriptor ``keep``.

    A worker forked from the live front end inherits the listener, the
    event loop's self-pipe and every client connection open at fork
    time.  While a worker holds such a connection, a close by the server
    sends no FIN, and the client waits out its request timeout.  Each
    socket is replaced by ``/dev/null`` rather than closed: its number
    stays taken, so a socket object copied by the fork that is finalised
    later cannot close a descriptor this worker opened since.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return  # no /proc: not Linux, where workers are spawned, not forked
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            if fd == keep or fd == null:
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the listing's own descriptor, closed since
    finally:
        os.close(null)


def _shard_worker(
    conn, network, options,
    telemetry_on=False, faults: Sequence[FaultSpec] = (),
    tracing_on=False, incarnation=0,
) -> None:
    """Process body of one engine worker: a controller behind a pipe.

    ``faults`` are this worker's injected faults (chosen by the
    supervisor), applied against a monotone count of the batch ops it
    executes, just before each one — so a ``kill`` interrupts a batch
    mid-way exactly like a real crash (abrupt pipe EOF, no reply).
    Restore messages do not count.

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
    _close_inherited_sockets(conn.fileno())
    if telemetry_on:
        # Fork inherits the parent's registry *contents* too; start
        # from a clean one so the parent's pre-fork counts are not
        # re-merged when this worker's snapshot is collected.
        _telemetry.enable(_telemetry.Registry())
    if tracing_on:
        # Same reasoning for the span ring: a fresh, worker-labelled
        # tracer so parent spans are never drained twice.
        _tracing.enable_tracing(
            _tracing.Tracer(proc=f"shard{SHARD_ID}", incarnation=incarnation)
        )
    ctrl = AdmissionController(network, options)
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
                payloads.append(_apply_traced(ctrl, op, ctx))
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
            ctrl = AdmissionController.restore(
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

    Every worker, primary or standby, runs behind a
    :class:`~repro.service.replication.StandbyReplica` handle.  A dying
    worker must never desync the request/reply pairing.  With
    ``supervise=False`` every pipe failure marks the shard dead, pending
    ops are answered with error payloads, and the worker is never read
    again (so a stale buffered reply can never be mispaired with a
    later exchange).  With ``supervise=True`` (the default) a failure
    instead triggers :meth:`_recover`, which restores the exact state on
    a replacement worker and re-runs the interrupted exchange there —
    the caller never sees the crash.  Only after ``max_restarts``
    consecutive failed cold restores does the shard degrade
    permanently.

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
        self._worker_args = (network, options)
        self._supervise = bool(supervise)
        self._max_restarts = max_restarts
        self._journal_limit = journal_limit
        self._fault_plan = fault_plan
        self._op_timeout = op_timeout
        self._close_timeout = close_timeout
        #: Directory for post-mortem flight records (None disables).
        self._flight_dir = flight_dir
        #: Next incarnation: every spawned worker — first primary, cold
        #: replacement or standby — takes the next number, so
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
        #: The armed ``drop_journal`` point (committed-op seq), cleared
        #: once a ship crosses it: the fault fires once.
        self._drop_at: int | None = None
        #: Warm promotion attempts that an injected
        #: ``kill:during=promotion`` fault kills.
        self._promotion_kills: frozenset[int] = frozenset()
        if fault_plan is not None:
            self._drop_at = fault_plan.drop_journal_at(SHARD_ID)
            self._promotion_kills = frozenset(
                f.at for f in fault_plan.promotion_faults(SHARD_ID)
            )
        self._dead = False
        #: Last successfully polled worker registry snapshot — folded
        #: into ``_retired`` when that incarnation dies, so merged
        #: telemetry never regresses below what a client already saw.
        self._last_snapshot: dict[str, Any] | None = None
        self._retired: _telemetry.Registry | None = None
        self._primary = self._spawn_worker()
        self._spawn_standby()

    # -- lifecycle ------------------------------------------------------
    @property
    def _conn(self):
        """The primary worker's pipe end."""
        return self._primary.conn

    @property
    def _proc(self):
        """The primary worker's process."""
        return self._primary.proc

    def _spawn_worker(self, generation: int | None = None) -> StandbyReplica:
        """Spawn the next incarnation with its injected faults.

        Worker faults are selected by incarnation.  A standby (given its
        ``generation``) also carries that generation's ``kill_standby``
        faults, as kills on its own op counter; a worker fault aimed at
        its incarnation whose ``at`` lies past the ops it applied as a
        standby kills it as the promoted primary.  A cold replacement
        takes no generation and no standby faults.
        """
        incarnation = self._incarnations
        self._incarnations += 1
        faults: tuple[FaultSpec, ...] = ()
        plan = self._fault_plan
        if plan is not None:
            faults = plan.worker_faults(
                shard=SHARD_ID, incarnation=incarnation
            )
            if generation is not None:
                faults += tuple(
                    FaultSpec(kind="kill", at=f.at, shard=SHARD_ID)
                    for f in plan.standby_faults(
                        shard=SHARD_ID, generation=generation
                    )
                )
        return StandbyReplica(
            self._worker_args,
            incarnation=incarnation,
            faults=faults,
            op_timeout=self._op_timeout,
        )

    def _spawn_standby(self) -> None:
        """Spawn a warm standby and start its background catch-up from
        the current recovery recipe (non-blocking: the restore/replay
        acks drain lazily while the primary keeps serving)."""
        if not self._replicas or self._dead:
            return
        generation = self._standby_generation
        self._standby_generation += 1
        standby = self._spawn_worker(generation)
        standby.catch_up(self._baseline, self._journal, self._journal_base)
        self._standby = standby

    def _drop_standby(self) -> None:
        if self._standby is not None:
            self._standby.destroy()
            self._standby = None

    def _repair_standby(self) -> None:
        """Replace a dead standby (e.g. a ``kill_standby`` fault) so
        the shard regains its warm failover target."""
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
                f"service.shard.{SHARD_ID}.replication.lag_ops",
                float(self._seq - standby.applied),
            )

    def _mark_dead(self) -> None:
        self._flight("degraded")
        self._retire_telemetry()
        self._dead = True
        self._drop_standby()
        self._primary.destroy()

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
                shard=SHARD_ID,
                incarnation=(
                    self._primary.incarnation
                    if incarnation is None
                    else incarnation
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

    # -- supervised recovery --------------------------------------------
    def _recover(
        self,
        in_flight: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]] | None:
        """Restore the exact pre-crash state on a replacement worker and
        re-run ``in_flight`` there.

        Returns the in-flight ops' payloads (``[]`` when none), or None
        once the restart budget is exhausted — the shard is then dead.
        Every replacement goes through :meth:`_take_over`.  The warm
        standby is offered first (a **failover**, which never burns a
        restart).  When there is none, or it is unusable, each **cold
        restore** burns a restart, tears the old primary down, spawns a
        fresh worker and catches it up from the whole recipe, so its
        gap is empty.  The recipe is exact: the baseline is an
        ``export_state`` snapshot and the journal holds every committed
        mutation since, in order (rejected admits and queries never
        change controller state, so omitting them is exact, not lossy).
        Re-running the interrupted batch on that state yields exactly
        the payloads an uninterrupted run would have produced.

        ``traces`` are the in-flight ops' trace contexts: the recipe
        replays *untraced* (it is state reconstruction, not request
        work), but the interrupted batch re-runs with its original
        contexts, so the replacement incarnation's spans join the
        retried requests' traces — the track split in the Chrome export.
        """
        self._flight("worker_death")
        self._retire_telemetry()
        standby, self._standby = self._standby, None
        if standby is not None:
            start = time.perf_counter()
            attempt = self._promotion_attempts
            self._promotion_attempts += 1
            if attempt in self._promotion_kills:
                # Injected standby death mid-promotion: fall back cold.
                standby.destroy()
            else:
                payloads = self._take_over(
                    standby, in_flight, traces,
                    self._op_timeout if self._op_timeout is not None else 30.0,
                )
                if payloads is not None:
                    self._failovers += 1
                    self._failover_s_total += self._restored(
                        "failover", "failovers", start,
                        {
                            "failovers": float(self._failovers),
                            "replayed_ops": float(self._seq - standby.applied),
                        },
                    )
                    return payloads
        while self._restarts < self._max_restarts:
            self._restarts += 1
            start = time.perf_counter()
            self._primary.destroy()
            self._primary = self._spawn_worker()
            self._primary.catch_up(
                self._baseline, self._journal, self._journal_base
            )
            payloads = self._take_over(
                self._primary, in_flight, traces, self._op_timeout
            )
            if payloads is not None:
                self._recovery_s_total += self._restored(
                    "recovery", "restarts", start,
                    {"restarts": float(self._restarts)},
                )
                return payloads
        self._mark_dead()
        return None

    def _take_over(
        self,
        worker: StandbyReplica,
        in_flight: Sequence[ShardOp],
        traces: Sequence[Mapping[str, Any] | None] | None,
        sync_timeout: float | None,
    ) -> list[dict[str, Any]] | None:
        """The one restore routine: make ``worker`` the primary.

        Syncs its acks (each wait bounded by ``sync_timeout``, None =
        unbounded), so its high-water mark is exact; refuses it when
        that mark is below the journal base (a compaction folded ops a
        severed ship link never delivered); replays the journal past
        the mark; adopts it; re-runs the interrupted batch.  Returns
        the in-flight payloads, or None when the worker is unusable or
        dies (a cold restore then takes over from the unchanged
        recipe).
        """
        synced = worker.sync(sync_timeout)
        if not synced or worker.applied < self._journal_base:
            worker.destroy()
            return None
        gap = self._journal[worker.applied - self._journal_base:]
        if worker is not self._primary:
            # A warm standby; a cold replacement is the primary from its
            # spawn on, so flight records name its incarnation.
            self._primary.destroy()
            self._primary = worker
        try:
            if gap:
                worker.run_batch(gap)
            return worker.run_batch(in_flight, traces) if in_flight else []
        except _PIPE_ERRORS:
            return None

    def _restored(
        self, kind: str, counter: str, start: float, tags: dict[str, float]
    ) -> float:
        """Account one successful restore and return its duration.

        ``kind`` (``"failover"`` or ``"recovery"``) names the telemetry
        histogram (``service.shard.0.<kind>_s``) and the parent-side
        span (``shard.<kind>``, on the new primary's track, so the
        restore shows even before the worker records its first op
        span); ``counter`` names the telemetry counter.  The attempt
        took the old standby, so a fresh one is spawned from the
        current recipe."""
        elapsed = time.perf_counter() - start
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add(f"service.shard.{SHARD_ID}.{counter}")
            reg.observe(f"service.shard.{SHARD_ID}.{kind}_s", elapsed)
        tr = _tracing.TRACER
        if tr is not None:
            tr.record(
                name=f"shard.{kind}",
                trace=tr.mint_trace(),
                ts=time.time() - elapsed,
                dur=elapsed,
                proc=f"shard{SHARD_ID}",
                inc=self._primary.incarnation,
                tags=tags,
            )
        self._spawn_standby()
        return elapsed

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
            standby = self._standby
            if standby is not None and standby.ship(
                committed, start_seq, self._drop_at
            ):
                self._drop_at = None
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
            snapshot = self._primary.call(("export",))
        except _PIPE_ERRORS:
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
        if not self._dead:
            payloads: list[dict[str, Any]] | None
            try:
                payloads = self._primary.run_batch(ops, traces)
            except _PIPE_ERRORS:
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
            return self._primary.call(("export",))
        except _PIPE_ERRORS:
            if self._supervise and self._recover([]) is not None:
                try:
                    return self._primary.call(("export",))
                except _PIPE_ERRORS:
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
            self._primary.call(("restore", flows, jitters))
        except _PIPE_ERRORS:
            # _recover replays the just-installed baseline, so a
            # successful recovery leaves exactly the requested state.
            if self._supervise and self._recover([]) is not None:
                return
            self._mark_dead()
            raise RuntimeError(self.DEAD_ERROR) from None
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
                current = self._primary.call(("telemetry",))
            except _PIPE_ERRORS:
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
            return self._primary.call(("trace",))
        except _PIPE_ERRORS:
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
            # Cold restores are exactly the restart count; promotions
            # never increment it.
            "cold_restores": self._restarts,
        }

    def graceful_close(self) -> None:
        """Clean shutdown: drain the ship link, then write final
        flight records for every live incarnation (primary and
        standby) before the ordinary close."""
        standby = self._standby
        if standby is not None:
            standby.sync(self._close_timeout)
        if not self._dead:
            self._flight("clean_shutdown")
            if standby is not None and standby.alive:
                self._flight(
                    "clean_shutdown_standby", incarnation=standby.incarnation
                )
        self.close()

    def close(self) -> None:
        """Shut the workers down (:meth:`StandbyReplica.close`: a wedged
        worker cannot hang this longer than a few ``close_timeout``\\ s)."""
        if self._standby is not None:
            self._standby.close(timeout=self._close_timeout)
            self._standby = None
        self._dead = True
        self._primary.close(timeout=self._close_timeout)


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
