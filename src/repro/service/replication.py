"""Warm-standby replication for the worker-backed engine.

Supervised recovery alone is *cold*: a dead worker is respawned and
its state rebuilt from the baseline snapshot plus a full journal
replay, so every crash costs a fresh controller construction, a restore
exchange and up to ``journal_limit`` replayed ops.  This module makes
failover *warm*: a :class:`StandbyReplica` is a second worker process
holding the same state, kept current by **ship-on-commit** — every op
the primary commits to its journal (accepted admits, successful
releases; the only state-changing ops) is immediately streamed to the
standby over its own pipe.

The accounting is sequence-based and exact:

* ``shipped`` is the absolute committed-op sequence covered by messages
  *sent* to the standby;
* ``applied`` (the **high-water mark**) is the sequence covered by
  messages the standby has *acknowledged* — every shipped batch is
  acked by the worker's normal payload reply, drained opportunistically
  (non-blocking) after each ship and fully (blocking) at promotion
  time.  The standby therefore holds exactly
  ``baseline + journal[:applied]`` and is **never ahead of commit**:
  ops are only ever shipped after the primary journaled them.

On primary death the supervisor *promotes* the standby instead of cold
restarting: it drains outstanding acks, replays only the journal ops
past the high-water mark (typically zero — a few only when shipping
was severed), re-runs the interrupted batch, and adopts the standby's
pipe/process as the new primary.  Failover cost is therefore bounded by
the ship lag, not the journal length — ``service.shard.N.failover_s``
vs ``recovery_s`` in the benchmarks makes the difference measurable.
Because the standby state is rebuilt from exactly the same recipe the
cold path uses (snapshot + committed-op journal, both byte-exact),
promoted decisions and exported state documents are byte-identical to
a fault-free run — the tier-1 replication tests assert it.

Standby workers run the same telemetry/tracing configuration as
primaries, but their registries are never polled while they are
standbys — only after promotion, where (exactly like a cold-respawned
worker) their counts reflect the replayed journal plus everything
served since.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro import telemetry as _telemetry
from repro.model.flow import Flow
from repro.service.faults import FaultPlan, FaultSpec
from repro.telemetry import tracing as _tracing
from repro.util.mp import mp_context

__all__ = ["StandbyReplica"]


class StandbyReplica:
    """The engine's warm standby worker, fed by the primary's journal.

    Owns a dedicated worker process (the same
    :func:`~repro.service.sharding._shard_worker` body the primary
    runs) plus the sequence accounting described in the module
    docstring.  All sends are non-blocking from the supervisor's point
    of view — the standby applies shipped ops concurrently with the
    primary serving — and every exchange failure marks the replica
    failed rather than raising, so a dead standby can never take the
    serving path down with it.
    """

    def __init__(
        self,
        worker_args: tuple,
        *,
        shard_id: int,
        incarnation: int,
        generation: int = 0,
        fault_plan: FaultPlan | None = None,
        op_timeout: float | None = None,
    ):
        from repro.service.sharding import _shard_worker

        self.shard_id = shard_id
        self.incarnation = incarnation
        self.generation = generation
        self._op_timeout = op_timeout
        #: Absolute committed-op seq covered by acked messages (hwm).
        self.applied = 0
        #: Absolute committed-op seq covered by sent messages.
        self.shipped = 0
        #: Committed-op seq at which the ship link severs (drop_journal
        #: fault), or None.
        self.drop_at: int | None = None
        #: True once the ship link is severed or the standby failed.
        self.severed = False
        self._failed = False
        self._detached = False
        #: Absolute seq the standby reaches after acking each
        #: outstanding message (FIFO, strictly increasing).
        self._inflight: deque[int] = deque()
        faults: tuple[FaultSpec, ...] = ()
        if fault_plan is not None:
            # kill_standby faults become plain in-worker kills keyed to
            # the *standby's* op counter (restore doesn't count; every
            # shipped/caught-up op does), filtered to this generation.
            # Worker faults aimed at this incarnation join them on the
            # same counter: one whose ``at`` lies past the ops the
            # standby applied before promotion kills it as the promoted
            # primary.
            faults = fault_plan.worker_faults(
                shard=shard_id, incarnation=incarnation
            ) + tuple(
                FaultSpec(kind="kill", at=f.at, shard=shard_id)
                for f in fault_plan.standby_faults(
                    shard=shard_id, generation=generation
                )
            )
            self.drop_at = fault_plan.drop_journal_at(shard_id)
        ctx = mp_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_shard_worker,
            args=(
                child, *worker_args, shard_id,
                _telemetry.enabled(), faults,
                _tracing.tracing_enabled(), incarnation,
            ),
            daemon=True,
        )
        self.proc.start()
        child.close()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Usable as a promotion target right now (process view)."""
        return (
            not self._failed
            and not self._detached
            and self.proc.is_alive()
        )

    # ------------------------------------------------------------------
    def catch_up(
        self,
        baseline: tuple[tuple[Flow, ...], dict] | None,
        journal: Sequence[tuple],
        base_seq: int,
    ) -> None:
        """Send the full recovery recipe (non-blocking): restore the
        baseline (committed ops ``[0, base_seq)``), then replay the
        journal (``[base_seq, base_seq + len(journal))``).  Acks drain
        lazily like any shipped batch.  Called exactly once, on a
        freshly spawned replica."""
        try:
            if baseline is not None:
                self.conn.send(("restore", baseline[0], baseline[1]))
                self._inflight.append(base_seq)
            if journal:
                self.conn.send(("batch", list(journal)))
                self._inflight.append(base_seq + len(journal))
            self.shipped = base_seq + len(journal)
            if not self._inflight:
                # Nothing to transfer: current as of base_seq already.
                self.applied = base_seq
        except (BrokenPipeError, OSError):
            self._fail()

    def ship(self, ops: Sequence[tuple], start_seq: int) -> None:
        """Stream one batch of just-committed ops (``start_seq`` is the
        absolute seq of ``ops[0]``), honouring a ``drop_journal`` point
        mid-batch, then opportunistically drain acks."""
        if self._failed or self._detached or self.severed:
            return
        ops = list(ops)
        if self.drop_at is not None and start_seq + len(ops) > self.drop_at:
            ops = ops[: max(self.drop_at - start_seq, 0)]
            self.severed = True
        if ops:
            try:
                self.conn.send(("batch", ops))
                self._inflight.append(start_seq + len(ops))
                self.shipped = start_seq + len(ops)
            except (BrokenPipeError, OSError):
                self._fail()
                return
        self.drain()

    def drain(self, timeout_s: float | None = 0.0) -> bool:
        """Collect available acks; ``timeout_s`` bounds each wait
        (0 = non-blocking poll, None = wait forever).  Returns True
        when nothing is left in flight."""
        if self._detached or self._failed:
            return not self._inflight
        while self._inflight:
            try:
                if timeout_s is not None and not self.conn.poll(timeout_s):
                    return False
                self.conn.recv()
            except (EOFError, OSError):
                self._fail()
                return False
            self.applied = self._inflight.popleft()
        return True

    def sync(self, timeout_s: float | None = None) -> bool:
        """Block until every in-flight message is acked (the promotion
        barrier); per-message waits bounded by ``timeout_s`` falling
        back to the shard's ``op_timeout``."""
        return self.drain(
            timeout_s if timeout_s is not None else self._op_timeout
        )

    # ------------------------------------------------------------------
    def detach(self) -> tuple[Any, Any]:
        """Hand the worker over for promotion: the caller now owns the
        pipe and process; this replica will never touch them again."""
        self._detached = True
        return self.conn, self.proc

    def _fail(self) -> None:
        self._failed = True
        self.severed = True

    def destroy(self, timeout: float = 1.0) -> None:
        """Force the standby down (dead primary cleanup / injected
        promotion kill)."""
        if self._detached:
            return
        self._detached = True
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=timeout)
        if self.proc.is_alive():  # pragma: no cover - stubborn worker
            self.proc.kill()
            self.proc.join(timeout=timeout)

    def close(self, timeout: float = 5.0) -> None:
        """Polite shutdown: stop shipping, let queued ops finish, then
        close — escalating like the primary's ``close()``."""
        if self._detached:
            return
        if not self._failed:
            self.drain(timeout_s=timeout)
            try:
                self.conn.send(("close",))
                if self.conn.poll(timeout):
                    self.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        self.destroy(timeout=timeout)
