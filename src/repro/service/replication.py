"""Engine worker handles and warm-standby replication.

Every engine worker process runs behind one handle,
:class:`StandbyReplica`: the first primary, each warm standby and each
cold replacement.  The handle spawns the worker (the
:func:`~repro.service.sharding._shard_worker` body), catches it up
from a recovery recipe, ships it committed ops, syncs its acks, runs
request/reply exchanges on it once it serves, and destroys or closes
it.  The supervisor (:class:`~repro.service.sharding._ProcessShard`)
decides which faults each worker carries and when a handle serves.

Replication makes failover *warm*: a standby is a second worker
holding the same state, kept current by **ship-on-commit** — every op
the primary commits to its journal (accepted admits, successful
releases; the only state-changing ops) is immediately streamed to the
standby over its own pipe.

The accounting is sequence-based and exact:

* ``shipped`` is the absolute committed-op sequence covered by messages
  *sent* to the worker;
* ``applied`` (the **high-water mark**) is the sequence covered by
  messages the worker has *acknowledged* — every shipped batch is
  acked by the worker's normal payload reply, drained opportunistically
  (non-blocking) after each ship and fully (blocking) when the worker
  takes over.  The worker therefore holds exactly
  ``baseline + journal[:applied]`` and is **never ahead of commit**:
  ops are only ever shipped after the primary journaled them.

There is one restore path: a dying primary is replaced by a worker
that syncs its acks, replays only the journal ops past its high-water
mark, re-runs the interrupted batch and becomes the primary.  The warm
standby is offered first; its gap is the ship lag (typically one
batch, more only when a ``drop_journal`` fault severed its link).
When it is missing or unusable, a cold restore spawns a fresh worker
and catches it up from the whole recipe (baseline snapshot plus the
full journal), so its gap is empty.  Either way the new primary's state
is rebuilt from the same byte-exact recipe, so its decisions and
exported state documents are byte-identical to a fault-free run — the
tier-1 fault and replication tests assert it.  Failover cost is bounded
by the ship lag, cold restore cost by the journal length —
``service.shard.0.failover_s`` vs ``recovery_s`` in the benchmarks
makes the difference measurable.

Standby workers run the same telemetry/tracing configuration as
primaries, but their registries are never polled while they are
standbys — only after they take over, where (exactly like a cold
replacement) their counts reflect the replayed journal plus everything
served since.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.model.flow import Flow
from repro.service.faults import FaultSpec
from repro.telemetry import tracing as _tracing
from repro.util.mp import mp_context

__all__ = ["StandbyReplica"]


class StandbyReplica:
    """Handle of one engine worker process: a standby while it is fed
    by the primary's journal, the primary once it takes over.

    Standby traffic is pipelined: catch-up and ship sends never wait,
    and their acks drain opportunistically or at :meth:`sync`.  An
    exchange failure there marks the handle failed rather than raising,
    so a dead standby can never take the serving path down with it.
    Request/reply exchanges (:meth:`call`, :meth:`run_batch`) are only
    made on a synced handle, and raise when the worker dies or wedges:
    the supervisor answers that with a restore.

    ``faults`` are the worker's injected faults, chosen by the
    supervisor; ``op_timeout`` bounds each reply wait of an exchange
    (None = unbounded).
    """

    def __init__(
        self,
        worker_args: tuple,
        *,
        incarnation: int,
        faults: Sequence[FaultSpec] = (),
        op_timeout: float | None = None,
    ):
        # Looked up at spawn time, not import time: the benchmark's
        # traced server replaces ``sharding._shard_worker``.
        from repro.service import sharding

        self.incarnation = incarnation
        self._op_timeout = op_timeout
        #: Absolute committed-op seq covered by acked messages (hwm).
        self.applied = 0
        #: Absolute committed-op seq covered by sent messages.
        self.shipped = 0
        #: True once the ship link is severed or the worker failed.
        self.severed = False
        self._failed = False
        self._closed = False
        #: Absolute seq the worker reaches after acking each
        #: outstanding message (FIFO, strictly increasing).
        self._inflight: deque[int] = deque()
        ctx = mp_context()
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=sharding._shard_worker,
            args=(
                child, *worker_args, _telemetry.enabled(), tuple(faults),
                _tracing.tracing_enabled(), incarnation,
            ),
            daemon=True,
        )
        self.proc.start()
        child.close()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Usable right now (process view)."""
        return (
            not self._failed
            and not self._closed
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
        lazily like any shipped batch.  Called once, on a freshly
        spawned worker."""
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

    def ship(
        self, ops: Sequence[tuple], start_seq: int, drop_at: int | None = None
    ) -> bool:
        """Stream one batch of just-committed ops (``start_seq`` is the
        absolute seq of ``ops[0]``), then opportunistically drain acks.

        ``drop_at`` is an armed ``drop_journal`` point: a batch that
        crosses it is cut there and the link severed.  Returns True when
        this ship did so, so the supervisor can disarm the fault."""
        if self.severed:  # also set when the worker failed
            return False
        ops = list(ops)
        dropped = drop_at is not None and start_seq + len(ops) > drop_at
        if dropped:
            ops = ops[: max(drop_at - start_seq, 0)]
            self.severed = True
        if ops:
            try:
                self.conn.send(("batch", ops))
                self._inflight.append(start_seq + len(ops))
                self.shipped = start_seq + len(ops)
            except (BrokenPipeError, OSError):
                self._fail()
                return dropped
        self.sync(0.0)
        return dropped

    def sync(self, timeout_s: float | None) -> bool:
        """Collect acks until none is in flight; ``timeout_s`` bounds
        each wait (0 = non-blocking poll, None = wait forever).
        Returns True when nothing is left in flight."""
        if self._closed or self._failed:
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

    def _fail(self) -> None:
        self._failed = True
        self.severed = True

    # ------------------------------------------------------------------
    def call(self, msg: tuple) -> Any:
        """Send ``msg`` and return the worker's reply, waiting at most
        ``op_timeout``.  Raises ``BrokenPipeError``, ``EOFError``,
        ``OSError`` or ``TimeoutError`` when the worker is dead or
        wedged."""
        self.conn.send(msg)
        if self._op_timeout is not None and not self.conn.poll(
            self._op_timeout
        ):
            raise TimeoutError(
                f"engine worker reply exceeded {self._op_timeout}s"
            )
        return self.conn.recv()

    def run_batch(
        self,
        ops: Sequence[tuple],
        traces: Sequence[Mapping[str, Any] | None] | None = None,
    ) -> list[dict[str, Any]]:
        """Run ``ops`` on the worker and return their payloads: the one
        batch exchange.  A traced batch carries its ops' trace contexts,
        and its reply the worker's drained spans, which join this
        process's tracer.  Raises like :meth:`call`."""
        if traces is None:
            return self.call(("batch", list(ops)))
        payloads, spans = self.call(("batch", list(ops), list(traces)))
        tr = _tracing.TRACER
        if tr is not None and spans:
            tr.extend(spans)
        return payloads

    # ------------------------------------------------------------------
    def destroy(self, timeout: float = 1.0) -> None:
        """Force the worker down: close the pipe, terminate, kill."""
        if self._closed:
            return
        self._closed = True
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
        """Polite shutdown: let queued ops finish, ask the worker to
        close and wait up to ``timeout`` for it to exit (a worker may
        still write files after its loop returns), then force it down.
        A wedged worker holds this up for a few timeouts at most."""
        if self._closed:
            return
        if not self._failed:
            self.sync(timeout)
            try:
                self.conn.send(("close",))
                if self.conn.poll(timeout):
                    self.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            self.proc.join(timeout=timeout)
        self.destroy(timeout=timeout)
