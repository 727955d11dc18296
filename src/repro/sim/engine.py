"""Deterministic discrete-event engine.

A binary heap of **flat event records** ``(time, seq, kind, a, b)``;
the sequence number makes simultaneous events fire in scheduling order,
so runs are exactly reproducible — a property the validation
experiments rely on.

``kind`` is an integer index into a per-engine **handler table**
(:meth:`EventEngine.register_handler`); the dispatch loop resolves it to
a fixed two-operand callable ``handler(a, b)``.  Hot callers —
transmitters, switch drivers, source ports — register their bound
methods once at construction and schedule ``(kind, operand, operand)``
triples through :meth:`schedule_call`, paying neither a closure nor an
argument-tuple allocation per event.  Kind ``0`` is the generic
callback handler backing the classic ``schedule(when, fn, *args)`` API,
which remains fully supported.  (A recycled-list record pool was
measured and rejected: CPython allocates small tuples from a free list,
and tuple comparison beats list comparison in every heap sift.)

:meth:`schedule_many` loads a prebuilt release list as a **release
stream**: the records, numbered in iteration order, are sorted once by
``(time, sequence)`` and only the stream's head sits in the heap, under
the engine's own stream kind.  Popping the head seats the next record
and then dispatches the release through its own kind, so the heap holds
the dynamic events (those scheduled while the run goes) plus at most
one release, and each push and pop sifts through a heap that size
instead of one holding every far-future release.  Pop order is
unchanged: records compare on their ``(time, sequence)`` prefix
(sequence numbers are unique, so the comparison never reaches the
payload slots), a sorted stream's head is the smallest of its records,
so ``heap[0]`` is still the global next event, and each release is one
pop and one processed event as before.  The dispatch loop batches all
pops sharing a timestamp under a single horizon check.  Traces are
bit-identical to the seed engine, which pushes every release.

While :meth:`EventEngine.run` is dispatching, the engine exposes the
loop's horizon as ``_until`` (``-inf`` outside ``run`` and under a
``max_events`` budget).  A handler that knows its follow-up event is
strictly earlier than every pending one and within that horizon may run
it in place instead of pushing and popping it (the rotation driver's
idle slots, :mod:`repro.sim.swnode`): it advances ``_now`` and adds one
to ``_events_processed`` per such event, so ``events_processed`` still
counts it.  ``sim.heap_peak`` can read lower, because those events never
enter the heap; it reads the dynamic heap plus the one seated stream
record, never the stream's tail.  ``sim.bulk_schedule`` observes the
number of records each load brings.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable

from repro import telemetry as _telemetry


def _dispatch_generic(callback: Callable[..., None], args: tuple) -> None:
    """Kind 0: the classic ``schedule(when, fn, *args)`` payload."""
    callback(*args)


class EventEngine:
    """Minimal but strict event queue.

    >>> eng = EventEngine()
    >>> hits = []
    >>> eng.schedule(1.0, hits.append, "a")
    >>> eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    >>> hits
    ['b', 'a']
    """

    def __init__(self) -> None:
        # Flat records (time, seq, kind, a, b).
        self._heap: list[tuple] = []
        self._handlers: list[Callable[[Any, Any], None]] = [_dispatch_generic]
        # The release stream: records still to dispatch, latest first,
        # so the head is the last item.  The head is seated in the heap
        # under _k_stream while the stream is not empty.
        self._stream: list[tuple] = []
        self._k_stream = self.register_handler(self._dispatch_stream)
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0
        # Horizon of the running dispatch loop (see the module docstring).
        self._until = -math.inf

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    # ------------------------------------------------------------------
    # Handler table
    # ------------------------------------------------------------------
    def register_handler(self, handler: Callable[[Any, Any], None]) -> int:
        """Add ``handler(a, b)`` to the dispatch table; returns its kind.

        Handlers take exactly two positional operands (pad unused slots
        with defaults).  Registration is construction-time work — hot
        components register their bound methods once and schedule
        int-coded records ever after.
        """
        self._handlers.append(handler)
        return len(self._handlers) - 1

    def replace_handler(
        self, kind: int, handler: Callable[[Any, Any], None]
    ) -> None:
        """Swap the handler behind an existing kind code.

        Lets builders register a kind before its final target exists
        (forward references during topology construction) and patch in
        the specialised handler afterwards; already-scheduled records
        dispatch through the new handler.  The engine's own kinds (the
        generic callback and the release stream) cannot be swapped.
        """
        if not self._k_stream < kind < len(self._handlers):
            raise IndexError(f"unknown handler kind {kind}")
        self._handlers[kind] = handler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Scheduling in the past (beyond float tolerance) is a programming
        error and raises immediately rather than corrupting causality.
        """
        if math.isnan(when) or math.isinf(when):
            raise ValueError(f"cannot schedule at t={when!r}")
        self.schedule_call(when, 0, callback, args)

    def schedule_in(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.schedule(self._now + delay, callback, *args)

    def schedule_call(
        self, when: float, kind: int, a: Any = None, b: Any = None
    ) -> None:
        """Hot path: schedule handler-table event ``kind`` with operands.

        Skips the NaN/inf validation of :meth:`schedule` (internal
        callers compute finite times from finite inputs) but keeps the
        causality guard.
        """
        now = self._now
        if when <= now:
            if when < now - 1e-12:
                raise ValueError(
                    f"causality violation: scheduling at {when!r} "
                    f"but now is {now!r}"
                )
            when = now
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (when, seq, kind, a, b))

    def schedule_call_in(
        self, delay: float, kind: int, a: Any = None, b: Any = None
    ) -> None:
        """:meth:`schedule_call` relative to now (no negative check)."""
        self.schedule_call(self._now + delay, kind, a, b)

    def schedule_many(self, events) -> None:
        """Load ``(when, kind, a, b)`` tuples as the release stream.

        Sequence numbers are assigned in iteration order, exactly as N
        :meth:`schedule_call` calls would assign them; the records are
        then sorted once by ``(time, sequence)`` and only the head is
        seated in the heap (see the module docstring for why the pop
        order is that of N pushes).  One load per run: loading while an
        earlier stream still holds records raises, and :meth:`reset`
        drops the stream.
        """
        if self._stream:
            raise RuntimeError(
                f"schedule_many: the release stream still holds "
                f"{len(self._stream)} records; reset() before loading again"
            )
        now = self._now
        seq = self._seq
        stream = []
        for when, kind, a, b in events:
            if when <= now:
                if when < now - 1e-12:
                    raise ValueError(
                        f"cannot bulk-schedule at t={when!r} (now {now!r})"
                    )
                when = now
            elif when != when or math.isinf(when):  # NaN-safe
                raise ValueError(f"cannot bulk-schedule at t={when!r}")
            stream.append((when, seq, kind, a, b))
            seq += 1
        self._seq = seq
        if stream:
            stream.sort(reverse=True)
            self._stream = stream
            self._seat_head()
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.observe("sim.bulk_schedule", len(stream))

    def _seat_head(self) -> None:
        """Push the stream head's ``(time, sequence)`` under the stream
        kind."""
        head = self._stream[-1]
        heappush(self._heap, (head[0], head[1], self._k_stream, None, None))

    def _dispatch_stream(self, _a: Any = None, _b: Any = None) -> None:
        """Stream kind: dispatch the head release through its own kind.

        The next head is seated first, so the release's handler sees
        the heap it would see with every release pushed (the rotation
        driver's in-place test reads ``heap[0]``).  The dispatched
        record leaves the stream here, as a heap pop frees it.
        """
        stream = self._stream
        rec = stream.pop()
        if stream:
            self._seat_head()
        self._handlers[rec[2]](rec[3], rec[4])

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: int | None = None) -> None:
        """Process events in time order until the queue empties, the
        horizon ``until`` is reached, or ``max_events`` fire."""
        heap = self._heap
        pop = heappop
        handlers = self._handlers
        processed = 0
        # Read the registry once per run; the disabled dispatch loops
        # below stay free of any telemetry test (the heap-peak probe
        # costs one compare per timestamp batch, which only the enabled
        # copies pay).
        reg = _telemetry.REGISTRY
        peak = len(heap) if reg is not None else 0
        # A budget must count every event on the heap path, so budgeted
        # runs expose no horizon to in-place handlers.
        self._until = until if max_events is None else -math.inf
        try:
            if max_events is None and reg is None:
                # Unbudgeted loop (the standard full run): no per-event
                # budget compares.
                while heap:
                    when = heap[0][0]
                    if when > until:
                        break
                    self._now = when
                    # Drain the whole run of events at this timestamp
                    # (the common case: fragment bursts, simultaneous
                    # slot boundaries) without re-checking the horizon.
                    # Events a callback schedules *at* `when` join the
                    # same drain, in sequence order — exactly where the
                    # per-event loop would have popped them.
                    while True:
                        rec = pop(heap)
                        processed += 1
                        handlers[rec[2]](rec[3], rec[4])
                        if not heap or heap[0][0] != when:
                            break
            elif max_events is None:
                # Instrumented copy of the unbudgeted loop: identical
                # dispatch semantics plus the per-batch heap-peak probe.
                while heap:
                    when = heap[0][0]
                    if when > until:
                        break
                    if len(heap) > peak:
                        peak = len(heap)
                    self._now = when
                    while True:
                        rec = pop(heap)
                        processed += 1
                        handlers[rec[2]](rec[3], rec[4])
                        if not heap or heap[0][0] != when:
                            break
            else:
                budget = max_events
                while heap and processed < budget:
                    when = heap[0][0]
                    if when > until:
                        break
                    if reg is not None and len(heap) > peak:
                        peak = len(heap)
                    self._now = when
                    while processed < budget:
                        rec = pop(heap)
                        processed += 1
                        handlers[rec[2]](rec[3], rec[4])
                        if not heap or heap[0][0] != when:
                            break
        finally:
            self._until = -math.inf
            self._events_processed += processed
            if reg is not None and processed:
                reg.observe("sim.heap_peak", peak)
        # Value comparison, not `is`: a computed float('inf') is a
        # different object from math.inf, and identity would wrongly
        # advance the clock to infinity on an empty queue.
        if until != math.inf and until > self._now and not self._heap:
            self._now = until

    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of events still queued: the heap's dynamic events
        plus every release the stream has not dispatched (its seated
        head counted once)."""
        stream = len(self._stream)
        return len(self._heap) + (stream - 1 if stream else 0)

    def reset(self) -> None:
        """Clear queue, release stream, clock and counters for a fresh
        run.

        Registered handlers survive — components built around this
        engine keep their kind codes, which is what lets
        :meth:`repro.sim.simulator.Simulator.rebind` reuse a built
        topology across runs.
        """
        self._heap.clear()
        self._stream.clear()
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0
