"""Simulation dynamics of a software Ethernet switch.

Wraps the structural :class:`~repro.switch.click.ClickSwitch` with
event-driven behaviour.  Two processor-driver models are provided; both
are legal executions of the paper's system, so the analysis bound must
dominate either (experiment E4 checks both):

* :class:`EventDriver` (``mode="event"``) — tasks with no work complete
  (almost) instantly; after a full rotation finds no work the processor
  sleeps until new work arrives.  This is the *efficient* execution: a
  realistic Click system under light load.
* :class:`RotationDriver` (``mode="rotation"``) — every task always
  consumes its full ``CROUTE``/``CSEND`` budget, so the rotation has a
  fixed period ``CIRC(N)`` anchored at boot, and an Ethernet frame that
  *just* missed its task's slot waits nearly a full ``CIRC``.  This is
  the *pessimistic* execution the analysis' ``CIRC`` terms model.

Task semantics (Fig. 5): an ingress task moves one frame from its NIC
receive FIFO to the classified output priority queue (cost ``CROUTE``);
an egress task moves the highest-priority frame from its output queue to
the NIC transmit FIFO, but only when that FIFO is empty (cost
``CSEND``).  Work is claimed at dispatch time and its downstream effect
applies at completion (tasks are non-preemptive).

Implementation note: both drivers dispatch over a prebuilt per-task
probe table binding each task's queue containers directly, probing them
inline instead of through ``task_has_work``; the probe order,
predicates and claims are exactly those of the method-based path (which
remains in use for weighted-stride configurations), so traces are
unchanged.  The rotation driver additionally runs a slot in place
instead of scheduling it when the slot is the engine's next event (see
:class:`RotationDriver`).  ``tests/oracle.py`` keeps a per-slot
rotation driver that schedules every slot as an event, and
``tests/test_sim_equivalence.py`` checks the two against each other bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop
from typing import Callable, Mapping

from repro.sim.engine import EventEngine
from repro.sim.nic import LinkTransmitter
from repro.switch.click import ClickSwitch, SwitchTask, TaskKind
from repro.switch.queues import QueuedFrame

#: Maps a frame to its (outgoing interface, outgoing priority).
RouteFn = Callable[[QueuedFrame], tuple[str, int]]


class SimSwitch:
    """One simulated switch: queues + processors + egress transmitters."""

    #: Processor driver class per switch mode (filled in below the
    #: driver classes).
    driver_classes: dict[str, type["ProcessorDriverBase"]] = {}

    def __init__(
        self,
        engine: EventEngine,
        click: ClickSwitch,
        *,
        route_fn: RouteFn,
        transmitters: Mapping[str, LinkTransmitter],
        mode: str = "event",
        idle_cost: float = 0.0,
    ):
        if mode not in self.driver_classes:
            raise ValueError(f"unknown switch mode {mode!r}")
        missing = set(click.interfaces) - set(transmitters)
        if missing:
            raise ValueError(f"switch {click.name!r}: no transmitter for {missing}")
        self.engine = engine
        self.click = click
        self.route_fn = route_fn
        self.transmitters = dict(transmitters)
        self.frames_forwarded = 0

        driver_cls = self.driver_classes[mode]
        self.drivers: list[ProcessorDriverBase] = []
        per_proc = click.n_interfaces // click.config.n_processors
        for p in range(click.config.n_processors):
            interfaces = click.interfaces[p * per_proc : (p + 1) * per_proc]
            self.drivers.append(
                driver_cls(
                    engine,
                    self,
                    interfaces,
                    idle_cost=idle_cost,
                    scheduler=click.schedulers[p],
                )
            )
        self._driver_of = {
            itf: self.drivers[click.processor_of[itf]] for itf in click.interfaces
        }
        # Prebound per-interface hot paths (one dict lookup instead of
        # two or three).  When the rx FIFO is unbounded its push cannot
        # drop, so the deque's append is bound directly.
        self._rx_of = {
            itf: (
                click.rx_fifo[itf]._items.append
                if click.rx_fifo[itf].capacity is None
                else click.rx_fifo[itf].push,
                self._driver_of[itf],
            )
            for itf in click.interfaces
        }
        self._out_of = {
            itf: (click.output_queue[itf].push, self._driver_of[itf])
            for itf in click.interfaces
        }
        self._tx_of = {
            itf: (click.tx_fifo[itf], self.transmitters[itf])
            for itf in click.interfaces
        }
        # Drivers build their probe tables and register their per-task
        # completion handlers once the switch's lookup tables above
        # exist.
        for driver in self.drivers:
            finish = getattr(driver, "bind_completions", None)
            if finish is not None:
                finish()

    # ------------------------------------------------------------------
    # External events
    # ------------------------------------------------------------------
    def receive(self, frame: QueuedFrame, from_interface: str) -> None:
        """An Ethernet frame fully arrived on a NIC (after the wire)."""
        push, driver = self._rx_of[from_interface]
        # deque.append returns None, FifoQueue.push returns False on a
        # drop — only frames actually queued count as pending work.
        if push(frame.with_enqueue_time(self.engine._now)) is not False:
            driver._pending += 1
        if not driver._running:
            driver.wake()

    def on_tx_idle(self, interface: str) -> None:
        """The NIC transmit path drained; the egress task may refill."""
        self._driver_of[interface].wake()

    def notify_output_enqueued(self, interface: str) -> None:
        """External hook: a frame entered ``output_queue[interface]``.

        Keeps the pending-work count (the event driver's O(1) sleep
        test) in step with the queue — callers who push to an output
        queue directly must use this, not a bare ``wake``.
        """
        driver = self._driver_of[interface]
        driver._pending += 1
        driver.wake()

    # ------------------------------------------------------------------
    # Task work predicates and actions (the method path: weighted-stride
    # dispatch and timed idle rotations)
    # ------------------------------------------------------------------
    def task_has_work(self, task: SwitchTask, at: float) -> bool:
        if task.kind is TaskKind.INGRESS:
            head = self.click.rx_fifo[task.interface].peek()
            return head is not None and head.enqueued_at <= at
        head = self.click.output_queue[task.interface].peek()
        return (
            head is not None
            and head.enqueued_at <= at
            and len(self.click.tx_fifo[task.interface]) == 0
        )

    def claim_work(self, task: SwitchTask) -> QueuedFrame:
        """Dequeue the frame the task will process (dispatch time)."""
        if task.kind is TaskKind.INGRESS:
            return self.click.rx_fifo[task.interface].pop()
        return self.click.output_queue[task.interface].pop()

    def complete_work(self, task: SwitchTask, frame: QueuedFrame) -> None:
        """Apply the task's effect (completion time)."""
        now = self.engine._now
        if task.kind is TaskKind.INGRESS:
            out_itf, priority = self.route_fn(frame)
            try:
                out_queue = self.click.output_queue[out_itf]
            except KeyError:
                raise KeyError(
                    f"switch {self.click.name!r}: routed to unknown "
                    f"interface {out_itf!r}"
                ) from None
            out_queue.push(frame.reclassified(priority, now))
            driver = self._driver_of[out_itf]
            driver._pending += 1
            if not driver._running:
                driver.wake()
        else:
            fifo, tx = self._tx_of[task.interface]
            self.frames_forwarded += 1
            # No re-stamp on the NIC handoff: the tx copy's enqueue
            # time is never read (egress claims gate on the FIFO being
            # *empty*, and the receiver re-stamps on arrival).
            if tx.busy:
                fifo.push(frame)
            else:
                # The egress task only claims against an empty tx FIFO
                # and nothing else fills it, so an idle transmitter's
                # kick would pull this very frame straight back out —
                # skip the FIFO round-trip.
                tx._transmit(frame)

    def pull_tx(self, interface: str) -> QueuedFrame | None:
        """Transmitter pull hook: next frame of the NIC transmit FIFO."""
        fifo = self.click.tx_fifo[interface]
        return fifo.pop() if fifo else None

    def reset(self) -> None:
        """Drain all state for a fresh run on the same topology."""
        self.click.reset()
        self.frames_forwarded = 0
        for driver in self.drivers:
            driver.reset()


class ProcessorDriverBase:
    """Common state of a processor driver."""

    def __init__(
        self,
        engine: EventEngine,
        switch: SimSwitch,
        interfaces: tuple[str, ...],
        *,
        idle_cost: float,
        scheduler=None,
    ):
        if idle_cost < 0:
            raise ValueError("idle_cost must be >= 0")
        self.engine = engine
        self.switch = switch
        self.interfaces = tuple(interfaces)
        self.idle_cost = idle_cost
        self.scheduler = scheduler
        # Task rotation in Click's insertion order: per interface, the
        # ingress task then the egress task.
        self.tasks: list[SwitchTask] = []
        for task in switch.click.tasks:
            if task.interface in self.interfaces:
                self.tasks.append(task)
        self.dispatches = 0
        self.busy_time = 0.0
        # Unclaimed frames in this processor's rx FIFOs and output
        # queues, maintained by SimSwitch.receive / complete_work and
        # the claim sites.  ``_pending == 0`` proves no task has work
        # (claimability additionally needs an empty tx FIFO, so the
        # converse does not hold) — the event driver uses it to sleep
        # in O(1) instead of probing a provably empty rotation, the
        # rotation driver as its no-backlog disarm test.
        self._pending = 0

    #: Class-level default so callers can guard ``wake()`` with a plain
    #: attribute read on any driver type; only the event driver ever
    #: sets it per instance (the rotation driver gates on ``_armed``
    #: inside ``wake`` and keeps this False, so the guard degrades to
    #: always calling ``wake`` — the original behaviour).
    _running = False

    def wake(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class EventDriver(ProcessorDriverBase):
    """Efficient execution: idle tasks cost ``idle_cost`` (default 0).

    The processor sleeps after one full rotation without work; any
    enqueue wakes it.  With ``idle_cost == 0`` the rotation through idle
    tasks is instantaneous, so a newly arrived frame is served after at
    most the busy tasks ahead of it — strictly better than the
    ``CIRC``-paced worst case.
    """

    def __init__(self, engine, switch, interfaces, *, idle_cost: float, scheduler=None):
        super().__init__(
            engine, switch, interfaces, idle_cost=idle_cost, scheduler=scheduler
        )
        self._running = False
        self._rotation = 0  # index into self.tasks (round-robin path)
        self._misses = 0
        # Weighted stride allocations must follow the actual scheduler's
        # dispatch order; round-robin uses the equivalent cheap rotation.
        self._use_stride = scheduler is not None and not scheduler.is_round_robin()
        # O(1) sleep is sound only when idle probes neither cost
        # simulated time (idle_cost > 0) nor advance scheduler passes
        # (weighted stride).
        self._can_fast_sleep = not self._use_stride and idle_cost == 0.0
        self._complete_work = switch.complete_work
        self._k_step = engine.register_handler(self._step)
        self._k_complete = engine.register_handler(self._complete)
        # Per-task probe table for the inlined rotation, built by
        # :meth:`bind_completions` once the owning switch's lookup
        # tables exist (SimSwitch calls it at the end of its own
        # construction; drivers never run before that).
        self._probe: list[tuple] = []

    def bind_completions(self) -> None:
        """Build the probe table with a dedicated completion handler
        per task.

        Each row binds the task's queue containers directly — ingress
        probes the rx FIFO's deque; egress probes the output queue's
        heap and the tx FIFO's deque — plus the engine kind of a
        completion closure with the task's effect targets prebound
        (route + classify into an output queue for ingress; NIC handoff
        for egress), so a completed task never goes through the generic
        ``complete_work`` dispatch.  The containers are mutated in
        place for the simulator's lifetime (see ``queues.clear``), so
        the bindings stay valid across topology-reusing resets.
        """
        engine = self.engine
        switch = self.switch
        click = switch.click
        self._probe = []
        for task in self.tasks:
            itf = task.interface
            if task.kind is TaskKind.INGRESS:
                kind = engine.register_handler(
                    self._make_ingress_complete(switch)
                )
                self._probe.append(
                    (task, True, click.rx_fifo[itf]._items, None, task.cost, kind)
                )
            else:
                kind = engine.register_handler(
                    self._make_egress_complete(switch, itf)
                )
                self._probe.append(
                    (
                        task,
                        False,
                        click.output_queue[itf]._heap,
                        click.tx_fifo[itf]._items,
                        task.cost,
                        kind,
                    )
                )

    def _make_ingress_complete(self, switch: SimSwitch):
        route_fn = switch.route_fn
        out_of = switch._out_of
        engine = self.engine

        def complete(frame: QueuedFrame, _unused=None) -> None:
            out_itf, priority = route_fn(frame)
            try:
                out_push, out_driver = out_of[out_itf]
            except KeyError:
                raise KeyError(
                    f"switch {switch.click.name!r}: routed to unknown "
                    f"interface {out_itf!r}"
                ) from None
            # The claimed frame is uniquely owned (it left its rx FIFO
            # at claim time), so classification mutates it in place
            # instead of cloning — the generic complete_work keeps the
            # cloning semantics for externally supplied frames.
            d = frame.__dict__
            d["priority"] = priority
            d["enqueued_at"] = engine._now
            out_push(frame)
            out_driver._pending += 1
            if not out_driver._running:
                out_driver.wake()
            self._misses = 0
            if self._pending == 0 and self._can_fast_sleep:
                self._running = False
                return
            self._step()

        return complete

    def _make_egress_complete(self, switch: SimSwitch, itf: str):
        fifo, tx = switch._tx_of[itf]

        def complete(frame: QueuedFrame, _unused=None) -> None:
            switch.frames_forwarded += 1
            # See complete_work: no re-stamp (the tx copy's enqueue
            # time is never read), and an idle transmitter skips the
            # FIFO round-trip its kick would immediately undo.
            if tx.busy:
                fifo.push(frame)
            else:
                tx._transmit(frame)
            self._misses = 0
            if self._pending == 0 and self._can_fast_sleep:
                self._running = False
                return
            self._step()

        return complete

    def _next_task(self) -> SwitchTask:
        if self._use_stride:
            return self.scheduler.dispatch().payload
        task = self.tasks[self._rotation]
        self._rotation = (self._rotation + 1) % len(self.tasks)
        return task

    def wake(self) -> None:
        if self._running:
            return
        self._running = True
        self._misses = 0
        self._step()

    def reset(self) -> None:
        self._running = False
        self._rotation = 0
        self._misses = 0
        self.dispatches = 0
        self.busy_time = 0.0
        self._pending = 0

    def _step(self, _a=None, _b=None) -> None:
        """Dispatch tasks until work is found or a full rotation idles."""
        if self._pending == 0 and self._can_fast_sleep:
            # Nothing claimable anywhere on this processor, and a free
            # rotation neither schedules events nor moves the rotation
            # index (n probes mod n) — sleep in O(1).  (With a timed
            # rotation the probes cost simulated time, so they must
            # run; with weighted stride they advance scheduler passes,
            # so _step_stride never short-circuits.)
            self._running = False
            return
        if self._use_stride:
            return self._step_stride()
        engine = self.engine
        now = engine._now
        probe = self._probe
        n = len(probe)
        rotation = self._rotation
        misses = self._misses
        idle_cost = self.idle_cost
        dispatches = self.dispatches
        while True:
            if misses >= n:
                # One full rotation without work.  With idle_cost 0
                # the rotation is instantaneous — no event fired and
                # the clock did not move between probes, so a
                # re-check would find exactly what the probes found;
                # sleep directly.  A timed rotation (idle_cost > 0)
                # may have been overtaken by work for a task already
                # passed, so re-check before sleeping.
                if idle_cost == 0.0 or not any(
                    self.switch.task_has_work(t, now) for t in self.tasks
                ):
                    self._running = False
                    break
                misses = 0
            task, is_ingress, a, b, cost, k_complete = probe[rotation]
            rotation += 1
            if rotation == n:
                rotation = 0
            dispatches += 1
            if is_ingress:
                # rx FIFO head arrived?
                has = a and a[0].enqueued_at <= now
            else:
                # output-queue head arrived and tx FIFO empty?
                has = a and a[0][2].enqueued_at <= now and not b
            if has:
                misses = 0
                frame = a.popleft() if is_ingress else heappop(a)[2]
                self._pending -= 1
                self.busy_time += cost
                engine.schedule_call(now + cost, k_complete, frame)
                break
            misses += 1
            if idle_cost > 0.0:
                engine.schedule_call(now + idle_cost, self._k_step)
                break
        self._rotation = rotation
        self._misses = misses
        self.dispatches = dispatches

    def _step_stride(self) -> None:
        """Weighted-stride dispatch (the scheduler owns the order)."""
        engine = self.engine
        while True:
            if self._misses >= len(self.tasks):
                if any(
                    self.switch.task_has_work(t, engine._now)
                    for t in self.tasks
                ):
                    self._misses = 0
                else:
                    self._running = False
                    return
            task = self.scheduler.dispatch().payload
            self.dispatches += 1
            if self.switch.task_has_work(task, engine._now):
                self._misses = 0
                frame = self.switch.claim_work(task)
                self._pending -= 1
                self.busy_time += task.cost
                engine.schedule_call(
                    engine._now + task.cost, self._k_complete, task, frame
                )
                return
            self._misses += 1
            if self.idle_cost > 0.0:
                engine.schedule_call(engine._now + self.idle_cost, self._k_step)
                return

    def _complete(self, task: SwitchTask, frame: QueuedFrame) -> None:
        self._complete_work(task, frame)
        self._misses = 0
        if self._pending == 0 and self._can_fast_sleep:
            self._running = False
            return
        self._step()


class RotationDriver(ProcessorDriverBase):
    """Pessimistic execution: a fixed rotation anchored at boot.

    Every task's slot recurs with period ``CIRC`` regardless of load;
    a task serves at most one frame per slot, and only frames enqueued
    before the slot starts.  While a processor has no backlog its slots
    are skipped analytically (no events), but the *phase* is preserved,
    so a frame arriving just after its task's slot start waits almost a
    full ``CIRC`` — the worst case the analysis charges per frame.

    Slots dispatch over a per-task probe table (see
    :meth:`bind_completions`).  When the slot after an idle slot or a
    completion is strictly earlier than every pending event and within
    the running loop's horizon, it is exactly the event the engine
    would pop next, so the driver runs it in place instead of pushing
    and popping it; a chain of idle slots (a task waiting behind a busy
    transmitter, or the idle rotation before the processor disarms)
    then costs no heap traffic at all.  Each slot run in place still
    counts one event in ``events_processed`` and one ``dispatches``;
    ``sim.heap_peak`` can read lower, because those slots never enter
    the heap.
    """

    def __init__(self, engine, switch, interfaces, *, idle_cost: float, scheduler=None):
        super().__init__(
            engine, switch, interfaces, idle_cost=idle_cost, scheduler=scheduler
        )
        if scheduler is not None and not scheduler.is_round_robin():
            raise ValueError(
                "rotation (pessimistic) mode models the paper's "
                "round-robin configuration; weighted stride tickets "
                "require switch_mode='event'"
            )
        self.offsets: list[float] = []
        acc = 0.0
        for task in self.tasks:
            self.offsets.append(acc)
            acc += task.cost
        self.period = acc  # == CIRC of this processor's partition
        if self.period <= 0.0:
            raise ValueError(
                "rotation mode needs positive task costs (the fixed "
                "rotation has period CIRC = sum of costs); use "
                "switch_mode='event' for zero-cost switches"
            )
        self._armed = False
        self._idle_slots = 0
        self._k_slot = engine.register_handler(self._slot)
        # Built by bind_completions once the switch's tables exist.
        self._probe: list[tuple] = []

    def bind_completions(self) -> None:
        """Build the probe table, one row per task:

        ``(is_ingress, a, b, cost, complete_kind, next_idx, delta)`` —
        the task's queue containers as in the event driver's table, its
        cost, the engine kind of its completion handler, the next
        task's index, and the distance from this slot's start to the
        next one's (the offset difference, wrapping at the period:
        computed once, with the exact expressions a per-slot driver
        evaluates).  Each completion handler has the task's effect
        targets and its ``next_idx`` and ``delta`` bound in.
        """
        engine = self.engine
        switch = self.switch
        click = switch.click
        offsets = self.offsets
        n = len(self.tasks)
        self._probe = []
        for idx, task in enumerate(self.tasks):
            itf = task.interface
            nxt = (idx + 1) % n
            delta = (
                offsets[nxt] - offsets[idx]
                if nxt > idx
                else self.period - offsets[idx] + offsets[nxt]
            )
            if task.kind is TaskKind.INGRESS:
                kind = engine.register_handler(
                    self._make_ingress_complete(switch, nxt, delta)
                )
                row = (True, click.rx_fifo[itf]._items, None)
            else:
                kind = engine.register_handler(
                    self._make_egress_complete(switch, itf, nxt, delta)
                )
                row = (
                    False,
                    click.output_queue[itf]._heap,
                    click.tx_fifo[itf]._items,
                )
            self._probe.append((*row, task.cost, kind, nxt, delta))

    def _make_ingress_complete(self, switch: SimSwitch, nxt: int, delta: float):
        route_fn = switch.route_fn
        out_of = switch._out_of
        engine = self.engine
        resume = self._resume

        def complete(frame: QueuedFrame, start: float) -> None:
            out_itf, priority = route_fn(frame)
            try:
                out_push, out_driver = out_of[out_itf]
            except KeyError:
                raise KeyError(
                    f"switch {switch.click.name!r}: routed to unknown "
                    f"interface {out_itf!r}"
                ) from None
            # Classified in place, as in the event driver: the claimed
            # frame is uniquely owned.
            d = frame.__dict__
            d["priority"] = priority
            d["enqueued_at"] = engine._now
            out_push(frame)
            out_driver._pending += 1
            if not out_driver._running:
                out_driver.wake()
            resume(nxt, start + delta)

        return complete

    def _make_egress_complete(
        self, switch: SimSwitch, itf: str, nxt: int, delta: float
    ):
        fifo, tx = switch._tx_of[itf]
        resume = self._resume

        def complete(frame: QueuedFrame, start: float) -> None:
            switch.frames_forwarded += 1
            # See SimSwitch.complete_work.
            if tx.busy:
                fifo.push(frame)
            else:
                tx._transmit(frame)
            resume(nxt, start + delta)

        return complete

    # ------------------------------------------------------------------
    def wake(self) -> None:
        if self._armed:
            return
        self._armed = True
        self._idle_slots = 0
        self._arm_next_slot()

    def reset(self) -> None:
        self._armed = False
        self._idle_slots = 0
        self.dispatches = 0
        self.busy_time = 0.0
        self._pending = 0

    def _arm_next_slot(self) -> None:
        """Schedule the next slot boundary at or after 'now'.

        Computes the reference driver's per-offset floats without its
        ``max`` call and period test: the period is positive by
        construction, so for ``x > 0`` the ceiling is at least 1, and
        otherwise the reference's ``0`` gives the boundary ``0.0`` gives.
        """
        now = self.engine._now
        period = self.period
        best_time = math.inf
        best_idx = 0
        for idx, off in enumerate(self.offsets):
            # Smallest m with m*period + off >= now (strictly: allow ==).
            x = now - off
            m = -(-x // period) if x > 0 else 0.0
            t = m * period + off
            if t < now - 1e-15:
                t += period
            if t < best_time - 1e-15:
                best_time = t
                best_idx = idx
        self.engine.schedule_call(best_time, self._k_slot, best_idx, best_time)

    def _resume(self, idx: int, start: float) -> None:
        """After a completion: run slot ``idx`` at ``start`` in place if
        it is the engine's next event, else schedule it.

        (No disarm test: the slot that just completed claimed a frame,
        so the idle-slot count is 0.)
        """
        engine = self.engine
        heap = engine._heap
        if engine._now <= start <= engine._until and (
            not heap or start < heap[0][0]
        ):
            engine._now = start
            engine._events_processed += 1
            self._slot(idx, start)
        else:
            engine.schedule_call(start, self._k_slot, idx, start)

    def _slot(self, idx: int, start: float) -> None:
        """Run slot ``idx`` at ``start``, then every following idle slot
        that is the engine's next event, in place.

        A slot at ``start`` is the next event iff its record ``(start,
        seq)`` would sort first: ``start`` is strictly earlier than the
        heap head (a fresh record's sequence number loses every tie),
        not earlier than the clock (``schedule_call`` would clamp it
        there), and within the running loop's horizon.
        """
        engine = self.engine
        heap = engine._heap
        until = engine._until
        probe = self._probe
        n = len(probe)
        dispatches = self.dispatches
        idle = self._idle_slots
        while True:
            is_ingress, a, b, cost, k_complete, nxt, delta = probe[idx]
            dispatches += 1
            if is_ingress:
                # rx FIFO head arrived by the slot start?
                has = a and a[0].enqueued_at <= start
            else:
                # output-queue head arrived and tx FIFO empty?
                has = a and a[0][2].enqueued_at <= start and not b
            if has:
                idle = 0
                frame = a.popleft() if is_ingress else heappop(a)[2]
                self._pending -= 1
                self.busy_time += cost
                engine.schedule_call(start + cost, k_complete, frame, start)
                break
            idle += 1
            if idle >= n and self._pending == 0:
                # A full idle rotation with no backlog: disarm; the
                # phase is recovered analytically on the next wake().
                self._armed = False
                break
            idx = nxt
            start += delta
            if engine._now <= start <= until and (
                not heap or start < heap[0][0]
            ):
                engine._now = start
                engine._events_processed += 1
                continue
            engine.schedule_call(start, self._k_slot, idx, start)
            break
        self.dispatches = dispatches
        self._idle_slots = idle


SimSwitch.driver_classes = {"event": EventDriver, "rotation": RotationDriver}
