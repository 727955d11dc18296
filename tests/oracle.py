"""Test oracle: the seed analysis engine, controller and simulator.

Production (``src/repro``) has one path per layer, built for speed:
certified-floor fixed points, the holistic worklist, the per-stage
memo (entries valid while their stage keeps the participants they
were recorded over) and its verified reuse of stored fixed points
under grown inputs, flat per-link demand arrays with fused scalar
kernels, the admission pre-check and warm starts, and the simulator's
precomputed injection with flat accounting.
This module keeps the plain implementations the seed shipped, so the
equivalence suites can compare the two with ``==`` on floats:

* :class:`OracleContext` — per-flow demand objects summed one flow at a
  time (:class:`ScalarInterference`), certificates that certify nothing
  (so :func:`repro.util.fixed_point.iterate_fixed_point` runs plain
  Picard from the seed), and every stage recomputed on every walk (it
  never returns a memo entry, so neither an exact-input hit nor a
  verified reuse can happen);
* :func:`sweep` / :func:`holistic_analysis` — the Sec. 3.5 iteration
  re-analysing every flow every round, converged when a round-start
  snapshot and the table agree within the tolerance;
* :class:`ColdAdmissionController` — re-analyses each tentative set
  from scratch: no utilisation pre-check, no warm start, no caches;
* :class:`ReferenceSimulator` / :func:`simulate` — one scheduled event
  per fragment release and per-delivery updates of record objects, on
  switches whose rotation-mode processors schedule every slot as an
  event and go through the switch's ``task_has_work`` / ``claim_work``
  / ``complete_work`` methods (:class:`ReferenceRotationDriver`).

The oracle shares the equation layer with production (packetization,
the ``LinkDemand`` demand-bound functions, the stage equations and the
Fig. 6 walk); what it replaces are the shortcuts taken around them.
The event-mode processor driver is shared too: its O(1) sleep skips
the probe dispatches a method-path reference would count.
"""

from __future__ import annotations

import itertools
import math
from typing import Mapping, Sequence

from repro.core.admission import AdmissionDecision
from repro.core.context import AnalysisContext, AnalysisOptions
from repro.core.holistic import JITTER_TOLERANCE
from repro.core.packetization import packetize
from repro.core.pipeline import analyze_flow
from repro.core.results import FlowResult, HolisticResult
from repro.model.flow import Flow
from repro.model.network import Network
from repro.sim.release import EagerRelease, SpreadJitterPolicy
from repro.sim.simulator import SimConfig, Simulator
from repro.sim.swnode import ProcessorDriverBase, SimSwitch
from repro.sim.trace import PacketRecord, SimulationTrace
from repro.switch.queues import QueuedFrame


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
class ScalarInterference:
    """``sum_j MX/NX(tau_j, t + extra_j)``, one flow at a time.

    The supports are vacuous, so the stages' certificates never lift
    the solver's seed: every fixed point is plain Picard.
    """

    def __init__(self, demands, shifts: Sequence[float], *, strict: bool):
        self.demands = tuple(demands)
        self.shifts = tuple(float(s) for s in shifts)
        self.strict = strict

    def mx_support(self) -> tuple[float, float]:
        return 0.0, 0.0

    def nx_support(self, circ: float) -> tuple[float, float]:
        return 0.0, 0.0

    def mixed_support(self, circ: float) -> tuple[float, float]:
        return 0.0, 0.0

    def _mx(self, d, t: float) -> float:
        return d.mx(t) if self.strict else d.mx_work(t)

    def mx_sum(self, t: float) -> float:
        return sum(
            self._mx(d, t + e) for d, e in zip(self.demands, self.shifts)
        )

    def nx_sum(self, t: float) -> int:
        return sum(d.nx(t + e) for d, e in zip(self.demands, self.shifts))

    def mixed_sum(self, t: float, circ: float) -> float:
        return sum(
            self._mx(d, t + e) + d.nx(t + e) * circ
            for d, e in zip(self.demands, self.shifts)
        )


class OracleContext(AnalysisContext):
    """The seed engine's context: per-flow sums, no certificates, no
    stage memo."""

    def interference(self, flows_seq, n1, n2, shifts, *, strict=False):
        return ScalarInterference(
            [self.demand(j, n1, n2) for j in flows_seq], shifts, strict=strict
        )

    def stage_memo_get(self, flow_name, resource, participants):
        return None

    def stage_memo_put(
        self, flow_name, resource, participants, inputs, results, fixed_points
    ):
        pass


def max_abs_delta(table: Mapping, before: Mapping) -> float:
    """Largest elementwise change of a jitter table vs a snapshot; an
    entry present on one side only counts as its own magnitude."""
    worst = 0.0
    for key in set(table) | set(before):
        a = table.get(key)
        b = before.get(key)
        if a is None or b is None:
            present = a if a is not None else b
            worst = max(worst, max(abs(x) for x in present))
            continue
        for x, y in zip(a, b):
            if math.isinf(x) and math.isinf(y):
                continue
            worst = max(worst, abs(x - y))
    return worst


def sweep(ctx: AnalysisContext) -> HolisticResult:
    """The plain Sec. 3.5 iteration over ``ctx``: every flow, every
    round, until a round moves no jitter by more than the tolerance."""
    results: dict[str, FlowResult] = {}
    converged = False
    iterations = 0
    for iterations in range(1, ctx.options.holistic_max_iterations + 1):
        before = ctx.jitters.snapshot()
        results = {f.name: analyze_flow(ctx, f) for f in ctx.flows}
        if any(
            math.isinf(frame.response)
            for r in results.values()
            for frame in r.frames
        ):
            # Infinite jitters never recover (the iteration is monotone).
            break
        if max_abs_delta(ctx.jitters.snapshot(), before) <= JITTER_TOLERANCE:
            converged = True
            break
    return HolisticResult(
        flow_results=results, iterations=iterations, converged=converged
    )


def holistic_analysis(
    network: Network,
    flows: Sequence[Flow],
    options: AnalysisOptions | None = None,
) -> HolisticResult:
    """The seed engine's answer for a flow set."""
    return sweep(OracleContext(network, flows, options))


class ColdAdmissionController:
    """Admission by re-analysing every tentative set from scratch."""

    def __init__(
        self, network: Network, options: AnalysisOptions | None = None
    ):
        self.network = network
        self.options = options or AnalysisOptions()
        self._flows: list[Flow] = []
        self.last_analysis: HolisticResult | None = None

    @property
    def admitted_flows(self) -> tuple[Flow, ...]:
        return tuple(self._flows)

    def request(self, flow: Flow) -> AdmissionDecision:
        tentative = [*self._flows, flow]
        analysis = holistic_analysis(self.network, tentative, self.options)
        if not analysis.schedulable:
            return AdmissionDecision(
                accepted=False, reason="unschedulable", analysis=analysis
            )
        self._flows = tentative
        self.last_analysis = analysis
        return AdmissionDecision(
            accepted=True, reason="all deadlines met", analysis=analysis
        )


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------
class ReferenceRotationDriver(ProcessorDriverBase):
    """Pessimistic execution: a fixed rotation anchored at boot.

    Every task's slot recurs with period ``CIRC`` regardless of load;
    a task serves at most one frame per slot, and only frames enqueued
    before the slot starts.  While a processor has no backlog its slots
    are skipped analytically (no events), but the *phase* is preserved,
    so a frame arriving just after its task's slot start waits almost a
    full ``CIRC`` — the worst case the analysis charges per frame.
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
        self._k_complete_slot = engine.register_handler(self._complete_slot)

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
        """Schedule the next slot boundary at or after 'now'."""
        now = self.engine._now
        best_time = None
        best_idx = None
        for idx, off in enumerate(self.offsets):
            # Smallest m with m*period + off >= now (strictly: allow ==).
            m = max(0, -(-(now - off) // self.period)) if self.period > 0 else 0
            t = m * self.period + off
            if t < now - 1e-15:
                t += self.period
            if best_time is None or t < best_time - 1e-15:
                best_time = t
                best_idx = idx
        self.engine.schedule_call(best_time, self._k_slot, best_idx, best_time)

    def _slot(self, idx: int, start: float) -> None:
        task = self.tasks[idx]
        self.dispatches += 1
        if self.switch.task_has_work(task, start):
            self._idle_slots = 0
            frame = self.switch.claim_work(task)
            self._pending -= 1
            self.busy_time += task.cost
            done = start + task.cost
            self.engine.schedule_call(
                done, self._k_complete_slot, frame, (task, idx, start)
            )
        else:
            self._idle_slots += 1
            self._after_slot(idx, start)

    def _complete_slot(self, frame: QueuedFrame, slot: tuple) -> None:
        task, idx, start = slot
        self.switch.complete_work(task, frame)
        self._after_slot(idx, start)

    def _after_slot(self, idx: int, start: float) -> None:
        # Disarm after a full idle rotation with no backlog; phase is
        # recovered analytically on the next wake().
        if self._idle_slots >= len(self.tasks) and not self.switch.has_backlog(
            self.interfaces
        ):
            self._armed = False
            return
        nxt_idx = (idx + 1) % len(self.tasks)
        nxt_start = start + (
            self.offsets[nxt_idx] - self.offsets[idx]
            if nxt_idx > idx
            else self.period - self.offsets[idx] + self.offsets[nxt_idx]
        )
        self.engine.schedule_call(nxt_start, self._k_slot, nxt_idx, nxt_start)


class ReferenceSwitch(SimSwitch):
    """A switch whose rotation-mode processors are the per-slot
    reference driver, with the queue scan it disarms on."""

    driver_classes = {
        **SimSwitch.driver_classes,
        "rotation": ReferenceRotationDriver,
    }

    def has_backlog(self, interfaces: tuple[str, ...]) -> bool:
        """Any pending work on this processor's interfaces?"""
        for itf in interfaces:
            if self.click.rx_fifo[itf]:
                return True
            if self.click.output_queue[itf]:
                return True
        return False


class ReferenceSimulator(Simulator):
    """The seed simulator: per-release scheduling, per-delivery records.

    Reuses the production topology build (on :class:`ReferenceSwitch`
    switches) and replaces the injection and accounting hooks.  Records
    are appended to the trace as releases are scheduled, so the
    production finalisation (which materialises records from the flat
    arrays this class leaves empty) adds nothing.
    """

    switch_class = ReferenceSwitch

    def _make_deliver(self, dst_name: str, from_itf: str):
        if self.network.node(dst_name).is_switch:
            def deliver(frame: QueuedFrame, _unused=None) -> None:
                self._record_hop(dst_name, frame)
                self.switches[dst_name].receive(frame, from_itf)
        else:
            def deliver(frame: QueuedFrame, _unused=None) -> None:
                self._record_hop(dst_name, frame)
                self._on_destination_receive(frame)
        return deliver

    def _finalize_delivers(self) -> None:
        pass  # keep the per-delivery closures above

    def _schedule_releases(self) -> None:
        self._packet_ids = itertools.count()
        self._records: dict[int, PacketRecord] = {}
        self._hop_fragments: dict[tuple[int, str], int] = {}
        for flow in self.flows:
            self._schedule_flow_releases(flow)

    def _schedule_flow_releases(self, flow: Flow) -> None:
        policy = self._release.get(flow.name, EagerRelease())
        jitter_policy = self._jitter.get(flow.name, SpreadJitterPolicy())
        spec = flow.spec
        src = flow.source
        nxt = flow.succ(src)
        port = self.ports[(src, nxt)]
        first_prio = flow.priority_on(src, nxt)

        for arrival, k in policy.arrivals(spec, self.config.duration):
            pkt = packetize(
                spec.payload_bits[k], flow.transport, self.config.packetization
            )
            packet_id = next(self._packet_ids)
            record = PacketRecord(
                packet_id=packet_id,
                flow=flow.name,
                frame=k,
                arrival=arrival,
                n_fragments=pkt.n_eth_frames,
            )
            self._records[packet_id] = record
            self.trace.packets.append(record)

            offsets = jitter_policy.offsets(pkt.n_eth_frames, spec.jitters[k])
            for frag_idx, (bits, off) in enumerate(
                zip(pkt.fragment_wire_bits, offsets)
            ):
                frame = QueuedFrame(
                    flow=flow.name,
                    wire_bits=bits,
                    priority=first_prio,
                    packet_id=packet_id,
                    fragment=frag_idx,
                    n_fragments=pkt.n_eth_frames,
                    enqueued_at=arrival + off,
                )
                self.engine.schedule(arrival + off, port.enqueue, frame)

    def _record_hop(self, node: str, frame: QueuedFrame) -> None:
        """Stamp the node when the packet's last fragment lands there."""
        record = self._records.get(frame.packet_id)
        if record is None:
            return
        key = (frame.packet_id, node)
        count = self._hop_fragments.get(key, 0) + 1
        self._hop_fragments[key] = count
        if count == record.n_fragments:
            record.node_arrivals[node] = self.engine.now
            del self._hop_fragments[key]

    def _on_destination_receive(self, frame: QueuedFrame) -> None:
        record = self._records.get(frame.packet_id)
        if record is None:
            return
        record.fragments_received += 1
        if record.fragments_received == record.n_fragments:
            record.completed = self.engine.now


def simulate(
    network: Network, flows: Sequence[Flow], config: SimConfig
) -> SimulationTrace:
    """One reference run (mirrors :func:`repro.sim.simulator.simulate`)."""
    return ReferenceSimulator(network, flows, config).run()
