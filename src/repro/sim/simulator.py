"""Top-level simulator: build a network of simulated components and run.

:func:`simulate` wires together, from the same :class:`~repro.model`
objects the analysis consumes:

* one :class:`~repro.sim.host.OutputPort` per (source node, first link)
  pair, fed by each flow's release policy;
* one :class:`~repro.sim.swnode.SimSwitch` per switch node, with a
  :class:`~repro.sim.nic.LinkTransmitter` per outgoing interface;
* destination sinks recording per-packet completion.

Per-flow forwarding uses the flow's pre-specified route and per-link
802.1p priorities — exactly the information the paper's operator
provisions into the switches.

Performance
-----------
* traffic injection is precomputed — one packetization per distinct
  ``(payload_bits, transport)`` class, one jitter-offset vector per
  ``(fragment count, jitter)`` class, and all ``(arrival, offset,
  wire_bits)`` release triples of a flow assembled with numpy — then
  loaded into the engine via ``schedule_many`` as one sorted release
  stream, of which only the next release waits in the event heap (not
  one push per fragment, and no far-future releases under every
  dynamic push and pop);
* per-hop and completion accounting runs on flat per-packet counter
  arrays and int-keyed counters instead of per-packet record objects
  and tuple-keyed dicts; :class:`~repro.sim.trace.PacketRecord` objects
  are materialised once, at trace finalisation.

Both are checked to be **bit-identical** to the seed simulator — the
per-packet reference kept in ``tests/oracle.py``, which schedules one
release at a time and updates record objects per delivery — in
``tests/test_sim_equivalence.py``: same release instants (the numpy
arithmetic performs the identical IEEE-754 operations), same event
order (identical schedule order, hence identical sequence numbers, and
``(time, sequence)`` is a total order whichever queue a release waits
in), same trace records.  Injection evaluates each jitter policy
once per frame class instead of once per arrival, so jitter policies
must be pure functions of ``(n_fragments, jitter)``; both built-ins
are.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro import telemetry as _telemetry

from repro.core.packetization import DEFAULT_CONFIG, PacketizationConfig, packetize
from repro.model.flow import Flow, check_unique_names
from repro.model.network import Network
from repro.model.routing import validate_route
from repro.sim.engine import EventEngine
from repro.sim.host import OutputPort
from repro.sim.nic import LinkTransmitter
from repro.sim.release import (
    EagerRelease,
    JitterPolicy,
    ReleasePolicy,
    SpreadJitterPolicy,
)
from repro.sim.swnode import SimSwitch
from repro.sim.trace import PacketRecord, SimulationTrace
from repro.switch.click import ClickSwitch
from repro.switch.queues import QueuedFrame, make_frame

#: SimConfig fields baked into a built topology; :meth:`Simulator.rebind`
#: requires them unchanged (everything else — duration, drain_factor —
#: only shapes releases and the horizon and may vary per run).
TOPOLOGY_CONFIG_FIELDS = (
    "switch_mode",
    "idle_cost",
    "source_discipline",
    "packetization",
    "nic_fifo_capacity",
    "priority_levels",
)


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    Attributes
    ----------
    duration:
        Horizon in seconds; frames arriving up to the horizon are
        released, and the run continues until in-flight packets drain
        (bounded by ``drain_factor * duration``).
    switch_mode:
        ``"event"`` (efficient) or ``"rotation"`` (pessimistic, fixed
        ``CIRC`` rotation) — see :mod:`repro.sim.swnode`.
    idle_cost:
        Cost of a no-work task dispatch in event mode (0 = free).
    source_discipline:
        ``"fifo"`` or ``"priority"`` output queues at sources.
    packetization:
        Wire model; must match the analysis options when validating.
    drain_factor:
        Extra time (fraction of ``duration``) allowed for draining.
    nic_fifo_capacity:
        Capacity of every switch NIC FIFO in Ethernet frames; ``None``
        (default) models the analysis' no-loss assumption.  A finite
        value enables overflow/failure-injection experiments — dropped
        fragments leave their UDP packet permanently incomplete.
    priority_levels:
        Number of 802.1p levels enforced by switch output queues
        (commercial switches support 2-8); ``None`` = unlimited.
    """

    duration: float = 1.0
    switch_mode: str = "event"
    idle_cost: float = 0.0
    source_discipline: str = "fifo"
    packetization: PacketizationConfig = DEFAULT_CONFIG
    drain_factor: float = 0.5
    nic_fifo_capacity: int | None = None
    priority_levels: int | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.drain_factor < 0:
            raise ValueError("drain_factor must be >= 0")


def _make_switch_deliver(engine, hits, counts, n_nodes, node_idx, push, driver):
    """Fully inlined delivery into a switch: hop accounting
    plus the receive (stamp, rx push, pending, wake) with every target
    prebound — the handler-table entry behind one link's deliveries."""

    def deliver(frame, _unused=None):
        nf = frame.n_fragments
        pid = frame.packet_id
        now = engine._now
        if nf == 1:
            hits.append((pid, node_idx, now))
        else:
            key = pid * n_nodes + node_idx
            count = counts.get(key, 0) + 1
            if count == nf:
                del counts[key]
                hits.append((pid, node_idx, now))
            else:
                counts[key] = count
        # A delivered frame is uniquely owned (its only other reference
        # was the just-popped event record), so the arrival stamp can
        # mutate in place instead of cloning.
        frame.__dict__["enqueued_at"] = now
        if push(frame) is not False:
            driver._pending += 1
        if not driver._running:
            driver.wake()

    return deliver


class Simulator:
    """Builds and runs one simulation instance.

    The topology build (switch structures, transmitters, dispatch
    tables) is reusable: :meth:`rebind` swaps in a new flow set and/or
    timing configuration and resets all dynamic state, so sweeps over
    one network pay construction once (see the campaign's batched
    simulate action).
    """

    #: Class of the simulated switches the topology build creates.
    switch_class = SimSwitch

    def __init__(
        self,
        network: Network,
        flows: Sequence[Flow],
        config: SimConfig | None = None,
        *,
        release_policies: Mapping[str, ReleasePolicy] | None = None,
        jitter_policies: Mapping[str, JitterPolicy] | None = None,
    ):
        check_unique_names(flows)
        for f in flows:
            validate_route(network, f.route)
        self.network = network
        self.flows = tuple(flows)
        self.config = config or SimConfig()
        self._built_config = self.config
        self.engine = EventEngine()
        self._release = dict(release_policies or {})
        self._jitter = dict(jitter_policies or {})

        self._build_topology()
        self._bind_flows()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_topology(self) -> None:
        net = self.network
        cfg = self.config

        # Stable node indexing for the int-keyed hop accounting.  The
        # flat accounting containers live as long as the topology
        # (cleared in place per run) because the delivery closures
        # below bind them directly.
        self._node_names = [n.name for n in net.nodes()]
        self._node_index = {name: i for i, name in enumerate(self._node_names)}
        self._n_nodes = len(self._node_names)
        self._p_recv: list[int] = []
        self._p_completed: list[float | None] = []
        self._p_hits: list[tuple[int, int, float]] = []
        self._hop_counts: dict[int, int] = {}
        # Switch-target delivery kinds to patch once their SimSwitch
        # exists (transmitters are built before the switch they feed).
        # Patched entries stay valid across rebinds (all their bindings
        # are reset in place), so _finalize_delivers only processes the
        # tail beyond this watermark.
        self._deliver_fixups: list[tuple[int, str, str]] = []
        self._fixups_patched = 0

        self.switches: dict[str, SimSwitch] = {}
        switch_nodes = [n for n in net.nodes() if n.is_switch]

        # Build ClickSwitch structures.  Interfaces of a switch = all
        # distinct neighbours (either direction) — answered by the
        # network's incrementally-maintained adjacency maps instead of
        # a per-switch rescan of every link (O(nodes*links) in total).
        clicks: dict[str, ClickSwitch] = {}
        for node in switch_nodes:
            clicks[node.name] = ClickSwitch(
                node.name,
                net.interfaces_of(node.name),
                node.switch,
                priority_levels=cfg.priority_levels,
                nic_fifo_capacity=cfg.nic_fifo_capacity,
            )

        # Per-switch forwarding tables, refilled in place by
        # :meth:`_fill_route_tables` so the route closures below stay
        # valid across rebinds.
        self._route_tables: dict[str, dict[str, tuple[str, int]]] = {
            name: {} for name in clicks
        }

        def make_route_fn(sw_name: str, table: dict):
            def route_fn(frame: QueuedFrame) -> tuple[str, int]:
                try:
                    return table[frame.flow]
                except KeyError:
                    raise KeyError(
                        f"switch {sw_name!r}: no forwarding entry for "
                        f"flow {frame.flow!r}"
                    ) from None

            return route_fn

        for node in switch_nodes:
            click = clicks[node.name]
            transmitters: dict[str, LinkTransmitter] = {}
            for itf in click.interfaces:
                if not net.has_link(node.name, itf):
                    continue  # receive-only interface
                link = net.link(node.name, itf)
                deliver, deliver_kind = self._register_deliver(itf, node.name)
                transmitters[itf] = LinkTransmitter(
                    self.engine,
                    speed_bps=link.speed_bps,
                    prop_delay=link.prop_delay,
                    pull=(
                        lambda d=click.tx_fifo[itf]._items: (
                            d.popleft() if d else None
                        )
                    ),
                    deliver=deliver,
                    deliver_kind=deliver_kind,
                )
            # Receive-only interfaces still need queue structures (they
            # exist in ClickSwitch); SimSwitch requires a transmitter per
            # interface, so give dead interfaces a null transmitter.
            for itf in click.interfaces:
                if itf not in transmitters:
                    transmitters[itf] = LinkTransmitter(
                        self.engine,
                        speed_bps=1.0,
                        prop_delay=0.0,
                        pull=lambda: None,
                        deliver=lambda frame: None,
                    )

            sw = self.switch_class(
                self.engine,
                click,
                route_fn=make_route_fn(node.name, self._route_tables[node.name]),
                transmitters=transmitters,
                mode=cfg.switch_mode,
                idle_cost=cfg.idle_cost,
            )
            self.switches[node.name] = sw
            # A drained transmission wakes the egress task that refills
            # the link (the driver owning the interface).
            for itf in click.interfaces:
                if net.has_link(node.name, itf):
                    sw.transmitters[itf].on_idle = sw._driver_of[itf].wake

        self.ports: dict[tuple[str, str], OutputPort] = {}

    def _register_deliver(self, dst_name: str, from_itf: str):
        """Create + register the delivery hook for one directed link.

        Switch-target hooks are recorded for :meth:`_finalize_delivers`,
        which patches in the fully inlined handler once the receiving
        :class:`SimSwitch` exists.
        """
        deliver = self._make_deliver(dst_name, from_itf)
        kind = self.engine.register_handler(deliver)
        if self.network.node(dst_name).is_switch:
            self._deliver_fixups.append((kind, dst_name, from_itf))
        return deliver, kind

    def _finalize_delivers(self) -> None:
        """Patch switch-target delivery handlers with inlined closures
        binding the receiving switch's rx push and driver directly.

        Only the not-yet-patched tail is processed: rebinds that add no
        new ports re-patch nothing."""
        engine = self.engine
        pending, self._fixups_patched = (
            self._deliver_fixups[self._fixups_patched :],
            len(self._deliver_fixups),
        )
        for kind, dst_name, from_itf in pending:
            push, driver = self.switches[dst_name]._rx_of[from_itf]
            engine.replace_handler(
                kind,
                _make_switch_deliver(
                    engine,
                    self._p_hits,
                    self._hop_counts,
                    self._n_nodes,
                    self._node_index[dst_name],
                    push,
                    driver,
                ),
            )

    def _make_deliver(self, dst_name: str, from_itf: str):
        """Delivery hook for the link ``from_itf -> dst_name``.

        The destination's kind is resolved once (the network is
        immutable for the simulator's lifetime).  A destination host
        counts fragments straight into the flat accounting arrays; a
        switch gets a placeholder that :meth:`_finalize_delivers`
        replaces.
        """
        if self.network.node(dst_name).is_switch:
            # Placeholder only: _finalize_delivers swaps in the real
            # (inlined) _make_switch_deliver closure before any event
            # can fire — the receiving SimSwitch does not exist yet
            # here.  Failing loudly beats silently dropping hop records
            # if that ordering ever breaks.
            def deliver(frame: QueuedFrame, _unused=None) -> None:
                raise RuntimeError(
                    f"delivery into {dst_name!r} before "
                    "_finalize_delivers patched the handler"
                )

            return deliver

        engine = self.engine
        hits = self._p_hits
        node_idx = self._node_index[dst_name]
        recv = self._p_recv
        completed = self._p_completed

        def deliver(frame: QueuedFrame, _unused=None) -> None:
            # At the destination the per-hop fragment count and the
            # completion count coincide, so one counter serves both.
            pid = frame.packet_id
            count = recv[pid] + 1
            recv[pid] = count
            if count == frame.n_fragments:
                now = engine._now
                completed[pid] = now
                hits.append((pid, node_idx, now))

        return deliver

    def _fill_route_tables(self) -> None:
        """(Re)build per-switch ``flow -> (out interface, priority)``
        — in place, so the route closures keep their bindings."""
        for table in self._route_tables.values():
            table.clear()
        for flow in self.flows:
            for sw in flow.intermediate_switches():
                nxt = flow.succ(sw)
                self._route_tables[sw][flow.name] = (
                    nxt,
                    flow.priority_on(sw, nxt),
                )

    def _bind_flows(self) -> None:
        """Flow-dependent state: forwarding, ports, records, releases."""
        net = self.network
        cfg = self.config

        self._fill_route_tables()

        # Source output ports, one per (source node, first link);
        # existing ports (rebind) are reused as-is — they were reset.
        for flow in self.flows:
            src = flow.source
            nxt = flow.succ(src)
            key = (src, nxt)
            if key in self.ports:
                continue
            link = net.link(src, nxt)
            deliver, deliver_kind = self._register_deliver(nxt, src)
            self.ports[key] = OutputPort(
                self.engine,
                speed_bps=link.speed_bps,
                prop_delay=link.prop_delay,
                deliver=deliver,
                discipline=cfg.source_discipline,
                deliver_kind=deliver_kind,
            )

        # Fresh trace / accounting state.  The containers bound by the
        # delivery closures are cleared in place, not replaced.
        self.trace = SimulationTrace(duration=cfg.duration)
        self._finalized = False
        self._p_flow: list[str] = []
        self._p_frame: list[int] = []
        self._p_arrival: list[float] = []
        self._p_nfrag: list[int] = []
        self._p_recv.clear()
        self._p_completed.clear()
        self._p_hits.clear()
        self._hop_counts.clear()

        self._finalize_delivers()
        self._schedule_releases()

    # ------------------------------------------------------------------
    # Topology reuse
    # ------------------------------------------------------------------
    def rebind(
        self,
        flows: Sequence[Flow] | None = None,
        config: SimConfig | None = None,
        *,
        release_policies: Mapping[str, ReleasePolicy] | None = None,
        jitter_policies: Mapping[str, JitterPolicy] | None = None,
    ) -> "Simulator":
        """Reuse the built topology for a fresh run.

        Swaps in new flows and/or a new config (``duration`` /
        ``drain_factor`` may differ; topology-baked fields —
        :data:`TOPOLOGY_CONFIG_FIELDS` — must match the built config),
        resets every piece of dynamic state (engine clock/queue, switch
        queues, scheduler passes, driver rotations, transmitters,
        ports, trace) and re-schedules releases.  The subsequent
        :meth:`run` is bit-identical to a freshly constructed
        ``Simulator(network, flows, config)`` — asserted by
        ``tests/test_sim_equivalence.py``.
        """
        cfg = config or self.config
        for name in TOPOLOGY_CONFIG_FIELDS:
            if getattr(cfg, name) != getattr(self._built_config, name):
                raise ValueError(
                    f"rebind: config field {name!r} is baked into the "
                    f"built topology ({getattr(self._built_config, name)!r}"
                    f" -> {getattr(cfg, name)!r}); build a new Simulator"
                )
        new_flows = self.flows if flows is None else tuple(flows)
        check_unique_names(new_flows)
        for f in new_flows:
            validate_route(self.network, f.route)

        self.flows = new_flows
        self.config = cfg
        if release_policies is not None:
            self._release = dict(release_policies)
        if jitter_policies is not None:
            self._jitter = dict(jitter_policies)

        self.engine.reset()
        for sw in self.switches.values():
            sw.reset()
            for tx in sw.transmitters.values():
                tx.reset()
        for port in self.ports.values():
            port.reset()

        self._bind_flows()
        return self

    # ------------------------------------------------------------------
    # Traffic injection
    # ------------------------------------------------------------------
    def _schedule_releases(self) -> None:
        """Precompute every release and load the engine's release stream.

        Packetization runs once per distinct ``(payload_bits,
        transport)`` class, jitter offsets once per ``(fragment count,
        jitter)`` class, and the flow's ``(arrival + offset)`` release
        instants come from one numpy broadcast per flow (identical
        IEEE-754 additions to a per-release ``arrival + offset`` loop,
        hence bit-equal).  The assembled records are loaded as the
        engine's release stream in one ``schedule_many`` call, once per
        run (the engine is fresh or reset); their order — flow by flow,
        arrival by arrival, fragment by fragment — is the order such a
        loop would schedule them in, so sequence numbers (and therefore
        simultaneous-event pop order) are identical.
        """
        cfg = self.config
        duration = cfg.duration
        pkt_cache: dict[tuple, object] = {}
        off_cache: dict[tuple, np.ndarray] = {}
        events: list[tuple] = []
        append = events.append
        p_flow = self._p_flow
        p_frame = self._p_frame
        p_arrival = self._p_arrival
        p_nfrag = self._p_nfrag
        p_recv = self._p_recv
        p_completed = self._p_completed
        pid = len(p_arrival)

        for flow in self.flows:
            policy = self._release.get(flow.name, EagerRelease())
            jitter_policy = self._jitter.get(flow.name, SpreadJitterPolicy())
            spec = flow.spec
            src = flow.source
            nxt = flow.succ(src)
            kind = self.ports[(src, nxt)].enqueue_kind
            first_prio = flow.priority_on(src, nxt)
            fname = flow.name

            # One packetization + offset vector per frame class.
            pkts = []
            offs = []
            for k in range(spec.n_frames):
                key = (spec.payload_bits[k], flow.transport)
                pkt = pkt_cache.get(key)
                if pkt is None:
                    pkt = packetize(
                        spec.payload_bits[k], flow.transport, cfg.packetization
                    )
                    pkt_cache[key] = pkt
                pkts.append(pkt)
                # One offset vector per (policy, fragment count,
                # jitter) class; unhashable custom policies simply
                # skip the cache.
                okey: tuple | None
                okey = (jitter_policy, pkt.n_eth_frames, spec.jitters[k])
                try:
                    off = off_cache.get(okey)
                except TypeError:
                    okey = None
                    off = None
                if off is None:
                    off = np.asarray(
                        jitter_policy.offsets(
                            pkt.n_eth_frames, spec.jitters[k]
                        ),
                        dtype=np.float64,
                    )
                    if okey is not None:
                        off_cache[okey] = off
                offs.append(off)

            arrivals = list(policy.arrivals(spec, duration))
            if not arrivals:
                continue
            arr = np.array([a for a, _ in arrivals], dtype=np.float64)
            ks = [k for _, k in arrivals]
            nfrags = np.fromiter(
                (pkts[k].n_eth_frames for k in ks), dtype=np.intp, count=len(ks)
            )
            # All (arrival, offset) release triples of the flow at once.
            times = (
                np.repeat(arr, nfrags) + np.concatenate([offs[k] for k in ks])
            ).tolist()

            idx = 0
            for (arrival, k) in arrivals:
                pkt = pkts[k]
                wire = pkt.fragment_wire_bits
                nf = pkt.n_eth_frames
                p_flow.append(fname)
                p_frame.append(k)
                p_arrival.append(arrival)
                p_nfrag.append(nf)
                p_recv.append(0)
                p_completed.append(None)
                for frag_idx in range(nf):
                    t = times[idx]
                    idx += 1
                    append(
                        (
                            t,
                            kind,
                            make_frame(
                                fname,
                                wire[frag_idx],
                                first_prio,
                                pid,
                                frag_idx,
                                nf,
                                t,
                            ),
                            None,
                        )
                    )
                pid += 1

        self.engine.schedule_many(events)

    # ------------------------------------------------------------------
    # Completion: the per-fragment accounting is inlined into the
    # delivery closures (see _make_deliver); records are deferred.
    # ------------------------------------------------------------------
    def _finalize_trace(self) -> None:
        """Materialise :class:`PacketRecord` objects from the flat
        arrays, in packet-id order (release-scheduling order)."""
        records = [
            PacketRecord(
                packet_id=pid,
                flow=self._p_flow[pid],
                frame=self._p_frame[pid],
                arrival=self._p_arrival[pid],
                n_fragments=self._p_nfrag[pid],
                fragments_received=self._p_recv[pid],
                completed=self._p_completed[pid],
            )
            for pid in range(len(self._p_arrival))
        ]
        names = self._node_names
        for pid, node_idx, t in self._p_hits:
            records[pid].node_arrivals[names[node_idx]] = t
        self.trace.packets.extend(records)
        self._finalized = True

    # ------------------------------------------------------------------
    def run(self) -> SimulationTrace:
        """Release traffic, drain, and return the trace."""
        horizon = self.config.duration * (1.0 + self.config.drain_factor)
        reg = _telemetry.REGISTRY
        if reg is None:
            self.engine.run(until=horizon)
        else:
            before = self.engine.events_processed
            start = time.perf_counter()
            self.engine.run(until=horizon)
            reg.observe("sim.run_s", time.perf_counter() - start)
            reg.add("sim.runs")
            reg.add("sim.events", self.engine.events_processed - before)
        if not self._finalized:
            self._finalize_trace()
        self.trace.events_processed = self.engine.events_processed
        return self.trace


def simulate(
    network: Network,
    flows: Sequence[Flow],
    *,
    duration: float = 1.0,
    config: SimConfig | None = None,
    release_policies: Mapping[str, ReleasePolicy] | None = None,
    jitter_policies: Mapping[str, JitterPolicy] | None = None,
) -> SimulationTrace:
    """One-call convenience wrapper around :class:`Simulator`.

    ``config`` overrides ``duration`` when both are given.
    """
    cfg = config or SimConfig(duration=duration)
    sim = Simulator(
        network,
        flows,
        cfg,
        release_policies=release_policies,
        jitter_policies=jitter_policies,
    )
    return sim.run()
