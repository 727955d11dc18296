"""Simulation equivalence: production must not move a single bit.

The production simulator layers three optimisations over the seed
simulator kept in ``tests/oracle.py`` — vectorised release
precomputation loaded through the engine's ``schedule_many`` as a
release stream (only its next release waits in the event heap, where
the oracle pushes every release), flat per-packet completion/hop
counters with trace records materialised at finalisation, and (via the
campaign) topology reuse through :meth:`Simulator.rebind`.  All three
are exactness-preserving by construction: the release instants come
from the identical IEEE-754 operations, the schedule order (hence every
``(time, sequence)`` tie-break) is unchanged, the stream's head is its
earliest release, so the heap's head is still the next event, and a
rebound topology is reset to its freshly-built state.

These tests are the executable form of that claim, mirroring
``test_engine_equivalence.py`` for the analysis engine: across **every
registered scenario family**, both switch modes, and finite NIC FIFOs
(loss!), the production trace and per-switch processor statistics must
be bit-identical (``==`` on floats, no tolerance) to the oracle's
per-packet reference run; a rebound simulator — production or oracle —
must reproduce a fresh build; and the campaign's batched simulate
action must return byte-identical payloads to the plain one.  (The
``fast_backend`` in test names is the production simulator.)

In rotation mode the oracle also has its own processor driver, which
schedules every slot as an event: production's probe-table driver, which
runs a slot in place when it is the engine's next event, is checked
against it, including where that in-place chain must stop (horizons,
event budgets, cross-processor enqueues, drops, zero-length slots), and
so is its recovery of the rotation phase on a wake.
"""

import hashlib
import json
import math
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracle
from repro.scenario.campaign import (
    CampaignRunner,
    action_simulate,
    action_simulate_batched,
)
from repro.scenario.registry import REGISTRY, build_scenario, scenario_grid
from repro.model.network import SwitchConfig
from repro.sim.simulator import SimConfig, Simulator
from repro.sim.stats import collect_stats
from repro.sim.swnode import RotationDriver
from repro.util.units import mbps
from repro.workloads.generator import random_flow_set
from repro.workloads.topologies import line_network

#: Scenario families are exercised at a reduced duration so the full
#: (family x mode) sweep stays test-suite friendly; the traces still
#: cover thousands of events each.
TEST_DURATION = 0.25


def record_tuple(p):
    """Every field of a PacketRecord, exactly."""
    return (
        p.packet_id,
        p.flow,
        p.frame,
        p.arrival,
        p.n_fragments,
        p.fragments_received,
        p.completed,
        tuple(p.node_arrivals.items()),  # values AND insertion order
    )


def assert_traces_bit_identical(a, b):
    assert a.duration == b.duration
    assert a.events_processed == b.events_processed
    assert len(a.packets) == len(b.packets)
    for pa, pb in zip(a.packets, b.packets):
        assert record_tuple(pa) == record_tuple(pb)


def trace_hash(trace) -> str:
    """Canonical digest of a trace (the CI smoke compares these)."""
    doc = {
        "duration": trace.duration,
        "events": trace.events_processed,
        "packets": [
            [
                p.packet_id,
                p.flow,
                p.frame,
                p.arrival.hex(),
                p.n_fragments,
                p.fragments_received,
                None if p.completed is None else p.completed.hex(),
                [[n, t.hex()] for n, t in p.node_arrivals.items()],
            ]
            for p in trace.packets
        ],
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def switch_stats(sim):
    """The processor counters of every switch after a run."""
    return [
        (s.name, s.dispatches, s.busy_time, s.frames_forwarded,
         s.frames_dropped)
        for s in collect_stats(sim).switches
    ]


def scenario_for(family: str):
    scenario = build_scenario(family)
    return replace(
        scenario, sim=replace(scenario.sim, duration=TEST_DURATION)
    )


def run_pair(network, flows, cfg):
    """Production and oracle traces of the same run, after checking
    that their per-switch statistics agree."""
    fast = Simulator(network, flows, cfg)
    ref = oracle.ReferenceSimulator(network, flows, cfg)
    fast_trace, ref_trace = fast.run(), ref.run()
    assert switch_stats(fast) == switch_stats(ref)
    return fast_trace, ref_trace


# ----------------------------------------------------------------------
# Production vs oracle across every registered family and both modes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(REGISTRY.names()))
@pytest.mark.parametrize("mode", ["event", "rotation"])
def test_fast_backend_bit_identical_per_family(family, mode):
    scenario = scenario_for(family)
    if not scenario.flows:
        pytest.skip(f"{family} carries only a churn workload")
    cfg = replace(scenario.sim, switch_mode=mode)
    fast, ref = run_pair(scenario.network, scenario.flows, cfg)
    assert fast.events_processed > 0
    assert_traces_bit_identical(fast, ref)


def test_fast_backend_bit_identical_finite_fifo_overload():
    """Loss regime: capacity-1 NIC FIFOs at total utilisation 3.0 drop
    fragments in both backends at exactly the same points.  The links
    run at 1 Gbit/s: at 100 Mbit/s no seed from 0 to 39 overflows a
    FIFO in event mode, and the incomplete packets are cut by the drain
    horizon instead."""
    net = line_network(2, hosts_per_switch=2, speed_bps=mbps(1000))
    flows = random_flow_set(net, n_flows=6, total_utilization=3.0, seed=5)
    cfg = SimConfig(duration=0.2, nic_fifo_capacity=1)
    fast_sim = Simulator(net, flows, cfg)
    ref_sim = oracle.ReferenceSimulator(net, flows, cfg)
    fast, ref = fast_sim.run(), ref_sim.run()
    assert switch_stats(fast_sim) == switch_stats(ref_sim)
    assert_traces_bit_identical(fast, ref)
    # The scenario must actually exercise loss to be meaningful.
    assert collect_stats(fast_sim).total_drops > 0
    assert fast.count_incomplete() > 0


def test_fast_backend_bit_identical_priority_sources():
    net = line_network(2, hosts_per_switch=2, speed_bps=mbps(100))
    flows = random_flow_set(net, n_flows=5, total_utilization=0.6, seed=9)
    cfg = SimConfig(duration=0.2, source_discipline="priority")
    fast, ref = run_pair(net, flows, cfg)
    assert_traces_bit_identical(fast, ref)


@pytest.mark.parametrize("mode", ["event", "rotation"])
def test_fast_backend_smoke_hashes(mode):
    """One scenario per family, production vs oracle trace hash — the
    CI sim-equivalence smoke step runs exactly this test."""
    for family in sorted(REGISTRY.names()):
        scenario = scenario_for(family)
        if not scenario.flows:
            continue
        cfg = replace(scenario.sim, switch_mode=mode)
        fast, ref = run_pair(scenario.network, scenario.flows, cfg)
        assert trace_hash(fast) == trace_hash(ref), family


# ----------------------------------------------------------------------
# Rotation mode: the in-place slot chain stops exactly where the heap
# would
# ----------------------------------------------------------------------
def _line_flows(n_flows=5, utilization=0.6, seed=9, **net_kwargs):
    net = line_network(2, speed_bps=mbps(100), **net_kwargs)
    return net, random_flow_set(
        net, n_flows=n_flows, total_utilization=utilization, seed=seed
    )


def _assert_rotation_matches_oracle(net, flows, cfg, drive=None):
    """Run production (optionally driven by ``drive(sim)`` before the
    final ``run()``) against one plain oracle run; compare trace hashes
    and per-switch statistics.  Returns both simulators."""
    cfg = replace(cfg, switch_mode="rotation")
    fast = Simulator(net, flows, cfg)
    ref = oracle.ReferenceSimulator(net, flows, cfg)
    if drive is not None:
        drive(fast)
    assert trace_hash(fast.run()) == trace_hash(ref.run())
    assert switch_stats(fast) == switch_stats(ref)
    return fast, ref


def test_rotation_in_place_slots_skip_the_heap():
    """The in-place path actually runs: same events, fewer pushes."""
    net, flows = _line_flows(hosts_per_switch=2)
    fast, ref = _assert_rotation_matches_oracle(
        net, flows, SimConfig(duration=0.2)
    )
    assert fast.engine.events_processed == ref.engine.events_processed
    assert fast.engine._seq < ref.engine._seq


def test_rotation_split_run_matches_one_run():
    """A run cut at arbitrary horizons resumes exactly: no in-place
    slot runs past the horizon it was dispatched under."""
    net, flows = _line_flows(hosts_per_switch=2)

    def split(sim):
        for t in (0.0123, 0.05, 0.1):
            sim.engine.run(until=t)
            assert sim.engine.now <= t

    _assert_rotation_matches_oracle(
        net, flows, SimConfig(duration=0.2), drive=split
    )


def test_rotation_event_budget_counts_every_slot():
    """Under ``max_events`` every slot goes through the heap, so the
    budget stops production and oracle at the same event."""
    net, flows = _line_flows(hosts_per_switch=2)
    cfg = SimConfig(duration=0.2, switch_mode="rotation")
    ref = oracle.ReferenceSimulator(net, flows, cfg)
    ref.engine.run(max_events=5000)
    at_budget = (ref.engine.events_processed, ref.engine.now,
                 ref.engine.pending())

    def budget(sim):
        sim.engine.run(max_events=5000)
        assert (sim.engine.events_processed, sim.engine.now,
                sim.engine.pending()) == at_budget

    _assert_rotation_matches_oracle(net, flows, cfg, drive=budget)


def test_rotation_two_processor_switch():
    """Completions enqueue onto the other processor's output queues."""
    net, flows = _line_flows(
        n_flows=6, hosts_per_switch=3,
        switch_config=SwitchConfig(n_processors=2),
    )
    fast, _ = _assert_rotation_matches_oracle(
        net, flows, SimConfig(duration=0.2)
    )
    crossings = [
        (flow.name, sw)
        for flow in flows
        for sw in flow.intermediate_switches()
        if fast.switches[sw]._driver_of[flow.prec(sw)]
        is not fast.switches[sw]._driver_of[flow.succ(sw)]
    ]
    assert crossings, "no flow crosses processors"


def test_rotation_finite_fifo_drops():
    """Capacity-1 NIC FIFOs at total utilisation 3.0.  (Seed 3: at the
    finite-FIFO test's seed 5 no switch FIFO overflows; its incomplete
    packets are cut by the drain horizon.)"""
    net, flows = _line_flows(
        n_flows=6, utilization=3.0, seed=3, hosts_per_switch=2
    )
    fast, _ = _assert_rotation_matches_oracle(
        net, flows, SimConfig(duration=0.2, nic_fifo_capacity=1)
    )
    assert collect_stats(fast).total_drops > 0


def test_rotation_priority_sources():
    net, flows = _line_flows(hosts_per_switch=2)
    _assert_rotation_matches_oracle(
        net, flows, SimConfig(duration=0.2, source_discipline="priority")
    )


def test_rotation_zero_length_slots():
    """``c_send = 0``: the slot after an egress task starts at the same
    instant, so simultaneous events must keep their heap order."""
    net, flows = _line_flows(
        hosts_per_switch=2, switch_config=SwitchConfig(c_send=0.0)
    )
    _assert_rotation_matches_oracle(net, flows, SimConfig(duration=0.2))


class _Clock:
    """The engine surface ``_arm_next_slot`` touches: the clock, and a
    ``schedule_call`` that records the slot it arms."""

    def __init__(self, now):
        self._now = now
        self.armed = None

    def schedule_call(self, when, kind, idx, start):
        self.armed = (when, idx, start)


def _armed_slot(driver_cls, offsets, period, now):
    """The slot ``driver_cls._arm_next_slot`` arms at ``now`` on a
    rotation with these offsets and period."""
    clock = _Clock(now)
    driver = SimpleNamespace(
        engine=clock, offsets=offsets, period=period, _k_slot=0
    )
    driver_cls._arm_next_slot(driver)
    return clock.armed


def _rotation(rng):
    """Offsets and period as a rotation driver builds them from its
    task costs; some costs are zero, so some offsets are equal and the
    last offset can equal the period."""
    costs = [
        0.0 if rng.random() < 0.3 else rng.uniform(1e-7, 5e-5)
        for _ in range(rng.randint(1, 12))
    ]
    if not any(costs):
        costs[0] = rng.uniform(1e-7, 5e-5)
    offsets = []
    acc = 0.0
    for cost in costs:
        offsets.append(acc)
        acc += cost
    return offsets, acc


def test_rotation_phase_recovery_matches_oracle():
    """Production's phase recovery arms the oracle driver's slot, bit
    for bit: at random instants, on slot boundaries, and one ulp either
    side of them, for rotations with zero-cost tasks."""
    rng = random.Random(2008)
    # Equal offsets, and a last offset equal to the period.
    rotations = [([0.0, 2e-6, 2e-6, 5e-6], 5e-6)]
    rotations += [_rotation(rng) for _ in range(3000)]
    checked = 0
    for offsets, period in rotations:
        nows = [0.0, rng.uniform(0.0, 40 * period), rng.uniform(0.0, 1.0)]
        for _ in range(2):
            m = float(rng.randint(0, 5000))
            boundary = m * period + rng.choice(offsets)
            nows += [
                boundary,
                math.nextafter(boundary, -math.inf),
                math.nextafter(boundary, math.inf),
            ]
        for now in nows:
            got = _armed_slot(RotationDriver, offsets, period, now)
            want = _armed_slot(
                oracle.ReferenceRotationDriver, offsets, period, now
            )
            assert got == want, (offsets, period, now)
            checked += 1
    assert checked == len(rotations) * 9


# ----------------------------------------------------------------------
# Topology reuse: rebind == fresh build
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["event", "rotation"])
@pytest.mark.parametrize("production", [True, False])
def test_rebind_matches_fresh_build(mode, production):
    """One built topology re-run across flow sets and durations is
    bit-identical to building a simulator per run — for production and
    for the oracle, whose hooks rebind must reset as well."""
    cls = Simulator if production else oracle.ReferenceSimulator
    net = line_network(2, hosts_per_switch=2, speed_bps=mbps(100))
    base = SimConfig(duration=0.2, switch_mode=mode)
    sim = None
    for i, seed in enumerate((7, 11, 13)):
        flows = random_flow_set(
            net, n_flows=5, total_utilization=0.4, seed=seed
        )
        cfg = replace(base, duration=0.2 + 0.05 * (i % 2))
        if sim is None:
            sim = cls(net, flows, cfg)
        else:
            sim.rebind(flows, cfg)
        fresh = cls(net, flows, cfg)
        assert_traces_bit_identical(sim.run(), fresh.run())


def test_rebind_rejects_topology_config_changes():
    net = line_network(2, hosts_per_switch=2, speed_bps=mbps(100))
    flows = random_flow_set(net, n_flows=3, total_utilization=0.3, seed=1)
    sim = Simulator(net, flows, SimConfig(duration=0.1))
    with pytest.raises(ValueError, match="baked into the built topology"):
        sim.rebind(flows, SimConfig(duration=0.1, switch_mode="rotation"))


# ----------------------------------------------------------------------
# Campaign: batched simulate == plain simulate
# ----------------------------------------------------------------------
def test_batched_simulate_action_matches_plain():
    specs = scenario_grid(
        "random-line", seed=[0, 1, 2], n_flows=3, duration=0.2
    )
    plain = CampaignRunner(actions=(action_simulate,)).run(specs)
    batched = CampaignRunner(actions=(action_simulate_batched,)).run(specs)
    assert len(plain) == len(batched) == 3
    for p, b in zip(plain, batched):
        assert p.payload == b.payload


def test_batched_simulate_reuses_one_simulator(monkeypatch):
    """Same-topology grid points build the simulator once."""
    import repro.scenario.campaign as campaign

    campaign._SIM_CACHE.clear()
    builds = []
    original = campaign.Simulator

    class CountingSimulator(original):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(campaign, "Simulator", CountingSimulator)
    specs = scenario_grid(
        "random-line", seed=[0, 1, 2, 3], n_flows=3, duration=0.2
    )
    CampaignRunner(actions=(action_simulate_batched,)).run(specs)
    assert sum(builds) == 1
    campaign._SIM_CACHE.clear()
