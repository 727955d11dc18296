"""Performance benchmarks: how the analysis and simulator scale.

Not a paper table — engineering due diligence for an admission
controller that must run online: analysis cost vs flow count, GMF cycle
length and route length, plus simulator event throughput, and the
datacenter axis — a single admission decision, and a single release,
against 10^4/10^5 already-admitted flows through the hierarchical
controller (``core/hierarchy.py``).

Every benchmark tags ``benchmark.extra_info["scale"]`` with its scale
label (``single-pod`` for the historical cases, ``datacenter-1e4`` /
``datacenter-1e5`` for the new axis) so ``run_bench.py --compare``
groups entries across the axis cleanly.

The 10^5 case preloads for a few minutes, so it only runs when
``REPRO_BENCH_FULL=1`` is set (the labelled trajectory runs; CI smoke
uses the 10^4 case).
"""

import os

import pytest

from repro.core.context import AnalysisOptions
from repro.core.hierarchy import HierarchicalAdmissionController
from repro.core.holistic import holistic_analysis
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.scenario.families import _MICE_SPEC, datacenter_flows
from repro.sim.simulator import SimConfig, simulate
from repro.util.units import mbps, ms
from repro.workloads.generator import random_flow_set
from repro.workloads.topologies import (
    fat_tree_network,
    line_network,
    multi_pod_route,
)


def _network():
    return line_network(3, hosts_per_switch=4, speed_bps=mbps(1000))


@pytest.mark.parametrize("n_flows", [4, 16])
def test_analysis_scaling_flows(benchmark, n_flows):
    benchmark.extra_info["scale"] = "single-pod"
    net = _network()
    flows = random_flow_set(
        net, n_flows=n_flows, total_utilization=0.3, seed=42
    )
    result = benchmark(lambda: holistic_analysis(net, flows))
    assert result.converged


@pytest.mark.parametrize("n_frames", [3, 30])
def test_analysis_scaling_cycle_length(benchmark, n_frames):
    """Cost of long GMF cycles (the O(n^2) window precomputation)."""
    benchmark.extra_info["scale"] = "single-pod"
    net = _network()
    flow = Flow(
        name="long",
        spec=GmfSpec(
            min_separations=(ms(10),) * n_frames,
            deadlines=(ms(500),) * n_frames,
            jitters=(0.0,) * n_frames,
            payload_bits=tuple(
                10_000 + 1_000 * (k % 7) for k in range(n_frames)
            ),
        ),
        route=("h0_0", "sw0", "sw1", "sw2", "h2_0"),
        priority=5,
    )
    result = benchmark(lambda: holistic_analysis(net, [flow]))
    assert result.schedulable


def test_simulator_event_throughput(benchmark):
    """Events per second of wall clock for a loaded two-switch network."""
    benchmark.extra_info["scale"] = "single-pod"
    net = line_network(2, hosts_per_switch=2, speed_bps=mbps(100))
    flows = random_flow_set(
        net, n_flows=6, total_utilization=0.5, seed=7
    )

    def run():
        return simulate(net, flows, config=SimConfig(duration=0.5))

    trace = benchmark(run)
    assert trace.count_completed() > 0


def test_simulator_event_throughput_fat_tree(benchmark):
    """The larger case: a leaf/spine fabric with many switches, where
    per-switch rotation overhead and topology construction both weigh
    in (the simulator's bulk releases + O(1) idle sleep carry it)."""
    benchmark.extra_info["scale"] = "single-pod"
    net = fat_tree_network(
        spines=2, leaves=4, hosts_per_leaf=2, speed_bps=mbps(100)
    )
    flows = random_flow_set(
        net, n_flows=12, total_utilization=0.4, seed=11
    )

    def run():
        return simulate(net, flows, config=SimConfig(duration=0.5))

    trace = benchmark(run)
    assert trace.count_completed() > 0


def test_simulator_rotation_throughput_fat_tree(benchmark):
    """The same fabric and flows in rotation mode, the pessimistic
    fixed-``CIRC`` execution: most events are idle task slots, which the
    rotation driver runs in place while each is the next event."""
    benchmark.extra_info["scale"] = "single-pod"
    net = fat_tree_network(
        spines=2, leaves=4, hosts_per_leaf=2, speed_bps=mbps(100)
    )
    flows = random_flow_set(
        net, n_flows=12, total_utilization=0.4, seed=11
    )

    def run():
        return simulate(
            net, flows, config=SimConfig(duration=0.5, switch_mode="rotation")
        )

    trace = benchmark(run)
    assert trace.count_completed() > 0


# ----------------------------------------------------------------------
# Datacenter axis: one admission decision at 10^4 / 10^5 admitted flows
# ----------------------------------------------------------------------
#: Scenario parameters per scale.  Host counts keep the per-uplink flow
#: density low (~10 mice per host link), which is what real rack-affine
#: placement gives and what keeps one admission's interference closure
#: small; see the "Scaling" section of the README.
_SCALE_CASES = {
    "1e4": dict(
        pods=4,
        aggs_per_pod=2,
        leaves_per_pod=16,
        hosts_per_leaf=16,
        cores=2,
        n_mice=9_936,
        n_elephants=32,
        incast_groups=4,
        incast_fanin=8,
        tenants=16,
        cross_pod_fraction=0.1,
        locality=0.9,
        seed=42,
    ),
    "1e5": dict(
        pods=8,
        aggs_per_pod=4,
        leaves_per_pod=64,
        hosts_per_leaf=16,
        cores=4,
        n_mice=99_840,
        n_elephants=64,
        incast_groups=8,
        incast_fanin=12,
        tenants=16,
        cross_pod_fraction=0.05,
        locality=0.9,
        seed=42,
    ),
}

#: Preloaded controllers, one per scale, shared across rounds and
#: tests in this process (preloading 10^5 flows takes minutes; the
#: benchmark measures the *admission decision*, not the preload).
_scale_controllers: dict[str, tuple[HierarchicalAdmissionController, float]] = {}


def _controller_at_scale(scale: str) -> tuple[HierarchicalAdmissionController, float]:
    if scale not in _scale_controllers:
        import gc
        import time

        net, flows = datacenter_flows(**_SCALE_CASES[scale])
        ctrl = HierarchicalAdmissionController(net, AnalysisOptions())
        start = time.perf_counter()
        ctrl.preload(flows)
        _scale_controllers[scale] = (ctrl, time.perf_counter() - start)
        # Move the preloaded graph out of the collector's reach: without
        # this, allocation during the timed admits triggers full gen-2
        # sweeps over ~10^5 flows' worth of objects (tens of ms — larger
        # than the admission being measured).
        gc.collect()
        gc.freeze()
    return _scale_controllers[scale]


_FULL = pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_FULL"),
    reason="10^5-flow preload takes minutes; set REPRO_BENCH_FULL=1",
)


def _quiet_rack_pair(case: dict, flows) -> tuple[str, str]:
    """The two least-loaded hosts of pod 0's least-loaded rack.

    Most racks host only rack-local tenant mice; the few that hold an
    elephant or incast endpoint drag cross-pod routes (and their much
    larger interference closures) into an admission's changed set.  The
    representative probe target is a quiet rack — the common case —
    picked deterministically from the flow set.
    """
    endpoint_count: dict[str, int] = {}
    for f in flows:
        for node in (f.route[0], f.route[-1]):
            endpoint_count[node] = endpoint_count.get(node, 0) + 1
    racks = [
        [
            f"p0_h{leaf}_{k}"
            for k in range(case["hosts_per_leaf"])
        ]
        for leaf in range(case["leaves_per_pod"])
    ]
    rack = min(
        racks,
        key=lambda hosts: sum(endpoint_count.get(h, 0) for h in hosts),
    )
    a, b = sorted(rack, key=lambda h: endpoint_count.get(h, 0))[:2]
    return a, b


def _rack_probes(benchmark, scale: str, prefix: str):
    """The preloaded controller at ``scale`` and an iterator of fresh
    rack-local probes on its quiet rack pair; tags ``extra_info``."""
    ctrl, preload_s = _controller_at_scale(scale)
    src, dst = _quiet_rack_pair(_SCALE_CASES[scale], ctrl.admitted_flows)
    benchmark.extra_info["scale"] = f"datacenter-{scale}"
    benchmark.extra_info["admitted_flows"] = len(ctrl.admitted_flows)
    benchmark.extra_info["preload_s"] = round(preload_s, 3)
    benchmark.extra_info["probe_route"] = f"{src}->{dst}"
    probes = iter(
        Flow(
            name=f"{prefix}_{i}",
            spec=_MICE_SPEC,
            route=multi_pod_route(src, dst),
            priority=6,
        )
        for i in range(100)
    )
    return ctrl, probes


@pytest.mark.parametrize(
    "scale", ["1e4", pytest.param("1e5", marks=_FULL)]
)
def test_admission_at_scale(benchmark, scale):
    """One rack-local admission decision against a preloaded fabric.

    The probe is the dominant admission type of the scenario (a
    rack-local mouse); its cost is the interference closure of the two
    host links it touches — independent of the admitted-set size, which
    is the hierarchical controller's O(changed-set) claim.  Each round
    admits a fresh probe and leaves it admitted (releases are timed by
    :func:`test_release_at_scale`); the handful of extra rack-local
    mice left behind is noise against the preloaded set.
    """
    ctrl, probes = _rack_probes(benchmark, scale, "bench_probe")

    def setup():
        return (next(probes),), {}

    def admit(probe):
        decision = ctrl.request(probe)
        assert decision.accepted, decision.reason
        return decision

    benchmark.pedantic(
        admit, setup=setup, rounds=10, warmup_rounds=1, iterations=1
    )


@pytest.mark.parametrize(
    "scale", ["1e4", pytest.param("1e5", marks=_FULL)]
)
def test_release_at_scale(benchmark, scale):
    """One rack-local release against a preloaded fabric.

    Each round's setup admits a fresh rack-local probe (untimed) and the
    timed call releases it.  A release cold-restarts only the jitter
    entries the probe can lower (its cone) and re-solves the flows
    owning a stage in it, so like an admission its cost follows the
    probe's neighbourhood, not the admitted-set size.
    """
    ctrl, probes = _rack_probes(benchmark, scale, "bench_release_probe")

    def setup():
        probe = next(probes)
        decision = ctrl.request(probe)
        assert decision.accepted, decision.reason
        return (probe.name,), {}

    benchmark.pedantic(
        ctrl.release, setup=setup, rounds=10, warmup_rounds=1, iterations=1
    )
