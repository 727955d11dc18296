"""Hierarchical admission (core/hierarchy.py): exactness under churn.

The controller's claim is strong: every admit and release costs only
the candidate's interference closure, yet the controller's state —
decisions, per-flow bounds, the whole jitter table — is **byte
identical** to what a from-scratch analysis of the live flow set by the
seed engine of ``tests/oracle.py`` would produce, after *every* step of
*any* interleaving of admits and releases.  These tests are the
executable form of that claim, plus the structural pieces: pod
classification, demand envelopes, preload-vs-sequential equivalence,
and the agreement of the hierarchical controller (flat demand arrays),
the serial controller and the oracle's cold controller (per-flow demand
objects) that the CI ``scaling-smoke`` job re-asserts, against a
from-scratch analysis, at 10^4 flows.
"""

import random

import pytest

import oracle
from repro import telemetry
from repro.core.admission import (
    AdmissionController,
    make_admission_controller,
)
from repro.core.context import AnalysisOptions
from repro.core.hierarchy import HierarchicalAdmissionController, PodMap
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.scenario.families import datacenter_flows
from repro.util.units import mbps, ms
from repro.workloads.topologies import (
    multi_pod_fat_tree_network,
    multi_pod_route,
)


def _small_scenario(seed=0, *, speed=mbps(1000), n_mice=16):
    """A 2-pod fabric small enough to re-analyse from scratch per step."""
    return datacenter_flows(
        pods=2,
        aggs_per_pod=1,
        leaves_per_pod=2,
        hosts_per_leaf=2,
        cores=1,
        n_mice=n_mice,
        n_elephants=2,
        incast_groups=1,
        incast_fanin=3,
        tenants=2,
        seed=seed,
        speed_bps=speed,
    )


def _assert_results_equal(got, want):
    assert set(got) == set(want)
    for name in want:
        for fa, fb in zip(got[name].frames, want[name].frames):
            assert fa.response == fb.response, (
                f"{name} frame {fa.frame}: {fa.response!r} != {fb.response!r}"
            )


# ----------------------------------------------------------------------
# Pod classification and envelopes
# ----------------------------------------------------------------------
def test_pod_map_inference():
    net = multi_pod_fat_tree_network(
        pods=2, aggs_per_pod=1, leaves_per_pod=2, hosts_per_leaf=2, cores=1
    )
    pods = PodMap.from_network(net)
    assert pods.pod_of("p0_leaf1") == "p0"
    assert pods.pod_of("p1_h0_1") == "p1"
    assert pods.pod_of("core0") == "core"
    route = multi_pod_route("p0_h0_0", "p1_h1_1")
    assert pods.pods_of_route(route) == ("p0", "p1")
    assert pods.is_boundary_link("p0_agg0", "core0")
    assert not pods.is_boundary_link("p0_h0_0", "p0_leaf0")


def test_envelope_fast_reject_matches_reference():
    """A flow failing the necessary utilisation condition is rejected by
    both controllers without running the holistic analysis."""
    net, flows = _small_scenario()
    hier = HierarchicalAdmissionController(net, AnalysisOptions())
    ref = AdmissionController(net, AnalysisOptions())
    hog = Flow(
        name="hog",
        spec=GmfSpec(
            min_separations=(ms(1),),
            deadlines=(ms(50),),
            jitters=(0.0,),
            payload_bits=(2_000_000,),  # 2 Gbit/s offered on a 1 Gbit/s link
        ),
        route=multi_pod_route("p0_h0_0", "p0_h0_1"),
        priority=0,
    )
    dh, dr = hier.request(hog), ref.request(hog)
    assert not dh.accepted and not dr.accepted
    assert dh.analysis is None and dr.analysis is None
    assert "utilisation" in dh.reason
    # The rejected candidate left no trace: the next admit still works.
    probe = flows[0]
    assert hier.request(probe).accepted == ref.request(probe).accepted


# ----------------------------------------------------------------------
# The property test: arbitrary admit/release interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interleaving_matches_from_scratch_after_every_step(seed):
    """Decisions match the reference controller and the jitter table and
    bounds match a from-scratch analysis after **every** step."""
    net, flows = _small_scenario(seed)
    options = AnalysisOptions()
    hier = HierarchicalAdmissionController(net, options)
    ref = AdmissionController(net, options)
    rng = random.Random(seed)
    pending = list(flows)
    live: list[str] = []
    by_name = {f.name: f for f in flows}
    steps = 0

    while pending or (live and steps < 60):
        steps += 1
        release = live and (not pending or rng.random() < 0.35)
        if release:
            name = live.pop(rng.randrange(len(live)))
            hier.release(name)
            ref.release(name)
        else:
            flow = pending.pop(rng.randrange(len(pending)))
            dh = hier.request(flow)
            dr = ref.request(flow)
            assert dh.accepted == dr.accepted, (
                f"{flow.name}: hier={dh.reason!r} ref={dr.reason!r}"
            )
            if dh.accepted:
                live.append(flow.name)

        admitted = [by_name[n] for n in (f.name for f in hier.admitted_flows)]
        assert [f.name for f in ref.admitted_flows] == [
            f.name for f in admitted
        ]
        # From-scratch reference: the oracle on a fresh context.
        ctx = oracle.OracleContext(net, admitted, options)
        scratch = oracle.sweep(ctx)
        assert scratch.converged
        assert hier.jitter_snapshot() == ctx.jitters.snapshot()
        _assert_results_equal(dict(hier.flow_results), scratch.flow_results)


def test_preload_equals_sequential_admission():
    net, flows = _small_scenario(3)
    pre = HierarchicalAdmissionController(net, AnalysisOptions())
    pre.preload(flows)
    seq = HierarchicalAdmissionController(net, AnalysisOptions())
    for f in flows:
        assert seq.request(f).accepted, f.name
    assert [f.name for f in pre.admitted_flows] == [
        f.name for f in seq.admitted_flows
    ]
    assert pre.jitter_snapshot() == seq.jitter_snapshot()
    _assert_results_equal(dict(pre.flow_results), dict(seq.flow_results))


def test_hierarchical_flat_reference_decisions_agree():
    """The scaling-smoke assertion: the hierarchical controller (flat
    demand arrays), the serial reference controller and the oracle's
    cold controller (per-flow demand objects, no pre-check, no warm
    start) make identical decisions, and the hierarchical bounds equal
    the oracle's."""
    net, flows = _small_scenario(4, speed=mbps(10), n_mice=24)
    controllers = [
        HierarchicalAdmissionController(net, AnalysisOptions()),
        AdmissionController(net, AnalysisOptions()),
        oracle.ColdAdmissionController(net),
    ]
    rejected = 0
    for f in flows:
        decisions = [c.request(f) for c in controllers]
        accepted = {d.accepted for d in decisions}
        assert len(accepted) == 1, f"{f.name}: {[d.reason for d in decisions]}"
        rejected += not decisions[0].accepted
    assert rejected  # the slow fabric must actually exercise rejection
    hier, ref, cold = controllers
    assert [f.name for f in hier.admitted_flows] == [
        f.name for f in ref.admitted_flows
    ] == [f.name for f in cold.admitted_flows]
    _assert_results_equal(
        dict(hier.flow_results), cold.last_analysis.flow_results
    )


# ----------------------------------------------------------------------
# API edges, factory, stats, telemetry
# ----------------------------------------------------------------------
def test_duplicate_admit_and_unknown_release_raise():
    net, flows = _small_scenario()
    hier = HierarchicalAdmissionController(net, AnalysisOptions())
    assert hier.request(flows[0]).accepted
    with pytest.raises(ValueError, match="already admitted"):
        hier.request(flows[0])
    with pytest.raises(KeyError, match="not admitted"):
        hier.release("nonesuch")


def test_factory_dispatch():
    net, _ = _small_scenario()
    assert isinstance(
        make_admission_controller(net), AdmissionController
    )
    assert isinstance(
        make_admission_controller(net, hierarchical=True),
        HierarchicalAdmissionController,
    )


def test_stats_and_telemetry_counters():
    net, flows = _small_scenario()
    with telemetry.capture() as reg:
        hier = HierarchicalAdmissionController(net, AnalysisOptions())
        for f in flows:
            hier.request(f)
        hier.release(flows[0].name)
    stats = hier.stats()
    assert stats["flows"] == len(hier.admitted_flows)
    assert set(stats["pods"]) <= {"p0", "p1", "core"}
    assert all(
        shard["resolves"] >= shard["admits"]
        for shard in stats["pods"].values()
    )
    counters = reg.snapshot()["counters"]
    assert counters["admission.requests"] == len(flows)
    assert counters["hierarchy.pod_resolves"] > 0
    assert counters["hierarchy.flow_resolves"] > 0
    assert counters["hierarchy.changed_set"] > 0
    assert counters["hierarchy.releases"] == 1
    assert counters.get("hierarchy.envelope_invalidations", 0) >= 0
    # The flat-array stores rebuilt at least once per touched link.
    assert counters["engine.flat_arrays.rebuilds"] > 0
