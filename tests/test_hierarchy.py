"""The admission engine (core/hierarchy.py): exactness under churn.

The engine's claim is strong: an admit costs only the candidate's
interference closure and a release only the cone of jitter entries the
released flow can lower, yet its state — decisions, per-flow bounds,
the whole jitter table — is **byte identical** to what a from-scratch
analysis of the live flow set by the seed engine of ``tests/oracle.py``
would produce, after *every* step of *any* interleaving of admits and
releases, on fat trees (acyclic channel dependencies) and on rings
(cyclic ones).  Every decision is checked against the oracle's
:class:`~oracle.SerialAdmissionController`, which runs the oracle's
plain iteration (:func:`oracle.sweep`) over the whole tentative set on a
production context: a table check alone cannot catch a wrong reject,
because a rejected candidate leaves no trace.  These tests are the
executable form of that claim, plus the
structural pieces: the route pre-check, preload-vs-sequential
equivalence, release work bounded by the cone, admit work confined to
the stages the candidate enters (the stage memo's participant guard,
asserted where its verified reuse starts), two pinned ring releases
that a warm restart gets wrong, and the agreement of the engine (flat
demand arrays), the serial reference and the oracle's cold controller
(per-flow demand objects) that the CI ``scaling-smoke`` job
re-asserts, against a from-scratch analysis, at 10^4 flows.
"""

import math
import random

import pytest

import oracle
from repro import telemetry
from repro.core import hierarchy, pipeline
from repro.core.admission import AdmissionController
from repro.core.context import AnalysisOptions
from repro.core.first_hop import first_hop_utilization
from repro.core.results import diverged_stage
from repro.core.switch_egress import egress_utilization
from repro.core.switch_ingress import ingress_utilization
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.model.network import Network
from repro.scenario.families import _MICE_SPEC, datacenter_flows
from repro.scenario.registry import REGISTRY
from repro.util.units import mbps, ms
from repro.workloads.generator import random_flow_set
from repro.workloads.topologies import line_network, multi_pod_route


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


def _ring_network(n_switches):
    """Switches ``s0..s{n-1}`` in a ring, host ``h<i>`` on ``s<i>``; all
    links duplex 100 Mbit/s with no propagation delay."""
    net = Network()
    for i in range(n_switches):
        net.add_switch(f"s{i}")
        net.add_endhost(f"h{i}")
        net.add_duplex_link(f"h{i}", f"s{i}", speed_bps=mbps(100))
    for i in range(n_switches):
        net.add_duplex_link(
            f"s{i}", f"s{(i + 1) % n_switches}", speed_bps=mbps(100)
        )
    return net


def _ring_flow(
    name, route, separations, jitters, payload_bits, *, deadline=1000
):
    """A priority-0 flow on a dash-separated route; times in ms."""
    return Flow(
        name=name,
        spec=GmfSpec(
            min_separations=tuple(ms(t) for t in separations),
            deadlines=(ms(deadline),) * len(separations),
            jitters=tuple(ms(j) for j in jitters),
            payload_bits=tuple(payload_bits),
        ),
        route=tuple(route.split("-")),
        priority=0,
    )


def _ring_scenario(n_switches, seed=0, *, n_flows=7):
    """Flows routed clockwise over n-2 to n-1 switch hops of a ring, so
    their channel dependencies form cycles (the fat trees' up/down
    routes never do).  The 20 ms deadlines keep a rejected candidate
    cheap: a divergent holistic iteration runs until its busy periods
    pass a horizon proportional to the deadline."""
    rng = random.Random(seed)
    flows = []
    for i in range(n_flows):
        src = rng.randrange(n_switches)
        hops = rng.choice((n_switches - 2, n_switches - 1))
        dst = (src + hops) % n_switches
        switches = [f"s{(src + k) % n_switches}" for k in range(hops + 1)]
        route = "-".join([f"h{src}", *switches, f"h{dst}"])
        n_frames = rng.choice((1, 2))
        flows.append(
            _ring_flow(
                f"f{i}",
                route,
                [rng.choice((1, 1.5, 2)) for _ in range(n_frames)],
                [rng.choice((0, 0.2, 1, 3)) for _ in range(n_frames)],
                [rng.choice((12_000, 24_000)) for _ in range(n_frames)],
                deadline=20,
            )
        )
    return _ring_network(n_switches), flows


def _case_scenario(case):
    """``(network, flows, seed)`` of an interleaving case: an integer is
    a 2-pod fat tree seeded with it, ``ring<n>`` is
    :func:`_ring_scenario` on ``n`` switches, seeded 0 or with the
    ``-<seed>`` suffix, and ``line<n>-<seed>`` is 16 random flows at a
    total utilisation of 0.5 on an ``n``-switch 1 Gbit/s line with four
    hosts per switch."""
    if isinstance(case, int):
        return (*_small_scenario(case), case)
    kind, _, suffix = case.partition("-")
    seed = int(suffix or 0)
    if kind.startswith("line"):
        net = line_network(
            int(kind[len("line"):]), hosts_per_switch=4, speed_bps=mbps(1000)
        )
        flows = random_flow_set(
            net, n_flows=16, total_utilization=0.5, seed=seed
        )
        return net, flows, seed
    return (*_ring_scenario(int(kind[len("ring"):]), seed), seed)


def _assert_matches_from_scratch(hier, net, options):
    """The controller's jitter table and bounds equal a from-scratch
    analysis of its admitted set by the oracle."""
    ctx = oracle.OracleContext(net, list(hier.admitted_flows), options)
    scratch = oracle.sweep(ctx)
    assert scratch.converged
    assert hier.jitter_snapshot() == ctx.jitters.snapshot()
    _assert_results_equal(dict(hier.flow_results), scratch.flow_results)


def _assert_results_equal(got, want):
    assert set(got) == set(want)
    for name in want:
        for fa, fb in zip(got[name].frames, want[name].frames):
            assert fa.response == fb.response, (
                f"{name} frame {fa.frame}: {fa.response!r} != {fb.response!r}"
            )


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
def test_envelope_fast_reject_matches_reference():
    """A flow failing the necessary utilisation condition is rejected by
    the engine without running the holistic analysis; the reference,
    which has no pre-check, runs it and sees it diverge."""
    net, flows = _small_scenario()
    hier = AdmissionController(net, AnalysisOptions())
    ref = oracle.SerialAdmissionController(net, AnalysisOptions())
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
    assert dh.analysis is None and not dr.analysis.converged
    assert "utilisation" in dh.reason
    # The rejected candidate left no trace: the next admit still works.
    probe = flows[0]
    assert hier.request(probe).accepted == ref.request(probe).accepted


# ----------------------------------------------------------------------
# The property test: arbitrary admit/release interleavings
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "case",
    [
        0, 1, 2, "line3-1",
        "ring3", "ring4", "ring5", "ring3-35", "ring4-4", "ring5-20", "ring4-55",
    ],
)
def test_interleaving_matches_from_scratch_after_every_step(case):
    """Decisions match the oracle's serial controller and the jitter
    table and bounds match a from-scratch analysis after **every**
    step.  Integer cases are 2-pod fat trees seeded with that number;
    ``ring<n>`` is :func:`_ring_scenario` on ``n`` switches, seeded 0 or
    with the ``-<seed>`` suffix; ``line3-1`` is a random flow set on a
    3-switch line (see :func:`_case_scenario`).

    ``line3-1`` pins reader propagation on an acyclic stage graph: the
    small fat trees' readers never see a result move, but here a
    changed entry must mark the stages reading it, or ``rf4`` frame 0
    reads a stale bound at step 8.

    The seeded rings pin the stage memo's verified reuse
    (``core/pipeline.py``).  On ``ring3-35`` and ``ring4-4`` a stage's
    inputs drop after a release, and its stored fixed points still hold
    under the lower inputs without being the least ones: reuse without
    the dominance check leaves a non-least table at steps 10 and 8.  On
    ``ring5-20`` a participant's jitter turns infinite after its stage
    was memoised, which must reach the stage's divergence
    short-circuit, not the demand kernels.  ``ring4-55`` pins the
    memo's participant guard: step 8 rejects ``f5`` and step 9 admits
    ``f1`` over the same first hop ``(h1, s1)`` with the same 3 ms
    source jitter, so ``f6``'s first-hop stage there sees its stored
    inputs over a different participant; a memo comparing only the
    participant count replays the rejected candidate's stage and
    decides step 9 wrongly."""
    net, flows, seed = _case_scenario(case)
    options = AnalysisOptions()
    hier = AdmissionController(net, options)
    ref = oracle.SerialAdmissionController(net, options)
    rng = random.Random(seed)
    pending = list(flows)
    live: list[str] = []
    steps = 0

    with telemetry.capture() as reg:
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

            assert [f.name for f in ref.admitted_flows] == [
                f.name for f in hier.admitted_flows
            ]
            _assert_matches_from_scratch(hier, net, options)
    assert reg.snapshot()["counters"]["engine.stage_memo.verified"] > 0


def _interleave(hier, flows, seed, after_step=lambda: None):
    """Admit and release ``flows`` on ``hier`` in the order of the
    property test above, calling ``after_step`` after every step."""
    rng = random.Random(seed)
    pending = list(flows)
    live: list[str] = []
    steps = 0
    while pending or (live and steps < 60):
        steps += 1
        if live and (not pending or rng.random() < 0.35):
            hier.release(live.pop(rng.randrange(len(live))))
        else:
            flow = pending.pop(rng.randrange(len(pending)))
            if hier.request(flow).accepted:
                live.append(flow.name)
        after_step()


def _fresh_stage(ctx, flow, position):
    """The stage analysis at ``position`` of ``flow``'s walk, run on the
    current state with the shifts it gathers itself."""
    if position == 0:
        return pipeline.first_hop_stage(ctx, flow)
    node = flow.route[(position + 1) // 2]
    if position % 2:
        return pipeline.ingress_stage(ctx, flow, node)
    return pipeline.egress_stage(ctx, flow, node)


@pytest.mark.parametrize(
    "case",
    [0, 1, 2, "ring3", "ring4", "ring5", "ring3-35", "ring4-4", "ring4-55"],
)
def test_scheduled_stages_return_what_a_fresh_stage_returns(case, monkeypatch):
    """Every stage the engine runs (``run_stage``: memo hit, verified
    reuse or a solve over the shifts it gathered for the memo key)
    returns what the stage analysis returns when it gathers the shifts
    itself on the same state, masked as the step masks an upstream
    divergence; and it runs only once its flow's entry at the stage
    holds the JSUM it is given.  Checked over the interleaving inputs
    (all but the slow ``ring5-20``)."""
    run = hierarchy.run_stage
    checked = []

    def fresh_checked(ctx, flow, position, jitters):
        resource = pipeline.stage_resources(flow.route)[position]
        assert ctx.jitters.get(flow.name, resource) == jitters, (
            flow.name,
            position,
        )
        results = run(ctx, flow, position, jitters)
        fresh = _fresh_stage(ctx, flow, position)
        assert len(results) == len(fresh) == flow.spec.n_frames
        for k, want in enumerate(fresh):
            if math.isinf(jitters[k]) and not math.isinf(want.response):
                want = diverged_stage(want.kind, resource)
            assert results[k] == want, (flow.name, position, k)
        checked.append(flow.name)
        return results

    monkeypatch.setattr(hierarchy, "run_stage", fresh_checked)
    net, flows, seed = _case_scenario(case)
    _interleave(AdmissionController(net, AnalysisOptions()), flows, seed)
    assert checked


def _datacenter_fabric():
    """A 2-pod fabric with four racks per pod."""
    return datacenter_flows(
        pods=2,
        aggs_per_pod=1,
        leaves_per_pod=4,
        hosts_per_leaf=4,
        cores=1,
        n_mice=64,
        n_elephants=2,
        incast_groups=1,
        incast_fanin=3,
        tenants=4,
        seed=0,
    )


@pytest.mark.parametrize("case", [0, 1, 2, "line3-1", "datacenter"])
def test_acyclic_solves_run_each_stage_once(case, monkeypatch):
    """On fat trees and lines the stage graph is acyclic, so a solve
    runs each dirty stage once, after every entry it reads is final: no
    ``(flow, position)`` runs twice in one request, release or preload.
    Integer and ``line`` cases interleave the inputs of
    :func:`_case_scenario`; ``datacenter`` preloads a larger fabric,
    releases a third of it and re-admits what it released."""
    runs = []
    solves = []
    run = hierarchy.run_stage

    def counted(ctx, flow, position, jitters):
        runs.append((flow.name, position))
        return run(ctx, flow, position, jitters)

    monkeypatch.setattr(hierarchy, "run_stage", counted)
    solve = AdmissionController._solve

    def one_solve(self, *args, **kwargs):
        runs.clear()
        try:
            return solve(self, *args, **kwargs)
        finally:
            solves.append(len(runs) - len(set(runs)))

    monkeypatch.setattr(AdmissionController, "_solve", one_solve)
    if case == "datacenter":
        net, flows = _datacenter_fabric()
        hier = AdmissionController(net, AnalysisOptions())
        hier.preload(flows)
        for flow in flows[::3]:
            hier.release(flow.name)
        for flow in flows[::3]:
            assert hier.request(flow).accepted, flow.name
    else:
        net, flows, seed = _case_scenario(case)
        _interleave(AdmissionController(net, AnalysisOptions()), flows, seed)
    assert len(solves) > 10
    assert not any(solves), solves  # repeated runs per solve


def test_link_utilisation_caches_equal_fresh_sums():
    """The utilisation sums the stages keep on each link's demand matrix
    equal fresh Eq. 20, ingress and Eqs. 34/35 sums after every step of
    the interleavings: an egress sum is stored with the ``hep`` tuple it
    was summed over, which must be the flow's current one."""
    for case in (0, 1, 2, "ring4", "ring5"):
        net, flows, seed = _case_scenario(case)
        hier = AdmissionController(net, AnalysisOptions())
        ctx = hier._ctx
        seen = [0, 0, 0]

        def check():
            for (n1, n2), (link_flows, matrix) in ctx._matrix_cache.items():
                if link_flows is not ctx.flows_on_link(n1, n2):
                    continue  # retired with the link's old flow set
                if matrix.first_hop_sum is not None:
                    assert matrix.first_hop_sum == first_hop_utilization(
                        ctx, n1, n2
                    )
                    seen[0] += 1
                for circ, value in matrix.ingress_sums.items():
                    assert circ == ctx.circ_task(n2, n1)
                    assert value == ingress_utilization(ctx, n2, n1)
                    seen[1] += 1
                for name, (hep, value) in matrix.egress_sums.items():
                    flow = ctx.flow(name)
                    assert hep is ctx.hep(flow, n1, n2), (case, name)
                    assert value == egress_utilization(ctx, flow, n1)
                    seen[2] += 1

        _interleave(hier, flows, seed, check)
        assert all(seen), (case, seen)


def _memo(hier):
    """A copy of the engine's stage memo: (flow, resource) -> entry."""
    return {
        (name, resource): entry
        for name, per_flow in hier._ctx._stage_cache.items()
        for resource, entry in per_flow.items()
    }


@pytest.mark.parametrize("case", ["fat-tree", "ring4"])
def test_rejected_request_restores_the_stage_memo(case, monkeypatch):
    """A reject rolls back the stage memo with the jitter table: after
    every reject that ran a solve, the memo equals its state before the
    request, although the solve overwrote entries of admitted flows
    (stages run over participants that include the candidate).
    ``fat-tree`` is the ``fat-tree-tcp`` benchmark scenario, whose flows
    in order meet four such rejects."""
    if case == "ring4":
        net, flows = _ring_scenario(4)
        options = AnalysisOptions()
    else:
        scenario = REGISTRY.build(
            "fat-tree",
            spines=2,
            leaves=4,
            hosts_per_leaf=4,
            n_flows=24,
            utilization=0.6,
            seed=11,
        )
        net, flows, options = (
            scenario.network,
            scenario.flows,
            scenario.options,
        )
    hier = AdmissionController(net, options)
    overwritten = []
    put = type(hier._ctx).stage_memo_put

    def noted(ctx, flow_name, resource, *args):
        if (flow_name, resource) in before:
            overwritten.append(flow_name)
        return put(ctx, flow_name, resource, *args)

    monkeypatch.setattr(type(hier._ctx), "stage_memo_put", noted)
    rejected = 0
    for flow in flows:
        before = _memo(hier)
        table = hier.jitter_snapshot()
        overwritten.clear()
        decision = hier.request(flow)
        if decision.accepted or decision.analysis is None:
            continue
        assert _memo(hier) == before, flow.name
        assert hier.jitter_snapshot() == table
        rejected += bool(overwritten)
    assert rejected
    _assert_matches_from_scratch(hier, net, options)


def test_ring_stage_first_runs_in_a_later_round(monkeypatch):
    """A stage marked at or behind the sweep waits for the next round,
    one ahead of it runs in the current one.  On ``ring4`` (cyclic
    stage graph) some stage of a solve first runs in round 2 or later;
    the table and bounds still equal a from-scratch analysis after
    every step."""
    net, flows, seed = _case_scenario("ring4")
    hier = AdmissionController(net, AnalysisOptions())
    jitters = hier._ctx.jitters
    rounds = 0
    first_round = {}
    late = []
    begin_round = jitters.begin_round

    def counted_round():
        nonlocal rounds
        rounds += 1
        begin_round()

    monkeypatch.setattr(jitters, "begin_round", counted_round)
    solve = hier._solve

    def one_solve(*args, **kwargs):
        nonlocal rounds
        rounds = 0
        first_round.clear()
        return solve(*args, **kwargs)

    monkeypatch.setattr(hier, "_solve", one_solve)
    run = hierarchy.run_stage

    def noted(ctx, flow, position, jitters):
        if first_round.setdefault((flow.name, position), rounds) >= 2:
            late.append((flow.name, position))
        return run(ctx, flow, position, jitters)

    monkeypatch.setattr(hierarchy, "run_stage", noted)
    _interleave(
        hier,
        flows,
        seed,
        lambda: _assert_matches_from_scratch(hier, net, AnalysisOptions()),
    )
    assert late
#: Preloaded rings whose release lowers the least fixed point through a
#: cycle of channel dependencies: ring name -> (switches, flows, the
#: flow to release).  Restarting warm (from the old entries) stops
#: above the from-scratch fixed point on both.  Resetting only the
#: direct readers' downstream entries and letting the worklist spread
#: changes warm stops above it on ``ring3``.
_RING_RELEASES = {
    "ring3": (
        3,
        [
            _ring_flow("f0", "h0-s0-s1-s2-h2", (1.5,), (0,), (48000,)),
            _ring_flow("f1", "h1-s1-s2-s0-h0", (1.5,), (1,), (48000,)),
            _ring_flow("f2", "h2-s2-s0-s1-h1", (1,), (1,), (24000,)),
            _ring_flow("f3", "h2-s2-s0-h0", (2, 2), (1, 3), (24000, 24000)),
            _ring_flow("f4", "h0-s0-s1-h1", (0.5, 2), (3, 0), (12000, 12000)),
            _ring_flow("f5", "h1-s1-s2-h2", (2, 2), (3, 1), (12000, 48000)),
        ],
        "f4",
    ),
    "ring4": (
        4,
        [
            _ring_flow("f0", "h0-s0-s1-s2-s3-h3", (0.5,), (0.2,), (12000,)),
            _ring_flow("f1", "h2-s2-s3-s0-s1-h1", (2,), (0,), (48000,)),
            _ring_flow("f2", "h1-s1-s2-s3-h3", (2,), (1,), (12000,)),
            _ring_flow("f3", "h3-s3-s0-s1-h1", (1,), (3,), (12000,)),
            _ring_flow("f4", "h1-s1-s2-s3-h3", (1,), (0.2,), (12000,)),
        ],
        "f2",
    ),
}


@pytest.mark.parametrize("case", sorted(_RING_RELEASES))
def test_ring_release_matches_from_scratch(case):
    """A release on a cyclic fabric reaches the *least* fixed point: the
    one a from-scratch analysis of the remaining flows finds."""
    n_switches, flows, released = _RING_RELEASES[case]
    net = _ring_network(n_switches)
    hier = AdmissionController(net, AnalysisOptions())
    hier.preload(flows)
    hier.release(released)
    _assert_matches_from_scratch(hier, net, AnalysisOptions())


def test_release_work_is_bounded_by_the_cone():
    """A rack-local release re-solves only the flows owning a stage its
    jitter cone reaches, not the whole transitive reader closure (which
    on a fat tree spans the fabric: about 1.4 re-solves per admitted
    flow on this input)."""
    net, flows = _datacenter_fabric()
    hier = AdmissionController(net, AnalysisOptions())
    hier.preload(flows)
    rack_local = [f.name for f in flows if len(f.route) == 3][:5]
    assert len(rack_local) == 5
    resolves = []
    for name in rack_local:
        with telemetry.capture() as reg:
            hier.release(name)
        counters = reg.snapshot()["counters"]
        resolves.append(counters.get("hierarchy.flow_resolves", 0.0))
    assert sum(resolves) / len(resolves) < len(flows) / 2, resolves
    _assert_matches_from_scratch(hier, net, AnalysisOptions())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_admit_resolves_only_the_stages_it_enters(seed, monkeypatch):
    """An admit re-solves only the stages whose participants it joined.

    The probe enters ``p0_leaf0`` from ``p0_h0_0``, so it joins the
    ingress stage there only for flows on that incoming link.  Flows
    arriving over another link are re-analysed (the probe joins their
    egress ``hep`` set towards ``p0_h0_1``), but their ingress stage at
    ``p0_leaf0`` reads the same flows and jitters as before and must be
    replayed from the memo, not solved again."""
    net, flows = _small_scenario(seed)
    hier = AdmissionController(net, AnalysisOptions())
    hier.preload(flows)
    probe = Flow(
        name="probe",
        spec=_MICE_SPEC,
        route=multi_pod_route("p0_h0_0", "p0_h0_1"),
        priority=6,
    )
    probe_links = set(probe.links())
    ingress_runs = []
    solve_ingress = pipeline.ingress_stage

    def counted(ctx, flow, node, fixed_points=None, shifts=None):
        ingress_runs.append((flow.prec(node), node))
        return solve_ingress(ctx, flow, node, fixed_points, shifts)

    monkeypatch.setattr(pipeline, "ingress_stage", counted)
    decision = hier.request(probe)
    assert decision.accepted, decision.reason

    def enters_leaf_elsewhere(flow):
        route = flow.route
        if "p0_leaf0" not in route[1:-1]:
            return False
        at = route.index("p0_leaf0")
        return (route[at - 1], "p0_leaf0") not in probe_links

    reanalysed = [
        name
        for name in decision.analysis.flow_results
        if enters_leaf_elsewhere(hier._ctx.flow(name))
    ]
    assert reanalysed  # otherwise the assertion below is vacuous
    foreign = [
        link
        for link in ingress_runs
        if link[1] == "p0_leaf0" and link not in probe_links
    ]
    assert foreign == []
    assert ("p0_h0_0", "p0_leaf0") in ingress_runs  # the probe's own


def test_verified_reuse_sees_only_entries_over_current_participants(
    monkeypatch,
):
    """The memo's participant guard runs before both reuse paths.  A
    guard on the hit path alone would let the verified path check
    stored fixed points recorded over another flow set (its dominance
    check zips old and new inputs, truncating to the shorter tuple), and
    no interleaving input is known to catch that; so the contract is
    asserted where the verified path starts, over admits, a reject and
    a release."""
    checked = []
    check = pipeline._fixed_points_hold

    def guarded(ctx, flow, kind, link, participants, inputs, entry):
        assert entry[3] == tuple(participants), (flow.name, kind)
        checked.append(flow.name)
        return check(ctx, flow, kind, link, participants, inputs, entry)

    monkeypatch.setattr(pipeline, "_fixed_points_hold", guarded)
    net, flows = _small_scenario(4, speed=mbps(10), n_mice=24)
    hier = AdmissionController(net, AnalysisOptions())
    decisions = [hier.request(f).accepted for f in flows]
    assert not all(decisions)  # the slow fabric rejects some
    hier.release(hier.admitted_flows[0].name)
    assert checked


def test_preload_equals_sequential_admission():
    net, flows = _small_scenario(3)
    pre = AdmissionController(net, AnalysisOptions())
    pre.preload(flows)
    seq = AdmissionController(net, AnalysisOptions())
    for f in flows:
        assert seq.request(f).accepted, f.name
    assert [f.name for f in pre.admitted_flows] == [
        f.name for f in seq.admitted_flows
    ]
    assert pre.jitter_snapshot() == seq.jitter_snapshot()
    _assert_results_equal(dict(pre.flow_results), dict(seq.flow_results))


def test_hierarchical_flat_reference_decisions_agree():
    """The scaling-smoke assertion: the engine (flat demand arrays), the
    oracle's serial controller and its cold controller (per-flow demand
    objects, no pre-check, no warm start) make identical decisions, and
    the engine's bounds equal the cold controller's."""
    net, flows = _small_scenario(4, speed=mbps(10), n_mice=24)
    controllers = [
        AdmissionController(net, AnalysisOptions()),
        oracle.SerialAdmissionController(net, AnalysisOptions()),
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
# API edges, reporting, telemetry
# ----------------------------------------------------------------------
def test_duplicate_admit_and_unknown_release_raise():
    net, flows = _small_scenario()
    hier = AdmissionController(net, AnalysisOptions())
    assert hier.request(flows[0]).accepted
    with pytest.raises(ValueError, match="already admitted"):
        hier.request(flows[0])
    with pytest.raises(KeyError, match="not admitted"):
        hier.release("nonesuch")


def test_stats_and_telemetry_counters():
    net, flows = _small_scenario()
    with telemetry.capture() as reg:
        hier = AdmissionController(net, AnalysisOptions())
        for f in flows:
            hier.request(f)
        hier.release(flows[0].name)
    analysis = hier.last_analysis
    assert set(analysis.flow_results) == {
        f.name for f in hier.admitted_flows
    }
    assert analysis.schedulable
    counters = reg.snapshot()["counters"]
    assert counters["admission.requests"] == len(flows)
    assert counters["hierarchy.flow_resolves"] > 0
    assert counters["hierarchy.changed_set"] > 0
    assert counters["hierarchy.releases"] == 1
    # The flat-array stores rebuilt at least once per touched link.
    assert counters["engine.flat_arrays.rebuilds"] > 0
