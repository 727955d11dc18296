"""Engine equivalence: production must not move a single bit from the seed.

Production analyses a flow set through one path of exactness-preserving
shortcuts: the certified-floor fixed-point solver, the stage-ordered
holistic solve, the per-stage input memo with its verified reuse of
stored fixed points, and stage interference sets gathered from flat
per-link demand arrays and summed by fused scalar kernels; the
admission controller adds a utilisation pre-check on the candidate's
route, re-solves only the changed set, warm from the admitted set's
table, and resets only a released flow's cone.  The floor never lifts
an iterate past the least fixed point, the stage solve runs a stage
only once its own entry holds its flow's current JSUM and re-runs only
stages whose inputs moved, the memo replays a stage only over the
participants it was recorded over, and only when its exact inputs are
unchanged or when they have only grown and every stored fixed point
reproduces itself bit for bit under them (then it is still the least
one), the flat gather reads the same window arrays in the same
summation order, and a warm start seeds the monotone iteration below
the new fixed point.

These tests are the executable form of that claim.  The reference is
the seed engine kept in ``tests/oracle.py``: plain Picard fixed points,
every flow analysed every round, every stage recomputed, and per-flow
scalar demand sums.  Across seeded ``random_flow_set`` sweeps on line /
star / tree / multi-pod topologies, production (the ``all`` engine)
must return the oracle's converged bounds and stage responses
**bit-identically** (``==`` on floats, no tolerance).  The sweep also
puts each production layer alone on top of the oracle —
``accelerated`` (certificates), ``stages`` (the stage-ordered solve),
``memoized`` (the memo, verified reuse included), ``flat`` (the
flat-array gather) — so a mismatch names the layer that moved the bit.
The layers that keep the oracle's sweep must also take its round
count.  The stage solve counts stage rounds instead: these inputs'
stage graphs are acyclic, so it converges in at most two (one that runs
every stage, one that confirms), and a diverged solve stops after the
round its first infinite response appears in, with every flow frame
the oracle reports infinite infinite too.  A dense input puts dozens
of interferers on a stage, and the admission tests hold production
controllers against the oracle's cold controller.
"""

import math
from collections import Counter
from functools import lru_cache

import pytest

import oracle
from repro import telemetry
from repro.core.admission import AdmissionController
from repro.core.context import AnalysisContext, AnalysisOptions
from repro.core.demand import InterferenceSet
from repro.core.holistic import holistic_analysis
from repro.util.units import mbps
from repro.workloads.generator import random_flow_set
from repro.workloads.topologies import (
    line_network,
    multi_pod_fat_tree_network,
    star_network,
    tree_network,
)


class _Uncertified:
    """A production interference set with its certificates withheld."""

    def __init__(self, inner):
        self.mx_sum = inner.mx_sum
        self.nx_sum = inner.nx_sum
        self.mixed_sum = inner.mixed_sum

    mx_support = oracle.ScalarInterference.mx_support
    nx_support = oracle.ScalarInterference.nx_support
    mixed_support = oracle.ScalarInterference.mixed_support


class _Certified(oracle.OracleContext):
    """Oracle + production certificates (the certified-floor solver)."""

    def interference(self, flows_seq, n1, n2, shifts, *, strict=False):
        return InterferenceSet(
            [self.demand(j, n1, n2) for j in flows_seq], shifts, strict=strict
        )


class _Memoized(oracle.OracleContext):
    """Oracle + the production stage memo."""

    stage_memo_get = AnalysisContext.stage_memo_get
    stage_memo_put = AnalysisContext.stage_memo_put


class _Flat(oracle.OracleContext):
    """Oracle summing over the production flat-array gather."""

    def interference(self, flows_seq, n1, n2, shifts, *, strict=False):
        return _Uncertified(
            AnalysisContext.interference(
                self, flows_seq, n1, n2, shifts, strict=strict
            )
        )


def _run(engine, net, flows):
    """The analysis of ``flows`` by one engine of the sweep."""
    if engine == "all":
        return holistic_analysis(net, flows)
    if engine == "stages":
        ctx = oracle.OracleContext(net, flows)
        return holistic_analysis(net, flows, context=ctx)
    layer = {
        "accelerated": _Certified,
        "memoized": _Memoized,
        "flat": _Flat,
    }[engine]
    return oracle.sweep(layer(net, flows))


def _topology(name):
    if name == "line3":
        return line_network(3, hosts_per_switch=3, speed_bps=mbps(1000))
    if name == "star6":
        return star_network(6, speed_bps=mbps(100))
    if name == "tree2":
        return tree_network(
            2, fanout=2, hosts_per_leaf=2, speed_bps=mbps(1000)
        )
    if name == "multipod":
        return multi_pod_fat_tree_network(
            pods=2,
            aggs_per_pod=1,
            leaves_per_pod=2,
            hosts_per_leaf=2,
            cores=1,
            speed_bps=mbps(100),
        )
    raise ValueError(name)


@lru_cache(maxsize=None)
def _case(topology, seed, utilization):
    """One sweep input and the oracle's answer for it (computed once,
    shared by every engine compared against it)."""
    net = _topology(topology)
    flows = random_flow_set(
        net, n_flows=10, total_utilization=utilization, seed=seed
    )
    return net, flows, oracle.holistic_analysis(net, flows)


def assert_bit_identical(a, b):
    """Two :class:`HolisticResult` objects agree bit for bit, round
    count included."""
    assert a.iterations == b.iterations
    assert_same_bounds(a, b)


def assert_same_bounds(a, b):
    """Two :class:`HolisticResult` objects agree on convergence and on
    every bound and stage response, bit for bit."""
    assert a.converged == b.converged
    assert set(a.flow_results) == set(b.flow_results)
    for name in a.flow_results:
        fa = a.flow_results[name]
        fb = b.flow_results[name]
        assert len(fa.frames) == len(fb.frames)
        for frame_a, frame_b in zip(fa.frames, fb.frames):
            assert frame_a.response == frame_b.response, (
                f"{name} frame {frame_a.frame}: "
                f"{frame_a.response!r} != {frame_b.response!r}"
            )
            assert frame_a.deadline == frame_b.deadline
            assert len(frame_a.stages) == len(frame_b.stages)
            for sa, sb in zip(frame_a.stages, frame_b.stages):
                assert sa.resource == sb.resource
                assert sa.response == sb.response, (
                    f"{name} frame {frame_a.frame} stage {sa.resource}: "
                    f"{sa.response!r} != {sb.response!r}"
                )


def assert_stage_solve_matches(result, reference):
    """A stage-ordered solve against the oracle's sweep on an acyclic
    stage graph: converged bounds and stage responses bit for bit in at
    most two stage rounds; a diverged solve diverges with the oracle,
    and every frame the oracle reports infinite is infinite."""
    assert result.converged == reference.converged
    if reference.converged:
        assert result.iterations <= 2
        assert_same_bounds(result, reference)
        return
    assert set(result.flow_results) == set(reference.flow_results)
    for name, ref in reference.flow_results.items():
        got = result.flow_results[name]
        for frame_a, frame_b in zip(got.frames, ref.frames):
            if math.isinf(frame_b.response):
                assert math.isinf(frame_a.response), (
                    f"{name} frame {frame_a.frame}: {frame_a.response!r}"
                )


@pytest.mark.parametrize(
    "engine",
    [
        "accelerated",
        "all",
        "flat",
        "memoized",
        # The stage-solve layer keeps the ID of the flow-level worklist
        # it replaced, so these test IDs stay stable until the legacy
        # IDs are renamed together (ROADMAP, "Smaller carried items").
        pytest.param("stages", id="worklist"),
    ],
)
@pytest.mark.parametrize("topology", ["line3", "star6", "tree2", "multipod"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("utilization", [0.3, 0.85])
def test_fast_engine_matches_seed_engine(engine, topology, seed, utilization):
    """Property sweep: production, and each of its layers alone on top
    of the oracle, == the oracle's seed engine.  A converged memoized
    run must also have reused stored fixed points under grown inputs,
    not only replayed unchanged ones."""
    net, flows, reference = _case(topology, seed, utilization)
    with telemetry.capture() as reg:
        result = _run(engine, net, flows)
    if engine in ("all", "stages"):
        assert_stage_solve_matches(result, reference)
    else:
        assert_bit_identical(result, reference)
    if engine == "memoized" and reference.converged:
        counters = reg.snapshot()["counters"]
        assert counters.get("engine.stage_memo.verified", 0) > 0


@pytest.mark.parametrize("strict", [False, True], ids=["corrected", "strict"])
def test_dense_stages_match_seed_engine(strict):
    """80 flows over three hosts put dozens of interferers on every
    stage, whose fused sums must add up exactly like the oracle's
    per-flow loop, in both the corrected and the printed (strict)
    model."""
    net = star_network(3)
    flows = random_flow_set(net, n_flows=80, total_utilization=0.8, seed=0)
    per_link = Counter(link for f in flows for link in f.links())
    assert max(per_link.values()) >= 20, "no link carries a dense stage"
    options = AnalysisOptions(strict_paper=strict)
    production = holistic_analysis(net, flows, options)
    reference = oracle.holistic_analysis(net, flows, options)
    assert reference.converged
    assert_stage_solve_matches(production, reference)


@pytest.mark.parametrize("utilization", [0.5, 1.6])
@pytest.mark.parametrize("seed", [11, 23])
def test_admission_decisions_match_seed_engine(seed, utilization):
    """The production controller and the oracle's cold controller agree.

    Production uses its route pre-check and re-solves only the changed
    set, warm from the admitted set's table (``dp.analysis`` holds just
    those flows); the oracle re-analyses every tentative set from
    scratch with the seed engine.  Decisions, final admitted sets and
    all *converged* response bounds must coincide.  A
    pre-check rejection carries no analysis; the oracle's full analysis
    of the same set must then diverge.  Exemptions: round counts may
    differ (warm starts converge in fewer holistic rounds), and when a
    tentative analysis *diverges* the reported bounds are a partial
    trajectory (the engines stop mid-climb), which a warm start
    legitimately shifts — both controllers must still agree that the
    set diverged and reject.
    """
    net = line_network(3, hosts_per_switch=4, speed_bps=mbps(1000))
    flows = random_flow_set(
        net, n_flows=16, total_utilization=utilization, seed=seed
    )
    production = AdmissionController(net)
    cold = oracle.ColdAdmissionController(net)

    accepted = 0
    for flow in flows:
        dp = production.request(flow)
        dc = cold.request(flow)
        assert dp.accepted == dc.accepted, (
            f"{flow.name}: production={dp.reason!r} oracle={dc.reason!r}"
        )
        accepted += dp.accepted
        if dp.analysis is None:
            assert not dc.analysis.converged
            continue
        assert dp.analysis.converged == dc.analysis.converged
        if not dp.analysis.converged:
            continue
        for name, result in dp.analysis.flow_results.items():
            ref = dc.analysis.flow_results[name]
            for frame_a, frame_b in zip(result.frames, ref.frames):
                assert frame_a.response == frame_b.response, (
                    f"{name} frame {frame_a.frame}: "
                    f"{frame_a.response!r} != {frame_b.response!r}"
                )
    assert [f.name for f in production.admitted_flows] == [
        f.name for f in cold.admitted_flows
    ]
    if utilization > 1.0:
        # The overload sweep must actually exercise the rejection paths.
        assert accepted < len(flows)


@pytest.mark.parametrize("seed", [5])
def test_release_then_readmit_matches_from_scratch(seed):
    """Churn equivalence: release + re-admit == analysing the final set.

    After admitting N flows, releasing one and re-admitting it, the
    controller's incremental state (demand profiles rebuilt over the
    shared window tables, the cone reset of the release, the warm
    admit) must yield exactly the bounds
    the oracle's from-scratch analysis of the same final flow set
    produces.
    """
    net = line_network(3, hosts_per_switch=4, speed_bps=mbps(1000))
    flows = random_flow_set(
        net, n_flows=8, total_utilization=0.3, seed=seed
    )
    ctrl = AdmissionController(net)
    admitted = [flow for flow in flows if ctrl.request(flow).accepted]
    assert len(admitted) >= 3  # enough survivors to make churn meaningful
    churner = admitted[len(admitted) // 2]
    ctrl.release(churner.name)
    assert ctrl.request(churner).accepted

    names = [f.name for f in ctrl.admitted_flows]
    final_set = [next(f for f in flows if f.name == n) for n in names]
    reference = oracle.holistic_analysis(net, final_set)
    analysis = ctrl.last_analysis
    assert analysis.converged and reference.converged
    for name, result in reference.flow_results.items():
        got = analysis.flow_results[name]
        for frame_a, frame_b in zip(got.frames, result.frames):
            assert frame_a.response == frame_b.response
