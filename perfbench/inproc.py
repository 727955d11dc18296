"""In-process workloads: hierarchical admission and the validation grid.

``datacenter-hier`` preloads a :class:`HierarchicalAdmissionController`
from ``datacenter_flows`` (a multi-pod fat tree), then one caller runs a
closed loop of rack-local probe admits, rotating over every rack, with
a release of the oldest admitted probe every ``RELEASE_EVERY`` admits.
The fabric, its preloaded flows and the probes are fixed
(``HIER_FABRIC_SEED``), as a TCP workload's scenario is; ``--seed`` picks
where in the rotation over the racks the loop starts.

``validate-grid`` runs ``CampaignRunner(jobs=1, actions=("validate",))``
over a fixed ``fat-tree`` grid: the holistic bound of every flow and
frame against the simulated worst response in both switch modes.
``--seed`` only shuffles the order of the grid's scenarios.

Both run pinned to one CPU, with a calibrator on it; gated times are at
the reference speed (see :mod:`speed`).
"""

from __future__ import annotations

import gc
import os
import time
from collections import deque

import numpy as np

import layers
import spans
import speed
from measure import (
    Metric,
    Pass,
    counter,
    peak_rss_mb,
    percentile,
    ratio,
    timing,
)

#: Preloads per run; ``setup_s`` is their median.
HIER_SETUPS = 3
#: Grid builds per run (each takes a fraction of a second).
GRID_SETUPS = 5

# ----------------------------------------------------------------------
# datacenter-hier
# ----------------------------------------------------------------------
HIER_CASE = dict(
    pods=4, aggs_per_pod=2, leaves_per_pod=4, hosts_per_leaf=8, cores=2,
    n_mice=800, n_elephants=16, incast_groups=2, incast_fanin=8,
    tenants=16, cross_pod_fraction=0.1, locality=0.9,
)
HIER_FABRIC_SEED = 1
#: Probe admits per second of ``--seconds`` (sizes the fixed work).
HIER_ADMITS_PER_S = 10.0
#: A release (a cold restart of the released flow's reader closure)
#: costs about thirty admits; one per eight admits gives a run of
#: ``--seconds 16`` twenty releases.
RELEASE_EVERY = 8


def _probes(seed: int, n: int) -> list:
    """``n`` rack-local probes, one rack after another.  Which hosts a
    probe joins changes what it interferes with, and so its cost: the
    host pairs are fixed, and the seed only rotates the sequence."""
    from repro.model.flow import Flow
    from repro.scenario.families import _MICE_SPEC
    from repro.workloads.topologies import multi_pod_route

    rng = np.random.default_rng([HIER_FABRIC_SEED, 3])
    racks = [
        (pod, leaf)
        for leaf in range(HIER_CASE["leaves_per_pod"])
        for pod in range(HIER_CASE["pods"])
    ]
    pairs = [
        rng.choice(HIER_CASE["hosts_per_leaf"], size=2, replace=False)
        for _ in range(n)
    ]
    shift = int(np.random.default_rng([seed, 3]).integers(n))
    out = []
    for i in range(n):
        k = (i + shift) % n
        pod, leaf = racks[k % len(racks)]
        a, b = pairs[k]
        route = multi_pod_route(f"p{pod}_h{leaf}_{a}", f"p{pod}_h{leaf}_{b}")
        out.append(Flow(name=f"probe{k}", spec=_MICE_SPEC, route=route, priority=6))
    return out


def _preloaded():
    """A preloaded controller, its network and the (start, preload start,
    end) times of building it."""
    from repro.core.context import AnalysisOptions
    from repro.core.hierarchy import HierarchicalAdmissionController
    from repro.scenario.families import datacenter_flows

    start = time.perf_counter()
    net, flows = datacenter_flows(**HIER_CASE, seed=HIER_FABRIC_SEED)
    ctrl = HierarchicalAdmissionController(net, AnalysisOptions())
    t_preload = time.perf_counter()
    ctrl.preload(flows)
    return ctrl, net, (start, t_preload, time.perf_counter())


def run_hier(seed: int, seconds: float, *, traced: bool,
             corrupt_reference: bool = False) -> Pass:
    from repro import telemetry
    from repro.core.holistic import holistic_analysis

    cpu, _ = speed.cpus()
    probes = _probes(seed, max(RELEASE_EVERY, round(HIER_ADMITS_PER_S * seconds)))
    setups = []
    admits, releases = [], []
    changed, resolves = [], []
    live: deque[str] = deque()
    errors = 0
    recorder = installed = capture = reg = None
    with speed.pinned(cpu), speed.SpeedMonitor(cpu) as mon:
        ctrl = net = None
        for _ in range(HIER_SETUPS):
            ctrl = net = None
            gc.collect()
            ctrl, net, stamps = _preloaded()
            setups.append(stamps)
        # Keep the preloaded graph out of the collector's full sweeps,
        # which would otherwise add pauses longer than an admit (as in
        # benchmarks/bench_scaling.py).
        gc.collect()
        gc.freeze()
        if traced:
            recorder = spans.SpanRecorder("bench")
            installed = spans.Installed(recorder, spans.HIERARCHY + spans.ENGINE)
            capture = telemetry.capture()
            reg = capture.__enter__()
        start = time.perf_counter()
        try:
            for i, probe in enumerate(probes):
                before = reg.counters.get("hierarchy.changed_set", 0.0) if reg else 0
                t = time.perf_counter()
                try:
                    decision = ctrl.request(probe)
                except (KeyError, ValueError):
                    errors += 1
                    continue
                admits.append((t, time.perf_counter()))
                if reg:
                    changed.append(
                        reg.counters.get("hierarchy.changed_set", 0.0) - before
                    )
                if decision.accepted:
                    live.append(probe.name)
                if (i + 1) % RELEASE_EVERY == 0 and live:
                    before = reg.counters.get("hierarchy.flow_resolves", 0.0) if reg else 0
                    t = time.perf_counter()
                    ctrl.release(live.popleft())
                    releases.append((t, time.perf_counter()))
                    if reg:
                        resolves.append(
                            reg.counters.get("hierarchy.flow_resolves", 0.0) - before
                        )
            stop = time.perf_counter()
        finally:
            if capture is not None:
                capture.__exit__(None, None, None)
            if installed is not None:
                installed.remove()
            gc.unfreeze()
    rss = peak_rss_mb([os.getpid()])

    # Exactness: one from-scratch analysis of the admitted set must
    # reproduce the controller's bounds bit for bit.
    admitted = list(ctrl.admitted_flows)
    ref = holistic_analysis(net, admitted, ctrl.options)
    mismatched = 0
    for k, flow in enumerate(admitted):
        want = [fr.response for fr in ref.result(flow.name).frames]
        if corrupt_reference and k == 0:
            want[0] = want[0] * (1 + 1e-9) + 1e-12
        got = [fr.response for fr in ctrl.flow_results[flow.name].frames]
        mismatched += want != got
    failed = errors + mismatched

    at_ref = mon.ref_seconds
    setup_s = at_ref([s[0] for s in setups], [s[2] for s in setups])
    preload_s = at_ref([s[1] for s in setups], [s[2] for s in setups])
    admit_s = at_ref(*zip(*admits)) if admits else np.zeros(0)
    release_s = at_ref(*zip(*releases)) if releases else np.zeros(0)
    n_ops = len(admits) + len(releases)
    work_s = float(at_ref(start, stop))
    throughput = ratio(n_ops, work_s)
    e2e = {
        "setup_s": Metric("setup_s", float(np.median(setup_s)), "s", len(setups)),
        "throughput_ops_s": Metric("throughput_ops_s", throughput, "1/s", n_ops),
        "op_p50_ms": Metric("op_p50_ms", percentile(admit_s, 50) * 1e3, "ms", len(admits)),
        "peak_rss_mb": Metric("peak_rss_mb", rss, "MiB", 1),
    }
    report = [
        e2e["setup_s"],
        Metric("throughput_ops_s", throughput, "1/s", n_ops),
        *timing("admit", admit_s),
        Metric("release_p50_ms", percentile(release_s, 50) * 1e3, "ms", len(releases)),
        Metric("failed_share", ratio(failed, n_ops), "fraction", n_ops),
        Metric("peak_rss_mb", rss, "MiB", 1),
        *_wall_report(
            mon,
            setup_s=[s[2] - s[0] for s in setups],
            throughput_ops_s=ratio(n_ops, stop - start),
            p50=("admit_p50_ms", [b - a for a, b in admits]),
        ),
    ]
    result = Pass(
        e2e=e2e,
        report=report,
        attempted=n_ops + len(admitted),
        failed=failed,
        checks=[
            f"datacenter-hier: {len(admitted)} admitted flows' bounds equal "
            "a from-scratch holistic_analysis bit for bit"
        ],
        work_s=work_s,
        notes=[
            f"{len(ctrl.admitted_flows)} admitted flows after {len(admits)} "
            f"probe admits and {len(releases)} releases; op_p50_ms is "
            "admit_p50_ms",
        ],
    )
    if traced:
        sets = [_self_set(recorder)]
        snap = reg.snapshot()
        engine, counts = layers.engine(sets, snap, n_ops)
        n_adm = spans.count(sets, ["hierarchy.request"])
        n_rel = spans.count(sets, ["hierarchy.release"])
        result.layers = [
            Metric("hierarchy.admit_ms", ratio(spans.inclusive_total(sets, ["hierarchy.request"]), n_adm) * 1e3, "ms", n_adm),
            Metric("hierarchy.release_ms", ratio(spans.inclusive_total(sets, ["hierarchy.release"]), n_rel) * 1e3, "ms", n_rel),
            Metric("hierarchy.changed_set", ratio(sum(changed), len(changed)), "count", len(changed)),
            Metric("hierarchy.release_resolves", ratio(sum(resolves), len(resolves)), "count", len(resolves)),
            Metric("hierarchy.preload_s", float(np.median(preload_s)), "s", len(setups)),
            *engine,
        ]
        result.counts = {
            **counts,
            "hierarchy.changed_set": float(sum(changed)),
            "hierarchy.release_resolves": float(sum(resolves)),
        }
    return result


def _wall_report(mon: speed.SpeedMonitor, *, setup_s, throughput_ops_s,
                 p50: tuple[str, list]) -> list[Metric]:
    """The raw wall-clock figures beside the reference-speed ones, and the
    CPU's slowdown while they were taken."""
    name, values = p50
    return [
        Metric("wall.setup_s", float(np.median(setup_s)), "s", len(setup_s)),
        Metric("wall.throughput_ops_s", throughput_ops_s, "1/s", 1),
        Metric(f"wall.{name}", percentile(values, 50) * 1e3, "ms", len(values)),
        Metric("speed.slowdown", mon.slowdown(), "ratio", 1),
    ]


def _self_set(recorder: spans.SpanRecorder) -> spans.SpanSet:
    """The in-process recorder's spans, through the same file format the
    server processes use."""
    from measure import WORK

    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{os.getpid()}.npz"
    try:
        recorder.dump(path)
        return spans.SpanSet.load(path)
    finally:
        path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# validate-grid
# ----------------------------------------------------------------------
GRID = dict(n_flows=[8], utilization=[0.4], duration=[0.25])
#: Family seed of the grid's first scenario; the grid is fixed.
GRID_BASE_SEED = 1000
#: Grid scenarios per second of ``--seconds`` (sizes the fixed work).
GRID_SCENARIOS_PER_S = 4.0


def _grid(seed: int, n: int) -> list:
    from repro.scenario.registry import scenario_grid

    specs = scenario_grid(
        "fat-tree", seed=[GRID_BASE_SEED + i for i in range(n)], **GRID
    )
    order = np.random.default_rng([seed, 5]).permutation(len(specs))
    return [specs[k].build() for k in order]


def run_grid(seed: int, seconds: float, *, traced: bool,
             corrupt_reference: bool = False) -> Pass:
    from repro import telemetry
    from repro.scenario import campaign

    cpu, _ = speed.cpus()
    n = max(4, round(GRID_SCENARIOS_PER_S * seconds))
    setups = []
    recorder = installed = capture = reg = None
    with speed.pinned(cpu), speed.SpeedMonitor(cpu) as mon:
        for _ in range(GRID_SETUPS):
            t0 = time.perf_counter()
            scenarios = _grid(seed, n)
            setups.append((t0, time.perf_counter()))
        # Each pass starts with a cold simulator cache, as a fresh process
        # would.
        campaign._SIM_CACHE.clear()
        if traced:
            recorder = spans.SpanRecorder("bench")
            installed = spans.Installed(recorder, spans.CAMPAIGN + spans.ENGINE)
            capture = telemetry.capture()
            reg = capture.__enter__()
        start = time.perf_counter()
        try:
            rows = campaign.CampaignRunner(jobs=1, actions=("validate",)).run(scenarios)
            stop = time.perf_counter()
        finally:
            if capture is not None:
                capture.__exit__(None, None, None)
            if installed is not None:
                installed.remove()
    rss = peak_rss_mb([os.getpid()])

    checked = violations = 0
    for row in rows:
        for rec in row.payload["rows"]:
            bound = rec["bound"]
            if corrupt_reference and checked == 0:
                bound = rec["sim_worst"] * 0.5
            checked += 1
            violations += not bound >= rec["sim_worst"]

    setup_s = mon.ref_seconds(*zip(*setups))
    # Rows carry their action's wall time, not its start: place them
    # back to back across the campaign call, sharing out the time
    # between actions evenly.
    elapsed = np.array([row.elapsed_s for row in rows])
    gap = max(0.0, (stop - start) - float(elapsed.sum())) / max(len(rows), 1)
    row_start = start + np.concatenate(([0.0], np.cumsum(elapsed + gap)[:-1]))
    per_scenario = mon.ref_seconds(row_start, row_start + elapsed)
    work_s = float(mon.ref_seconds(start, stop))
    throughput = ratio(len(rows), work_s)
    e2e = {
        "setup_s": Metric("setup_s", float(np.median(setup_s)), "s", len(setups)),
        "throughput_ops_s": Metric("throughput_ops_s", throughput, "1/s", len(rows)),
        "op_p50_ms": Metric("op_p50_ms", percentile(per_scenario, 50) * 1e3, "ms", len(rows)),
        "peak_rss_mb": Metric("peak_rss_mb", rss, "MiB", 1),
    }
    report = [
        e2e["setup_s"],
        Metric("scenarios_per_s", throughput, "1/s", len(rows)),
        *timing("scenario", per_scenario),
        Metric("failed_share", ratio(violations, max(checked, 1)), "fraction", checked),
        Metric("peak_rss_mb", rss, "MiB", 1),
        *_wall_report(
            mon,
            setup_s=[b - a for a, b in setups],
            throughput_ops_s=ratio(len(rows), stop - start),
            p50=("scenario_p50_ms", list(elapsed)),
        ),
    ]
    result = Pass(
        e2e=e2e,
        report=report,
        attempted=max(checked, 1),
        failed=violations if checked else 1,
        checks=[f"validate-grid: {checked} rows have bound >= sim_worst"],
        work_s=work_s,
        notes=[
            f"{len(rows)} scenarios, {checked} bound-vs-simulation rows, "
            f"campaign digest {campaign.campaign_digest(rows)}; op_p50_ms "
            "is scenario_p50_ms, the median per-scenario validation time",
        ],
    )
    if traced:
        sets = [_self_set(recorder)]
        snap = reg.snapshot()
        engine, counts = layers.engine(sets, snap, len(rows))
        result.layers = _sim_layers(sets, snap, stop - start) + engine
        result.counts = {**counts, "sim.events": counter(snap, "sim.events")}
    return result


def _sim_layers(sets, snap, work_s: float) -> list[Metric]:
    def mean_ms(name: str) -> tuple[float, int]:
        k = spans.count(sets, [name])
        return ratio(spans.inclusive_total(sets, [name]), k) * 1e3, k

    build, n_build = mean_ms("sim.build")
    inject, n_inject = mean_ms("sim.rebind")
    dispatch, n_dispatch = mean_ms("sim.dispatch")
    finalize_total = spans.self_total(sets, ["sim.run"])
    n_run = spans.count(sets, ["sim.run"])
    events = counter(snap, "sim.events")
    dispatch_total = spans.inclusive_total(sets, ["sim.dispatch"])
    analysis = spans.inclusive_total(sets, ["holistic.analysis"])
    return [
        Metric("sim.build_ms", build, "ms", n_build),
        Metric("sim.inject_ms", inject, "ms", n_inject),
        Metric("sim.dispatch_ms", dispatch, "ms", n_dispatch),
        Metric("sim.finalize_ms", ratio(finalize_total, n_run) * 1e3, "ms", n_run),
        Metric("sim.events", events, "count", n_run),
        Metric("sim.dispatch_events_per_s", ratio(events, dispatch_total), "1/s", n_dispatch),
        Metric("sim.build_share", ratio(spans.inclusive_total(sets, ["sim.build"]), work_s), "fraction", n_build),
        Metric("sim.inject_share", ratio(spans.inclusive_total(sets, ["sim.rebind"]), work_s), "fraction", n_inject),
        Metric("sim.dispatch_share", ratio(dispatch_total, work_s), "fraction", n_dispatch),
        Metric("sim.finalize_share", ratio(finalize_total, work_s), "fraction", n_run),
        Metric("campaign.analysis_share", ratio(analysis, work_s), "fraction", spans.count(sets, ["holistic.analysis"])),
    ]
