"""Parallel campaign execution: fan scenarios over a worker pool.

A *campaign* is a list of scenarios (or :class:`ScenarioSpec` recipes)
run through one or more *actions*:

* ``analyze``  — the holistic analysis: per-flow/per-frame bounds;
* ``simulate`` — the discrete-event simulator: per-flow response stats;
* ``simulate-batched`` — the same result document, computed through a
  per-process simulator cache: grid points sharing a topology (same
  network, same topology-baked ``SimConfig`` fields) reuse one built
  :class:`~repro.sim.simulator.Simulator` and only rebind flows and
  releases (:meth:`~repro.sim.simulator.Simulator.rebind` is
  bit-identical to a fresh build), so E4/E5-style sweeps stop paying
  construction cost per row;
* ``validate`` — analysis vs both simulator modes, per (flow, frame),
  with the simulations drawn through the same batched cache;
* ``admit``    — sequential admission of the flows, then the churn
  sequence, through :class:`~repro.core.admission.AdmissionController`
  (``admit-hierarchical``, a removed action name, resolves to it).

:class:`CampaignRunner` executes the cross product deterministically:
results come back as ordered :class:`CampaignResult` rows whose
payloads are **bit-identical regardless of the worker count** — every
action is a pure function of its scenario, scenarios built from specs
are deterministic in their parameters (the registry contract), and rows
are reassembled in submission order.  Only the ``elapsed_s`` timing
differs between runs; it is deliberately excluded from
:meth:`CampaignResult.signature`.

Workers are ``multiprocessing`` processes (fork server where available)
receiving picklable work units: specs are resolved *inside* the worker,
so scenario generation itself parallelises.  ``jobs=1`` bypasses the
pool entirely and is the reference serial semantics.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.core.admission import AdmissionController
from repro.core.demand import clear_demand_caches, record_demand_cache_telemetry
from repro.core.holistic import holistic_analysis
from repro.scenario.model import Scenario, ScenarioSpec
from repro.sim.simulator import (
    TOPOLOGY_CONFIG_FIELDS,
    SimConfig,
    Simulator,
    simulate,
)
from repro.sim.trace import SimulationTrace


# ----------------------------------------------------------------------
# Built-in actions (module-level: picklable by qualified name)
# ----------------------------------------------------------------------
def action_analyze(scenario: Scenario) -> dict[str, Any]:
    """Holistic analysis of the scenario's flow set."""
    result = holistic_analysis(
        scenario.network, scenario.flows, scenario.options
    )
    flows: dict[str, Any] = {}
    for name in sorted(result.flow_results):
        fr = result.result(name)
        flows[name] = {
            "worst_response": fr.worst_response,
            "schedulable": fr.schedulable,
            "frames": [
                {
                    "frame": f.frame,
                    "response": f.response,
                    "deadline": f.deadline,
                    "schedulable": f.schedulable,
                }
                for f in fr.frames
            ],
        }
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "schedulable": result.schedulable,
        "flows": flows,
    }


def _simulate_payload(scenario: Scenario, trace: SimulationTrace) -> dict[str, Any]:
    """The ``simulate`` action's result document for one trace."""
    deadlines = {f.name: f.spec.deadlines for f in scenario.flows}
    return {
        "events": trace.events_processed,
        "incomplete": trace.count_incomplete(),
        "deadline_misses": trace.deadline_misses(deadlines),
        "flows": {
            name: {
                "packets": trace.count_completed(name),
                "worst_response": trace.worst_response(name),
                "mean_response": trace.mean_response(name),
            }
            for name in trace.flows()
        },
    }


def action_simulate(scenario: Scenario) -> dict[str, Any]:
    """One simulator run under the scenario's :class:`SimConfig`."""
    trace = simulate(scenario.network, scenario.flows, config=scenario.sim)
    return _simulate_payload(scenario, trace)


# ----------------------------------------------------------------------
# Batched simulation: reuse one built topology across grid points
# ----------------------------------------------------------------------
#: Per-process cache of built simulators, keyed by topology signature.
#: Small by design: a validate action cycles two entries (one per
#: switch mode) and mixed campaigns a couple more.
_SIM_CACHE: "OrderedDict[str, Simulator]" = OrderedDict()
_SIM_CACHE_MAX = 4


def _sim_topology_key(network, config: SimConfig) -> str:
    """Digest of everything a built simulator topology is baked from:
    the network document plus the topology-baked config fields."""
    from repro.io import network_to_dict

    doc = {
        "network": network_to_dict(network),
        "config": {
            name: repr(getattr(config, name))
            for name in TOPOLOGY_CONFIG_FIELDS
        },
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def batched_trace(network, flows, config: SimConfig) -> SimulationTrace:
    """Simulate via the per-process topology cache.

    Value-equal ``(network, topology config)`` pairs reuse one built
    :class:`Simulator`, rebinding only flows/releases.  Results are
    bit-identical to a fresh ``simulate`` call regardless of cache
    state (``rebind`` guarantees it), so campaign rows stay
    reproducible for any worker count — consecutive grid points landing
    in the same worker simply stop paying construction cost.
    """
    key = _sim_topology_key(network, config)
    sim = _SIM_CACHE.pop(key, None)
    if sim is None:
        sim = Simulator(network, flows, config)
    else:
        sim.rebind(flows, config)
    trace = sim.run()
    # Don't let the cached topology pin the returned trace's packet
    # records in memory until the next rebind/eviction.
    sim.trace = SimulationTrace(duration=config.duration)
    _SIM_CACHE[key] = sim
    while len(_SIM_CACHE) > _SIM_CACHE_MAX:
        _SIM_CACHE.popitem(last=False)
    return trace


def action_simulate_batched(scenario: Scenario) -> dict[str, Any]:
    """``simulate`` through the topology cache — same payload, built
    topology shared across same-network grid points."""
    trace = batched_trace(scenario.network, scenario.flows, scenario.sim)
    return _simulate_payload(scenario, trace)


def action_validate(
    scenario: Scenario, *, modes: Sequence[str] = ("event", "rotation")
) -> dict[str, Any]:
    """Analysis bounds vs simulated worst responses (both modes).

    Returns one row per (flow, frame, mode) that completed at least one
    packet; ``converged=False`` short-circuits with no rows (the E4
    "unschedulable set skipped" case).
    """
    import math

    analysis = holistic_analysis(
        scenario.network, scenario.flows, scenario.options
    )
    if not analysis.converged:
        return {"converged": False, "rows": []}
    rows: list[dict[str, Any]] = []
    for mode in modes:
        trace = batched_trace(
            scenario.network,
            scenario.flows,
            replace(scenario.sim, switch_mode=mode),
        )
        for f in scenario.flows:
            for k in range(f.spec.n_frames):
                sim_worst = trace.worst_response(f.name, k)
                if sim_worst == -math.inf:
                    continue
                rows.append(
                    {
                        "flow": f.name,
                        "frame": k,
                        "mode": mode,
                        "bound": analysis.result(f.name).frame(k).response,
                        "sim_worst": sim_worst,
                        "samples": len(trace.responses(f.name, k)),
                    }
                )
    return {"converged": True, "rows": rows}


def action_admit(scenario: Scenario) -> dict[str, Any]:
    """Sequential admission of the base flows, then the churn events."""
    ctrl = AdmissionController(scenario.network, scenario.options)
    admitted: set[str] = set()
    steps: list[dict[str, Any]] = []

    def offer(flow) -> None:
        decision = ctrl.request(flow)
        if decision.accepted:
            admitted.add(flow.name)
        steps.append(
            {
                "event": "admit",
                "flow": flow.name,
                "accepted": decision.accepted,
                "reason": decision.reason,
            }
        )

    for ev in scenario.workload_events():
        if ev.action == "admit":
            offer(ev.flow)
        else:
            # A release of a flow whose admission was rejected is a
            # no-op storyline step, not an error.
            if ev.flow_name in admitted:
                ctrl.release(ev.flow_name)
                admitted.discard(ev.flow_name)
                steps.append({"event": "release", "flow": ev.flow_name})
            else:
                steps.append(
                    {"event": "release-skipped", "flow": ev.flow_name}
                )
    return {
        "steps": steps,
        "accepted": sum(
            1 for s in steps if s["event"] == "admit" and s["accepted"]
        ),
        "offered": sum(1 for s in steps if s["event"] == "admit"),
        "admitted": sorted(admitted),
    }


#: Name → callable for the string form of the ``actions`` argument.
ACTIONS: dict[str, Callable[[Scenario], dict[str, Any]]] = {
    "analyze": action_analyze,
    "simulate": action_simulate,
    "simulate-batched": action_simulate_batched,
    "validate": action_validate,
    "admit": action_admit,
}

#: Removed action names that still resolve (campaign files and command
#: lines that name them keep running).
_MERGED_ACTIONS = {"admit-hierarchical": "admit"}


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignResult:
    """One (scenario, action) outcome row.

    ``payload`` is the action's JSON-able result document;
    ``elapsed_s`` is the worker-side wall time of the action (the only
    field allowed to differ between serial and parallel runs).
    ``telemetry`` is the action's registry snapshot when collection was
    enabled (None otherwise); like the timing, it is observational and
    excluded from :meth:`signature`.
    """

    index: int
    scenario: str
    family: str | None
    action: str
    elapsed_s: float
    payload: Mapping[str, Any]
    telemetry: Mapping[str, Any] | None = None

    def signature(self) -> str:
        """Deterministic digest of everything except timing/telemetry."""
        doc = {
            "index": self.index,
            "scenario": self.scenario,
            "family": self.family,
            "action": self.action,
            "payload": self.payload,
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()


def campaign_digest(results: Sequence[CampaignResult]) -> str:
    """Order-sensitive digest of a whole campaign (timing excluded)."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.signature().encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _resolve_action(
    action: str | Callable[[Scenario], Mapping[str, Any]],
) -> tuple[str, Callable[[Scenario], Mapping[str, Any]]]:
    if callable(action):
        name = getattr(action, "__name__", None) or getattr(
            getattr(action, "func", None), "__name__", "custom"
        )
        return str(name), action
    action = _MERGED_ACTIONS.get(action, action)
    try:
        return action, ACTIONS[action]
    except KeyError:
        raise KeyError(
            f"unknown campaign action {action!r}; "
            f"built-ins: {sorted(ACTIONS)}"
        ) from None


def _run_item(
    item: tuple[int, Scenario | ScenarioSpec, tuple],
) -> list[CampaignResult]:
    """Worker body: build the scenario if needed, run every action."""
    index, unit, actions = item
    # Row boundary: the module-level window-packing caches in
    # core/demand.py are process-shared and would otherwise accumulate
    # entries across every scenario a long-lived worker sees; each row
    # starts from a clean slate (profiles are pure functions of their
    # inputs, so this only costs rebuild time, never changes results).
    clear_demand_caches()
    scenario = unit.build() if isinstance(unit, ScenarioSpec) else unit
    family = scenario.generator.family if scenario.generator else None
    rows: list[CampaignResult] = []
    for name, fn in actions:
        if _telemetry.REGISTRY is None:
            start = time.perf_counter()
            payload = fn(scenario)
            elapsed = time.perf_counter() - start
            snapshot = None
        else:
            # Per-action capture: the row carries exactly this action's
            # counts (forked workers inherit the parent registry, so the
            # swap also keeps pre-fork totals out of the row).  The
            # runner merges row snapshots back into the campaign total.
            with _telemetry.capture() as reg:
                with reg.span(f"campaign.{name}"):
                    start = time.perf_counter()
                    payload = fn(scenario)
                    elapsed = time.perf_counter() - start
                # Publish the module-cache levels this action left
                # behind (gauges: merged by max across rows/workers).
                record_demand_cache_telemetry()
            snapshot = reg.snapshot()
        rows.append(
            CampaignResult(
                index=index,
                scenario=scenario.name,
                family=family,
                action=name,
                elapsed_s=elapsed,
                payload=dict(payload),
                telemetry=snapshot,
            )
        )
    return rows


def _pool_context():
    # Shared policy with the service's shard workers: see repro.util.mp.
    from repro.util.mp import mp_context

    return mp_context()


class CampaignRunner:
    """Run scenario campaigns across a multiprocessing pool.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process.  The
        results are bit-identical for any value (only timings differ).
    actions:
        Default action list: built-in names or callables
        ``(Scenario) -> mapping`` (module-level functions / partials so
        they pickle).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        actions: Sequence[str | Callable] = ("analyze",),
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.actions = tuple(actions)

    # ------------------------------------------------------------------
    def run(
        self,
        scenarios: Sequence[Scenario | ScenarioSpec],
        *,
        actions: Sequence[str | Callable] | None = None,
        jobs: int | None = None,
    ) -> list[CampaignResult]:
        """Execute ``scenarios x actions``; rows in submission order."""
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        resolved = tuple(
            _resolve_action(a) for a in (actions or self.actions)
        )
        if not resolved:
            raise ValueError("a campaign needs at least one action")
        work = [
            (i, unit, resolved) for i, unit in enumerate(scenarios)
        ]
        if jobs == 1 or len(work) <= 1:
            nested = [_run_item(item) for item in work]
        else:
            with _pool_context().Pool(processes=min(jobs, len(work))) as pool:
                nested = pool.map(_run_item, work)
        flat = [row for rows in nested for row in rows]
        # Fold the per-row captures into the caller's registry so a
        # campaign contributes one set of totals regardless of jobs.
        reg = _telemetry.REGISTRY
        if reg is not None:
            for row in flat:
                if row.telemetry:
                    reg.merge(row.telemetry)
        return flat

    def run_grid(
        self,
        family: str,
        *,
        actions: Sequence[str | Callable] | None = None,
        jobs: int | None = None,
        **axes: Any,
    ) -> list[CampaignResult]:
        """Expand a parametric grid over a registered family and run it."""
        from repro.scenario.registry import scenario_grid

        return self.run(
            scenario_grid(family, **axes), actions=actions, jobs=jobs
        )
