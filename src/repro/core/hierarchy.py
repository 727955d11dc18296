"""The admission engine: O(changed-set) incremental re-analysis.

Sec. 3.5 of the paper makes the holistic analysis an admission
controller: a flow is accepted exactly when the holistic fixed point of
the admitted set plus the candidate converges and every frame of every
flow still meets its deadline.  Re-running that analysis over the whole
admitted set per request is exact, but at datacenter scale (10^5 flows
over a multi-pod fat tree) even a warm-started confirming round touches
every flow, so a single admit costs seconds.  A stage's analysis
depends only on the jitters of its participants, and the stage-ordered
solve of ``core/holistic.py`` (:class:`~repro.core.holistic.StageSchedule`)
already runs only the stages whose inputs moved; this module keeps one
context and one schedule across requests, so the *flow set itself* is
incremental and one request touches only the candidate's dependency
cone:

* :class:`DemandEnvelopes` — the necessary-condition pre-check of a
  request, over the candidate's route only (every other resource kept
  its previously sub-unit utilisation), on the sums the stages keep on
  each link's demand matrix;
* :class:`AdmissionController` — the incremental admit/release engine
  over one :class:`~repro.core.context.AnalysisContext`, whose flow set
  changes in place (``add_flow``/``remove_flow``) and whose undo logs
  withdraw a rejected candidate.  The controller keeps the admission
  bookkeeping: the reader edges a new flow creates and a released
  flow's cone.  :mod:`repro.core.admission` is its public import path,
  and each server of :mod:`repro.service.sharding` runs one.  (The
  module keeps its older name because the benchmark's span wrappers
  look up :func:`analyze_flow` here.)

Exactness
---------
Decisions and converged jitter tables are bit-identical to those of a
from-scratch analysis of the admitted set: ``tests/test_hierarchy.py``
checks them after every step against the seed engine of
``tests/oracle.py``, and the decisions against the oracle's serial
controller, which re-runs the seed iteration over the whole tentative
set.  ``core/holistic.py`` says why a solve reaches the least fixed
point from any start at or below it, on acyclic and cyclic stage
graphs; each operation supplies such a start and marks every stage
whose inputs it changed:

* **admit** marks the candidate's first stage and every stage whose
  participant set the candidate joined (the
  :meth:`~AdmissionController._edge_changes` gains, the subject's side
  of the reads :func:`~repro.core.pipeline.plan_stage` names; the
  readers-map test of ``tests/test_stage_solve.py`` holds the two
  together); all other stages' inputs are untouched, so re-running
  them would reproduce their results bit for bit.  The admitted set's
  converged table is a sound warm start (adding interference only
  raises the least fixed point).  A rejected candidate's writes are
  rolled back through the undo logs of the jitter table and the stage
  memo.
* **release** removes interference, which *lowers* the least fixed
  point.  Only the released flow's *cone* is reset to the cold
  defaults: the ``(flow, resource)`` jitter entries whose value can
  depend on it.  A stage is affected when its participant set held the
  released flow or it reads a cone entry, and an affected stage puts
  its flow's entries at every later resource of the route into the
  cone.  The affected stages are marked; every other stage, and every
  entry outside the cone, is left as it is.

  This is exact.  An entry is written only by its own flow's earlier
  stages, and a stage reads only its participants' entries at its own
  resource (at an egress also the flow's constant blocking term).  So
  entries outside the cone depend only on entries outside it, through
  participant sets the released flow was not in: they already sit at
  the new least fixed point.  The reset cone entries lie below it, so
  the monotone iteration converges to it, as from scratch.

  The reset is cold, not warm: with cyclic channel dependencies
  (routes around a ring) re-iterating from the old, now
  over-approximating entries can settle on a non-least fixed point.
  ``tests/test_hierarchy.py::test_ring_release_matches_from_scratch``
  pins two such inputs.
* **preload** (and so ``restore``) is the solve of
  :func:`~repro.core.holistic.holistic_analysis`: the seeded table and
  the new flows may move stages of flows admitted before, so it walks
  every flow from its first stage, as if new; on an acyclic graph each
  stage runs exactly once.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.core.context import (
    AnalysisContext,
    AnalysisOptions,
    ResourceKey,
    ingress_resource,
    link_resource,
)
from repro.core.first_hop import first_hop_sum
from repro.core.holistic import StageSchedule

# The engine runs single stages (run_stage), not whole walks; the
# analyze_flow name stays importable here because the benchmark's span
# wrappers (perfbench/spans.py, spans.ENGINE) look it up in this module.
from repro.core.pipeline import analyze_flow, run_stage  # noqa: F401
from repro.core.results import (
    AdmissionDecision,
    FlowResult,
    HolisticResult,
    first_violation,
)
from repro.core.switch_ingress import ingress_sum
from repro.model.flow import Flow
from repro.model.network import Network
from repro.telemetry import tracing as _tracing


class DemandEnvelopes:
    """The necessary-condition pre-check of an admission request.

    A full check sweeps the whole network
    (:func:`~repro.core.utilization.network_convergence_report`); an
    admission request only needs the candidate's route — every other
    resource kept its previously sub-unit utilisation.  The sums are
    the stages' own applicability sums (:func:`first_hop_sum`,
    :func:`ingress_sum`), kept on each link's demand matrix and retired
    with the link's flow set, so the pre-check and the stages share one
    copy.

    Note the link entry doubles as the worst egress-applicability value
    (Eqs. 34/35 plus own demand) over the link's flows: the
    minimum-priority flow's ``hep`` set is every other flow on the
    link, so its own+hep utilisation is the link total (Eq. 20).
    """

    def __init__(self, ctx: AnalysisContext):
        self._ctx = ctx

    def violation(self, flow: Flow) -> tuple[ResourceKey, float] | None:
        """Worst over-unit resource on ``flow``'s route, if any."""
        ctx = self._ctx
        route = flow.route
        checks = [
            (
                link_resource(route[0], route[1]),
                first_hop_sum(ctx, route[0], route[1]),
            )
        ]
        for i in range(1, len(route) - 1):
            checks.append(
                (
                    ("in", route[i], route[i - 1]),
                    ingress_sum(ctx, route[i], route[i - 1]),
                )
            )
            checks.append(
                (
                    link_resource(route[i], route[i + 1]),
                    first_hop_sum(ctx, route[i], route[i + 1]),
                )
            )
        worst_key, worst = None, 0.0
        for key, val in checks:
            if val >= 1.0 and val > worst:
                worst_key, worst = key, val
        return (worst_key, worst) if worst_key is not None else None


class AdmissionController:
    """Admission control with O(changed-set) incremental re-analysis.

    >>> ctrl = AdmissionController(network)          # doctest: +SKIP
    >>> decision = ctrl.request(flow)                # doctest: +SKIP
    >>> decision.accepted                            # doctest: +SKIP

    A request first checks the necessary utilisation condition on the
    candidate's route (:class:`DemandEnvelopes`) and, when it fails,
    rejects before any response-time analysis runs.  Otherwise it
    re-solves, stage by stage, the candidate and the stages whose
    participant sets it joined, starting from the admitted set's
    converged table, and rolls the tentative writes back on a reject.
    Per-request work is proportional to the candidate's dependency cone
    instead of the admitted-set size — milliseconds at 10^5 admitted
    flows.

    Released and rejected flows leave the context with their demand
    profiles.  Their window tables stay in the process-wide, name-free
    cache of :func:`~repro.core.demand.build_link_demand`, so a flow
    admitted again (the churn of a call service, or an equal flow
    re-parsed from the wire) rebuilds only its named views over them.

    :meth:`preload` bulk-admits a known-good set with one solve (its
    state equals the sequential-admission outcome); :meth:`export_state`
    and :meth:`restore` carry the converged state between processes.
    """

    def __init__(
        self,
        network: Network,
        options: AnalysisOptions | None = None,
        initial_flows: Sequence[Flow] = (),
    ):
        self.network = network
        self.options = options or AnalysisOptions()
        self._ctx = AnalysisContext(network, (), self.options)
        self._envelopes = DemandEnvelopes(self._ctx)
        self._stages = StageSchedule(self._ctx)
        self._results: dict[str, FlowResult] = {}
        if initial_flows:
            self.preload(initial_flows)

    # ------------------------------------------------------------------
    @property
    def admitted_flows(self) -> tuple[Flow, ...]:
        return tuple(self._ctx.flows)

    @property
    def flow_results(self) -> Mapping[str, FlowResult]:
        """Converged per-flow results of the admitted set (live view)."""
        return self._results

    @property
    def last_analysis(self) -> HolisticResult | None:
        """The admitted set's results (a copy), or ``None`` while the
        set is empty.

        ``iterations`` is 0: the results come from many incremental
        solves, not from one holistic iteration whose rounds could be
        counted.
        """
        if not self._results:
            return None
        return HolisticResult(
            flow_results=dict(self._results), iterations=0, converged=True
        )

    def jitter_snapshot(self) -> dict:
        """Converged explicit jitter entries of the admitted set."""
        return self._ctx.jitters.snapshot()

    # ------------------------------------------------------------------
    # Reader edges
    # ------------------------------------------------------------------
    def _edge_changes(
        self, flow: Flow
    ) -> dict[tuple[str, ResourceKey], set[str]]:
        """Reader edges ``flow``'s presence creates: each of the flow's
        jitter entries, mapped to the *other* flows that read it.

        These are the flows whose stage participant sets contain the
        flow (:func:`~repro.core.pipeline.plan_stage`), i.e. exactly
        the flows whose next analysis can differ from their cached
        result.  For each link ``(n1, n2)`` of the flow, a flow ``j``
        sharing it reads the flow's entry

        * at the link resource when the link is ``j``'s first hop
          (first-hop interference ignores priority),
        * at ``in(n2)`` when ``j`` continues past ``n2`` (ingress
          interference is every flow on the incoming link),
        * at the link resource when the link is an egress hop of ``j``
          and the flow's priority there is >= ``j``'s (Eq. 2 ``hep``).
        """
        ctx = self._ctx
        gains: dict[tuple[str, ResourceKey], set[str]] = {}
        fname = flow.name
        for n1, n2 in flow.links():
            res = link_resource(n1, n2)
            ingress = ingress_resource(n2)
            prio = None
            for j in ctx.flows_on_link(n1, n2):
                if j.name == fname:
                    continue
                jroute = j.route
                if jroute[0] == n1 and jroute[1] == n2:
                    gains.setdefault((fname, res), set()).add(j.name)
                else:
                    if prio is None:
                        prio = flow.priority_on(n1, n2)
                    if prio >= j.priority_on(n1, n2):
                        gains.setdefault((fname, res), set()).add(j.name)
                if n2 != jroute[-1]:
                    gains.setdefault((fname, ingress), set()).add(j.name)
        return gains

    def _install_edges(self, flow: Flow) -> set[tuple[str, int]]:
        """Record the edges ``flow`` creates; returns the solve's seed:
        the flow's first stage and each stage whose participant set the
        flow joined, as ``(flow name, position)``."""
        gains = self._edge_changes(flow)
        walks = self._stages.walks
        seed = {(flow.name, 0)}
        for (_, resource), names in gains.items():
            for name in names:
                seed.add((name, walks[name].positions[resource]))
        self._stages.add_readers(gains)
        self._stages.add_reads(flow)
        return seed

    def _solve(
        self,
        seed: Iterable[tuple[str, int]],
        fresh: Iterable[str] = (),
    ) -> tuple[bool, dict[str, FlowResult], int, int]:
        """One stage-ordered solve (:meth:`StageSchedule.solve`) from the
        admitted set's results, running each stage through this
        module's ``run_stage`` (looked up per solve, so a wrapper
        installed here sees every stage the engine runs)."""
        return self._stages.solve(seed, fresh, self._results, run_stage)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def request(self, flow: Flow) -> AdmissionDecision:
        """Try to admit ``flow``; accepted flows join the state.

        With telemetry on, the request is counted under ``admission.*``
        and timed in the ``admission.request_s`` histogram; with tracing
        on, it runs in an ``admission.request`` span tagged ``accepted``
        (fixed-point solves inside it add their ``fp.*`` tags to it).
        """
        reg = _telemetry.REGISTRY
        tr = _tracing.TRACER
        if reg is None and tr is None:
            return self._request(flow)
        span = (
            tr.span("admission.request")
            if tr is not None
            else _tracing.NULL_SPAN
        )
        with span:
            if reg is not None:
                reg.add("admission.requests")
            start = time.perf_counter()
            decision = self._request(flow)
            if reg is not None:
                reg.observe(
                    "admission.request_s", time.perf_counter() - start
                )
                if decision.accepted:
                    reg.add("admission.accepted")
                else:
                    reg.add("admission.rejected")
                    if decision.analysis is None:
                        reg.add("admission.fast_rejects")
            span.annotate("accepted", 1.0 if decision.accepted else 0.0)
            return decision

    def _request(self, flow: Flow) -> AdmissionDecision:
        ctx = self._ctx
        if flow.name in ctx._by_name:
            raise ValueError(f"flow name {flow.name!r} already admitted")
        ctx.add_flow(flow)  # validates the route, invalidates its links

        violation = self._envelopes.violation(flow)
        if violation is not None:
            key, value = violation
            self._withdraw(flow, edges_installed=False)
            return AdmissionDecision(
                accepted=False,
                reason=(
                    "necessary utilisation condition violated at "
                    f"{'/'.join(str(p) for p in key)} "
                    f"({value:.4f} >= 1)"
                ),
                analysis=None,
            )

        self._stages.add(flow)
        seed = self._install_edges(flow)
        ctx.begin_undo()
        converged, updated, rounds, runs = self._solve(seed, (flow.name,))
        if not converged:
            reason = "holistic analysis diverged (utilisation too high)"
        else:
            reason = first_violation(updated)
        analysis = HolisticResult(
            flow_results=dict(updated), iterations=rounds, converged=converged
        )
        _note_resolves(updated, runs)
        if reason is not None:
            ctx.rollback_undo()
            ctx.jitters.begin_round()  # drop the tentative write accounting
            self._withdraw(flow, edges_installed=True)
            return AdmissionDecision(
                accepted=False, reason=reason, analysis=analysis
            )
        ctx.commit_undo()
        self._results.update(updated)
        return AdmissionDecision(
            accepted=True, reason="all deadlines met", analysis=analysis
        )

    def _withdraw(self, flow: Flow, *, edges_installed: bool) -> None:
        """Undo a rejected candidate's structural changes."""
        if edges_installed:
            self._stages.remove(flow.name)
        self._ctx.remove_flow(flow.name)

    def _release_cone(
        self, flow: Flow
    ) -> tuple[set[tuple[str, ResourceKey]], set[tuple[str, ResourceKey]]]:
        """The jitter entries whose value can depend on ``flow``.

        Returns ``(cone, affected)``.  A stage ``(j, res)`` is *affected*
        when its participant set held ``flow`` (the :meth:`_edge_changes`
        gains: reader ``j`` of ``flow``'s entry at ``res``) or it reads
        a cone entry; an affected stage puts ``j``'s entries at every
        resource after ``res`` on ``j``'s route into the cone (an entry
        is the sum of its flow's earlier stage responses).  The affected
        stages are the ones to re-solve, including those at a flow's
        last hop (no entry to reset, but the flow's bound changes).
        Direct readers come from the link occupancy, so the cone is
        exact also with jitter modelling off, where the readers map is
        empty but participant sets still change.
        """
        fname = flow.name
        gains = self._edge_changes(flow)
        walks = self._stages.walks
        readers = self._stages.readers
        todo = [(j, res) for (_, res), names in gains.items() for j in names]
        affected: set[tuple[str, ResourceKey]] = set()
        cone: set[tuple[str, ResourceKey]] = set()
        while todo:
            stage = todo.pop()
            if stage in affected:
                continue
            affected.add(stage)
            name, res = stage
            walk = walks[name]
            for resource in walk.resources[walk.positions[res] + 1:]:
                entry = (name, resource)
                if entry in cone:
                    break  # a flow's cone entries form a route suffix
                cone.add(entry)
                for reader in readers.get(entry, ()):
                    if reader != fname:  # its stages leave with it
                        todo.append((reader, resource))
        return cone, affected

    def release(self, flow_name: str) -> None:
        """Remove an admitted flow; re-solves only the entries it can lower.

        Cold-resets the released flow's *cone* (:meth:`_release_cone`)
        and re-solves from the affected stages.  The module
        docstring says why this is exact and why the reset is cold
        (``tests/test_hierarchy.py::test_ring_release_matches_from_scratch``
        pins inputs where a warm restart is wrong).
        """
        ctx = self._ctx
        if flow_name not in ctx._by_name:
            raise KeyError(f"flow {flow_name!r} is not admitted")
        _telemetry.add("admission.releases")
        reg = _telemetry.REGISTRY
        start = time.perf_counter()
        flow = ctx._by_name[flow_name]
        cone, affected = self._release_cone(flow)
        walks = self._stages.walks
        seed = {(name, walks[name].positions[res]) for name, res in affected}

        self._stages.remove(flow_name)
        self._results.pop(flow_name, None)
        ctx.remove_flow(flow_name)

        ctx.jitters.reset_entries(cone)  # cold restart (see module doc)
        converged, updated, rounds, runs = self._solve(seed)
        if not converged:  # impossible: a subset of a convergent set
            raise RuntimeError(
                f"release of {flow_name!r} failed to re-converge"
            )
        self._results.update(updated)
        _note_resolves(updated, runs)
        if reg is not None:
            reg.add("hierarchy.releases")
            reg.observe("hierarchy.release_s", time.perf_counter() - start)

    def preload(
        self, flows: Sequence[Flow], *, jitters: Mapping | None = None
    ) -> HolisticResult:
        """Bulk-admit a known-admissible set with a single solve.

        The solve is :func:`~repro.core.holistic.holistic_analysis`'s:
        every admitted flow is walked from its first stage, as if new,
        since the new flows and a seeded table can move any stage of the
        flows admitted before.  Final state (admitted set, jitter table,
        results) is identical to admitting the flows one by one in order
        — both converge to the least fixed point of the full set, the
        sequential path just pays one tentative solve per flow.
        ``jitters`` (the converged entries of the combined set, as
        :meth:`export_state` returns them) seed the solve, which then
        only confirms them.  Raises :class:`ValueError` if the combined
        set is not schedulable; the controller should be discarded in
        that case.
        """
        ctx = self._ctx
        for flow in flows:
            ctx.add_flow(flow)
            self._stages.add(flow)
        if jitters:
            ctx.jitters.seed(jitters)
        # Rebuild the readers map wholesale (covers edges the new flows
        # create towards previously admitted ones too).
        self._stages.read_all()
        names = [f.name for f in ctx.flows]
        converged, updated, rounds, runs = self._solve(
            [(name, 0) for name in names], names
        )
        if not converged:
            reason = "holistic analysis diverged (utilisation too high)"
        else:
            reason = first_violation(updated)
        if reason is not None:
            raise ValueError(f"preloaded flow set not admissible: {reason}")
        self._results.update(updated)
        _note_resolves(updated, runs)
        _telemetry.add("hierarchy.preload_flows", len(flows))
        return HolisticResult(
            flow_results=dict(updated), iterations=rounds, converged=True
        )

    # ------------------------------------------------------------------
    # State export / restore (service snapshots and recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        """Converged state: ``(admitted flows, jitter-table entries)``.

        The jitter entries are the explicit, converged
        ``(flow name, resource) -> per-frame jitters`` mapping of the
        admitted set: what :meth:`restore` needs to rebuild an
        equivalent controller without re-admitting flow by flow.
        """
        return self.admitted_flows, self.jitter_snapshot()

    @classmethod
    def restore(
        cls,
        network: Network,
        options: AnalysisOptions | None = None,
        *,
        flows: Sequence[Flow],
        jitters: Mapping | None = None,
    ) -> "AdmissionController":
        """Rebuild a controller from :meth:`export_state` output.

        The exported table seeds one solve over the whole set (a
        :meth:`preload`): the monotone iteration confirms the converged
        entries in one round.  The restored controller holds the
        exporter's admitted set, table and bounds, so its later
        decisions are the exporter's.
        """
        ctrl = cls(network, options)
        ctrl.preload(flows, jitters=jitters)
        return ctrl


def _note_resolves(updated: Mapping[str, FlowResult], runs: int) -> None:
    """Count a solve's stage runs and changed set: the flows that had
    a stage run, also counted as re-solved flows (telemetry)."""
    reg = _telemetry.REGISTRY
    if reg is not None:
        reg.add("hierarchy.stage_runs", float(runs))
        reg.add("hierarchy.flow_resolves", float(len(updated)))
        reg.add("hierarchy.changed_set", float(len(updated)))


#: The engine's former name, which the benchmark's span wrappers and
#: in-process workload (``perfbench/spans.py``, ``perfbench/inproc.py``)
#: still look up.
HierarchicalAdmissionController = AdmissionController
