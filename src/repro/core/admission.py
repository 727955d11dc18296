"""Admission control (Sec. 3.5, last paragraph).

The holistic analysis "forms an admission controller": a new flow is
accepted exactly when the holistic fixed point converges for the
*combined* flow set and every frame of every flow (existing and new)
still meets its end-to-end deadline.  Resource reservation needs no
billing and topology knowledge is complete (paper introduction), so the
controller simply re-runs the analysis.

Online hot path
---------------
An online controller answers a stream of requests over a mostly-stable
admitted set, so the per-request work is kept incremental:

* the per-(flow, link) :class:`~repro.core.demand.LinkDemand` profiles
  are structurally shared across requests via
  :meth:`AnalysisContext.with_flows` — only the candidate flow's
  profiles are built (entries are value-checked, so a re-used flow
  name can never serve a stale profile, and a rejected candidate's
  entries are retired);
* a request failing the cheap necessary utilisation condition
  (Eqs. 20/34/35-style, O(flows x links)) is rejected before any
  response-time analysis runs.  Every resource it checks is also
  checked by some stage, so the full analysis would diverge and reject
  the same request — the pre-check only makes overload cheap;
* the admitted set's converged jitter table warm-starts the tentative
  analysis.  Admitting a flow only adds interference, so the previous
  least fixed point lies below the new one and the monotone holistic
  iteration started from it converges to the same bounds in fewer
  rounds (releases cold-start instead: removing a flow lowers the fixed
  point, so the old table would be an over-approximation);
* released (and rejected) flows' demand profiles are *retired* into a
  bounded store rather than discarded, so a release followed by
  re-admission of the same flow — the dominant churn pattern of a call
  service — rebuilds no :class:`~repro.core.demand.LinkDemand` at all.
  Retired entries keep their value check, so a reused flow name can
  never resurrect a stale profile — while an *equal* flow re-parsed
  from the wire (the service path) still reuses every profile.

The controller's converged state (admitted flows + jitter table) is
exportable via :meth:`AdmissionController.export_state` and can be
reconstructed with :meth:`AdmissionController.restore` without
re-admitting flow by flow — the basis of the service layer's
snapshot/restore (:mod:`repro.service.state`).

``tests/oracle.py`` holds the cold controller these shortcuts are
checked against: it re-analyses every tentative set from scratch with
the seed engine, with no pre-check and no warm start.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.core.context import AnalysisContext, AnalysisOptions
from repro.telemetry import tracing as _tracing
from repro.core.holistic import holistic_analysis
from repro.core.results import FlowResult, HolisticResult
from repro.model.flow import Flow
from repro.model.network import Network
from repro.model.routing import validate_route


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission request.

    Attributes
    ----------
    accepted:
        True when the candidate flow was admitted.
    reason:
        Human-readable explanation (which flow/frame would miss, or
        divergence).
    analysis:
        The holistic result of the *tentative* flow set (accepted or
        not); callers can inspect per-flow bounds.  ``None`` when the
        fast utilisation pre-check rejected the request before any
        response-time analysis ran.
    """

    accepted: bool
    reason: str
    analysis: HolisticResult | None


class AdmissionController:
    """Stateful admission controller over a fixed topology.

    >>> ctrl = AdmissionController(network)          # doctest: +SKIP
    >>> decision = ctrl.request(flow)                # doctest: +SKIP
    >>> decision.accepted                            # doctest: +SKIP
    """

    def __init__(
        self,
        network: Network,
        options: AnalysisOptions | None = None,
        initial_flows: Sequence[Flow] = (),
        *,
        retained_flows: int = 256,
    ):
        self.network = network
        self.options = options or AnalysisOptions()
        self._flows: list[Flow] = []
        self._ctx = AnalysisContext(network, (), self.options)
        self._last_analysis: HolisticResult | None = None
        #: Retired demand-profile generations of released/rejected
        #: flows, keyed by flow name; bounded FIFO of ``retained_flows``
        #: entries.  See the module docstring's online-hot-path notes.
        self._retired: OrderedDict[str, dict] = OrderedDict()
        self._retained_flows = max(0, retained_flows)
        for f in initial_flows:
            decision = self.request(f)
            if not decision.accepted:
                raise ValueError(
                    f"initial flow {f.name!r} not admissible: {decision.reason}"
                )

    # ------------------------------------------------------------------
    @property
    def admitted_flows(self) -> tuple[Flow, ...]:
        return tuple(self._flows)

    @property
    def last_analysis(self) -> HolisticResult | None:
        """Holistic result of the currently admitted set (None if empty)."""
        return self._last_analysis

    # ------------------------------------------------------------------
    # Retired demand-profile generations
    # ------------------------------------------------------------------
    def _retire_demands(self, flow_name: str) -> None:
        """Move a flow's demand profiles to the bounded retired store."""
        entries = self._ctx.pop_demands(flow_name)
        if entries is None or not self._retained_flows:
            return
        self._retired.pop(flow_name, None)
        self._retired[flow_name] = entries
        while len(self._retired) > self._retained_flows:
            self._retired.popitem(last=False)

    def _revive_demands(self, flow_name: str) -> None:
        """Reinstall a retired flow's profiles ahead of re-admission."""
        entries = self._retired.pop(flow_name, None)
        if entries is not None:
            self._ctx.install_demands(flow_name, entries)

    def request(self, flow: Flow) -> AdmissionDecision:
        """Try to admit ``flow``; accepted flows become part of the state."""
        return observed_request(self._request, flow)

    def _request(self, flow: Flow) -> AdmissionDecision:
        validate_route(self.network, flow.route)
        if any(f.name == flow.name for f in self._flows):
            raise ValueError(f"flow name {flow.name!r} already admitted")
        self._revive_demands(flow.name)

        tentative = [*self._flows, flow]
        ctx = self._ctx.with_flows(tentative, share_demand_cache=True)
        # Looked up per call, so instrumentation wrapping the module
        # attribute sees every pre-check.
        from repro.core.utilization import network_convergence_report

        report = network_convergence_report(ctx)
        if not report.all_convergent:
            bottleneck = report.bottleneck()
            self._retire_demands(flow.name)
            return AdmissionDecision(
                accepted=False,
                reason=(
                    "necessary utilisation condition violated at "
                    f"{'/'.join(str(p) for p in bottleneck.resource)} "
                    f"({bottleneck.utilization:.4f} >= 1)"
                ),
                analysis=None,
            )
        if self._flows:
            ctx.jitters.warm_start_from(self._ctx.jitters)
            _telemetry.add("admission.warm_starts")
        analysis = holistic_analysis(
            self.network, tentative, self.options, context=ctx
        )
        if not analysis.converged:
            self._retire_demands(flow.name)
            return AdmissionDecision(
                accepted=False,
                reason="holistic analysis diverged (utilisation too high)",
                analysis=analysis,
            )
        violation = first_violation(analysis.flow_results)
        if violation is not None:
            self._retire_demands(flow.name)
            return AdmissionDecision(
                accepted=False, reason=violation, analysis=analysis
            )
        self._flows = tentative
        self._ctx = ctx  # keeps the converged jitter table for warm starts
        self._last_analysis = analysis
        return AdmissionDecision(
            accepted=True, reason="all deadlines met", analysis=analysis
        )

    def release(self, flow_name: str) -> None:
        """Remove a previously admitted flow (its session ended).

        The released flow's demand profiles are retired, not discarded
        — re-admitting the same flow (churn) rebuilds nothing.  The
        remaining set's :class:`LinkDemand` profiles stay structurally
        shared, so the re-analysis below only redoes the jitter fixed
        point, never the demand construction.
        """
        before = len(self._flows)
        self._flows = [f for f in self._flows if f.name != flow_name]
        if len(self._flows) == before:
            raise KeyError(f"flow {flow_name!r} is not admitted")
        _telemetry.add("admission.releases")
        self._retire_demands(flow_name)
        # Cold jitter start: removing interference lowers the fixed
        # point, so warm-starting from the old table would be unsound.
        self._ctx = self._ctx.with_flows(self._flows, share_demand_cache=True)
        self._last_analysis = (
            holistic_analysis(
                self.network, self._flows, self.options, context=self._ctx
            )
            if self._flows
            else None
        )

    # ------------------------------------------------------------------
    # State export / restore (service snapshots)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        """Converged state: ``(admitted flows, jitter-table entries)``.

        The jitter entries are the explicit, converged
        ``(flow name, resource) -> per-frame jitters`` mapping of the
        admitted set — exactly what :meth:`restore` needs to rebuild an
        equivalent controller without re-admitting flow by flow.
        """
        return tuple(self._flows), self._ctx.jitters.snapshot()

    @classmethod
    def restore(
        cls,
        network: Network,
        options: AnalysisOptions | None = None,
        *,
        flows: Sequence[Flow],
        jitters: Mapping | None = None,
        retained_flows: int = 256,
    ) -> "AdmissionController":
        """Rebuild a controller from :meth:`export_state` output.

        The admitted set is installed wholesale and one holistic
        analysis re-derives ``last_analysis``; seeded with the exported
        converged jitter table, the monotone iteration confirms the
        fixed point immediately instead of re-running the per-flow
        admission sequence.  The restored controller's subsequent
        decisions are identical to the original's: both hold the same
        admitted set and the same converged table, and every fast path
        (warm starts, shared demand caches, stage memos) is
        exactness-preserving.
        """
        ctrl = cls(network, options, retained_flows=retained_flows)
        ctrl._flows = list(flows)
        ctrl._ctx = AnalysisContext(network, ctrl._flows, ctrl.options)
        if jitters:
            ctrl._ctx.jitters.seed(jitters)
        ctrl._last_analysis = (
            holistic_analysis(
                network, ctrl._flows, ctrl.options, context=ctrl._ctx
            )
            if ctrl._flows
            else None
        )
        return ctrl


def observed_request(
    decide: Callable[[Flow], AdmissionDecision], flow: Flow
) -> AdmissionDecision:
    """Run one admission decision under the request telemetry.

    Shared by both controllers: the ``admission.*`` counters and the
    ``admission.request_s`` histogram when telemetry is on, and an
    ``admission.request`` span tagged ``accepted`` when tracing is on
    (fixed-point solves inside it add their ``fp.*`` tags to it).
    """
    reg = _telemetry.REGISTRY
    tr = _tracing.TRACER
    if reg is None and tr is None:
        return decide(flow)
    span = (
        tr.span("admission.request")
        if tr is not None
        else _tracing.NULL_SPAN
    )
    with span:
        if reg is not None:
            reg.add("admission.requests")
        start = time.perf_counter()
        decision = decide(flow)
        if reg is not None:
            reg.observe("admission.request_s", time.perf_counter() - start)
            if decision.accepted:
                reg.add("admission.accepted")
            else:
                reg.add("admission.rejected")
                if decision.analysis is None:
                    reg.add("admission.fast_rejects")
        span.annotate("accepted", 1.0 if decision.accepted else 0.0)
        return decision


def first_violation(results: Mapping[str, FlowResult]) -> str | None:
    """Why a converged analysis rejects: the first (by flow name) frame
    whose bound exceeds its deadline, or ``None`` when all are met."""
    for name, result in sorted(results.items()):
        for frame in result.frames:
            if not frame.schedulable:
                return (
                    f"flow {name!r} frame {frame.frame}: bound "
                    f"{frame.response:.6g}s exceeds deadline "
                    f"{frame.deadline:.6g}s"
                )
    return None
