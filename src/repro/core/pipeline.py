"""End-to-end composition: the Fig. 6 algorithm.

Walks a flow's route resource by resource.  At each resource the
accumulated jitter ``JSUM`` (source jitter plus all upstream stage
responses) is recorded as the flow's generalized jitter *at that
resource* — this is what other flows' analyses read via ``extra_j`` —
then the per-resource analysis runs and both ``RSUM`` and ``JSUM``
advance by its response.  The end-to-end bound of frame ``k`` is the
final ``RSUM`` (which Fig. 6 line 3 initialises to ``GJ_i^k``).

The walk processes **all frames of the flow together**, stage by stage:
this is exactly Fig. 6 run for every ``k``, but it keeps the flow's own
per-frame jitter entries coherent at each resource before the next
stage's analysis reads them.

Stages per route ``S -> W1 -> ... -> Wm -> D`` (Fig. 6 loop):

* first hop on ``link(S, W1)`` (Sec. 3.2);
* for each switch ``Wj``: ingress at ``Wj`` (Sec. 3.3) then egress on
  ``link(Wj, next)`` (Sec. 3.4).

A route with no switch (``S -> D``) degenerates to the first hop alone
(the paper's Fig. 6 loop body never runs for it; see DESIGN.md).
"""

from __future__ import annotations

import math

from repro import telemetry as _telemetry
from repro.core.context import AnalysisContext, ingress_resource, link_resource
from repro.core.first_hop import first_hop_stage
from repro.core.results import FlowResult, FrameResult, StageResult
from repro.core.switch_egress import egress_stage
from repro.core.switch_ingress import ingress_stage
from repro.model.flow import Flow


def analyze_flow(ctx: AnalysisContext, flow: Flow) -> FlowResult:
    """Run Fig. 6 for every frame of ``flow``; updates the jitter table.

    Other flows' jitters are read from the context's current jitter
    table (the holistic iteration of Sec. 3.5 refreshes them); this
    flow's own per-resource jitters are written as the walk progresses.

    Each stage is analysed for all frames in one call (the interferer
    tables are shared across the flow's frames; see the stage modules),
    then frames whose accumulated jitter already diverged upstream are
    masked to diverged stages.
    """
    spec = flow.spec
    n = spec.n_frames
    # Fig. 6 line 3: RSUM := GJ_i^k; JSUM := GJ_i^k.
    rsum = [float(j) for j in spec.jitters]
    jsum = [float(j) for j in spec.jitters]
    stages: list[list[StageResult]] = [[] for _ in range(n)]

    def run_stage(resource, participants, stage) -> None:
        """Set this flow's jitters at ``resource``, analyse all frames,
        and advance RSUM/JSUM by the responses.

        Fig. 6 lines 8/13/17: the jitter at a resource is the JSUM
        accumulated *before* the resource.

        ``participants`` are the flows whose jitters at ``resource`` the
        stage analysis reads (its only inputs that vary over the
        context's lifetime, besides this flow's own jitters).  The
        stage is replayed from the context's memo whenever those inputs
        are unchanged since its last run: the analysis is a pure
        function of them, so the cached results are exactly what a
        rerun would return.
        """
        ctx.jitters.set(flow.name, resource, jsum)
        inputs = (tuple(jsum), ctx.extras(participants, resource))
        hit = ctx.stage_memo_get(flow.name, resource)
        reg = _telemetry.REGISTRY
        if hit is not None and hit[0] == inputs:
            if reg is not None:
                reg.add("engine.stage_memo.hits")
            results = hit[1]
        else:
            if reg is not None:
                reg.add("engine.stage_memo.misses")
            results = stage()
            ctx.stage_memo_put(flow.name, resource, inputs, results)
        for k in range(n):
            result = results[k]
            if math.isinf(jsum[k]) and not math.isinf(result.response):
                # An upstream stage diverged for this frame but the
                # stage analysis (e.g. with jitter modelling disabled)
                # did not see it; short-circuit the frame.
                from repro.core.results import diverged_stage

                result = diverged_stage(_stage_kind_for(resource), resource)
            stages[k].append(result)
            rsum[k] += result.response
            jsum[k] += result.response

    route = flow.route
    src = route[0]

    if len(route) == 2:
        # Degenerate source->destination route: first hop only.
        run_stage(
            link_resource(src, route[1]),
            ctx.flows_on_link(src, route[1]),
            lambda: first_hop_stage(ctx, flow),
        )
    else:
        n1, n2 = src, route[1]
        while n2 != flow.destination:
            n3 = flow.succ(n2)
            if n1 == src:
                run_stage(
                    link_resource(n1, n2),
                    ctx.flows_on_link(n1, n2),
                    lambda: first_hop_stage(ctx, flow),
                )
            run_stage(
                ingress_resource(n2),
                ctx.flows_on_link(n1, n2),
                lambda _n=n2: ingress_stage(ctx, flow, _n),
            )
            run_stage(
                link_resource(n2, n3),
                (*ctx.hep(flow, n2, n3), flow),
                lambda _n=n2: egress_stage(ctx, flow, _n),
            )
            n1, n2 = n2, n3

    frames = tuple(
        FrameResult(
            frame=k,
            response=rsum[k],
            deadline=spec.deadlines[k],
            stages=tuple(stages[k]),
        )
        for k in range(n)
    )
    return FlowResult(flow_name=flow.name, frames=frames)


def _stage_kind_for(resource) -> "StageKind":
    from repro.core.results import StageKind

    return StageKind.INGRESS if resource[0] == "in" else StageKind.EGRESS


def analyze_flow_frame(ctx: AnalysisContext, flow: Flow, frame: int) -> FrameResult:
    """Fig. 6 for a single frame ``k`` (convenience wrapper).

    Runs the full per-flow walk (needed to keep the flow's own jitter
    entries coherent) and returns the requested frame's result.
    """
    if not (0 <= frame < flow.spec.n_frames):
        raise IndexError(
            f"frame {frame} outside 0..{flow.spec.n_frames - 1} of {flow.name!r}"
        )
    return analyze_flow(ctx, flow).frame(frame)
