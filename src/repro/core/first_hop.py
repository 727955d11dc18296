"""First-hop analysis (Sec. 3.2, Eqs. 14-20).

The first link of a route leaves the source node, which the network
operator does not control: the source may be a normal PC whose network
stack ignores priorities.  The analysis therefore assumes only that the
source's output queue is *work-conserving*, so **every** flow sharing
``link(S, succ(tau_i, S))`` interferes with frame ``k`` of ``tau_i``
regardless of priority.

The analysis is a busy-period exploration:

* Eq. 15 — the busy period ``t`` is the least fixed point of the total
  demand ``sum_j MX(tau_j, S, succ, t + extra_j)`` (the seed printed in
  Eq. 14 is 0, a degenerate fixed point; we seed with the analysed
  frame's own transmission time ``C_i^k``);
* Eq. 17 — for each instance ``q`` of frame ``k`` in the busy period,
  the queuing time ``w(q)`` is the least fixed point of ``q * CSUM_i``
  (own previous cycles) plus all other flows' demand;
* Eqs. 18-19 — ``R(q) = w(q) - q*TSUM_i + C_i^k``; the stage response is
  the max over ``q`` plus the link's propagation delay.

Applicability (Eq. 20): the sum of ``CSUM/TSUM`` over all flows on the
link must be below 1, otherwise the busy period grows without bound.

:func:`first_hop_stage` analyses **all frames of the flow in one call**:
the interferer set, jitter shifts, batched
:class:`~repro.core.demand.InterferenceSet` tables and acceleration
certificates are built once per stage and reused across every frame's
busy-period and queuing-time fixed points.  The per-frame
:func:`first_hop_response_time` wrapper is kept for targeted tests.
"""

from __future__ import annotations

import math

from repro.core.context import (
    AnalysisContext,
    fixed_point_record,
    link_resource,
)
from repro.core.results import StageKind, StageResult, diverged_stage
from repro.model.flow import Flow
from repro.util.fixed_point import LinearLowerBound, solve_cached


def first_hop_utilization(ctx: AnalysisContext, n1: str, n2: str) -> float:
    """Left-hand side of Eq. 20 for ``link(n1, n2)``.

    The demand of *all* flows on the link relative to time; the analysis
    requires this to be strictly below 1.
    """
    return sum(
        ctx.demand(j, n1, n2).utilization for j in ctx.flows_on_link(n1, n2)
    )


def first_hop_stage(
    ctx: AnalysisContext,
    flow: Flow,
    fixed_points: list | None = None,
    shifts: tuple[float, ...] | None = None,
) -> list[StageResult]:
    """``R_i^{k,link(S, succ(tau_i, S))}`` (Eq. 19) for every frame ``k``.

    Returns diverged stages (response ``inf``) when Eq. 20 fails or the
    fixed points exceed the context's divergence horizon.

    When ``fixed_points`` is a list, a corrected-model stage that ran its
    fixed points appends their
    :func:`~repro.core.context.fixed_point_record` to it.  ``shifts``
    are the interferers' ``extra_j`` at the link, in
    :meth:`~repro.core.context.AnalysisContext.flows_on_link` order, when
    the caller already gathered them; None gathers them here.
    """
    src = flow.source
    dst = flow.succ(src)
    resource = link_resource(src, dst)
    n = flow.spec.n_frames

    interferers = ctx.flows_on_link(src, dst)  # includes `flow` itself
    dem_i = ctx.demand(flow, src, dst)
    tsum_i = dem_i.tsum
    horizon = ctx.horizon_for(flow)

    # Eq. 20 applicability check.
    matrix = ctx.link_matrix(src, dst)
    utilization = matrix.first_hop_sum
    if utilization is None:
        utilization = matrix.first_hop_sum = first_hop_utilization(
            ctx, src, dst
        )
    if utilization >= 1.0:
        return [diverged_stage(StageKind.FIRST_HOP, resource)] * n

    if shifts is None:
        shifts = tuple([ctx.extra(j, resource) for j in interferers])
    if math.inf in shifts:
        # An upstream divergence already propagated into a jitter.
        return [diverged_stage(StageKind.FIRST_HOP, resource)] * n

    # Corrected mode uses the uncapped arrival-work bound; strict mode
    # keeps the printed Eq. 10/11 cap (see LinkDemand.mx_work).
    strict = ctx.options.strict_paper
    all_set = ctx.interference(interferers, src, dst, shifts, strict=strict)
    name = flow.name
    others = [j for j in interferers if j.name != name]
    others_set = ctx.interference(
        others,
        src,
        dst,
        tuple([e for j, e in zip(interferers, shifts) if j.name != name]),
        strict=strict,
    )
    busy_accel = LinearLowerBound(*all_set.mx_support())
    others_rate, others_intercept = others_set.mx_support()

    # Frames with equal C_i^k share the busy-period fixed point and all
    # frames share the per-instance queuing fixed points (they depend
    # only on the q*CSUM backlog), so both are memoized per stage call —
    # the recomputation they replace is deterministic in those inputs.
    busy_cache: dict[float, float | None] = {}
    w_cache: dict[float, float | None] = {}

    def busy_for(c_k: float, what: str) -> float | None:
        return solve_cached(
            busy_cache,
            c_k,
            all_set.mx_sum,
            seed=c_k,
            horizon=horizon,
            max_iterations=ctx.options.max_fp_iterations,
            what=what,
            accelerator=busy_accel,
        )

    def w_for(own_backlog: float, what: str) -> float | None:
        return solve_cached(
            w_cache,
            own_backlog,
            lambda w: own_backlog + others_set.mx_sum(w),
            seed=own_backlog,  # Eq. 16
            horizon=horizon,
            max_iterations=ctx.options.max_fp_iterations,
            what=what,
            accelerator=LinearLowerBound(
                others_rate, others_intercept + own_backlog
            ),
        )

    results: list[StageResult] = []
    for frame in range(n):
        c_k = dem_i.c[frame]

        # Eq. 15: busy period = least fixed point of the total demand.
        busy = busy_for(
            c_k,
            f"first-hop busy period of {flow.name}[{frame}] on {src}->{dst}",
        )
        if busy is None:
            results.append(diverged_stage(StageKind.FIRST_HOP, resource))
            continue

        # Number of instances of frame k within the busy period.
        q_max = max(1, math.ceil(busy / tsum_i))

        worst = 0.0
        diverged = False
        for q in range(q_max):
            own_backlog = q * dem_i.csum  # Eq. 16/17 own-cycle term
            w_q = w_for(
                own_backlog,
                f"first-hop w({q}) of {flow.name}[{frame}] on {src}->{dst}",
            )
            if w_q is None:
                diverged = True
                break
            # Eq. 18: response of the q-th instance.
            worst = max(worst, w_q - q * tsum_i + c_k)

        if diverged:
            results.append(diverged_stage(StageKind.FIRST_HOP, resource))
            continue

        # Eq. 19: add the link's propagation delay.
        results.append(
            StageResult(
                kind=StageKind.FIRST_HOP,
                resource=resource,
                response=worst + ctx.network.prop(src, dst),
                busy_period=busy,
                n_instances=q_max,
                converged=True,
            )
        )
    if fixed_points is not None and not strict:
        # Eq. 15 busy periods over all flows, Eq. 17 queuing times over
        # the others with the own-cycle backlog as constant.
        fixed_points.append(
            fixed_point_record(
                [(0.0, busy) for busy in busy_cache.values()],
                w_cache.items(),
            )
        )
    return results


def first_hop_response_time(
    ctx: AnalysisContext, flow: Flow, frame: int
) -> StageResult:
    """``R_i^{k,link(S, succ(tau_i, S))}`` (Eq. 19) for ``frame`` = k."""
    return first_hop_stage(ctx, flow)[frame]
