"""Switch-egress analysis (Sec. 3.4, Eqs. 28-35).

From all Ethernet frames of a UDP packet enqueued in the prioritised
output queue of switch ``N`` towards ``succ(tau_i, N)`` until all have
been received by the successor node.  Three effects combine:

* **static-priority queueing** (IEEE 802.1p): higher-or-equal-priority
  flows (``hep``, Eq. 2) interfere with their full transmission demand
  ``MX`` (Eq. 11);
* **non-preemptive blocking**: one already-transmitting lower-priority
  Ethernet frame of maximum size — the ``MFT`` term (Eq. 1);
* **stride-scheduling self-suspension**: the egress task that refills
  the NIC FIFO runs only once per ``CIRC(N)``, so the link may idle up
  to ``CIRC(N)`` before each Ethernet frame even when the queue is
  non-empty — the ``NX * CIRC`` terms (Eqs. 29/31).

Applicability (Eqs. 34/35): the combined utilisation of the flow and its
``hep`` set on the link must be below 1.

**Reconstruction note**: as printed, the flow's own Ethernet
frames pay no CIRC self-suspension; the default model charges
``NSUM_i * CIRC`` per previous cycle and ``nframes_i^k * CIRC`` for the
analysed packet, because the egress task serves the flow's own frames
one ``CIRC`` apart as well.  ``strict_paper`` restores the printed form.

:func:`egress_stage` analyses all frames of the flow in one call with
batched :class:`~repro.core.demand.InterferenceSet` queries and the
safeguarded fixed-point acceleration (see ``util/fixed_point.py``); the
per-frame :func:`egress_response_time` wrapper is kept for tests.
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
from repro.util.fixed_point import (
    FixedPointDiverged,
    LinearLowerBound,
    iterate_fixed_point,
)


def egress_utilization(ctx: AnalysisContext, flow: Flow, node: str) -> float:
    """Left-hand side of Eqs. 34/35 *plus the flow's own utilisation*.

    The printed condition sums over ``hep`` only; the busy period also
    contains the analysed flow's own demand, so we include it (a flow
    alone with utilisation >= 1 can never converge either).
    """
    nxt = flow.succ(node)
    total = ctx.demand(flow, node, nxt).utilization
    for j in ctx.hep(flow, node, nxt):
        total += ctx.demand(j, node, nxt).utilization
    return total


def egress_stage(
    ctx: AnalysisContext,
    flow: Flow,
    node: str,
    fixed_points: list | None = None,
    shifts: tuple[float, ...] | None = None,
) -> list[StageResult]:
    """``R_i^{k,link(N, succ(tau_i, N))}`` (Eq. 33) for every frame.

    When ``fixed_points`` is a list, a corrected-model stage that ran its
    fixed points appends their
    :func:`~repro.core.context.fixed_point_record` to it.  ``shifts``
    are the ``extra_j`` on the link of the flow's ``hep`` set followed by
    the flow's own, when the caller already gathered them; None gathers
    them here.
    """
    nxt = flow.succ(node)
    resource = link_resource(node, nxt)
    # The egress task refilling this link belongs to the outgoing
    # interface; all hep frames on the link are served by it too.
    circ = ctx.circ_task(node, nxt)
    strict = ctx.options.strict_paper
    n = flow.spec.n_frames

    dem_i = ctx.demand(flow, node, nxt)
    mft = dem_i.mft
    tsum_i = dem_i.tsum
    horizon = ctx.horizon_for(flow)

    hep = ctx.hep(flow, node, nxt)
    sums = ctx.link_matrix(node, nxt).egress_sums
    hit = sums.get(flow.name)
    if hit is not None and hit[0] is hep:
        utilization = hit[1]
    else:
        utilization = egress_utilization(ctx, flow, node)
        sums[flow.name] = (hep, utilization)
    if utilization >= 1.0:
        return [diverged_stage(StageKind.EGRESS, resource)] * n

    participants = (*hep, flow)  # busy period includes own demand
    if shifts is None:
        shifts = tuple([ctx.extra(j, resource) for j in participants])
    if math.inf in shifts:
        return [diverged_stage(StageKind.EGRESS, resource)] * n

    all_set = ctx.interference(participants, node, nxt, shifts, strict=strict)
    hep_set = ctx.interference(hep, node, nxt, shifts[:-1], strict=strict)
    rate, intercept = all_set.mixed_support(circ)
    busy_accel = LinearLowerBound(rate, intercept + mft)
    hep_rate, hep_intercept = hep_set.mixed_support(circ)

    # Eq. 29: level-i busy period, seeded with MFT (Eq. 28).  Neither
    # the busy period nor the per-instance queuing times depend on the
    # analysed frame (the seed is MFT and the backlog is q cycles of
    # own demand), so they are computed once per stage; only the
    # completion term (Eq. 32) is per-frame.
    def busy_update(t: float) -> float:
        return mft + all_set.mixed_sum(t, circ)

    try:
        busy = iterate_fixed_point(
            busy_update,
            seed=mft,
            horizon=horizon,
            max_iterations=ctx.options.max_fp_iterations,
            what=f"egress busy period of {flow.name} on {node}->{nxt}",
            accelerator=busy_accel,
        ).value
    except FixedPointDiverged:
        return [diverged_stage(StageKind.EGRESS, resource)] * n

    q_max = max(1, math.ceil(busy / tsum_i))

    # max over q of (w(q) - q*TSUM_i); per-frame completion added below.
    base = -math.inf
    queue_points = []
    for q in range(q_max):
        if strict:
            own_backlog = q * dem_i.csum  # Eq. 30/31 as printed
        else:
            own_backlog = q * (dem_i.csum + dem_i.nsum * circ)

        def queue_update(w: float) -> float:
            return mft + own_backlog + hep_set.mixed_sum(w, circ)

        accel = LinearLowerBound(hep_rate, hep_intercept + mft + own_backlog)
        try:
            w_q = iterate_fixed_point(
                queue_update,
                seed=mft + own_backlog,  # Eq. 30
                horizon=horizon,
                max_iterations=ctx.options.max_fp_iterations,
                what=f"egress w({q}) of {flow.name} on {node}->{nxt}",
                accelerator=accel,
            ).value
        except FixedPointDiverged:
            return [diverged_stage(StageKind.EGRESS, resource)] * n
        base = max(base, w_q - q * tsum_i)
        queue_points.append((mft + own_backlog, w_q))

    prop = ctx.network.prop(node, nxt)
    results: list[StageResult] = []
    for frame in range(n):
        if strict:
            completion = dem_i.c[frame]  # Eq. 32
        else:
            completion = dem_i.c[frame] + dem_i.n_eth[frame] * circ
        # Eq. 32 max over q, then Eq. 33 propagation delay.
        worst = max(0.0, base + completion)
        results.append(
            StageResult(
                kind=StageKind.EGRESS,
                resource=resource,
                response=worst + prop,
                busy_period=busy,
                n_instances=q_max,
                converged=True,
            )
        )
    if fixed_points is not None and not strict:
        # Eq. 29 over the flow and its hep set, Eq. 31 over hep alone.
        fixed_points.append(
            fixed_point_record([(mft, busy)], queue_points)
        )
    return results


def egress_response_time(
    ctx: AnalysisContext, flow: Flow, frame: int, node: str
) -> StageResult:
    """``R_i^{k,link(N, succ(tau_i, N))}`` (Eq. 33) for one frame."""
    return egress_stage(ctx, flow, node)[frame]
