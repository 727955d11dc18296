"""Switch-ingress analysis (Sec. 3.3, Eqs. 21-27).

Inside a software switch (Fig. 5) each incoming network interface has a
dedicated software task that dequeues Ethernet frames from the NIC FIFO,
classifies them and enqueues them into the correct prioritised output
queue.  The processor runs all tasks with stride scheduling configured as
round-robin, so a task is served once every

    ``CIRC(N) = NINTERFACES(N) * (CROUTE(N) + CSEND(N))``

and every Ethernet frame waiting in the NIC FIFO costs one ``CIRC(N)``
service slot in the worst case.  Interference therefore comes only from
flows sharing the *same incoming link* ``link(prec(tau_i, N), N)``, and
is counted in Ethernet frames via ``NX`` (Eq. 13), each weighted by
``CIRC(N)``.

**Reconstruction note**: the printed own-flow terms
(``q x CIRC`` in Eq. 23, a single ``+CIRC`` in Eq. 25) are only sound
when every UDP packet is one Ethernet frame.  The default model accounts
for all ``NSUM_i`` Ethernet frames of the flow's previous cycles and all
``nframes_i^k`` Ethernet frames of the analysed packet;
``AnalysisOptions.strict_paper`` restores the printed terms.

:func:`ingress_stage` analyses all frames of the flow in one call with
batched :class:`~repro.core.demand.InterferenceSet` queries and the
safeguarded fixed-point acceleration (see ``util/fixed_point.py``); the
per-frame :func:`ingress_response_time` wrapper is kept for tests.
"""

from __future__ import annotations

import math

from repro.core.context import (
    AnalysisContext,
    fixed_point_record,
    ingress_resource,
)
from repro.core.results import StageKind, StageResult, diverged_stage
from repro.model.flow import Flow
from repro.util.fixed_point import LinearLowerBound, solve_cached


def ingress_utilization(ctx: AnalysisContext, node: str, prev: str) -> float:
    """Processor-time fraction the ingress path of ``node`` spends on
    frames arriving over ``link(prev, node)``.

    Analogue of Eq. 20 for the ingress stage: every Ethernet frame costs
    one ``CIRC(node)`` slot, so the demand rate of flow ``j`` is
    ``NSUM_j * CIRC / TSUM_j``.
    """
    circ = ctx.circ_task(node, prev)
    total = 0.0
    for j in ctx.flows_on_link(prev, node):
        dem = ctx.demand(j, prev, node)
        total += dem.nsum * circ / dem.tsum
    return total


def ingress_stage(
    ctx: AnalysisContext,
    flow: Flow,
    node: str,
    fixed_points: list | None = None,
    shifts: tuple[float, ...] | None = None,
) -> list[StageResult]:
    """``R_i^{k,in(N)}`` (Eq. 26) for every frame ``k``: from all
    Ethernet frames of the frame received at switch ``node`` until all
    are enqueued in the priority queue of the outgoing interface.

    When ``fixed_points`` is a list, a corrected-model stage that ran its
    fixed points appends their
    :func:`~repro.core.context.fixed_point_record` to it.  ``shifts``
    are the interferers' ``extra_j`` at the ingress, in
    :meth:`~repro.core.context.AnalysisContext.flows_on_link` order of
    the incoming link, when the caller already gathered them; None
    gathers them here.
    """
    prev = flow.prec(node)
    resource = ingress_resource(node)
    # The ingress task serving this flow belongs to the incoming
    # interface; its service period is CIRC(N) under round-robin and
    # the per-interface stride bound under weighted tickets.
    circ = ctx.circ_task(node, prev)
    strict = ctx.options.strict_paper
    n = flow.spec.n_frames

    interferers = ctx.flows_on_link(prev, node)  # includes `flow`
    dem_i = ctx.demand(flow, prev, node)
    tsum_i = dem_i.tsum
    horizon = ctx.horizon_for(flow)

    sums = ctx.link_matrix(prev, node).ingress_sums
    utilization = sums.get(circ)
    if utilization is None:
        utilization = sums[circ] = ingress_utilization(ctx, node, prev)
    if utilization >= 1.0:
        return [diverged_stage(StageKind.INGRESS, resource)] * n

    if shifts is None:
        shifts = tuple([ctx.extra(j, resource) for j in interferers])
    if math.inf in shifts:
        return [diverged_stage(StageKind.INGRESS, resource)] * n

    all_set = ctx.interference(interferers, prev, node, shifts, strict=strict)
    name = flow.name
    others = [j for j in interferers if j.name != name]
    others_set = ctx.interference(
        others,
        prev,
        node,
        tuple([e for j, e in zip(interferers, shifts) if j.name != name]),
        strict=strict,
    )
    busy_accel = LinearLowerBound(*all_set.nx_support(circ))
    others_rate, others_intercept = others_set.nx_support(circ)

    # Eq. 22: busy period counted in CIRC-weighted Ethernet frames.
    def busy_update(t: float) -> float:
        return circ * all_set.nx_sum(t)

    # Both fixed points depend on the frame only through their seed /
    # backlog value, so they are memoized on it per stage call (frames
    # with equal Ethernet-frame counts share them).
    busy_cache: dict[float, float | None] = {}
    w_cache: dict[float, float | None] = {}

    def busy_for(seed: float, what: str) -> float | None:
        return solve_cached(
            busy_cache,
            seed,
            busy_update,
            seed=seed,
            horizon=horizon,
            max_iterations=ctx.options.max_fp_iterations,
            what=what,
            accelerator=busy_accel,
        )

    def w_for(own_backlog: float, what: str) -> float | None:
        return solve_cached(
            w_cache,
            own_backlog,
            lambda w: own_backlog + circ * others_set.nx_sum(w),
            seed=own_backlog,
            horizon=horizon,
            max_iterations=ctx.options.max_fp_iterations,
            what=what,
            accelerator=LinearLowerBound(
                others_rate, others_intercept + own_backlog
            ),
        )

    results: list[StageResult] = []
    for frame in range(n):
        frames_k = dem_i.n_eth[frame]  # Ethernet frames of the packet
        seed = circ if strict else frames_k * circ
        busy = busy_for(
            seed, f"ingress busy period of {flow.name}[{frame}] at {node}"
        )
        if busy is None:
            results.append(diverged_stage(StageKind.INGRESS, resource))
            continue

        q_max = max(1, math.ceil(busy / tsum_i))  # Eq. 27

        worst = 0.0
        diverged = False
        for q in range(q_max):
            if strict:
                own_backlog = q * circ  # Eq. 23/24 as printed
            else:
                # q previous cycles = q*NSUM_i frames, plus the analysed
                # packet's own frames except the last (finished by the
                # +CIRC below).
                own_backlog = (q * dem_i.nsum + frames_k - 1) * circ
            w_q = w_for(
                own_backlog,
                f"ingress w({q}) of {flow.name}[{frame}] at {node}",
            )
            if w_q is None:
                diverged = True
                break
            # Eq. 25: the final CIRC services the last Ethernet frame.
            worst = max(worst, w_q - q * tsum_i + circ)

        if diverged:
            results.append(diverged_stage(StageKind.INGRESS, resource))
            continue

        results.append(
            StageResult(
                kind=StageKind.INGRESS,
                resource=resource,
                response=worst,
                busy_period=busy,
                n_instances=q_max,
                converged=True,
            )
        )
    if fixed_points is not None and not strict:
        # Eq. 22 busy periods over all flows, Eq. 24 queuing times over
        # the others with the own backlog as constant.
        fixed_points.append(
            fixed_point_record(
                [(0.0, busy) for busy in busy_cache.values()],
                w_cache.items(),
            )
        )
    return results


def ingress_response_time(
    ctx: AnalysisContext, flow: Flow, frame: int, node: str
) -> StageResult:
    """``R_i^{k,in(N)}`` (Eq. 26) for a single frame ``k``."""
    return ingress_stage(ctx, flow, node)[frame]
