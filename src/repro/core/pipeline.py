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
(the paper's Fig. 6 loop body never runs for it).

Stage memo
----------
A stage reads only these inputs: the analysed flow, its per-frame
jitters at the resource, its *participants* in order (their demand
rows) and every participant's ``extra_j`` there.  Beyond those it reads
only static link data (``circ_task``, the link speed, ``MFT``), and its
utilisation check sums over the same participants.  The participants
are every flow on the link for the first hop (Sec. 3.2), every flow on
the incoming link ``link(prec, N)`` for the ingress at ``N``
(Sec. 3.3), and the flow with its ``hep`` set for the egress
(Sec. 3.4, Eq. 2).  The context keeps, per flow and resource, the
participants, inputs, results and fixed points of the stage's last
run.  An entry recorded over other participants is treated as absent
(:meth:`~repro.core.context.AnalysisContext.stage_memo_get`), so a
flow-set change forces a re-solve only of the stages it entered or
left, and no entry ever needs to be dropped.  That one comparison guards both
reuse cases, and it runs before the dominance check below, which
zips the old and new inputs and would silently truncate to the
shorter tuple.  Over the same participants the walk reuses an entry
in two cases:

* a **hit**: the inputs are unchanged, so a rerun would return the
  stored results bit for bit;
* a **verified miss**: no input is smaller than at the stored run (the
  holistic iteration and an admit's warm start only raise jitters),
  and every stored fixed point reproduces itself bit for bit under the
  new jitter shifts.  Every fixed point is the least solution of
  ``x = c + F(x)`` above a seed that only the flow's own demand sets,
  and ``F`` sums demand staircases that are monotone in the time and
  in every shift.  Grown inputs make the new ``F`` dominate the old
  one pointwise, so the new least fixed point is no smaller than the
  stored one; a stored value that reproduces is a fixed point of the
  new update, so the least one is no larger.  Each reproduced value is
  therefore the new least fixed point.  Unchanged busy periods keep
  the instance counts, so every queuing time and response is
  unchanged too, and the stored results are exact.

The check (:func:`_fixed_points_hold`) runs before any stage setup: it
evaluates each stored fixed point once with the fused demand kernels
of :mod:`repro.core.demand` over the participants' demand rows, which
the link's :class:`~repro.core.demand.LinkDemandMatrix` holds.  It
comes after the stage's own divergence short-circuits, which must
still see an infinite participant jitter.  Printed-model
(``strict_paper``) stages store no fixed points and are recomputed on
every miss.

Stage step
----------
:func:`run_stage` is one stage of the walk, given the flow's JSUM at the
stage's resource, which the caller has already written to the jitter
table: it plans the stage (:func:`plan_stage`: kind, resource, link,
participants), looks up the memo, checks verified reuse, runs the stage
analysis on a miss and masks frames whose JSUM already diverged.  The
holistic solve (:mod:`repro.core.holistic`) calls it for the single
stages it schedules, and inverts :func:`plan_stage`'s participants into
the readers map that tells it which stages an entry's change reaches.
:func:`analyze_flow` calls it at every position of one whole walk
(the test oracle's plain iteration runs that walk).
The participants' ``extra_j`` that the memo lookup gathers are handed
to the stage analysis as its jitter shifts, so a stage reads them once,
and the stage modules keep their utilisation sums on the link's
:class:`~repro.core.demand.LinkDemandMatrix`, which retires with the
link's flow set.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from repro import telemetry as _telemetry
from repro.core.context import (
    AnalysisContext,
    ResourceKey,
    ingress_resource,
    link_resource,
)
from repro.core.demand import fused_mixed_sum, fused_mx_sum, fused_nx_sum
from repro.core.first_hop import first_hop_stage
from repro.core.results import (
    FlowResult,
    FrameResult,
    StageKind,
    StageResult,
    diverged_stage,
)
from repro.core.switch_egress import egress_stage
from repro.core.switch_ingress import ingress_stage
from repro.model.flow import Flow


def stage_resources(route: Sequence[str]) -> list[ResourceKey]:
    """The resources of the walk of a flow routed over ``route``, by
    position: the jitter entries it writes.

    :func:`analyze_flow` runs the first hop at position 0, then the
    ingress of switch ``route[i]`` at ``2i - 1`` and its egress at
    ``2i``.
    """
    keys = [link_resource(route[0], route[1])]
    for i in range(1, len(route) - 1):
        keys.append(ingress_resource(route[i]))
        keys.append(link_resource(route[i], route[i + 1]))
    return keys


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
    name = flow.name
    # Fig. 6 line 3: RSUM := GJ_i^k; JSUM := GJ_i^k.
    rsum = [float(j) for j in spec.jitters]
    jsum = [float(j) for j in spec.jitters]
    stages = [[] for _ in range(n)]
    for position, resource in enumerate(stage_resources(flow.route)):
        # Fig. 6 lines 8/13/17: the jitter at a resource is the JSUM
        # accumulated *before* the resource.
        jit = tuple(jsum)
        ctx.jitters.set(name, resource, jit)
        results = run_stage(ctx, flow, position, jit)
        for k in range(n):
            result = results[k]
            stages[k].append(result)
            rsum[k] += result.response
            jsum[k] += result.response

    frames = tuple(
        FrameResult(
            frame=k,
            response=rsum[k],
            deadline=spec.deadlines[k],
            stages=tuple(stages[k]),
        )
        for k in range(n)
    )
    return FlowResult(flow_name=name, frames=frames)


def plan_stage(
    ctx: AnalysisContext, flow: Flow, position: int
) -> tuple[StageKind, ResourceKey, tuple[str, str], tuple[Flow, ...]]:
    """What :func:`run_stage` reads at ``position`` of ``flow``'s walk.

    Returns the stage's kind, its resource (where it reads jitters), its
    link and its participants in order: every flow on the link for the
    first hop (Sec. 3.2), every flow on the incoming link for an
    ingress (Sec. 3.3), the ``hep`` set and the flow for an egress
    (Sec. 3.4, Eq. 2).  A stage reads the jitter entries of its
    participants at its resource; the holistic solve inverts these
    reads into its readers map (:mod:`repro.core.holistic`).
    """
    route = flow.route
    if position == 0:
        link = (route[0], route[1])
        return (
            StageKind.FIRST_HOP,
            link_resource(*link),
            link,
            ctx.flows_on_link(*link),
        )
    i = (position + 1) >> 1
    node = route[i]
    if position & 1:
        link = (route[i - 1], node)
        return (
            StageKind.INGRESS,
            ingress_resource(node),
            link,
            ctx.flows_on_link(*link),
        )
    link = (node, route[i + 1])
    return (
        StageKind.EGRESS,
        link_resource(*link),
        link,
        (*ctx.hep(flow, *link), flow),
    )


def run_stage(
    ctx: AnalysisContext,
    flow: Flow,
    position: int,
    jitters: tuple[float, ...],
) -> list[StageResult]:
    """Analyse all frames of ``flow``'s stage at ``position`` of its walk.

    ``jitters`` is the flow's per-frame JSUM at the stage's resource,
    which the table must already hold there.  The stage reads its
    participants' demand and jitters at the resource
    (:func:`plan_stage`).  It is replayed from the context's memo when
    its last run had the same participants and either the same inputs
    (a hit) or inputs that have only grown since, under which every
    fixed point the memo kept still holds (a verified miss; see
    :func:`_fixed_points_hold`).  Otherwise the stage analysis runs with
    the participants' ``extra_j`` as its shifts.  Frames whose JSUM is
    infinite get a diverged stage even where the analysis (e.g. with
    jitter modelling disabled) did not see it.
    """
    kind, resource, link, participants = plan_stage(ctx, flow, position)
    name = flow.name
    extras = ctx.extras(participants, resource)
    inputs = (jitters, extras)
    hit = ctx.stage_memo_get(name, resource, participants)
    reg = _telemetry.REGISTRY
    if hit is not None and hit[0] == inputs:
        if reg is not None:
            reg.add("engine.stage_memo.hits")
        results = hit[1]
    else:
        if reg is not None:
            reg.add("engine.stage_memo.misses")
        if hit is not None and _fixed_points_hold(
            ctx, flow, kind, link, participants, inputs, hit
        ):
            if reg is not None:
                reg.add("engine.stage_memo.verified")
            results, fixed = hit[1], hit[2]
        else:
            recorded: list = []
            if kind is StageKind.FIRST_HOP:
                results = first_hop_stage(ctx, flow, recorded, extras)
            elif kind is StageKind.INGRESS:
                results = ingress_stage(ctx, flow, link[1], recorded, extras)
            else:
                results = egress_stage(ctx, flow, link[0], recorded, extras)
            fixed = recorded[0] if recorded else None
        ctx.stage_memo_put(name, resource, participants, inputs, results, fixed)
    if math.inf in jitters:
        # An upstream stage diverged for these frames; short-circuit
        # them also where the stage analysis did not see it.
        results = [
            diverged_stage(kind, resource)
            if math.isinf(j) and not math.isinf(result.response)
            else result
            for j, result in zip(jitters, results)
        ]
    return results


def _fixed_points_hold(
    ctx: AnalysisContext,
    flow: Flow,
    kind: StageKind,
    link: tuple[str, str],
    participants: Sequence[Flow],
    inputs: tuple,
    entry: tuple,
) -> bool:
    """Whether a stage's memo ``entry`` is also its exact result under
    ``inputs``: no input is smaller than the entry's, and every stored
    fixed point reproduces itself bit for bit under the new jitter
    shifts (the module docstring says why that suffices).

    ``entry`` was recorded over ``participants`` (the memo returns no
    other), so the old and new inputs pair up one to one.  The stage's
    own divergence short-circuits come first: an infinite participant
    jitter must reach the stage (the kernels cannot split an infinite
    time into cycles), and a stage that failed its utilisation check,
    or whose solve diverged, stored no fixed points.  Utilisations
    only change with the participant set, and an entry over other
    participants never gets here.
    """
    record = entry[2]
    if record is None:
        return False
    jitters, extras = inputs
    if math.inf in extras:
        return False
    old_jitters, old_extras = entry[0]
    if not (
        all(map(operator.ge, extras, old_extras))
        and all(map(operator.ge, jitters, old_jitters))
    ):
        return False
    names = [f.name for f in participants]
    rows = ctx.link_matrix(*link).rows_of(names)
    own = names.index(flow.name)
    over_all, over_others = record
    if kind is StageKind.FIRST_HOP:
        update = fused_mx_sum
    elif kind is StageKind.INGRESS:
        circ = ctx.circ_task(link[1], link[0])

        def update(rows, shifts, t):
            return circ * fused_nx_sum(rows, shifts, t)

    else:
        circ = ctx.circ_task(*link)

        def update(rows, shifts, t):
            return fused_mixed_sum(rows, shifts, t, circ)

    for i in range(0, len(over_all), 2):
        x = over_all[i + 1]
        if over_all[i] + update(rows, extras, x) != x:
            return False
    if over_others:
        rows = rows[:own] + rows[own + 1:]
        extras = extras[:own] + extras[own + 1:]
        for i in range(0, len(over_others), 2):
            x = over_others[i + 1]
            if over_others[i] + update(rows, extras, x) != x:
                return False
    return True


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
