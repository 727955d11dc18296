"""Holistic analysis: the Sec. 3.5 jitter fixed point.

Fig. 6 assumes the generalized jitters of *other* flows at every
resource are known.  In practice only the source jitters are specified,
so the paper extends Tindell & Clark's holistic schedulability analysis:

1. assume zero jitter for every flow at every non-source resource;
2. run Fig. 6 for every flow (which writes each flow's per-resource
   jitters as accumulated upstream responses);
3. repeat until the jitter table stops changing.

Responses are monotone non-decreasing in the interfering jitters, and
jitters are accumulated responses, so the iteration is monotone: it
either converges to the least fixed point or grows past the divergence
horizon (unschedulable).

Worklist engine
---------------
``analyze_flow`` is a deterministic function of the flow's spec and the
jitters of its interferers at the resources along its route, so a flow
whose inputs did not change since its last analysis would reproduce its
previous result bit for bit — re-running it is pure waste.  The engine
therefore precomputes the *read set* of every flow (which
``(flow, resource)`` jitter entries its first-hop / ingress / egress
stages consult, via ``flows_on_link`` and ``hep``), inverts it into a
readers map, and each round re-analyses only the flows whose read set
intersects the entries that changed bit-wise in the previous round.

Convergence is judged exactly like the plain iteration above, which
re-analyses every flow every round and compares the table against a
round-start snapshot: a round whose largest write-delta is within
:data:`JITTER_TOLERANCE` is the fixed point (the
:class:`~repro.core.context.JitterTable` tracks write deltas with the
snapshot comparison's semantics, including counting a first explicit
write as its own magnitude).  Because skipped flows would have
reproduced their cached results exactly, the worklist trajectory —
per-round table state, round count, final bounds — is bit-identical to
the plain iteration's.  ``tests/oracle.py`` keeps the plain iteration
(the seed engine), and the engine-equivalence suite compares the two
with ``==`` on floats.

The per-stage memo (``core/pipeline.py``) composes with the worklist:
when a re-walked flow reaches a stage whose exact jitter inputs are
unchanged, the cached :class:`~repro.core.results.StageResult` objects
are replayed instead of re-running the stage's fixed points.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import telemetry as _telemetry
from repro.core.context import (
    AnalysisContext,
    AnalysisOptions,
    ingress_resource,
    link_resource,
)
from repro.core.pipeline import analyze_flow
from repro.core.results import FlowResult, HolisticResult
from repro.model.flow import Flow
from repro.model.network import Network

#: Absolute tolerance (seconds) below which a jitter change counts as
#: converged.  1 ns is far below any modelled quantity (CIRC ~ 15 us).
JITTER_TOLERANCE = 1e-9


def holistic_analysis(
    network: Network,
    flows: Sequence[Flow],
    options: AnalysisOptions | None = None,
    *,
    context: AnalysisContext | None = None,
) -> HolisticResult:
    """Run the holistic fixed point; returns the final per-flow results.

    Parameters
    ----------
    network, flows, options:
        Problem description (ignored when ``context`` is given).
    context:
        Optionally reuse an existing context (its jitter table is used
        as the starting point — useful for incremental admission).
    """
    ctx = context or AnalysisContext(network, flows, options)
    return _worklist_analysis(ctx)


def _worklist_analysis(ctx: AnalysisContext) -> HolisticResult:
    """Dependency-aware worklist evaluation of the Sec. 3.5 iteration."""
    max_iter = ctx.options.holistic_max_iterations

    # Invert the read sets into a readers map once per analysis.  With
    # jitter modelling disabled every read returns 0 and the map is
    # empty: nothing ever gets dirty and the engine stops after the
    # confirming round, like the plain iteration.
    readers: dict[tuple, set[str]] = {}
    if ctx.options.use_jitter:
        for f in ctx.flows:
            for key in flow_read_set(ctx, f):
                readers.setdefault(key, set()).add(f.name)

    # The plain iteration analyses flows in order, so within a round a
    # flow sees the *current-round* writes of flows earlier in the order
    # (Gauss-Seidel).  The worklist mirrors that exactly: a changed
    # entry dirties readers still ahead in the current round
    # immediately, and readers already passed for the next round.
    order = {f.name: i for i, f in enumerate(ctx.flows)}
    results: dict[str, FlowResult] = {}
    pending: set[str] = {f.name for f in ctx.flows}
    converged = False
    iterations = 0
    flow_evals = 0
    invalidations = 0
    for iterations in range(1, max_iter + 1):
        ctx.jitters.begin_round()
        next_pending: set[str] = set()
        for f in ctx.flows:  # sweep order preserved (Gauss-Seidel reads)
            if f.name not in pending:
                continue
            results[f.name] = analyze_flow(ctx, f)
            flow_evals += 1
            position = order[f.name]
            for key in ctx.jitters.drain_changed_keys():
                for reader in readers.get(key, ()):
                    invalidations += 1
                    if order[reader] > position:
                        pending.add(reader)
                    else:
                        next_pending.add(reader)
        if _any_diverged(results):
            _note_analysis(ctx, iterations, flow_evals, invalidations)
            return HolisticResult(
                flow_results=results, iterations=iterations, converged=False
            )
        if ctx.jitters.round_delta() <= JITTER_TOLERANCE:
            converged = True
            break
        pending = next_pending
    _note_analysis(ctx, iterations, flow_evals, invalidations)
    return HolisticResult(
        flow_results=results, iterations=iterations, converged=converged
    )


def flow_read_set(ctx: AnalysisContext, flow: Flow) -> set[tuple]:
    """The jitter-table entries ``flow``'s Fig. 6 walk reads.

    Mirrors the stage analyses: the first hop reads every flow sharing
    the first link, each switch ingress reads every flow sharing the
    incoming link, each egress reads the ``hep`` set on the outgoing
    link.  The flow's *own* entries are excluded: the walk overwrites
    them from its spec and the upstream responses before reading them,
    so they are outputs, not inputs.
    """
    keys: set[tuple] = set()
    route = flow.route
    src = route[0]
    first = link_resource(src, route[1])
    # (core/hierarchy.py derives the same edges from the subject's side
    # when a flow is admitted; keep both in sync.)
    for j in ctx.flows_on_link(src, route[1]):
        if j.name != flow.name:
            keys.add((j.name, first))
    if len(route) > 2:
        n1, n2 = src, route[1]
        while n2 != flow.destination:
            n3 = flow.succ(n2)
            ingress = ingress_resource(n2)
            for j in ctx.flows_on_link(n1, n2):
                if j.name != flow.name:
                    keys.add((j.name, ingress))
            egress = link_resource(n2, n3)
            for j in ctx.hep(flow, n2, n3):
                keys.add((j.name, egress))
            n1, n2 = n2, n3
    return keys


def _note_analysis(
    ctx: AnalysisContext, rounds: int, flow_evals: int, invalidations: int
) -> None:
    """Record one holistic analysis's totals (once, at its exit)."""
    reg = _telemetry.REGISTRY
    if reg is None:
        return
    reg.add("engine.holistic.analyses")
    reg.add("engine.holistic.rounds", rounds)
    reg.add("engine.holistic.flow_analyses", flow_evals)
    reg.add(
        "engine.holistic.worklist_skips",
        rounds * len(ctx.flows) - flow_evals,
    )
    reg.add("engine.holistic.invalidations", invalidations)


def _any_diverged(results: dict[str, FlowResult]) -> bool:
    return any(
        math.isinf(frame.response)
        for r in results.values()
        for frame in r.frames
    )
