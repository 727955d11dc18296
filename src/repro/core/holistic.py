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

Stage-ordered solve
-------------------
One solve computes that fixed point: the :class:`StageSchedule`'s.
:func:`holistic_analysis` runs it over a whole flow set, and the
admission engine (:mod:`repro.core.hierarchy`) runs it for each
request, release and preload, re-solving only the stages a change can
reach.  The unit of work is the stage, not the flow.  The schedule
keeps each flow's walk (its stages by position), ranks the stages with
a :class:`StageGraph`, and inverts the participants each stage reads
(:func:`~repro.core.pipeline.plan_stage`) into a readers map: the
flows whose stage reads a given ``(flow, resource)`` jitter entry.

A solve runs its dirty stages in order of (stage-graph rank, flow
order, position).  A stage runs with its flow's JSUM there (source
jitters plus the responses at the earlier positions, summed as Fig. 6
sums them), writes its flow's entry at the next resource, and a changed
entry marks the flow's next stage and the stages reading it.  A stage
marked at or behind the sweep's current stage waits for the next
round.  The unmarked stages keep their results: their inputs did not
move.  :func:`holistic_analysis` starts every flow fresh, from its
first stage.  Rounds end when one moves no jitter by more than
:data:`JITTER_TOLERANCE`, judged like the plain iteration's
round-start snapshot comparison (the
:class:`~repro.core.context.JitterTable` counts a first explicit write
as its own magnitude, as that comparison does).

Exactness
---------
Converged bounds and jitter tables are bit-identical to the plain
iteration's, which re-analyses every flow every round
(``tests/oracle.py`` keeps it, and ``tests/test_engine_equivalence.py``
compares the two with ``==`` on floats):

* **acyclic stage graph** (lines, stars, trees, the fat trees' up/down
  routes): a stage at node ``X`` reads only entries at ``X``'s
  resource, and each of those is written by its flow's stage at the
  node before ``X`` on that flow's route, which has a lower rank.  So
  every entry a stage reads is final before the stage runs, each stage
  runs once, with its final inputs, and the table the solve ends with
  is a fixed point of the system, which has only one solution.  A
  from-scratch solve therefore takes at most two rounds: one that runs
  every stage and one that confirms.  The plain iteration lands on
  that solution exactly too wherever it was measured: run as each admit
  and release solve of the ``datacenter-hier``, ``fat-tree-tcp`` and
  ``voip-star-tcp`` benchmark op sequences, it ended every solve in a
  round with zero write delta (180 of 180, 425 of 425 and 1,524 of
  1,524).
* **cyclic stage graph** (routes around a ring): the solve is a
  Gauss-Seidel iteration at stage granularity.  It starts at or below
  the least fixed point (a cold table, an admitted set's table for an
  admit, a cold cone for a release) and ends by the same round and
  tolerance rule as the plain iteration, so it reaches the same least
  fixed point.  A stage runs only while its entry holds the JSUM of its
  flow's current results; a stage whose predecessor has not yet
  rewritten the entry (a fresh flow's, or one after a changed or reset
  upstream entry) waits until the predecessor has run, so no stage
  result outlives the inputs it was computed from.  A round within the
  tolerance ends the solve only once every fresh walk is complete: over
  a table seeded with the fixed point (a restore) a deferred stage
  writes no delta, and stopping before it ran would report the partial
  sum of a walk as its bound.

Divergence
----------
The round in which the first infinite response appears runs to its
end, so every stage it reaches downstream of a diverged entry reads
infinite (on an acyclic graph, every such stage); then the solve stops,
unconverged.  Infinite responses never recover (the iteration is
monotone), so no later round could converge.  A diverged solve's
results are partial: on a cyclic graph a walk may end at a stage
deferred to the next round.

``HolisticResult.iterations`` counts the solve's stage rounds.

The per-stage memo (``core/pipeline.py``) composes with the schedule:
a stage whose exact inputs are unchanged, or have only grown under
fixed points that still hold, replays its cached
:class:`~repro.core.results.StageResult` objects.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro import telemetry as _telemetry
from repro.core.context import AnalysisContext, AnalysisOptions, ResourceKey

# The solve runs single stages (run_stage), not whole walks; the
# analyze_flow name stays importable here because the benchmark's span
# wrappers (perfbench/spans.py, spans.ENGINE) look it up in this module.
from repro.core.pipeline import (  # noqa: F401
    analyze_flow,
    plan_stage,
    run_stage,
    stage_resources,
)
from repro.core.results import (
    FlowResult,
    FrameResult,
    HolisticResult,
    StageResult,
)
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
        Optionally analyse an existing context's flows instead; its
        jitter table is the starting point (a table seeded with entries
        at or below the least fixed point, such as an admitted subset's,
        is a sound warm start).
    """
    ctx = context or AnalysisContext(network, flows, options)
    names = [f.name for f in ctx.flows]
    converged, results, rounds, _ = StageSchedule(ctx).solve(
        [(name, 0) for name in names], names
    )
    reg = _telemetry.REGISTRY
    if reg is not None:
        reg.add("engine.holistic.analyses")
        reg.add("engine.holistic.rounds", rounds)
    return HolisticResult(
        flow_results=results, iterations=rounds, converged=converged
    )


class StageGraph:
    """Which stages feed which, ranked so that a feeder comes first.

    One node per link resource (``("link", a, b)``: a first hop or an
    egress) and per ingress with its incoming link (``("in", N,
    prev)``), one edge per consecutive pair of stages on a route
    (:meth:`add_route`).  A stage's output is its flow's jitter entry at
    the next resource of its route, and only the stages at the next node
    read that entry (at an ingress, only those of the flows entering
    over the same link): on an edge ``u -> v`` the stages at ``u`` write
    entries the stages at ``v`` read.  Keyed by switch alone, an ingress
    node would join every incoming link at a switch, and a fat tree's
    leaf (entered both from hosts and from spines) would close cycles.

    :meth:`ranks` numbers the nodes by Kahn's algorithm, level by
    level, so every edge runs from a lower to a higher rank on an
    acyclic graph.  When the algorithm stalls on a cycle (routes around
    a ring), it releases the earliest-inserted node left, so every node
    gets a rank, deterministically.  Ranks are recomputed only after a
    route added a node, or an edge the current ranks do not already
    order; edges are never removed, since a topological order of a
    graph also orders each of its subgraphs.
    """

    def __init__(self) -> None:
        # node -> successors (an insertion-ordered set); the key order
        # is the node insertion order that breaks cycles.
        self._succ: dict[tuple, dict[tuple, None]] = {}
        self._rank: dict[tuple, int] = {}
        self._stale = False

    def add_route(self, nodes: Sequence[tuple]) -> None:
        """Add the stages of one route, in walk order."""
        succ = self._succ
        rank = self._rank
        stale = self._stale
        for node in nodes:
            if node not in succ:
                succ[node] = {}
                stale = True
        for u, v in zip(nodes, nodes[1:]):
            outs = succ[u]
            if v not in outs:
                outs[v] = None
                stale = stale or rank[u] >= rank[v]
        self._stale = stale

    def ranks(self) -> dict[tuple, int]:
        """Node -> rank."""
        if self._stale:
            self._rank = self._kahn()
            self._stale = False
        return self._rank

    def _kahn(self) -> dict[tuple, int]:
        succ = self._succ
        indegree = dict.fromkeys(succ, 0)
        for outs in succ.values():
            for v in outs:
                indegree[v] += 1
        rank: dict[tuple, int] = {}
        inserted = iter(succ)
        level = 0
        wave = [node for node, d in indegree.items() if not d]
        while len(rank) < len(succ):
            if not wave:
                # Stalled on a cycle: release the earliest-inserted
                # node left.
                wave = [next(n for n in inserted if n not in rank)]
            for u in wave:
                rank[u] = level
            ready = []
            for u in wave:
                for v in succ[u]:
                    if v not in rank:
                        indegree[v] -= 1
                        if not indegree[v]:
                            ready.append(v)
            wave = ready
            level += 1
        return rank


def stage_nodes(route: Sequence[str]) -> list[tuple]:
    """The :class:`StageGraph` nodes of a walk over ``route``, by
    position."""
    nodes = [("link", route[0], route[1])]
    for i in range(1, len(route) - 1):
        nodes.append(("in", route[i], route[i - 1]))
        nodes.append(("link", route[i], route[i + 1]))
    return nodes


class _Walk(NamedTuple):
    """A flow's stages, by position."""

    resources: list  # each stage's resource (its flow's entry there)
    positions: dict  # resource -> position
    nodes: list  # each stage's StageGraph node


class StageSchedule:
    """The stage-ordered solve over one context's flows.

    Starts with the context's flows, in their order, and holds each
    flow's walk and order (:meth:`add`, :meth:`remove`), the
    :class:`StageGraph` of their routes, and the readers map:
    ``(subject flow, resource) -> reader flow names``, the flows whose
    stage at the resource has the subject among its participants
    (:func:`~repro.core.pipeline.plan_stage`).  A flow's reader role
    comes from its own stages' participants (:meth:`add_reads`); the
    admission engine records a new flow's subject role, the stages
    whose participants it joined, with :meth:`add_readers`.  With jitter
    modelling off every read returns 0, so the map stays empty.  The
    module docstring describes :meth:`solve`.
    """

    def __init__(self, ctx: AnalysisContext):
        self.ctx = ctx
        self.walks: dict[str, _Walk] = {}
        self.order: dict[str, int] = {}
        self._next_order = 0
        self.graph = StageGraph()
        self.readers: dict[tuple[str, ResourceKey], set[str]] = {}
        # The forward direction, to detach a flow's reader role in
        # O(own reads).
        self._reads_of: dict[str, set[tuple[str, ResourceKey]]] = {}
        for flow in ctx.flows:
            self.add(flow)
        self.read_all()

    # ------------------------------------------------------------------
    # Flows and the readers map
    # ------------------------------------------------------------------
    def add(self, flow: Flow) -> None:
        """Give ``flow`` its walk and the next order, and add its route's
        stages to the graph."""
        resources = stage_resources(flow.route)
        nodes = stage_nodes(flow.route)
        self.walks[flow.name] = _Walk(
            resources, {r: i for i, r in enumerate(resources)}, nodes
        )
        self.order[flow.name] = self._next_order
        self._next_order += 1
        self.graph.add_route(nodes)

    def remove(self, name: str) -> None:
        """Drop a flow's walk, its order and both its roles in the
        readers map."""
        readers_of = self.readers
        for key in self._reads_of.pop(name, ()):
            readers = readers_of.get(key)
            if readers is not None:
                readers.discard(name)
                if not readers:
                    del readers_of[key]
        for resource in self.walks.pop(name).resources:
            readers = readers_of.pop((name, resource), None)
            if readers:
                for reader in readers:
                    reads = self._reads_of.get(reader)
                    if reads is not None:
                        reads.discard((name, resource))
        del self.order[name]

    def add_reads(self, flow: Flow) -> None:
        """Record the entries ``flow``'s stages read: each participant's
        but its own (the walk writes those before reading them)."""
        if not self.ctx.options.use_jitter:
            return
        ctx = self.ctx
        name = flow.name
        reads = set()
        for position in range(len(self.walks[name].resources)):
            _, resource, _, participants = plan_stage(ctx, flow, position)
            for j in participants:
                if j.name != name:
                    reads.add((j.name, resource))
        if reads:
            self._reads_of[name] = reads
            for key in reads:
                self.readers.setdefault(key, set()).add(name)

    def add_readers(
        self, gains: Mapping[tuple[str, ResourceKey], Iterable[str]]
    ) -> None:
        """Record that the named flows read each ``(flow, resource)``
        entry."""
        if not self.ctx.options.use_jitter:
            return
        for key, names in gains.items():
            self.readers.setdefault(key, set()).update(names)
            for name in names:
                self._reads_of.setdefault(name, set()).add(key)

    def read_all(self) -> None:
        """Rebuild the readers map from every flow's stages."""
        self.readers.clear()
        self._reads_of.clear()
        for flow in self.ctx.flows:
            self.add_reads(flow)

    # ------------------------------------------------------------------
    # The solve
    # ------------------------------------------------------------------
    def solve(
        self,
        seed: Iterable[tuple[str, int]],
        fresh: Iterable[str] = (),
        committed: Mapping[str, FlowResult] | None = None,
        step: Callable[..., Sequence[StageResult]] = run_stage,
    ) -> tuple[bool, dict[str, FlowResult], int, int]:
        """Sec. 3.5 restricted to the stages ``seed`` marks and those
        their writes reach.

        ``seed`` holds ``(flow name, position)`` stages.  The flows in
        ``fresh`` start with no stage results (each walk from its first
        stage); the others start from their ``committed`` results.
        ``step`` runs one stage, as
        :func:`~repro.core.pipeline.run_stage` does.  The module
        docstring describes the
        schedule, its stopping rules and why the result is exact.

        Returns ``(converged, results of the flows that had a stage
        run, rounds, stage runs)``.
        """
        ctx = self.ctx
        by_name = ctx._by_name
        jitters = ctx.jitters
        entry = jitters.get
        write = jitters.set
        order = self.order
        readers = self.readers
        walks = self.walks
        rank = self.graph.ranks()
        if committed is None:
            committed = {}
        fresh = set(fresh)
        unfinished = set(fresh)  # fresh flows whose walk is incomplete
        # Flow name -> its stage results by position (each a per-frame
        # list), as far as its walk got.
        done: dict[str, list[list]] = {}
        ran: set[str] = set()  # flows that had a stage run
        changed: set[str] = set()  # ... whose stage results changed
        waiting: set[tuple[str, int]] = set()
        runs = 0
        converged = False
        diverged = False
        rounds = 0
        pending = set(seed)
        for rounds in range(1, ctx.options.holistic_max_iterations + 1):
            jitters.begin_round()
            heap = [
                (rank[walks[name].nodes[at]], order[name], at, name)
                for name, at in pending
            ]
            heapq.heapify(heap)
            queued = set(pending)
            next_pending: set[tuple[str, int]] = set()

            def mark(name: str, at: int) -> None:
                key = (rank[walks[name].nodes[at]], order[name], at, name)
                if key > current:
                    if (name, at) not in queued:
                        queued.add((name, at))
                        heapq.heappush(heap, key)
                else:
                    next_pending.add((name, at))

            while heap:
                current = heapq.heappop(heap)
                _, _, at, name = current
                queued.discard((name, at))
                stages = done.get(name)
                if stages is None:
                    if name in fresh:
                        stages = []
                    else:
                        stages = [
                            list(results)
                            for results in zip(
                                *[fr.stages for fr in committed[name].frames]
                            )
                        ]
                    done[name] = stages
                if at > len(stages):
                    waiting.add((name, at))  # its predecessor never ran
                    continue
                flow = by_name[name]
                jsum = [float(j) for j in flow.spec.jitters]
                for results in stages[:at]:
                    for k, result in enumerate(results):
                        jsum[k] += result.response
                jit = tuple(jsum)
                walk = walks[name]
                resource = walk.resources[at]
                if at == 0:
                    if write(name, resource, jit):
                        for reader in readers.get((name, resource), ()):
                            mark(reader, walks[reader].positions[resource])
                elif entry(name, resource) != jit:
                    waiting.add((name, at))  # its predecessor rewrites it
                    continue
                results = step(ctx, flow, at, jit)
                runs += 1
                ran.add(name)
                if at == len(stages):
                    stages.append(results)
                    changed.add(name)
                    if len(stages) == len(walk.resources):
                        unfinished.discard(name)
                elif stages[at] != results:
                    stages[at] = results
                    changed.add(name)
                for result in results:
                    if math.isinf(result.response):
                        diverged = True
                at += 1
                if at == len(walk.resources):
                    continue
                for k, result in enumerate(results):
                    jsum[k] += result.response
                resource = walk.resources[at]
                moved = write(name, resource, tuple(jsum))
                if moved or at == len(stages) or (name, at) in waiting:
                    waiting.discard((name, at))
                    mark(name, at)
                if moved:
                    for reader in readers.get((name, resource), ()):
                        mark(reader, walks[reader].positions[resource])
            if diverged:
                break
            if not unfinished and jitters.round_delta() <= JITTER_TOLERANCE:
                converged = True
                break
            pending = next_pending
        return (
            converged,
            self._results_of(done, ran, changed, committed),
            rounds,
            runs,
        )

    def _results_of(
        self,
        done: Mapping[str, list[list]],
        ran: set[str],
        changed: set[str],
        committed: Mapping[str, FlowResult],
    ) -> dict[str, FlowResult]:
        """A solve's results of every flow it ran a stage of, in flow
        order: rebuilt from the stage results where they changed, else
        the committed object."""
        out: dict[str, FlowResult] = {}
        for name in sorted(ran, key=self.order.__getitem__):
            if name not in changed:
                out[name] = committed[name]
                continue
            stages = done[name]
            spec = self.ctx._by_name[name].spec
            frames = []
            for k in range(spec.n_frames):
                # Fig. 6: RSUM starts at GJ_i^k and adds each response.
                rsum = float(spec.jitters[k])
                for results in stages:
                    rsum += results[k].response
                frames.append(
                    FrameResult(
                        frame=k,
                        response=rsum,
                        deadline=spec.deadlines[k],
                        stages=tuple([results[k] for results in stages]),
                    )
                )
            out[name] = FlowResult(flow_name=name, frames=tuple(frames))
        return out
