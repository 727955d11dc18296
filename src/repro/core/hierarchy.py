"""The admission engine: O(changed-set) incremental re-analysis.

Sec. 3.5 of the paper makes the holistic analysis an admission
controller: a flow is accepted exactly when the holistic fixed point of
the admitted set plus the candidate converges and every frame of every
flow still meets its deadline.  Re-running that analysis over the whole
admitted set per request is exact, but at datacenter scale (10^5 flows
over a multi-pod fat tree) even a warm-started confirming sweep touches
every flow, so a single admit costs seconds.  A flow's analysis depends
only on the jitters of the flows it shares resources with; the holistic
worklist engine (``core/holistic.py``) already encodes that dependency
structure as a readers map, and this module makes the *flow set itself*
incremental, so one request touches only the candidate's dependency
cone:

* :class:`MutableAnalysisContext` — an analysis context whose flow set
  mutates in place: per-link flow lists, ``hep`` caches and jitter-table
  registration update per admit/release instead of being rebuilt from
  the full set, and the flat per-link demand matrices and stage memos
  check themselves against the flows they were built over;
* :class:`DemandEnvelopes` — cached per-resource necessary-condition
  utilisations; the pre-check of a request reads only the candidate's
  route (every other resource kept its previously sub-unit envelope);
* :class:`AdmissionController` — the incremental admit/release engine
  over one shared jitter table.  :mod:`repro.core.admission` is its
  public import path, and each server of :mod:`repro.service.sharding`
  runs one.  (The module keeps its older name because the benchmark's
  span wrappers look up :func:`analyze_flow` here.)

Stage-ordered solve
-------------------
The unit of work is the stage, not the flow.  A solve keeps every
touched flow's stage results by position and runs its dirty stages in
the order of the :class:`StageGraph` ranks: a stage at node ``X`` reads
only entries at ``X``'s resource, and each of those is written by its
flow's stage at the node before ``X`` on that flow's route, which has a
lower rank on an acyclic graph.  A stage runs with its flow's JSUM there
(source jitters plus the responses at the earlier positions, summed as
the walk sums them), writes its flow's entry at the next resource, and
a changed entry marks the flow's next stage and the stages reading it.
The stages of flows outside the marked set, and the unmarked stages of
marked flows, keep their results: their inputs did not move.

Exactness
---------
Decisions and converged jitter tables are bit-identical to those of a
from-scratch analysis of the admitted set: ``tests/test_hierarchy.py``
checks them after every step against the seed engine of
``tests/oracle.py``, and the decisions against the oracle's serial
controller, which re-runs the analysis over the whole tentative set:

* **acyclic stage graph** (the fat trees' up/down routes): every entry
  a stage reads is final before it runs, because its writer ranks
  lower, so each dirty stage runs once, with its final inputs, and
  the table the solve ends with is a fixed point of the system, which
  has only one solution.  The whole-flow iteration this replaced (and
  the oracle's sweep) reaches an exact fixed point too: every admit
  and release solve of the ``datacenter-hier``, ``fat-tree-tcp`` and
  ``voip-star-tcp`` benchmark op sequences ends in a round with zero
  write delta (180 of 180, 425 of 425 and 1,524 of 1,524, on both
  engines), so both reach that one solution.
* **cyclic stage graph** (routes around a ring): the solve is a
  Gauss-Seidel iteration at stage granularity.  It starts from the
  same pre-solution as the whole-flow iteration (a warm start for an
  admit, a cold cone for a release; both below the new least fixed
  point) and ends by the same round and tolerance rule, so it reaches
  the same least fixed point.  A stage runs only while its entry holds
  the JSUM of its flow's current results; a stage whose predecessor has
  not yet rewritten the entry (a fresh flow's, or one after a changed
  or reset upstream entry) waits until the predecessor has run, so no
  stage result outlives the inputs it was computed from.
* **admit** marks the candidate's first stage and every stage whose
  participant set the candidate joined (the
  :meth:`~AdmissionController._edge_changes` gains, derived from the
  same link-sharing rules as :func:`~repro.core.holistic.flow_read_set`);
  all other stages' inputs are untouched, so re-running them would
  reproduce their results bit for bit.  The admitted set's converged
  table is a sound warm start (adding interference only raises the
  least fixed point).  A rejected candidate's writes are rolled back
  through the undo logs of the jitter table and the stage memo.
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
* **preload** (and so ``restore``) seeds the table and may join stages
  of flows admitted before, so it walks every flow from its first
  stage, as if new: on an acyclic graph each stage runs exactly once.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from typing import Iterable, Mapping, NamedTuple, Sequence

from repro import telemetry as _telemetry
from repro.core.context import (
    AnalysisContext,
    AnalysisOptions,
    ResourceKey,
    ingress_resource,
    link_resource,
)
from repro.core.first_hop import first_hop_utilization
from repro.core.holistic import JITTER_TOLERANCE, flow_read_set

# The engine runs single stages (run_stage), not whole walks; the
# analyze_flow name stays importable here because the benchmark's span
# wrappers (perfbench/spans.py, spans.ENGINE) look it up in this module.
from repro.core.pipeline import (  # noqa: F401
    analyze_flow,
    run_stage,
    stage_resources,
)
from repro.core.results import (
    AdmissionDecision,
    FlowResult,
    FrameResult,
    HolisticResult,
    first_violation,
)
from repro.core.switch_ingress import ingress_utilization
from repro.model.flow import Flow, hep_flows
from repro.model.network import Network
from repro.model.routing import validate_route
from repro.telemetry import tracing as _tracing


class MutableAnalysisContext(AnalysisContext):
    """An :class:`AnalysisContext` whose flow set mutates in place.

    The base context is rebuilt per flow set; at 10^5 admitted flows
    that rebuild (link caches, jitter registration, demand matrices)
    costs far more than the incremental analysis itself.  Here every
    flow-set-derived structure updates in O(route x link density):

    * ``self.flows`` is a *list* in admission order, appended on admit —
      so the base class's ordering contract (``flows_on_link`` filters
      the flow order, the holistic sweep iterates it) is preserved;
    * per-link flow lists are maintained directly instead of filtering
      the whole set per link;
    * ``hep`` results are cached per link so an admit/release drops
      only the touched links' entries;
    * a touched link gets a new ``flows_on_link`` tuple, which retires
      its flat demand matrix (cached against the old tuple); stage
      memos need no drop at all, since an entry recorded over other
      participants than a stage's current ones is never returned
      (:meth:`AnalysisContext.stage_memo_get`).  Removing a flow pops
      its own entries only to free them;
    * a tentative request's writes can be undone: between
      :meth:`begin_undo` and :meth:`rollback_undo` the jitter table and
      the stage memo both log each entry's value before its first
      overwrite, so a reject leaves neither holding results recorded
      over the withdrawn candidate.
    """

    def __init__(
        self,
        network: Network,
        flows: Sequence[Flow] = (),
        options: AnalysisOptions | None = None,
    ):
        super().__init__(network, flows, options)
        self.flows = list(self.flows)  # admission order, mutated in place
        self._link_index: dict[tuple[str, str], list[Flow]] = {}
        for f in self.flows:
            for link in f.links():
                self._link_index.setdefault(link, []).append(f)
        # link -> {flow name -> hep tuple}; nested so invalidation of a
        # link is one pop instead of a scan over the flat base cache.
        self._hep_by_link: dict[
            tuple[str, str], dict[str, tuple[Flow, ...]]
        ] = {}
        # (flow, resource) -> memo entry before the request's first
        # overwrite (None: there was none); None outside a request.
        self._memo_undo: dict[tuple[str, ResourceKey], tuple | None] | None = (
            None
        )

    # -- queries (same semantics as the base class, served incrementally)
    def flows_on_link(self, n1: str, n2: str) -> tuple[Flow, ...]:
        key = (n1, n2)
        hit = self._link_flows_cache.get(key)
        if hit is None:
            hit = tuple(self._link_index.get(key, ()))
            self._link_flows_cache[key] = hit
        return hit

    def hep(self, flow: Flow, n1: str, n2: str) -> tuple[Flow, ...]:
        per_link = self._hep_by_link.setdefault((n1, n2), {})
        hit = per_link.get(flow.name)
        if hit is None:
            hit = tuple(hep_flows(self.flows_on_link(n1, n2), flow, n1, n2))
            per_link[flow.name] = hit
        return hit

    # -- mutation
    def add_flow(self, flow: Flow) -> None:
        """Append ``flow`` to the admitted set (tentatively or finally)."""
        validate_route(self.network, flow.route)
        if flow.name in self._by_name:
            raise ValueError(f"flow name {flow.name!r} already admitted")
        self.flows.append(flow)
        self._by_name[flow.name] = flow
        self.jitters.add_flow(flow)
        for link in flow.links():
            self._link_index.setdefault(link, []).append(flow)
            self._touch_link(link)

    def remove_flow(self, flow_name: str) -> None:
        """Remove a flow and every structure derived from its presence."""
        flow = self._by_name.pop(flow_name)
        for i, f in enumerate(self.flows):
            if f is flow:
                del self.flows[i]
                break
        self.jitters.remove_flow(flow_name)
        self._stage_cache.pop(flow_name, None)
        for link in flow.links():
            entry = self._link_index.get(link, [])
            for i, f in enumerate(entry):
                if f is flow:
                    del entry[i]
                    break
            self._touch_link(link)

    def _touch_link(self, link: tuple[str, str]) -> None:
        self._link_flows_cache.pop(link, None)
        self._hep_by_link.pop(link, None)

    # -- tentative requests
    def stage_memo_put(
        self,
        flow_name: str,
        resource: ResourceKey,
        participants: Sequence[Flow],
        inputs,
        results,
        fixed_points,
    ) -> None:
        undo = self._memo_undo
        if undo is not None and (flow_name, resource) not in undo:
            per_flow = self._stage_cache.get(flow_name)
            undo[(flow_name, resource)] = (
                per_flow.get(resource) if per_flow is not None else None
            )
        super().stage_memo_put(
            flow_name, resource, participants, inputs, results, fixed_points
        )

    def begin_undo(self) -> None:
        """Start logging jitter and memo entries before their first
        overwrite."""
        self.jitters.begin_undo()
        self._memo_undo = {}

    def commit_undo(self) -> None:
        """Keep every write since :meth:`begin_undo`."""
        self.jitters.commit_undo()
        self._memo_undo = None

    def rollback_undo(self) -> None:
        """Restore every jitter and memo entry written since
        :meth:`begin_undo`."""
        self.jitters.rollback_undo()
        undo, self._memo_undo = self._memo_undo, None
        cache = self._stage_cache
        for (name, resource), entry in undo.items():
            per_flow = cache.get(name)
            if entry is not None:
                if per_flow is None:
                    per_flow = cache[name] = {}
                per_flow[resource] = entry
            elif per_flow is not None:
                per_flow.pop(resource, None)


class DemandEnvelopes:
    """Cached necessary-condition utilisations per route resource.

    A full check sweeps the whole network
    (:func:`~repro.core.utilization.network_convergence_report`); an
    admission request only needs the candidate's route — every other
    resource kept its previously sub-unit utilisation.  Entries are
    computed by the *same* functions in the same summation order as the
    stage applicability checks and cached until a flow-set change on
    the underlying link drops them.

    Note the link entry doubles as the worst egress-applicability value
    (Eqs. 34/35 plus own demand) over the link's flows: the
    minimum-priority flow's ``hep`` set is every other flow on the
    link, so its own+hep utilisation is the link total (Eq. 20).
    """

    def __init__(self, ctx: AnalysisContext):
        self._ctx = ctx
        self._cache: dict[ResourceKey, float] = {}

    def link_utilization(self, n1: str, n2: str) -> float:
        """Eq. 20 total demand fraction of ``link(n1, n2)``."""
        key = link_resource(n1, n2)
        val = self._cache.get(key)
        if val is None:
            val = first_hop_utilization(self._ctx, n1, n2)
            self._cache[key] = val
        return val

    def ingress_utilization(self, node: str, prev: str) -> float:
        """Ingress-path demand fraction at ``node`` from ``prev``."""
        key = ("in", node, prev)
        val = self._cache.get(key)
        if val is None:
            val = ingress_utilization(self._ctx, node, prev)
            self._cache[key] = val
        return val

    def invalidate_route(self, flow: Flow) -> int:
        """Drop the entries ``flow``'s presence affects; returns count."""
        dropped = 0
        route = flow.route
        for i in range(len(route) - 1):
            key = link_resource(route[i], route[i + 1])
            if self._cache.pop(key, None) is not None:
                dropped += 1
        for i in range(1, len(route) - 1):
            if self._cache.pop(("in", route[i], route[i - 1]), None) is not None:
                dropped += 1
        return dropped

    def violation(self, flow: Flow) -> tuple[ResourceKey, float] | None:
        """Worst over-unit resource on ``flow``'s route, if any."""
        route = flow.route
        checks = [
            (
                link_resource(route[0], route[1]),
                self.link_utilization(route[0], route[1]),
            )
        ]
        for i in range(1, len(route) - 1):
            checks.append(
                (
                    ("in", route[i], route[i - 1]),
                    self.ingress_utilization(route[i], route[i - 1]),
                )
            )
            checks.append(
                (
                    link_resource(route[i], route[i + 1]),
                    self.link_utilization(route[i], route[i + 1]),
                )
            )
        worst_key, worst = None, 0.0
        for key, val in checks:
            if val >= 1.0 and val > worst:
                worst_key, worst = key, val
        return (worst_key, worst) if worst_key is not None else None


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
    """An admitted flow's stages, by position."""

    resources: list  # each stage's resource (its flow's entry there)
    positions: dict  # resource -> position
    nodes: list  # each stage's StageGraph node


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
    converged table, and rolls the tentative writes back on a reject.  Per-request work is
    proportional to the candidate's dependency cone instead of the
    admitted-set size — milliseconds at 10^5 admitted flows.

    Released and rejected flows' demand profiles are retired into a
    bounded store of ``retained_flows`` entries instead of discarded,
    so a release followed by re-admission of the same flow (the churn
    of a call service) rebuilds no demand profile.  Retired entries keep
    their value check: a reused name never revives a stale profile,
    while an equal flow re-parsed from the wire reuses every one.

    :meth:`preload` bulk-admits a known-good set with one solve (its
    state equals the sequential-admission outcome); :meth:`export_state`
    and :meth:`restore` carry the converged state between processes.
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
        self._ctx = MutableAnalysisContext(network, (), self.options)
        self._envelopes = DemandEnvelopes(self._ctx)
        self._results: dict[str, FlowResult] = {}
        # (subject flow, resource) -> reader flow names; the inverse of
        # the flows' read sets (core/holistic.py), maintained per
        # admit/release.  _reads_of is the forward direction, needed to
        # detach a flow's reader role in O(own read set).
        self._readers: dict[tuple[str, ResourceKey], set[str]] = {}
        self._reads_of: dict[str, set[tuple[str, ResourceKey]]] = {}
        self._order: dict[str, int] = {}
        self._next_order = 0
        self._walks: dict[str, _Walk] = {}
        self._graph = StageGraph()
        self._retired: OrderedDict[str, dict] = OrderedDict()
        self._retained_flows = max(0, retained_flows)
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
    # Retired demand-profile generations
    # ------------------------------------------------------------------
    def _retire_demands(self, flow_name: str) -> None:
        entries = self._ctx.pop_demands(flow_name)
        if entries is None or not self._retained_flows:
            return
        self._retired.pop(flow_name, None)
        self._retired[flow_name] = entries
        while len(self._retired) > self._retained_flows:
            self._retired.popitem(last=False)

    def _revive_demands(self, flow_name: str) -> None:
        entries = self._retired.pop(flow_name, None)
        if entries is not None:
            self._ctx.install_demands(flow_name, entries)

    # ------------------------------------------------------------------
    # Reader-edge maintenance
    # ------------------------------------------------------------------
    def _add_walk(self, flow: Flow) -> None:
        """Record ``flow``'s stages and add its route to the stage graph."""
        resources = stage_resources(flow.route)
        nodes = stage_nodes(flow.route)
        self._walks[flow.name] = _Walk(
            resources, {r: i for i, r in enumerate(resources)}, nodes
        )
        self._graph.add_route(nodes)

    def _edge_changes(
        self, flow: Flow
    ) -> tuple[dict[tuple[str, ResourceKey], set[str]], set[tuple]]:
        """Reader edges ``flow``'s presence creates.

        Returns ``(gains, own_reads)``: ``gains`` maps each of the
        flow's jitter entries to the *other* flows that read it — the
        flows whose stage participant sets contain the flow, i.e.
        exactly the flows whose next analysis can differ from their
        cached result.  Derived from the subject's side of
        :func:`~repro.core.holistic.flow_read_set`: for each link
        ``(n1, n2)`` of the flow, a flow ``j`` sharing it reads the
        flow's entry

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
        return gains, flow_read_set(ctx, flow)

    def _install_edges(self, flow: Flow) -> set[tuple[str, int]]:
        """Record the edges ``flow`` creates; returns the solve's seed:
        the flow's first stage and each stage whose participant set the
        flow joined, as ``(flow name, position)``."""
        gains, own_reads = self._edge_changes(flow)
        walks = self._walks
        seed = {(flow.name, 0)}
        for (_, resource), names in gains.items():
            for name in names:
                seed.add((name, walks[name].positions[resource]))
        if self.options.use_jitter:
            # Mirror the worklist engine: with jitter modelling off the
            # readers map stays empty (no entry ever propagates).
            for key, names in gains.items():
                self._readers.setdefault(key, set()).update(names)
                for name in names:
                    self._reads_of.setdefault(name, set()).add(key)
            if own_reads:
                self._reads_of[flow.name] = set(own_reads)
                for key in own_reads:
                    self._readers.setdefault(key, set()).add(flow.name)
        return seed

    def _remove_edges(self, flow: Flow) -> None:
        fname = flow.name
        for key in self._reads_of.pop(fname, ()):
            readers = self._readers.get(key)
            if readers is not None:
                readers.discard(fname)
                if not readers:
                    del self._readers[key]
        for resource in self._walks[fname].resources:
            readers = self._readers.pop((fname, resource), None)
            if readers:
                for name in readers:
                    reads = self._reads_of.get(name)
                    if reads is not None:
                        reads.discard((fname, resource))

    # ------------------------------------------------------------------
    # Stage-ordered solve
    # ------------------------------------------------------------------
    def _solve(
        self,
        seed: Iterable[tuple[str, int]],
        fresh: Iterable[str] = (),
    ) -> tuple[bool, dict[str, FlowResult], int, int]:
        """Sec. 3.5 restricted to the stages ``seed`` marks and those
        their writes reach.

        ``seed`` holds ``(flow name, position)`` stages.  A round runs
        its dirty stages in order of ``(stage-graph rank, admission
        order, position)``; a stage marked at or behind the sweep's
        current key waits for the next round.  A stage's JSUM is its
        flow's source jitters plus its responses at the earlier
        positions, summed left to right as the walk sums them; it runs
        once its entry holds that JSUM (a stage whose predecessor has
        yet to rewrite the entry waits until it has), and then writes
        its flow's entry at the next resource.  A changed entry marks the
        flow's next stage and each reader's stage at that resource.  The
        flows in ``fresh`` start with no stage results (each walk from
        its first stage); the others start from :attr:`flow_results`.
        Rounds end when one moves no jitter by more than
        :data:`~repro.core.holistic.JITTER_TOLERANCE`; the first infinite
        response ends the solve, unconverged.  The module docstring says
        why the result is exact.

        Returns ``(converged, results of the flows that had a stage
        run, rounds, stage runs)``.
        """
        ctx = self._ctx
        by_name = ctx._by_name
        jitters = ctx.jitters
        entry = jitters.get
        write = jitters.set
        order = self._order
        readers = self._readers
        walks = self._walks
        rank = self._graph.ranks()
        committed = self._results
        fresh = set(fresh)
        # Flow name -> its stage results by position (each a per-frame
        # list), as far as its walk got.
        done: dict[str, list[list]] = {}
        ran: set[str] = set()  # flows that had a stage run
        changed: set[str] = set()  # ... whose stage results changed
        waiting: set[tuple[str, int]] = set()
        runs = 0
        converged = False
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
                results = run_stage(ctx, flow, at, jit)
                runs += 1
                ran.add(name)
                if at == len(stages):
                    stages.append(results)
                    changed.add(name)
                elif stages[at] != results:
                    stages[at] = results
                    changed.add(name)
                for result in results:
                    if math.isinf(result.response):
                        # Infinite responses never recover (monotone).
                        return (
                            False,
                            self._results_of(done, ran, changed),
                            rounds,
                            runs,
                        )
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
            if jitters.round_delta() <= JITTER_TOLERANCE:
                converged = True
                break
            pending = next_pending
        return converged, self._results_of(done, ran, changed), rounds, runs

    def _results_of(
        self,
        done: Mapping[str, list[list]],
        ran: set[str],
        changed: set[str],
    ) -> dict[str, FlowResult]:
        """A solve's results of every flow it ran a stage of: rebuilt
        from the stage results where they changed, else the committed
        object."""
        out: dict[str, FlowResult] = {}
        for name in ran:
            if name not in changed:
                out[name] = self._results[name]
                continue
            stages = done[name]
            spec = self._ctx._by_name[name].spec
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
        self._revive_demands(flow.name)
        ctx.add_flow(flow)  # validates the route, invalidates its links
        self._note_invalidations(flow)

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

        self._add_walk(flow)
        seed = self._install_edges(flow)
        self._order[flow.name] = self._next_order
        self._next_order += 1
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
            self._remove_edges(flow)
            self._order.pop(flow.name, None)
            del self._walks[flow.name]
        self._ctx.remove_flow(flow.name)
        self._note_invalidations(flow)
        self._retire_demands(flow.name)

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
        gains, _ = self._edge_changes(flow)
        todo = [(j, res) for (_, res), names in gains.items() for j in names]
        affected: set[tuple[str, ResourceKey]] = set()
        cone: set[tuple[str, ResourceKey]] = set()
        while todo:
            stage = todo.pop()
            if stage in affected:
                continue
            affected.add(stage)
            name, res = stage
            walk = self._walks[name]
            for resource in walk.resources[walk.positions[res] + 1:]:
                entry = (name, resource)
                if entry in cone:
                    break  # a flow's cone entries form a route suffix
                cone.add(entry)
                for reader in self._readers.get(entry, ()):
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
        walks = self._walks
        seed = {(name, walks[name].positions[res]) for name, res in affected}

        self._remove_edges(flow)
        self._order.pop(flow_name, None)
        self._results.pop(flow_name, None)
        del walks[flow_name]
        ctx.remove_flow(flow_name)
        self._note_invalidations(flow)
        self._retire_demands(flow_name)

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

        Final state (admitted set, jitter table, results) is identical
        to admitting the flows one by one in order — both converge to
        the least fixed point of the full set, the sequential path just
        pays one tentative solve per flow.  ``jitters`` (the converged
        entries of the combined set, as :meth:`export_state` returns
        them) seed the solve, which then only confirms them.  Raises
        :class:`ValueError` if the combined set is not schedulable; the
        controller should be discarded in that case.
        """
        ctx = self._ctx
        for flow in flows:
            self._revive_demands(flow.name)
            ctx.add_flow(flow)
            self._note_invalidations(flow)
            self._add_walk(flow)
            self._order[flow.name] = self._next_order
            self._next_order += 1
        if jitters:
            ctx.jitters.seed(jitters)
        if self.options.use_jitter:
            # Rebuild the readers map wholesale (covers edges the new
            # flows create towards previously admitted ones too).
            self._readers.clear()
            self._reads_of.clear()
            for f in ctx.flows:
                reads = flow_read_set(ctx, f)
                if reads:
                    self._reads_of[f.name] = set(reads)
                    for key in reads:
                        self._readers.setdefault(key, set()).add(f.name)
        # The seeded table and the new flows can move any stage of the
        # flows admitted before: every flow is walked from its first
        # stage, as if new.
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
        retained_flows: int = 256,
    ) -> "AdmissionController":
        """Rebuild a controller from :meth:`export_state` output.

        The exported table seeds one solve over the whole set (a
        :meth:`preload`): the monotone iteration confirms the converged
        entries in one round.  The restored controller holds the
        exporter's admitted set, table and bounds, so its later
        decisions are the exporter's.
        """
        ctrl = cls(network, options, retained_flows=retained_flows)
        ctrl.preload(flows, jitters=jitters)
        return ctrl

    def _note_invalidations(self, flow: Flow) -> None:
        dropped = self._envelopes.invalidate_route(flow)
        if dropped:
            _telemetry.add("hierarchy.envelope_invalidations", dropped)


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
