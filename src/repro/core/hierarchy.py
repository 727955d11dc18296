"""Datacenter-scale admission: hierarchical pods, O(changed-set) updates.

The classic :class:`~repro.core.admission.AdmissionController` re-runs
the holistic analysis over the *whole* admitted set per request.  That
is exact, but at datacenter scale (10^5 flows over a multi-pod fat
tree) even a warm-started confirming sweep touches every flow, so a
single admit costs seconds.  The key structural fact of such a topology
is locality: a flow's analysis depends only on the jitters of flows it
shares resources with, and almost all flows of a pod share nothing with
other pods except the pod-boundary uplinks.  The holistic worklist
engine (``core/holistic.py``) already encodes that dependency structure
as a readers map; this module makes the *flow set itself* incremental
so one admission touches only the candidate's dependency cone:

* :class:`MutableAnalysisContext` — an analysis context whose flow set
  mutates in place: per-link flow lists, ``hep`` caches and jitter-table
  registration update per admit/release instead of being rebuilt from
  the full set, and the flat per-link demand matrices and stage memos
  check themselves against the flows they were built over;
* :class:`DemandEnvelopes` — cached per-resource necessary-condition
  utilisations; the fast-reject of a request checks only the
  candidate's route (every other resource kept its previously sub-unit
  envelope), and the core tier's view of a pod is exactly these
  envelope entries on its boundary links;
* :class:`HierarchicalAdmissionController` — per-pod
  :class:`PodShard` bookkeeping plus the incremental admit/release
  engine.

The controller is also the online service's engine: each server of
:mod:`repro.service.sharding` runs one, so a served request pays for
its change set instead of a re-analysis of the admitted set.
The locality argument does not need pods.  On a network without
``p{i}_`` node prefixes every node is in the core tier, the pod shards
are only bookkeeping, and the readers map alone confines the work.

Exactness
---------
Decisions and converged jitter tables are bit-identical to the
serial controller's and to a from-scratch analysis by the seed engine
of ``tests/oracle.py`` (asserted by ``tests/test_hierarchy.py``;
``tests/test_service.py`` checks the served payloads against the
serial controller):

* **admit** seeds the worklist with the candidate plus every flow whose
  stage participant set the candidate joined (derived from the same
  link-sharing rules as :func:`~repro.core.holistic.flow_read_set`);
  all other flows' inputs are untouched, so re-running them would
  reproduce their results bit for bit.  The admitted set's converged
  table is a sound warm start (adding interference only raises the
  least fixed point), and the monotone Gauss-Seidel iteration below —
  same admission order, same dirtiness propagation as the full
  worklist — reaches the same least fixed point.  A rejected
  candidate's writes are rolled back through the jitter-table undo log.
* **release** removes interference, which *lowers* the least fixed
  point.  Only the released flow's *cone* is reset to the cold
  defaults: the ``(flow, resource)`` jitter entries whose value can
  depend on it.  A stage is affected when its participant set held the
  released flow or it reads a cone entry, and an affected stage puts
  its flow's entries at every later resource of the route into the
  cone.  The flows owning an affected stage are re-solved; every other
  flow, and every entry outside the cone, is left as it is.

  This is exact.  An entry is written only by its own flow's earlier
  stages, and a stage reads only its participants' entries at its own
  resource (at an egress also the flow's constant blocking term).  So
  entries outside the cone depend only on entries outside it, through
  participant sets the released flow was not in: they already sit at
  the new least fixed point.  The reset cone entries lie below it, so
  the monotone worklist converges to it, as from scratch.

  The reset is cold, not warm: with cyclic channel dependencies
  (routes around a ring) re-iterating from the old, now
  over-approximating entries can settle on a non-least fixed point.
  ``tests/test_hierarchy.py::test_ring_release_matches_from_scratch``
  pins two such inputs.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro import telemetry as _telemetry
from repro.core.admission import (
    AdmissionDecision,
    first_violation,
    observed_request,
)
from repro.core.context import (
    AnalysisContext,
    AnalysisOptions,
    ResourceKey,
    ingress_resource,
    link_resource,
)
from repro.core.first_hop import first_hop_utilization
from repro.core.holistic import JITTER_TOLERANCE, flow_read_set
from repro.core.pipeline import analyze_flow
from repro.core.results import FlowResult, HolisticResult
from repro.core.switch_ingress import ingress_utilization
from repro.model.flow import Flow, hep_flows
from repro.model.network import Network
from repro.model.routing import validate_route


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
      its own entries only to free them.
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


class DemandEnvelopes:
    """Cached necessary-condition utilisations per route resource.

    The reference fast-reject sweeps the whole network
    (:func:`~repro.core.utilization.network_convergence_report`); an
    incremental controller only needs the candidate's route — every
    other resource kept its previously sub-unit utilisation.  Entries
    are computed by the *same* functions in the same summation order as
    the stage applicability checks and cached until a flow-set change
    on the underlying link drops them.  The core tier's "pod-boundary
    demand envelope" view is exactly these entries on boundary links.

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


@dataclass(frozen=True)
class PodMap:
    """Node -> pod classification of a multi-pod topology.

    Pods are inferred from the ``p{i}_`` node-name prefix used by
    :func:`repro.workloads.topologies.multi_pod_fat_tree_network`;
    every other node (``core*`` switches, unprefixed hosts) belongs to
    the shared core tier.  Pass an explicit ``node_pod`` mapping for
    topologies with different naming.
    """

    node_pod: Mapping[str, str]
    core: str = "core"

    @classmethod
    def from_network(cls, network: Network) -> "PodMap":
        mapping: dict[str, str] = {}
        for name in network.node_names():
            if name.startswith("p") and "_" in name:
                prefix = name.split("_", 1)[0]
                if prefix[1:].isdigit():
                    mapping[name] = prefix
        return cls(node_pod=mapping)

    def pod_of(self, node: str) -> str:
        return self.node_pod.get(node, self.core)

    def pods_of_route(self, route: Sequence[str]) -> tuple[str, ...]:
        """Ordered distinct pods a route touches (core tier excluded,
        unless the route touches nothing else)."""
        pods: list[str] = []
        for node in route:
            pod = self.pod_of(node)
            if pod != self.core and pod not in pods:
                pods.append(pod)
        return tuple(pods) if pods else (self.core,)

    def is_boundary_link(self, n1: str, n2: str) -> bool:
        return self.pod_of(n1) != self.pod_of(n2)


@dataclass
class PodShard:
    """Per-pod bookkeeping of the hierarchical controller.

    The exactness-critical state (jitter table, results) stays global:
    pods are coupled through their boundary links, and correctness
    comes from the readers topology confining re-analysis, not from
    partitioning the math.  The shard records which flows live in the
    pod and how much re-analysis work landed there — what the core tier
    reports and the scaling benchmarks assert on.
    """

    pod: str
    flows: set[str] = field(default_factory=set)
    admits: int = 0
    releases: int = 0
    resolves: int = 0  # flow re-analyses attributed to this pod


class HierarchicalAdmissionController:
    """Admission control with O(changed-set) incremental re-analysis.

    Drop-in decision-equivalent to
    :class:`~repro.core.admission.AdmissionController`: the same accept
    / reject booleans, converged jitter tables and per-flow bounds.
    Rejection reasons agree too, except that a utilisation pre-check
    reject may name a different resource when several tie for the
    worst utilisation (this controller checks the candidate's route,
    the serial one the whole network).  Per-request work is
    proportional to the candidate's dependency cone instead of the
    admitted-set size — milliseconds at 10^5 admitted flows.  It is the
    engine of each admission server (:mod:`repro.service.sharding`); on
    a network without pods (see :class:`PodMap`) its pod shards are
    only bookkeeping.

    ``request``/``release``/``admitted_flows``/``export_state``/
    ``restore`` mirror the reference API; :meth:`preload` bulk-admits a
    known-good set with one solve (state equals the sequential-admission
    outcome).
    """

    def __init__(
        self,
        network: Network,
        options: AnalysisOptions | None = None,
        initial_flows: Sequence[Flow] = (),
        *,
        retained_flows: int = 256,
        pod_map: PodMap | None = None,
    ):
        self.network = network
        self.options = options or AnalysisOptions()
        self.pod_map = pod_map or PodMap.from_network(network)
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
        self._retired: OrderedDict[str, dict] = OrderedDict()
        self._retained_flows = max(0, retained_flows)
        self._shards: dict[str, PodShard] = {}
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

    def jitter_snapshot(self) -> dict:
        """Converged explicit jitter entries of the admitted set."""
        return self._ctx.jitters.snapshot()

    def _shard(self, pod: str) -> PodShard:
        shard = self._shards.get(pod)
        if shard is None:
            shard = self._shards[pod] = PodShard(pod)
        return shard

    # ------------------------------------------------------------------
    # Retired demand-profile generations (same policy as the reference)
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
    @staticmethod
    def _route_resources(flow: Flow) -> list[ResourceKey]:
        """The resources a flow's Fig. 6 walk writes (its entry keys)."""
        route = flow.route
        keys = [link_resource(route[0], route[1])]
        for i in range(1, len(route) - 1):
            keys.append(ingress_resource(route[i]))
            keys.append(link_resource(route[i], route[i + 1]))
        return keys

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

    def _install_edges(self, flow: Flow) -> set[str]:
        """Record the edges ``flow`` creates; returns the worklist seed
        (the flow plus every flow whose participant set it joined)."""
        gains, own_reads = self._edge_changes(flow)
        seed = {flow.name}
        for names in gains.values():
            seed |= names
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
        for resource in self._route_resources(flow):
            readers = self._readers.pop((fname, resource), None)
            if readers:
                for name in readers:
                    reads = self._reads_of.get(name)
                    if reads is not None:
                        reads.discard((fname, resource))

    # ------------------------------------------------------------------
    # Incremental worklist solve
    # ------------------------------------------------------------------
    def _solve(
        self, seed: set[str]
    ) -> tuple[bool, dict[str, FlowResult], int, int]:
        """Sec. 3.5 worklist restricted to the dependency cone of ``seed``.

        Exactly :func:`~repro.core.holistic._worklist_analysis` with the
        initial pending set narrowed: within a round flows run in
        admission order (min-heap over order positions = the sweep's
        Gauss-Seidel reads), a changed jitter entry re-queues readers
        ahead in the current round and defers readers behind to the
        next, and convergence is the round write-delta falling within
        :data:`~repro.core.holistic.JITTER_TOLERANCE`.  Flows outside
        the cone are never touched: their inputs are unchanged, so
        re-running them would reproduce their stored results bit for
        bit (the worklist engine's defining invariant).

        Returns ``(converged, updated results, rounds, flow evals)``.
        """
        ctx = self._ctx
        order = self._order
        readers = self._readers
        max_iter = ctx.options.holistic_max_iterations
        updated: dict[str, FlowResult] = {}
        pending = set(seed)
        converged = False
        rounds = 0
        evals = 0
        for rounds in range(1, max_iter + 1):
            ctx.jitters.begin_round()
            heap = [(order[name], name) for name in pending]
            heapq.heapify(heap)
            queued = set(pending)
            next_pending: set[str] = set()
            while heap:
                position, name = heapq.heappop(heap)
                queued.discard(name)
                result = analyze_flow(ctx, ctx.flow(name))
                updated[name] = result
                evals += 1
                diverged = any(
                    math.isinf(fr.response) for fr in result.frames
                )
                for key in ctx.jitters.drain_changed_keys():
                    for reader in readers.get(key, ()):
                        rpos = order[reader]
                        if rpos > position:
                            if reader not in queued:
                                queued.add(reader)
                                heapq.heappush(heap, (rpos, reader))
                        else:
                            next_pending.add(reader)
                if diverged:
                    # Infinite responses never recover (monotone).
                    return False, updated, rounds, evals
            if ctx.jitters.round_delta() <= JITTER_TOLERANCE:
                converged = True
                break
            pending = next_pending
        return converged, updated, rounds, evals

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def request(self, flow: Flow) -> AdmissionDecision:
        """Try to admit ``flow``; accepted flows join the state."""
        return observed_request(self._request, flow)

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

        seed = self._install_edges(flow)
        self._order[flow.name] = self._next_order
        self._next_order += 1
        ctx.jitters.begin_undo()
        converged, updated, rounds, evals = self._solve(seed)
        if not converged:
            reason = "holistic analysis diverged (utilisation too high)"
        else:
            reason = first_violation(updated)
        analysis = HolisticResult(
            flow_results=dict(updated), iterations=rounds, converged=converged
        )
        self._note_pods(updated, evals)
        if reason is not None:
            ctx.jitters.rollback_undo()
            ctx.jitters.begin_round()  # drop the tentative write accounting
            self._withdraw(flow, edges_installed=True)
            return AdmissionDecision(
                accepted=False, reason=reason, analysis=analysis
            )
        ctx.jitters.commit_undo()
        self._results.update(updated)
        pods = self.pod_map.pods_of_route(flow.route)
        for pod in pods:
            shard = self._shard(pod)
            shard.flows.add(flow.name)
            shard.admits += 1
        reg = _telemetry.REGISTRY
        if reg is not None and len(pods) > 1:
            reg.add("hierarchy.cross_pod_admits")
        return AdmissionDecision(
            accepted=True, reason="all deadlines met", analysis=analysis
        )

    def _withdraw(self, flow: Flow, *, edges_installed: bool) -> None:
        """Undo a rejected candidate's structural changes."""
        if edges_installed:
            self._remove_edges(flow)
            self._order.pop(flow.name, None)
        self._ctx.remove_flow(flow.name)
        self._note_invalidations(flow)
        self._retire_demands(flow.name)

    def _release_cone(
        self, flow: Flow
    ) -> tuple[set[tuple[str, ResourceKey]], set[str]]:
        """The jitter entries whose value can depend on ``flow``.

        Returns ``(cone, owners)``.  A stage ``(j, res)`` is *affected*
        when its participant set held ``flow`` (the :meth:`_edge_changes`
        gains: reader ``j`` of ``flow``'s entry at ``res``) or it reads
        a cone entry; an affected stage puts ``j``'s entries at every
        resource after ``res`` on ``j``'s route into the cone (an entry
        is the sum of its flow's earlier stage responses).  ``owners``
        are the flows with an affected stage: they are the ones to
        re-solve, including flows whose only affected stage is their
        last hop (no entry to reset, but their bound changes).  Direct
        readers come from the link occupancy, so the cone is exact also
        with jitter modelling off, where the readers map is empty but
        participant sets still change.
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
            resources = self._route_resources(self._ctx.flow(name))
            for resource in resources[resources.index(res) + 1:]:
                entry = (name, resource)
                if entry in cone:
                    break  # a flow's cone entries form a route suffix
                cone.add(entry)
                for reader in self._readers.get(entry, ()):
                    if reader != fname:  # its stages leave with it
                        todo.append((reader, resource))
        return cone, {name for name, _ in affected}

    def release(self, flow_name: str) -> None:
        """Remove an admitted flow; re-solves only the entries it can lower.

        Cold-resets the released flow's *cone* (:meth:`_release_cone`)
        and re-solves the flows owning an affected stage.  The module
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
        cone, owners = self._release_cone(flow)

        self._remove_edges(flow)
        self._order.pop(flow_name, None)
        self._results.pop(flow_name, None)
        ctx.remove_flow(flow_name)
        self._note_invalidations(flow)
        self._retire_demands(flow_name)

        ctx.jitters.reset_entries(cone)  # cold restart (see module doc)
        converged, updated, rounds, evals = self._solve(owners)
        if not converged:  # impossible: a subset of a convergent set
            raise RuntimeError(
                f"release of {flow_name!r} failed to re-converge"
            )
        self._results.update(updated)
        self._note_pods(updated, evals)
        for pod in self.pod_map.pods_of_route(flow.route):
            shard = self._shard(pod)
            shard.flows.discard(flow_name)
            shard.releases += 1
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
        added: list[Flow] = []
        for flow in flows:
            self._revive_demands(flow.name)
            ctx.add_flow(flow)
            self._note_invalidations(flow)
            self._order[flow.name] = self._next_order
            self._next_order += 1
            added.append(flow)
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
        converged, updated, rounds, evals = self._solve(
            {f.name for f in ctx.flows}
        )
        if not converged:
            reason = "holistic analysis diverged (utilisation too high)"
        else:
            reason = first_violation(updated)
        if reason is not None:
            raise ValueError(f"preloaded flow set not admissible: {reason}")
        self._results.update(updated)
        self._note_pods(updated, evals)
        for flow in added:
            for pod in self.pod_map.pods_of_route(flow.route):
                shard = self._shard(pod)
                shard.flows.add(flow.name)
                shard.admits += 1
        _telemetry.add("hierarchy.preload_flows", len(added))
        return HolisticResult(
            flow_results=dict(updated), iterations=rounds, converged=True
        )

    # ------------------------------------------------------------------
    # State export / restore (service snapshots and recovery)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[tuple[Flow, ...], dict]:
        """Converged state: ``(admitted flows, jitter-table entries)``,
        in the layout of
        :meth:`~repro.core.admission.AdmissionController.export_state`."""
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
    ) -> "HierarchicalAdmissionController":
        """Rebuild a controller from :meth:`export_state` output.

        The exported table seeds one solve over the whole set (a
        :meth:`preload`), exactly as
        :meth:`~repro.core.admission.AdmissionController.restore` seeds
        one holistic analysis: the monotone iteration confirms the
        converged entries in one round.  The restored controller holds
        the exporter's admitted set, table and bounds, so its later
        decisions are the exporter's.
        """
        ctrl = cls(network, options, retained_flows=retained_flows)
        ctrl.preload(flows, jitters=jitters)
        return ctrl

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hierarchy snapshot: pod shards and core boundary envelopes."""
        pods = {
            shard.pod: {
                "flows": len(shard.flows),
                "admits": shard.admits,
                "releases": shard.releases,
                "resolves": shard.resolves,
            }
            for shard in sorted(
                self._shards.values(), key=lambda s: s.pod
            )
        }
        boundary = {}
        for n1, n2 in sorted(self._ctx._link_index):
            if self._ctx._link_index[(n1, n2)] and self.pod_map.is_boundary_link(n1, n2):
                boundary[f"{n1}->{n2}"] = self._envelopes.link_utilization(
                    n1, n2
                )
        return {
            "flows": len(self._ctx.flows),
            "pods": pods,
            "boundary_utilization": boundary,
        }

    def _note_invalidations(self, flow: Flow) -> None:
        dropped = self._envelopes.invalidate_route(flow)
        if dropped:
            _telemetry.add("hierarchy.envelope_invalidations", dropped)

    def _note_pods(
        self, updated: Mapping[str, FlowResult], evals: int
    ) -> None:
        """Attribute re-analysis work to pod shards (telemetry)."""
        touched: set[str] = set()
        for name in updated:
            f = self._ctx._by_name.get(name)
            if f is None:
                continue  # the candidate, already withdrawn
            pods = self.pod_map.pods_of_route(f.route)
            touched.update(pods)
            for pod in pods:
                self._shard(pod).resolves += 1
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add("hierarchy.pod_resolves", float(len(touched)))
            reg.add("hierarchy.flow_resolves", float(evals))
            reg.add("hierarchy.changed_set", float(len(updated)))
