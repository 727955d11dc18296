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

Exactness
---------
Decisions and converged jitter tables are bit-identical to those of a
from-scratch analysis of the admitted set: ``tests/test_hierarchy.py``
checks them after every step against the seed engine of
``tests/oracle.py``, and the decisions against the oracle's serial
controller, which re-runs the analysis over the whole tentative set:

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
* **resumed walks** re-run a flow only from its *resume point*, the
  first stage of its route whose inputs may have moved since its last
  walk, and replay the stages before it (``core/pipeline.py``, "Resumed
  walks", says why that is bit-identical).  Three events move a stage's
  inputs, and each moves the stage's flow's point back to that stage:
  a participant-set change (the :meth:`~AdmissionController._edge_changes`
  gains of an admit; the affected stages of a release), a changed
  jitter entry (its readers, queued by the worklist) and a release's
  cone reset (the affected stages that read a reset entry).  The
  record to replay from is the flow's latest walk in the current
  solve, else :attr:`~AdmissionController.flow_results`.  A walk
  without a point or a record is full: the candidate's first, and each
  flow's first in :meth:`~AdmissionController.preload` (and so in
  ``restore``), which seeds the table and may join stages of flows
  admitted before, so it sets every point to 0.  A reject rolls the
  table back to the one
  :attr:`~AdmissionController.flow_results` wrote, so it puts back the
  points from before the request.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import OrderedDict
from typing import Mapping, Sequence

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
from repro.core.pipeline import analyze_flow, stage_position
from repro.core.results import (
    AdmissionDecision,
    FlowResult,
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


class AdmissionController:
    """Admission control with O(changed-set) incremental re-analysis.

    >>> ctrl = AdmissionController(network)          # doctest: +SKIP
    >>> decision = ctrl.request(flow)                # doctest: +SKIP
    >>> decision.accepted                            # doctest: +SKIP

    A request first checks the necessary utilisation condition on the
    candidate's route (:class:`DemandEnvelopes`) and, when it fails,
    rejects before any response-time analysis runs.  Otherwise it
    re-solves the candidate and the flows whose stage participant sets
    it joined, starting from the admitted set's converged table, and
    rolls the tentative writes back on a reject.  Per-request work is
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
        # Flow name -> resume point: the first stage position
        # (pipeline.stage_position) of the flow's walk whose inputs may
        # have moved since its last walk.  _solve starts the flow's next
        # walk there and replays the stages before it; a flow without a
        # point is walked in full.
        self._resume: dict[str, int] = {}
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

    def _lower_resume(self, name: str, resource: ResourceKey) -> None:
        """Move ``name``'s resume point back to its stage at
        ``resource``, whose inputs may have moved."""
        at = stage_position(self._ctx.flow(name).route, resource)
        if at < self._resume.get(name, at + 1):
            self._resume[name] = at

    def _install_edges(self, flow: Flow) -> set[str]:
        """Record the edges ``flow`` creates; returns the worklist seed
        (the flow plus every flow whose participant set it joined, each
        resumed at the first stage it joined)."""
        gains, own_reads = self._edge_changes(flow)
        seed = {flow.name}
        for (_, resource), names in gains.items():
            seed |= names
            for name in names:
                self._lower_resume(name, resource)
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
        bit (the worklist engine's defining invariant).  Likewise each
        walk resumes at the flow's resume point: a changed entry moves
        each reader's point back to the reader's stage at the entry's
        resource, and the stages before the point are replayed from the
        flow's latest walk (in this solve, else :attr:`flow_results`).

        Returns ``(converged, updated results, rounds, flow evals)``.
        """
        ctx = self._ctx
        order = self._order
        readers = self._readers
        resume = self._resume
        committed = self._results
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
                start = resume.pop(name, 0)
                previous = updated.get(name) or committed.get(name)
                if previous is None:  # the candidate's first walk
                    start = 0
                result = analyze_flow(ctx, ctx.flow(name), start, previous)
                updated[name] = result
                evals += 1
                diverged = any(
                    math.isinf(fr.response) for fr in result.frames
                )
                for key in ctx.jitters.drain_changed_keys():
                    for reader in readers.get(key, ()):
                        self._lower_resume(reader, key[1])
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

        saved_resume = dict(self._resume)
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
        _note_resolves(updated, evals)
        if reason is not None:
            ctx.jitters.rollback_undo()
            ctx.jitters.begin_round()  # drop the tentative write accounting
            # The table is the committed one again, and flow_results
            # holds the walks that wrote it: the points from before the
            # request are the ones that hold.
            self._resume = saved_resume
            self._withdraw(flow, edges_installed=True)
            return AdmissionDecision(
                accepted=False, reason=reason, analysis=analysis
            )
        ctx.jitters.commit_undo()
        self._results.update(updated)
        return AdmissionDecision(
            accepted=True, reason="all deadlines met", analysis=analysis
        )

    def _withdraw(self, flow: Flow, *, edges_installed: bool) -> None:
        """Undo a rejected candidate's structural changes."""
        if edges_installed:
            self._remove_edges(flow)
            self._order.pop(flow.name, None)
        self._resume.pop(flow.name, None)
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
        is the sum of its flow's earlier stage responses).  The flows
        with an affected stage are the ones to re-solve, each from its
        first affected stage, including flows whose only affected stage
        is their last hop (no entry to reset, but their bound changes).
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
            owner = self._ctx.flow(name)
            resources = self._route_resources(owner)
            for resource in resources[stage_position(owner.route, res) + 1:]:
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
        and re-solves the flows owning an affected stage, each resumed
        at its first affected stage.  The module
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
        for name, resource in affected:
            self._lower_resume(name, resource)

        self._remove_edges(flow)
        self._order.pop(flow_name, None)
        self._results.pop(flow_name, None)
        self._resume.pop(flow_name, None)
        ctx.remove_flow(flow_name)
        self._note_invalidations(flow)
        self._retire_demands(flow_name)

        ctx.jitters.reset_entries(cone)  # cold restart (see module doc)
        converged, updated, rounds, evals = self._solve(
            {name for name, _ in affected}
        )
        if not converged:  # impossible: a subset of a convergent set
            raise RuntimeError(
                f"release of {flow_name!r} failed to re-converge"
            )
        self._results.update(updated)
        _note_resolves(updated, evals)
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
        # flows admitted before: every flow's first walk here is full.
        names = {f.name for f in ctx.flows}
        self._resume = dict.fromkeys(names, 0)
        converged, updated, rounds, evals = self._solve(names)
        if not converged:
            reason = "holistic analysis diverged (utilisation too high)"
        else:
            reason = first_violation(updated)
        if reason is not None:
            raise ValueError(f"preloaded flow set not admissible: {reason}")
        self._results.update(updated)
        _note_resolves(updated, evals)
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


def _note_resolves(updated: Mapping[str, FlowResult], evals: int) -> None:
    """Count a solve's flow evaluations and changed set (telemetry)."""
    reg = _telemetry.REGISTRY
    if reg is not None:
        reg.add("hierarchy.flow_resolves", float(evals))
        reg.add("hierarchy.changed_set", float(len(updated)))


#: The engine's former name, which the benchmark's span wrappers and
#: in-process workload (``perfbench/spans.py``, ``perfbench/inproc.py``)
#: still look up.
HierarchicalAdmissionController = AdmissionController
