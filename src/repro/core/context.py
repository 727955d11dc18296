"""Analysis context: network + flow set + jitter table + caches.

The per-resource analyses (first hop, ingress, egress) all need the same
queries: "which flows share this resource", "what is flow j's demand
profile on this link", "what is flow j's generalized jitter at this
resource" (``extra_j``, Sec. 3.2).  :class:`AnalysisContext` centralises
them, caches the expensive :class:`~repro.core.demand.LinkDemand`
construction, and owns the mutable jitter table that the Fig. 6 pipeline
writes and the holistic iteration (Sec. 3.5) drives to a fixed point.
Its flow set can change in place (:meth:`AnalysisContext.add_flow`,
:meth:`AnalysisContext.remove_flow`), with undo logs for a tentative
change, so the admission engine keeps one context across requests.

Resources are identified by :data:`ResourceKey` tuples:

* ``("link", N1, N2)`` — the prioritised output queue feeding
  ``link(N1, N2)`` (used both by the first-hop and the egress analyses);
* ``("in", N)`` — the ingress path of switch ``N`` (NIC FIFO → priority
  queue).

Besides the per-(flow, link) profiles the context keeps two caches the
engine always uses: one flat :class:`~repro.core.demand.LinkDemandMatrix`
per link, from which every stage's interference set is gathered, and
the per-stage memo of :mod:`repro.core.pipeline`.  The test oracle
(``tests/oracle.py``) subclasses the context to bypass both and sum
per-flow demand objects instead, as the seed engine did.

A memo entry holds a stage's participants (the flows whose demand and
jitters it read), its inputs (jitters), its results and, for a
converged corrected-model stage, its fixed points
(:func:`fixed_point_record`): every busy period and instance queuing
time with the constant its update adds.  An entry recorded over other
participants than the stage has now is treated as absent, so no
flow-set change needs to drop anything: a stage's results are a
function of its participants and inputs alone (plus static link
data).  The fixed points let the pipeline reuse a stage whose inputs
have only grown.  The recurrences are monotone, so the stored least
fixed points bound the new ones from below, and a stored value that
still satisfies its recurrence under the new inputs is the new least
fixed point; the pipeline checks exactly that, bit for bit, before
replaying the results.  Entries keep only the fixed points: the check
reads the participants' static demand rows from the link's matrix,
which is rebuilt whenever the link's flow tuple is replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import telemetry as _telemetry
from repro.core.demand import LinkDemand, build_link_demand
from repro.core.packetization import DEFAULT_CONFIG, STRICT_CONFIG, PacketizationConfig
from repro.model.flow import Flow, check_unique_names, hep_flows
from repro.model.network import Network
from repro.model.routing import validate_route

#: ``("link", N1, N2)`` or ``("in", N)``.
ResourceKey = tuple


def fixed_point_record(over_all, over_others) -> tuple | None:
    """A converged stage's fixed points, as the stage memo keeps them.

    ``over_all`` and ``over_others`` are ``(c, x)`` pairs: least fixed
    points ``x = c + F(x)`` of the stage's summed demand ``F`` over all
    its participants, or over all of them but the analysed flow, with
    ``c`` the constant the update adds (an own backlog, the blocking
    term).  Returns two flat tuples ``(c1, x1, c2, x2, ...)``, or None
    when a solve diverged (``x`` is None): such a stage is recomputed.
    """
    flat_all = tuple([v for pair in over_all for v in pair])
    flat_others = tuple([v for pair in over_others for v in pair])
    if None in flat_all or None in flat_others:
        return None
    return flat_all, flat_others


def link_resource(n1: str, n2: str) -> ResourceKey:
    """Resource key of the output queue feeding ``link(n1, n2)``."""
    return ("link", n1, n2)


def ingress_resource(n: str) -> ResourceKey:
    """Resource key of switch ``n``'s ingress path."""
    return ("in", n)


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the analysis; defaults reproduce the corrected model.

    Every field changes what is computed; none selects how.  The engine
    has one path: certified-floor fixed points, the stage-ordered
    holistic solve, the per-stage memo and flat per-link demand arrays
    are always on, and ``tests/oracle.py`` holds the plain seed engine
    they are checked against.

    Attributes
    ----------
    strict_paper:
        Use the paper's equations exactly as printed: remainder
        fragments cost ``rem+304`` bits (the OCR note of
        :mod:`repro.core.packetization`), and the ingress/egress
        own-flow terms assume one Ethernet frame per UDP packet (the
        reconstruction notes of :mod:`repro.core.switch_ingress` and
        :mod:`repro.core.switch_egress`).  Default False = documented
        sound reconstruction.
    use_jitter:
        When False, all generalized jitters are treated as zero
        (ablation E8: quantifies how much the jitter propagation
        contributes to the bound).
    horizon_factor:
        Busy periods longer than ``horizon_factor * max(TSUM_i, D_i)``
        are declared divergent (unschedulable); backstop for utilisation
        near 1 where Eqs. 20/34/35 technically hold but convergence is
        astronomically slow.
    max_fp_iterations:
        Iteration cap per fixed point.
    holistic_max_iterations:
        Cap on the rounds of the holistic stage solve (Sec. 3.5).
    """

    strict_paper: bool = False
    use_jitter: bool = True
    horizon_factor: float = 1000.0
    max_fp_iterations: int = 100_000
    holistic_max_iterations: int = 200

    @property
    def packetization(self) -> PacketizationConfig:
        return STRICT_CONFIG if self.strict_paper else DEFAULT_CONFIG


class JitterTable:
    """Per-flow, per-resource, per-frame generalized jitters.

    ``GJ_i^{k,resource}`` of the paper.  Defaults: at a flow's first
    resource (the output queue of its source) the jitter is the flow's
    specified source jitter ``GJ_i^k``; everywhere else it defaults to 0
    until the pipeline walk fills it in (holistic initialisation,
    Sec. 3.5).

    The table tracks its own writes so the holistic solve can run
    per-round fixed-point detection without copying the whole table:
    :meth:`begin_round` resets the accounting and :meth:`round_delta` is
    the largest elementwise change against the round-start table (a
    first explicit write counts as its own magnitude, as if compared
    with a round-start snapshot that lacked the entry).  :meth:`set`
    returns whether the entry's *effective* value (as seen through
    :meth:`get`) changed bit-wise: the signal on which the solve marks
    the stages reading the entry.
    """

    _MISSING = object()  # undo-log marker: key absent before the write

    def __init__(self, flows: Sequence[Flow]):
        self._specs = {f.name: f.spec for f in flows}
        self._first_resource = {
            f.name: link_resource(f.route[0], f.route[1]) for f in flows
        }
        self._table: dict[tuple[str, ResourceKey], tuple[float, ...]] = {}
        # Flow name -> explicit resource keys; lets flow removal run in
        # O(own entries) instead of a table scan.
        self._keys_by_flow: dict[str, set[ResourceKey]] = {}
        self._round_delta = 0.0
        # Flow name -> {resource -> max per-frame jitter}: memoises
        # :meth:`extra`, the single hottest query of the stage memo
        # (every memoised stage rebuilds its input tuple from it).
        # Keyed flow-first so removal/rollback drop a flow's cached
        # extras in one pop; defaults are cached too (they are constant
        # per flow), explicit writes refresh their entry and resets
        # drop it.
        self._extra_cache: dict[str, dict[ResourceKey, float]] = {}
        # When a dict, `set` records each key's pre-write value on first
        # touch; see begin_undo / rollback_undo (incremental admission).
        self._undo: dict[tuple[str, ResourceKey], object] | None = None

    def get(self, flow_name: str, resource: ResourceKey) -> tuple[float, ...]:
        """Per-frame jitters of a flow at a resource."""
        key = (flow_name, resource)
        if key in self._table:
            return self._table[key]
        spec = self._specs[flow_name]
        if resource == self._first_resource[flow_name]:
            return spec.jitters
        return (0.0,) * spec.n_frames

    def set(
        self, flow_name: str, resource: ResourceKey, jitters: Sequence[float]
    ) -> bool:
        """Write a flow's per-frame jitters at a resource; returns
        whether the entry's effective value changed.

        A tuple is stored as given (the pipeline walk passes one tuple
        of floats for both this write and its stage-memo inputs); any
        other sequence is converted to a tuple of floats.
        """
        spec = self._specs[flow_name]
        if type(jitters) is tuple:
            jit = jitters
        else:
            jit = tuple([float(j) for j in jitters])
        if len(jit) != spec.n_frames:
            raise ValueError(
                f"flow {flow_name!r}: {len(jit)} jitters for "
                f"{spec.n_frames} frames"
            )
        key = (flow_name, resource)
        old = self._table.get(key)
        if jit == old:
            # Rewriting the stored value: nothing to undo, no delta, and
            # the cached extra is still right.
            return False
        if self._undo is not None and key not in self._undo:
            self._undo[key] = old if old is not None else self._MISSING
        if old is None:
            # First explicit write: the snapshot-based delta counts a
            # newly-appearing entry as its own magnitude, but a change
            # is judged against the implicit default `get` returned.
            delta = max((abs(x) for x in jit), default=0.0)
            moved = jit != self.get(flow_name, resource)
        else:
            delta = 0.0
            for x, y in zip(jit, old):
                if math.isinf(x) and math.isinf(y):
                    continue
                delta = max(delta, abs(x - y))
            moved = True
        if delta > self._round_delta:
            self._round_delta = delta
        if old is None:
            self._keys_by_flow.setdefault(flow_name, set()).add(resource)
        self._table[key] = jit
        per_flow = self._extra_cache.get(flow_name)
        if per_flow is None:
            per_flow = self._extra_cache[flow_name] = {}
        per_flow[resource] = max(jit)
        return moved

    # ------------------------------------------------------------------
    # Incremental flow-set mutation (AnalysisContext.add_flow / remove_flow)
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Register a new flow; its entries start at the defaults."""
        if flow.name in self._specs:
            raise ValueError(f"flow {flow.name!r} already in table")
        self._specs[flow.name] = flow.spec
        self._first_resource[flow.name] = link_resource(
            flow.route[0], flow.route[1]
        )

    def remove_flow(self, flow_name: str) -> None:
        """Drop a flow and all its explicit entries."""
        self._specs.pop(flow_name)
        self._first_resource.pop(flow_name)
        self._extra_cache.pop(flow_name, None)
        for resource in self._keys_by_flow.pop(flow_name, ()):
            self._table.pop((flow_name, resource), None)

    def reset_entries(
        self, keys: Iterable[tuple[str, ResourceKey]]
    ) -> None:
        """Drop the given explicit entries (back to their defaults).

        Cold restart for incremental release: removing interference
        lowers the least fixed point, so re-iterating from the old (now
        over-approximating) entries could stick at a non-least fixed
        point; from the defaults the monotone iteration reaches the
        same least fixed point a from-scratch analysis does.  The
        caller picks the entries that can drop (core/hierarchy.py).
        """
        for name, resource in keys:
            if self._table.pop((name, resource), None) is None:
                continue
            self._keys_by_flow[name].discard(resource)
            per_flow = self._extra_cache.get(name)
            if per_flow is not None:
                per_flow.pop(resource, None)

    # ------------------------------------------------------------------
    # Undo log (tentative incremental admission)
    # ------------------------------------------------------------------
    def begin_undo(self) -> None:
        """Start recording pre-write values for :meth:`rollback_undo`."""
        self._undo = {}

    def commit_undo(self) -> None:
        """Accept all writes since :meth:`begin_undo`."""
        self._undo = None

    def rollback_undo(self) -> None:
        """Restore every entry written since :meth:`begin_undo`."""
        undo, self._undo = self._undo, None
        for (name, resource), old in undo.items():
            # Dropping the whole per-flow extras dict (not just the
            # touched resource) is safe: defaults recompute lazily.
            self._extra_cache.pop(name, None)
            if old is self._MISSING:
                self._table.pop((name, resource), None)
                keys = self._keys_by_flow.get(name)
                if keys is not None:
                    keys.discard(resource)
            else:
                self._table[(name, resource)] = old

    def begin_round(self) -> None:
        """Reset per-round write accounting (holistic solve)."""
        self._round_delta = 0.0

    def round_delta(self) -> float:
        """Largest change any write made since :meth:`begin_round`."""
        return self._round_delta

    def seed(
        self,
        entries: Mapping[tuple[str, ResourceKey], Sequence[float]],
    ) -> None:
        """Install explicit entries wholesale (snapshot restore).

        Entries of unknown flows are skipped so a table restored from a
        superset snapshot stays consistent; known-flow entries are
        length-validated against the flow's frame count.
        """
        for (name, resource), jit in entries.items():
            if name not in self._specs:
                continue
            jit = tuple(float(j) for j in jit)
            if len(jit) != self._specs[name].n_frames:
                raise ValueError(
                    f"flow {name!r}: {len(jit)} jitters for "
                    f"{self._specs[name].n_frames} frames"
                )
            resource = tuple(resource)
            self._table[(name, resource)] = jit
            self._keys_by_flow.setdefault(name, set()).add(resource)
            self._extra_cache.pop(name, None)

    def extra(self, flow_name: str, resource: ResourceKey) -> float:
        """``extra_j(N, i)``: the largest per-frame jitter at the resource."""
        per_flow = self._extra_cache.get(flow_name)
        if per_flow is None:
            per_flow = self._extra_cache[flow_name] = {}
        value = per_flow.get(resource)
        if value is None:
            value = per_flow[resource] = max(self.get(flow_name, resource))
        return value

    def extras(
        self, flows: Sequence[Flow], resource: ResourceKey
    ) -> tuple[float, ...]:
        """:meth:`extra` of every flow in ``flows`` at the resource.

        Reads the per-flow cache directly and falls back to
        :meth:`extra`, which fills it, when an entry is missing.
        """
        cache = self._extra_cache
        try:
            return tuple([cache[f.name][resource] for f in flows])
        except KeyError:
            extra = self.extra
            return tuple([extra(f.name, resource) for f in flows])

    def snapshot(self) -> dict[tuple[str, ResourceKey], tuple[float, ...]]:
        """Copy of the explicit entries (for fixed-point comparison)."""
        return dict(self._table)


class AnalysisContext:
    """Everything the per-resource analyses need, with caching.

    Parameters
    ----------
    network:
        The multihop topology.
    flows:
        All flows admitted to the network (routes must be valid for
        ``network``; checked on construction).
    options:
        Analysis knobs; see :class:`AnalysisOptions`.

    The flow set can also change in place, which is how the admission
    engine (:mod:`repro.core.hierarchy`) keeps one context across
    requests: rebuilding a context per flow set would cost far more than
    the incremental analysis at 10^5 flows.  Every flow-set-derived
    structure updates in O(route x link density):

    * ``self.flows`` is a list in admission order: :meth:`add_flow`
      appends, :meth:`remove_flow` deletes, so :meth:`flows_on_link`
      and :meth:`hep` keep filtering in that order;
    * each link's flow list is kept directly (no scan of the whole set
      per link), and ``hep`` results are cached per link, so a change
      drops only the touched links' entries;
    * a touched link gets a new :meth:`flows_on_link` tuple, which
      retires its flat demand matrix (cached against the old tuple);
      stage memos need no drop at all, since an entry recorded over
      other participants than a stage's current ones is never returned
      (:meth:`stage_memo_get`).  Removing a flow pops its own memo
      entries and demand profiles only to free them;
    * a tentative change can be undone: between :meth:`begin_undo` and
      :meth:`rollback_undo` the jitter table and the stage memo both log
      each entry's value before its first overwrite, so a rejected
      request leaves neither holding results recorded over the
      withdrawn candidate.
    """

    def __init__(
        self,
        network: Network,
        flows: Sequence[Flow] = (),
        options: AnalysisOptions | None = None,
    ):
        check_unique_names(flows)
        for f in flows:
            validate_route(network, f.route)
        self.network = network
        self.flows: list[Flow] = list(flows)
        self.options = options or AnalysisOptions()
        self.jitters = JitterTable(self.flows)
        self._by_name = {f.name: f for f in self.flows}
        # Maps flow name -> {(n1, n2) -> (flow object, LinkDemand)}.
        # Keyed by name first so remove_flow drops a flow's profiles in
        # one pop.  The flow object is kept for a value check (identity
        # fast path, see demand): the window tables themselves live in
        # the process-wide, name-free cache of build_link_demand, so a
        # re-admitted flow rebuilds only its named views.
        self._demand_cache: dict[
            str, dict[tuple[str, str], tuple[Flow, LinkDemand]]
        ] = {}
        # link -> its flows in flow order, and the tuple flows_on_link
        # serves until the link's flow set changes.
        self._link_index: dict[tuple[str, str], list[Flow]] = {}
        for f in self.flows:
            for link in f.links():
                self._link_index.setdefault(link, []).append(f)
        self._link_flows_cache: dict[tuple[str, str], tuple[Flow, ...]] = {}
        # link -> {flow name -> hep tuple}; nested so a link's flow-set
        # change drops its entries in one pop.
        self._hep_by_link: dict[
            tuple[str, str], dict[str, tuple[Flow, ...]]
        ] = {}
        # flow name -> {resource -> (inputs, results, fixed points,
        # participants)}; see core/pipeline.py.  Never shared across
        # contexts.  An entry is valid exactly while its stage has the
        # recorded participants (stage_memo_get), so flow-set changes
        # drop nothing; remove_flow pops a leaving flow's entries to
        # free them.
        self._stage_cache: dict[str, dict[ResourceKey, tuple]] = {}
        # (flow, resource) -> memo entry before the tentative change's
        # first overwrite (None: there was none); None outside one.
        self._memo_undo: dict[tuple[str, ResourceKey], tuple | None] | None = (
            None
        )
        # (n1, n2) -> (flows_on_link tuple, LinkDemandMatrix); valid
        # while flows_on_link still returns that very tuple (it is
        # replaced on every flow-set change of the link).
        self._matrix_cache: dict[tuple[str, str], tuple[tuple, object]] = {}

    # ------------------------------------------------------------------
    # Flow / topology queries
    # ------------------------------------------------------------------
    def flow(self, name: str) -> Flow:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown flow {name!r}") from None

    def flows_on_link(self, n1: str, n2: str) -> tuple[Flow, ...]:
        """``flows(N1, N2)``: flows whose route uses the link."""
        key = (n1, n2)
        hit = self._link_flows_cache.get(key)
        if hit is None:
            hit = tuple(self._link_index.get(key, ()))
            self._link_flows_cache[key] = hit
        return hit

    def hep(self, flow: Flow, n1: str, n2: str) -> tuple[Flow, ...]:
        """``hep(tau_i, N1, N2)`` (Eq. 2), excluding ``flow`` itself."""
        per_link = self._hep_by_link.setdefault((n1, n2), {})
        hit = per_link.get(flow.name)
        if hit is None:
            hit = tuple(hep_flows(self.flows_on_link(n1, n2), flow, n1, n2))
            per_link[flow.name] = hit
        return hit

    # ------------------------------------------------------------------
    # Flow-set changes
    # ------------------------------------------------------------------
    def add_flow(self, flow: Flow) -> None:
        """Append ``flow`` to the flow set (tentatively or finally)."""
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
        self._demand_cache.pop(flow_name, None)
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

    def demand(self, flow: Flow, n1: str, n2: str) -> LinkDemand:
        """Cached :class:`LinkDemand` of ``flow`` on ``link(n1, n2)``.

        Entries are value-checked (with an identity fast path): a
        profile is a pure function of the flow's value and the link, so
        an equal flow object reuses the cached profile, while a
        *different* flow under a cached name is never served a stale
        one.  :meth:`remove_flow` drops a flow's entries; a flow
        admitted again rebuilds only its named views over the shared
        window tables (:func:`~repro.core.demand.build_link_demand`).
        """
        per_flow = self._demand_cache.get(flow.name)
        if per_flow is None:
            per_flow = self._demand_cache[flow.name] = {}
        entry = per_flow.get((n1, n2))
        reg = _telemetry.REGISTRY
        if entry is None or (entry[0] is not flow and entry[0] != flow):
            if reg is not None:
                reg.add("engine.demand_cache.misses")
            entry = (
                flow,
                build_link_demand(
                    flow,
                    self.network.linkspeed(n1, n2),
                    self.options.packetization,
                ),
            )
            per_flow[(n1, n2)] = entry
        else:
            if reg is not None:
                reg.add("engine.demand_cache.hits")
            if entry[0] is not flow:
                # Equal value, new object (e.g. a re-parsed request):
                # rekey so later lookups take the identity fast path.
                entry = (flow, entry[1])
                per_flow[(n1, n2)] = entry
        return entry[1]

    # ------------------------------------------------------------------
    # Flat demand arrays / interference sets
    # ------------------------------------------------------------------
    def link_matrix(self, n1: str, n2: str):
        """The :class:`~repro.core.demand.LinkDemandMatrix` of a link.

        Built lazily from the link's flows in context order and cached
        against the :meth:`flows_on_link` tuple it was built from: the
        cache holds that tuple, so a replacement (built on every
        flow-set change of the link) can never be mistaken for it.
        """
        from repro.core.demand import LinkDemandMatrix

        key = (n1, n2)
        flows_seq = self.flows_on_link(n1, n2)
        hit = self._matrix_cache.get(key)
        if hit is not None and hit[0] is flows_seq:
            return hit[1]
        matrix = LinkDemandMatrix([self.demand(f, n1, n2) for f in flows_seq])
        self._matrix_cache[key] = (flows_seq, matrix)
        reg = _telemetry.REGISTRY
        if reg is not None:
            reg.add("engine.flat_arrays.rebuilds")
        return matrix

    def interference(
        self,
        flows_seq: Sequence[Flow],
        n1: str,
        n2: str,
        shifts: Sequence[float],
        *,
        strict: bool = False,
    ):
        """Stage :class:`~repro.core.demand.InterferenceSet` on a link,
        gathered from the link's flat matrix (see
        :meth:`~repro.core.demand.LinkDemandMatrix.subset`)."""
        return self.link_matrix(n1, n2).subset(
            [j.name for j in flows_seq], shifts, strict=strict
        )

    # ------------------------------------------------------------------
    # Stage memo (core/pipeline.py)
    # ------------------------------------------------------------------
    def stage_memo_get(
        self,
        flow_name: str,
        resource: ResourceKey,
        participants: Sequence[Flow],
    ):
        """Cached ``(inputs, stage results, fixed points, participants)``
        of a flow at a resource, or None.

        An entry recorded over other ``participants`` than the stage's
        current ones is treated as absent: the stage read different
        flows, so neither its results nor its fixed points say anything
        about the current stage.  The fixed points are a
        :func:`fixed_point_record` or None.
        """
        per_flow = self._stage_cache.get(flow_name)
        if per_flow is None:
            return None
        entry = per_flow.get(resource)
        if entry is None:
            return None
        recorded = entry[3]
        if recorded is not participants and recorded != participants:
            return None
        return entry

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
        self._stage_cache.setdefault(flow_name, {})[resource] = (
            inputs,
            results,
            fixed_points,
            participants,
        )

    # ------------------------------------------------------------------
    # Tentative changes
    # ------------------------------------------------------------------
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

    def circ(self, node: str) -> float:
        """``CIRC(N)`` of a switch node (round-robin configuration)."""
        return self.network.circ(node)

    def circ_task(self, node: str, interface: str) -> float:
        """Service period of ``interface``'s tasks at ``node``.

        Equal to ``CIRC(N)`` for the paper's round-robin configuration;
        per-interface with weighted stride tickets (extension).
        """
        return self.network.circ_task(node, interface)

    # ------------------------------------------------------------------
    # Jitter queries (``extra_j``)
    # ------------------------------------------------------------------
    def extra(self, flow: Flow, resource: ResourceKey) -> float:
        """``extra_j(N, i)``: max generalized jitter of ``flow`` at the
        resource, or 0 when jitter modelling is disabled (ablation)."""
        if not self.options.use_jitter:
            return 0.0
        return self.jitters.extra(flow.name, resource)

    def extras(
        self, flows_seq: Sequence[Flow], resource: ResourceKey
    ) -> tuple[float, ...]:
        """``extra_j`` of every flow in ``flows_seq`` at the resource.

        Bulk form of :meth:`extra` for the stage-memo input tuple — the
        hottest query of the incremental engines (one call per
        participant per stage per flow walk).
        """
        if not self.options.use_jitter:
            return (0.0,) * len(flows_seq)
        return self.jitters.extras(flows_seq, resource)

    def frame_jitters(self, flow: Flow, resource: ResourceKey) -> tuple[float, ...]:
        if not self.options.use_jitter:
            return (0.0,) * flow.spec.n_frames
        return self.jitters.get(flow.name, resource)

    # ------------------------------------------------------------------
    # Divergence horizon
    # ------------------------------------------------------------------
    def horizon_for(self, flow: Flow) -> float:
        """Busy-period divergence cut-off for analyses of ``flow``."""
        base = max(flow.spec.tsum, max(flow.spec.deadlines))
        return self.options.horizon_factor * base

    # ------------------------------------------------------------------
    # Derived contexts
    # ------------------------------------------------------------------
    # Nothing in src/ calls this; perfbench's spans.ADMISSION wraps it.
    def with_flows(self, flows: Sequence[Flow]) -> "AnalysisContext":
        """A fresh context for a different flow set: a fresh jitter
        table and fresh caches."""
        return AnalysisContext(self.network, flows, self.options)
