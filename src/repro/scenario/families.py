"""Built-in scenario generator families.

Each family is a deterministic function of its parameters (fixed seeds
drive every random draw), registered on the global
:data:`~repro.scenario.registry.REGISTRY`:

========================  ==============================================
``paper-example``         Fig. 1 network + Fig. 2 MPEG flow with cross
                          traffic (the E3 scenario).
``random-line``           Seeded UUniFast GMF flows on a line topology —
                          the raw material of the E4/E5 sweeps.
``mpeg-line``             One MPEG GoP stream across an ``n``-switch
                          line (the E6/E7 scenario), with switch-cost
                          and multiprocessor knobs.
``voip-star``             VoIP calls between random host pairs of a
                          star (the paper's motivating application).
``fat-tree``              Random GMF traffic over a two-tier leaf/spine
                          fabric (multi-path topologies).
``mixed-criticality``     VoIP (prio 7) + MPEG (prio 5) + bulk (prio 1)
                          blend over a line — criticality layering.
``failure-injection``     Random traffic simulated with finite NIC
                          FIFOs and truncated 802.1p levels.
``voip-churn``            An admission-control storyline: calls arrive
                          and hang up (churn sequence for ``admit``).
``datacenter``            Multi-pod fat tree with tenant mice, cross-pod
                          elephants and incast fan-in (the hierarchical
                          admission workload of ``core/hierarchy.py``).
``datacenter-churn``      The datacenter mix as an arrival/release
                          storyline (multi-pod ``admit`` sequences).
========================  ==============================================
"""

from __future__ import annotations

import numpy as np

from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.model.network import Network, NodeKind, SwitchConfig
from repro.scenario.model import ChurnEvent, Scenario
from repro.scenario.registry import register_scenario
from repro.sim.config import SimConfig
from repro.util.units import mbps, ms, us
from repro.workloads.generator import RandomFlowConfig, random_flow_set
from repro.workloads.mpeg import paper_fig3_flow
from repro.workloads.topologies import (
    fat_tree_network,
    line_network,
    multi_pod_fat_tree_network,
    multi_pod_route,
    paper_fig1_network,
    star_network,
)
from repro.workloads.voip import voip_flow


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def mpeg_over_line(
    n_switches: int,
    switch_config: SwitchConfig,
    *,
    speed_bps: float,
    deadline: float,
) -> tuple[Network, Flow]:
    """The E6/E7 unit: one MPEG flow end to end over an ``n``-switch
    line (two hosts per switch so a 1-switch line has distinct ends)."""
    net = line_network(
        n_switches,
        hosts_per_switch=2,
        speed_bps=speed_bps,
        switch_config=switch_config,
    )
    route = (
        "h0_0",
        *[f"sw{s}" for s in range(n_switches)],
        f"h{n_switches - 1}_1",
    )
    flow = paper_fig3_flow(route, deadline=deadline, priority=5)
    return net, flow


def pad_interfaces(
    net: Network, factor: int, speed_bps: float, *, multiple_of: int = 1
) -> None:
    """Attach idle hosts so every switch has >= ``factor`` interfaces
    (and a count divisible by the processor count)."""
    switches = [n.name for n in net.nodes() if n.is_switch]
    for sw in switches:
        current = net.n_interfaces(sw)
        target = max(factor, current)
        if target % multiple_of:
            target += multiple_of - (target % multiple_of)
        for i in range(target - current):
            pad = f"pad_{sw}_{i}"
            net.add_endhost(pad)
            net.add_duplex_link(pad, sw, speed_bps=speed_bps)


def _route_endpoints(net: Network) -> list[str]:
    return [
        n.name
        for n in net.nodes()
        if n.kind in (NodeKind.ENDHOST, NodeKind.ROUTER)
    ]


# ----------------------------------------------------------------------
# Paper scenarios
# ----------------------------------------------------------------------
@register_scenario("paper-example")
def paper_example(
    *,
    speed_bps: float = mbps(100),
    mpeg_jitter: float = ms(1),
    duration: float = 2.0,
) -> Scenario:
    """The Fig. 1 network with the Fig. 2 MPEG flow plus cross traffic.

    10 Mbit/s (the worked example's speed) is too slow to carry the
    MPEG stream alongside cross traffic through a single uplink, so the
    default is 100 Mbit/s — the commodity-switch speed the paper
    targets.  Parameters are raw SI units (bit/s, seconds) so callers
    delegating here reproduce their flows bit for bit, with no unit
    round-trips.
    """
    net = paper_fig1_network(speed_bps=speed_bps)
    mpeg = paper_fig3_flow(
        route=("n0", "n4", "n6", "n3"),
        deadline=ms(100),
        priority=5,
        jitter=mpeg_jitter,
    )
    voice = voip_flow(
        ("n1", "n4", "n6", "n5", "n2"), name="voip", priority=7, deadline=ms(50)
    )
    bulk = Flow(
        name="bulk",
        spec=GmfSpec(
            min_separations=(ms(10),),
            deadlines=(ms(500),),
            jitters=(0.0,),
            payload_bits=(80_000,),
        ),
        route=("n1", "n4", "n6", "n3"),
        priority=1,
    )
    return Scenario(
        name=f"paper-example[{speed_bps / 1e6:g}Mbps]",
        network=net,
        flows=(mpeg, voice, bulk),
        sim=SimConfig(duration=duration),
    )


@register_scenario("random-line")
def random_line(
    *,
    seed: int = 0,
    n_switches: int = 2,
    hosts_per_switch: int = 2,
    n_flows: int = 4,
    utilization: float = 0.45,
    speed_bps: float = mbps(100),
    n_frames_min: int = 1,
    n_frames_max: int = 8,
    burstiness: float = 8.0,
    duration: float = 2.0,
) -> Scenario:
    """Seeded UUniFast GMF flows on a line — the E4/E5 raw material."""
    net = line_network(
        n_switches, hosts_per_switch=hosts_per_switch, speed_bps=speed_bps
    )
    cfg = RandomFlowConfig(
        n_frames_range=(n_frames_min, n_frames_max), burstiness=burstiness
    )
    flows = random_flow_set(
        net,
        n_flows=n_flows,
        total_utilization=utilization,
        seed=seed,
        config=cfg,
    )
    return Scenario(
        name=f"random-line[seed={seed},u={utilization:g},n={n_flows}]",
        network=net,
        flows=tuple(flows),
        sim=SimConfig(duration=duration),
    )


@register_scenario("mpeg-line")
def mpeg_line(
    *,
    n_switches: int = 3,
    speed_bps: float = mbps(100),
    deadline: float = ms(500),
    c_route_us: float = 2.7,
    c_send_us: float = 1.0,
    n_processors: int = 1,
    pad_to_interfaces: int = 0,
    duration: float = 2.0,
) -> Scenario:
    """One MPEG stream across an ``n``-switch line (E6/E7 scenario)."""
    cfg = SwitchConfig(
        c_route=us(c_route_us),
        c_send=us(c_send_us),
        n_processors=n_processors,
    )
    net, flow = mpeg_over_line(
        n_switches, cfg, speed_bps=speed_bps, deadline=deadline
    )
    if pad_to_interfaces:
        pad_interfaces(
            net, pad_to_interfaces, speed_bps, multiple_of=n_processors
        )
    return Scenario(
        name=f"mpeg-line[n={n_switches},d={deadline * 1e3:g}ms]",
        network=net,
        flows=(flow,),
        sim=SimConfig(duration=duration),
    )


@register_scenario("voip-star")
def voip_star(
    *,
    n_hosts: int = 8,
    n_calls: int = 4,
    codec: str = "g711",
    deadline: float = ms(50),
    seed: int = 0,
    speed_bps: float = mbps(100),
    duration: float = 2.0,
) -> Scenario:
    """VoIP calls between seeded random host pairs of a star."""
    net = star_network(n_hosts, speed_bps=speed_bps)
    rng = np.random.default_rng(seed)
    hosts = [f"h{i}" for i in range(n_hosts)]
    flows = []
    for i in range(n_calls):
        src, dst = rng.choice(hosts, size=2, replace=False)
        flows.append(
            voip_flow(
                (str(src), "sw", str(dst)),
                name=f"call{i}",
                codec=codec,
                deadline=deadline,
            )
        )
    return Scenario(
        name=f"voip-star[{n_calls}x{codec},seed={seed}]",
        network=net,
        flows=tuple(flows),
        sim=SimConfig(duration=duration),
    )


# ----------------------------------------------------------------------
# New families: multi-path, mixed criticality, failure injection, churn
# ----------------------------------------------------------------------
@register_scenario("fat-tree")
def fat_tree(
    *,
    spines: int = 2,
    leaves: int = 4,
    hosts_per_leaf: int = 2,
    n_flows: int = 8,
    utilization: float = 0.3,
    seed: int = 0,
    speed_bps: float = mbps(100),
    uplink_speed_bps: float | None = None,
    n_frames_min: int = 1,
    n_frames_max: int = 8,
    burstiness: float = 8.0,
    duration: float = 2.0,
) -> Scenario:
    """Random GMF traffic over a leaf/spine fabric (multi-path)."""
    net = fat_tree_network(
        spines=spines,
        leaves=leaves,
        hosts_per_leaf=hosts_per_leaf,
        speed_bps=speed_bps,
        uplink_speed_bps=uplink_speed_bps,
    )
    cfg = RandomFlowConfig(
        n_frames_range=(n_frames_min, n_frames_max), burstiness=burstiness
    )
    flows = random_flow_set(
        net,
        n_flows=n_flows,
        total_utilization=utilization,
        seed=seed,
        config=cfg,
    )
    return Scenario(
        name=(
            f"fat-tree[{spines}x{leaves},seed={seed},u={utilization:g}]"
        ),
        network=net,
        flows=tuple(flows),
        sim=SimConfig(duration=duration),
    )


@register_scenario("mixed-criticality")
def mixed_criticality(
    *,
    n_switches: int = 3,
    hosts_per_switch: int = 2,
    n_voip: int = 4,
    n_mpeg: int = 2,
    n_bulk: int = 1,
    seed: int = 0,
    speed_bps: float = mbps(100),
    voip_deadline: float = ms(50),
    mpeg_deadline: float = ms(200),
    duration: float = 2.0,
) -> Scenario:
    """A criticality blend: VoIP (prio 7) over MPEG (prio 5) over bulk
    (prio 1), placed between seeded random host pairs of a line."""
    net = line_network(
        n_switches, hosts_per_switch=hosts_per_switch, speed_bps=speed_bps
    )
    rng = np.random.default_rng(seed)
    hosts = [
        f"h{s}_{h}"
        for s in range(n_switches)
        for h in range(hosts_per_switch)
    ]

    def random_route() -> tuple[str, ...]:
        src, dst = rng.choice(hosts, size=2, replace=False)
        s0 = int(str(src).split("_")[0][1:])
        s1 = int(str(dst).split("_")[0][1:])
        step = 1 if s1 >= s0 else -1
        middle = tuple(f"sw{s}" for s in range(s0, s1 + step, step))
        return (str(src), *middle, str(dst))

    flows: list[Flow] = []
    for i in range(n_voip):
        flows.append(
            voip_flow(
                random_route(),
                name=f"voip{i}",
                priority=7,
                deadline=voip_deadline,
            )
        )
    for i in range(n_mpeg):
        flows.append(
            paper_fig3_flow(
                random_route(),
                name=f"mpeg{i}",
                priority=5,
                deadline=mpeg_deadline,
            )
        )
    for i in range(n_bulk):
        flows.append(
            Flow(
                name=f"bulk{i}",
                spec=GmfSpec(
                    min_separations=(ms(10),),
                    deadlines=(ms(500),),
                    jitters=(0.0,),
                    payload_bits=(80_000,),
                ),
                route=random_route(),
                priority=1,
            )
        )
    return Scenario(
        name=(
            f"mixed-criticality[{n_voip}v+{n_mpeg}m+{n_bulk}b,seed={seed}]"
        ),
        network=net,
        flows=tuple(flows),
        sim=SimConfig(duration=duration),
    )


@register_scenario("failure-injection")
def failure_injection(
    *,
    nic_fifo_capacity: int = 8,
    priority_levels: int = 4,
    n_switches: int = 2,
    hosts_per_switch: int = 2,
    n_flows: int = 6,
    utilization: float = 0.6,
    seed: int = 0,
    speed_bps: float = mbps(100),
    duration: float = 1.0,
) -> Scenario:
    """Random traffic simulated under failure conditions: finite switch
    NIC FIFOs (overflow drops) and truncated 802.1p priority levels —
    the regime where the analysis' no-loss assumption breaks down."""
    net = line_network(
        n_switches, hosts_per_switch=hosts_per_switch, speed_bps=speed_bps
    )
    # Generated priorities must fit the truncated 802.1p range the
    # switches enforce in this scenario.
    flows = random_flow_set(
        net,
        n_flows=n_flows,
        total_utilization=utilization,
        seed=seed,
        config=RandomFlowConfig(priority_levels=priority_levels),
    )
    return Scenario(
        name=(
            f"failure-injection[fifo={nic_fifo_capacity},"
            f"prio={priority_levels},seed={seed}]"
        ),
        network=net,
        flows=tuple(flows),
        sim=SimConfig(
            duration=duration,
            nic_fifo_capacity=nic_fifo_capacity,
            priority_levels=priority_levels,
        ),
    )


# ----------------------------------------------------------------------
# Datacenter families (multi-pod fabrics; core/hierarchy.py workloads)
# ----------------------------------------------------------------------
# Shared spec archetypes: the analysis' demand profiles are pure
# functions of (spec, link speed), so flows built from the same spec
# object share one window table per link class — the dedup that keeps
# the flat demand matrices (core/demand.py) memory-flat at 10^5 flows.
_MICE_SPEC = GmfSpec(
    min_separations=(ms(20),),
    deadlines=(ms(80),),
    jitters=(0.0,),
    payload_bits=(1_280,),
)
_ELEPHANT_SPEC = GmfSpec(
    min_separations=(ms(10),),
    deadlines=(ms(200),),
    jitters=(0.0,),
    payload_bits=(60_000,),
)
_INCAST_SPEC = GmfSpec(
    min_separations=(ms(10),),
    deadlines=(ms(100),),
    jitters=(0.0,),
    payload_bits=(12_000,),
)


def datacenter_flows(
    *,
    pods: int = 4,
    aggs_per_pod: int = 2,
    leaves_per_pod: int = 4,
    hosts_per_leaf: int = 4,
    cores: int = 2,
    n_mice: int = 48,
    n_elephants: int = 8,
    incast_groups: int = 2,
    incast_fanin: int = 8,
    tenants: int = 4,
    cross_pod_fraction: float = 0.15,
    locality: float = 0.7,
    seed: int = 0,
    speed_bps: float = mbps(1000),
) -> tuple[Network, list[Flow]]:
    """Deterministic datacenter traffic over a multi-pod fabric.

    Three archetypes (shared specs, see above):

    * **mice** (priority 6): small periodic flows between hosts of the
      same tenant; with probability ``locality`` a mouse stays
      rack-local (its destination shares the source's leaf — the
      rack-affine placement real schedulers aim for, and what keeps the
      interference closure of one admission small); otherwise tenants
      own a strided host subset spanning all pods, and
      ``cross_pod_fraction`` of the remaining mice cross pods;
    * **elephants** (priority 2): bulk flows, always cross-pod — they
      are what loads the pod-boundary demand envelopes;
    * **incast** (priority 4): ``incast_groups`` fan-in events,
      ``incast_fanin`` sources converging on one victim host each.

    Routes come from :func:`~repro.workloads.topologies.multi_pod_route`
    (pure name arithmetic), so generating 10^5 flows stays cheap; all
    draws are seeded, so equal parameters reproduce the flow set bit
    for bit.
    """
    net = multi_pod_fat_tree_network(
        pods=pods,
        aggs_per_pod=aggs_per_pod,
        leaves_per_pod=leaves_per_pod,
        hosts_per_leaf=hosts_per_leaf,
        cores=cores,
        speed_bps=speed_bps,
    )
    rng = np.random.default_rng(seed)
    hosts = [
        (p, f"p{p}_h{l}_{k}")
        for p in range(pods)
        for l in range(leaves_per_pod)
        for k in range(hosts_per_leaf)
    ]
    # Tenant t owns every tenants-th host — a subset spanning all pods.
    by_tenant_pod: list[dict[int, list[str]]] = [
        {} for _ in range(max(1, tenants))
    ]
    for i, (p, name) in enumerate(hosts):
        by_tenant_pod[i % max(1, tenants)].setdefault(p, []).append(name)
    # Host name -> its leaf's host list (rack-local destination pool).
    by_leaf: dict[str, list[str]] = {}
    for p, name in hosts:
        leaf = name.rsplit("_", 1)[0]
        by_leaf.setdefault(leaf, []).append(name)
    leaf_of = {name: name.rsplit("_", 1)[0] for _, name in hosts}

    def pick(pool: list[str], *, avoid: str | None = None) -> str:
        name = pool[int(rng.integers(len(pool)))]
        while name == avoid:
            name = pool[int(rng.integers(len(pool)))]
        return name

    flows: list[Flow] = []
    for i in range(n_mice):
        tenant = by_tenant_pod[i % max(1, tenants)]
        tenant_pods = sorted(tenant)
        src_pod = tenant_pods[int(rng.integers(len(tenant_pods)))]
        src = pick(tenant[src_pod])
        rack = by_leaf[leaf_of[src]]
        cross = (
            len(tenant_pods) > 1 and rng.random() < cross_pod_fraction
        )
        if len(rack) > 1 and rng.random() < locality:
            dst = pick(rack, avoid=src)
        elif cross:
            others = [p for p in tenant_pods if p != src_pod]
            dst = pick(tenant[others[int(rng.integers(len(others)))]])
        elif len(tenant[src_pod]) > 1:
            dst = pick(tenant[src_pod], avoid=src)
        else:
            dst = pick([h for _, h in hosts], avoid=src)
        flows.append(
            Flow(
                name=f"mice{i}",
                spec=_MICE_SPEC,
                route=multi_pod_route(
                    src,
                    dst,
                    # Decorrelated spreading: with agg and core both keyed
                    # on i, equal pod widths would pin every flow to the
                    # agg == core diagonal and quarter the usable entry
                    # combinations into the destination pod.
                    agg=i % aggs_per_pod,
                    core=(i // aggs_per_pod) % cores,
                ),
                priority=6,
            )
        )
    all_hosts_by_pod: dict[int, list[str]] = {}
    for p, name in hosts:
        all_hosts_by_pod.setdefault(p, []).append(name)
    for i in range(n_elephants):
        src_pod = int(rng.integers(pods))
        dst_pod = (
            (src_pod + 1 + int(rng.integers(pods - 1))) % pods
            if pods > 1
            else src_pod
        )
        src = pick(all_hosts_by_pod[src_pod])
        dst = pick(all_hosts_by_pod[dst_pod], avoid=src)
        flows.append(
            Flow(
                name=f"eleph{i}",
                spec=_ELEPHANT_SPEC,
                route=multi_pod_route(
                    src,
                    dst,
                    agg=i % aggs_per_pod,
                    core=(i // aggs_per_pod) % cores,
                ),
                priority=2,
            )
        )
    flat_hosts = [h for _, h in hosts]
    for g in range(incast_groups):
        victim = pick(flat_hosts)
        for s in range(incast_fanin):
            src = pick(flat_hosts, avoid=victim)
            flows.append(
                Flow(
                    name=f"ic{g}_{s}",
                    spec=_INCAST_SPEC,
                    route=multi_pod_route(
                        src,
                        victim,
                        agg=s % aggs_per_pod,
                        core=(s // aggs_per_pod) % cores,
                    ),
                    priority=4,
                )
            )
    return net, flows


@register_scenario("datacenter")
def datacenter(
    *,
    pods: int = 4,
    aggs_per_pod: int = 2,
    leaves_per_pod: int = 4,
    hosts_per_leaf: int = 4,
    cores: int = 2,
    n_mice: int = 48,
    n_elephants: int = 8,
    incast_groups: int = 2,
    incast_fanin: int = 8,
    tenants: int = 4,
    cross_pod_fraction: float = 0.15,
    locality: float = 0.7,
    seed: int = 0,
    speed_bps: float = mbps(1000),
    duration: float = 1.0,
) -> Scenario:
    """Multi-pod datacenter traffic: tenant mice + cross-pod elephants
    + incast fan-in (the ``core/hierarchy.py`` admission workload)."""
    net, flows = datacenter_flows(
        pods=pods,
        aggs_per_pod=aggs_per_pod,
        leaves_per_pod=leaves_per_pod,
        hosts_per_leaf=hosts_per_leaf,
        cores=cores,
        n_mice=n_mice,
        n_elephants=n_elephants,
        incast_groups=incast_groups,
        incast_fanin=incast_fanin,
        tenants=tenants,
        cross_pod_fraction=cross_pod_fraction,
        locality=locality,
        seed=seed,
        speed_bps=speed_bps,
    )
    total = len(flows)
    return Scenario(
        name=f"datacenter[{pods}p,n={total},seed={seed}]",
        network=net,
        flows=tuple(flows),
        sim=SimConfig(duration=duration),
    )


@register_scenario("datacenter-churn")
def datacenter_churn(
    *,
    pods: int = 4,
    aggs_per_pod: int = 2,
    leaves_per_pod: int = 4,
    hosts_per_leaf: int = 4,
    cores: int = 2,
    n_mice: int = 24,
    n_elephants: int = 4,
    incast_groups: int = 1,
    incast_fanin: int = 4,
    tenants: int = 4,
    cross_pod_fraction: float = 0.15,
    locality: float = 0.7,
    release_every: int = 4,
    seed: int = 0,
    speed_bps: float = mbps(1000),
    duration: float = 1.0,
) -> Scenario:
    """The datacenter flow mix as an admission storyline: flows arrive
    one by one; every ``release_every``-th arrival is followed by the
    oldest live flow leaving (campaign ``admit`` action, multi-pod)."""
    if release_every < 1:
        raise ValueError("release_every must be >= 1")
    net, flows = datacenter_flows(
        pods=pods,
        aggs_per_pod=aggs_per_pod,
        leaves_per_pod=leaves_per_pod,
        hosts_per_leaf=hosts_per_leaf,
        cores=cores,
        n_mice=n_mice,
        n_elephants=n_elephants,
        incast_groups=incast_groups,
        incast_fanin=incast_fanin,
        tenants=tenants,
        cross_pod_fraction=cross_pod_fraction,
        locality=locality,
        seed=seed,
        speed_bps=speed_bps,
    )
    events: list[ChurnEvent] = []
    live: list[str] = []
    for i, flow in enumerate(flows):
        events.append(ChurnEvent(action="admit", flow=flow))
        live.append(flow.name)
        if (i + 1) % release_every == 0 and live:
            events.append(
                ChurnEvent(action="release", flow_name=live.pop(0))
            )
    return Scenario(
        name=f"datacenter-churn[{pods}p,n={len(flows)},seed={seed}]",
        network=net,
        flows=(),
        sim=SimConfig(duration=duration),
        churn=tuple(events),
    )


@register_scenario("voip-churn")
def voip_churn(
    *,
    n_hosts: int = 6,
    n_calls: int = 8,
    release_every: int = 3,
    codec: str = "g711",
    seed: int = 0,
    speed_bps: float = mbps(100),
    duration: float = 1.0,
) -> Scenario:
    """An admission-control storyline: calls arrive one by one and
    every ``release_every``-th arrival is followed by the oldest live
    call hanging up.  The scenario carries no base flows — the whole
    workload is the churn sequence (campaign ``admit`` action)."""
    if release_every < 1:
        raise ValueError("release_every must be >= 1")
    net = star_network(n_hosts, speed_bps=speed_bps)
    rng = np.random.default_rng(seed)
    hosts = [f"h{i}" for i in range(n_hosts)]
    events: list[ChurnEvent] = []
    live: list[str] = []
    for i in range(n_calls):
        src, dst = rng.choice(hosts, size=2, replace=False)
        flow = voip_flow(
            (str(src), "sw", str(dst)), name=f"call{i}", codec=codec
        )
        events.append(ChurnEvent(action="admit", flow=flow))
        live.append(flow.name)
        if (i + 1) % release_every == 0 and live:
            events.append(
                ChurnEvent(action="release", flow_name=live.pop(0))
            )
    return Scenario(
        name=f"voip-churn[{n_calls}calls,seed={seed}]",
        network=net,
        flows=(),
        sim=SimConfig(duration=duration),
        churn=tuple(events),
    )
