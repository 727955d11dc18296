"""Network topologies: the paper's Fig. 1 example and parametric families.

All constructors return a :class:`~repro.model.network.Network` with
full-duplex links; switch processing parameters default to the paper's
measured Click costs (CROUTE = 2.7 µs, CSEND = 1.0 µs).
"""

from __future__ import annotations

from repro.model.network import Network, SwitchConfig
from repro.util.units import mbps


def paper_fig1_network(
    *,
    speed_bps: float = mbps(10),
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """The example network of Fig. 1.

    Nodes 0-3 are IP end hosts, nodes 4-6 are software Ethernet
    switches, node 7 is the IP router to the global Internet.  Links
    (from the figure): hosts 0,1 attach to switch 4; host 2 attaches to
    switch 5; host 3 attaches to switch 6; switches form the chain
    4-6 and 5-6; the router 7 attaches to switch 6.  The Fig. 2 route
    0 → 4 → 6 → 3 exists in this topology, and Sec. 3.1's worked
    example uses ``linkspeed(0,4) = 10^7 bit/s`` (the default here).
    """
    net = Network()
    for h in ("n0", "n1", "n2", "n3"):
        net.add_endhost(h)
    for s in ("n4", "n5", "n6"):
        net.add_switch(s, switch_config)
    net.add_router("n7")
    duplex = lambda a, b: net.add_duplex_link(
        a, b, speed_bps=speed_bps, prop_delay=prop_delay
    )
    duplex("n0", "n4")
    duplex("n1", "n4")
    duplex("n2", "n5")
    duplex("n4", "n6")
    duplex("n5", "n6")
    duplex("n3", "n6")
    duplex("n7", "n6")
    return net


def line_network(
    n_switches: int,
    *,
    hosts_per_switch: int = 1,
    speed_bps: float = mbps(100),
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """A chain ``sw0 - sw1 - ... - sw{n-1}`` with hosts at each switch.

    Hosts are named ``h{switch}_{index}``.  Used by the hop-count
    sensitivity experiment (E7): a flow from a host at ``sw0`` to a host
    at ``sw{n-1}`` traverses ``n_switches`` switches.
    """
    if n_switches < 1:
        raise ValueError("need at least one switch")
    net = Network()
    for s in range(n_switches):
        net.add_switch(f"sw{s}", switch_config)
        for h in range(hosts_per_switch):
            net.add_endhost(f"h{s}_{h}")
            net.add_duplex_link(
                f"h{s}_{h}", f"sw{s}", speed_bps=speed_bps, prop_delay=prop_delay
            )
    for s in range(n_switches - 1):
        net.add_duplex_link(
            f"sw{s}", f"sw{s + 1}", speed_bps=speed_bps, prop_delay=prop_delay
        )
    return net


def star_network(
    n_hosts: int,
    *,
    speed_bps: float = mbps(100),
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """One switch ``sw`` with ``n_hosts`` hosts ``h0..h{n-1}`` attached."""
    if n_hosts < 2:
        raise ValueError("a star needs at least two hosts")
    net = Network()
    net.add_switch("sw", switch_config)
    for h in range(n_hosts):
        net.add_endhost(f"h{h}")
        net.add_duplex_link(
            f"h{h}", "sw", speed_bps=speed_bps, prop_delay=prop_delay
        )
    return net


def fat_tree_network(
    *,
    spines: int = 2,
    leaves: int = 4,
    hosts_per_leaf: int = 2,
    speed_bps: float = mbps(100),
    uplink_speed_bps: float | None = None,
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """A two-tier folded-Clos (leaf/spine) fabric with path diversity.

    Every leaf switch ``leaf{j}`` connects to every spine switch
    ``spine{i}``, so any leaf-to-leaf route has ``spines`` equal-length
    choices — the multi-path regime the single-path line/star/tree
    families cannot express.  Hosts ``h{leaf}_{k}`` attach to leaves;
    ``uplink_speed_bps`` (default: same as host links) sets the
    leaf-spine capacity.
    """
    if spines < 1 or leaves < 2:
        raise ValueError("a fat-tree needs >= 1 spine and >= 2 leaves")
    if hosts_per_leaf < 1:
        raise ValueError("each leaf needs at least one host")
    uplink = speed_bps if uplink_speed_bps is None else uplink_speed_bps
    net = Network()
    for i in range(spines):
        net.add_switch(f"spine{i}", switch_config)
    for j in range(leaves):
        leaf = f"leaf{j}"
        net.add_switch(leaf, switch_config)
        for i in range(spines):
            net.add_duplex_link(
                leaf, f"spine{i}", speed_bps=uplink, prop_delay=prop_delay
            )
        for k in range(hosts_per_leaf):
            host = f"h{j}_{k}"
            net.add_endhost(host)
            net.add_duplex_link(
                host, leaf, speed_bps=speed_bps, prop_delay=prop_delay
            )
    return net


def multi_pod_fat_tree_network(
    *,
    pods: int = 4,
    aggs_per_pod: int = 2,
    leaves_per_pod: int = 4,
    hosts_per_leaf: int = 4,
    cores: int = 2,
    speed_bps: float = mbps(1000),
    agg_speed_bps: float | None = None,
    core_speed_bps: float | None = None,
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """A three-tier datacenter fabric: pods of leaf/agg switches under a
    shared core tier.

    Node naming is load-bearing: routes can be built from names alone
    (no graph search — essential when generating 10^5 flows; see
    :func:`multi_pod_route`):

    * ``core{c}`` — core switches, shared by all pods;
    * ``p{i}_agg{a}`` — pod ``i``'s aggregation switches, each linked
      to every core switch;
    * ``p{i}_leaf{l}`` — pod ``i``'s leaf switches, each linked to
      every aggregation switch of the pod;
    * ``p{i}_h{l}_{k}`` — host ``k`` of leaf ``l`` in pod ``i``.

    ``agg_speed_bps`` / ``core_speed_bps`` default to the host link
    speed (uniform fabric).
    """
    if pods < 1 or aggs_per_pod < 1 or leaves_per_pod < 1 or cores < 1:
        raise ValueError("pods, aggs, leaves and cores must all be >= 1")
    if hosts_per_leaf < 1:
        raise ValueError("each leaf needs at least one host")
    agg_speed = speed_bps if agg_speed_bps is None else agg_speed_bps
    core_speed = agg_speed if core_speed_bps is None else core_speed_bps
    net = Network()
    for c in range(cores):
        net.add_switch(f"core{c}", switch_config)
    for p in range(pods):
        for a in range(aggs_per_pod):
            agg = f"p{p}_agg{a}"
            net.add_switch(agg, switch_config)
            for c in range(cores):
                net.add_duplex_link(
                    agg, f"core{c}", speed_bps=core_speed, prop_delay=prop_delay
                )
        for l in range(leaves_per_pod):
            leaf = f"p{p}_leaf{l}"
            net.add_switch(leaf, switch_config)
            for a in range(aggs_per_pod):
                net.add_duplex_link(
                    leaf,
                    f"p{p}_agg{a}",
                    speed_bps=agg_speed,
                    prop_delay=prop_delay,
                )
            for k in range(hosts_per_leaf):
                host = f"p{p}_h{l}_{k}"
                net.add_endhost(host)
                net.add_duplex_link(
                    host, leaf, speed_bps=speed_bps, prop_delay=prop_delay
                )
    return net


def multi_pod_route(
    src: str, dst: str, *, agg: int = 0, core: int = 0
) -> tuple[str, ...]:
    """The canonical route between two hosts of a multi-pod fabric.

    Built purely from the :func:`multi_pod_fat_tree_network` naming
    scheme — O(1), no graph search, which is what makes generating
    10^5-flow scenarios cheap.  ``agg``/``core`` select which
    aggregation/core switch carries the route (path diversity).

    * same leaf: ``src -> leaf -> dst``;
    * same pod: ``src -> leafA -> agg -> leafB -> dst``;
    * cross-pod: ``src -> leafA -> aggA -> core -> aggB -> leafB -> dst``.
    """
    ps, ls, _ = src.split("_")
    pd, ld, _ = dst.split("_")
    src_leaf = f"{ps}_leaf{ls[1:]}"
    dst_leaf = f"{pd}_leaf{ld[1:]}"
    if ps == pd:
        if src_leaf == dst_leaf:
            return (src, src_leaf, dst)
        return (src, src_leaf, f"{ps}_agg{agg}", dst_leaf, dst)
    return (
        src,
        src_leaf,
        f"{ps}_agg{agg}",
        f"core{core}",
        f"{pd}_agg{agg}",
        dst_leaf,
        dst,
    )


def tree_network(
    depth: int,
    *,
    fanout: int = 2,
    hosts_per_leaf: int = 2,
    speed_bps: float = mbps(100),
    prop_delay: float = 0.0,
    switch_config: SwitchConfig | None = None,
) -> Network:
    """A ``fanout``-ary switch tree of given depth with hosts at leaves.

    Models the paper's "edge of the Internet": an organisation's access
    network.  Switch names are ``sw`` + path digits (root ``sw``);
    leaf switches get ``hosts_per_leaf`` hosts ``h<leafname>_<i>``.
    The root also carries an IP router ``gw`` (the uplink of Fig. 1).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    net = Network()
    net.add_switch("sw", switch_config)
    net.add_router("gw")
    net.add_duplex_link("gw", "sw", speed_bps=speed_bps, prop_delay=prop_delay)

    frontier = ["sw"]
    for level in range(1, depth):
        nxt: list[str] = []
        for parent in frontier:
            for c in range(fanout):
                child = f"{parent}{c}"
                net.add_switch(child, switch_config)
                net.add_duplex_link(
                    parent, child, speed_bps=speed_bps, prop_delay=prop_delay
                )
                nxt.append(child)
        frontier = nxt
    for leaf in frontier:
        for h in range(hosts_per_leaf):
            name = f"h{leaf}_{h}"
            net.add_endhost(name)
            net.add_duplex_link(
                name, leaf, speed_bps=speed_bps, prop_delay=prop_delay
            )
    return net
