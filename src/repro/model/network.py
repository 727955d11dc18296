"""Multihop network model: nodes, links, software switches.

Models the setting of Sec. 2.1 / Fig. 1 of the paper: a network of

* **IP end hosts** (sources/destinations of flows, e.g. PCs running video
  conferencing),
* **software-implemented Ethernet switches** (Click-style: one processor,
  stride-scheduled ingress/egress tasks, prioritised output queues),
* **IP routers** (the boundary to the wider Internet; routes never
  traverse them — a router can only terminate a route).

Links are directed point-to-point Ethernet links with a bit rate
``linkspeed(N1, N2)`` and a propagation delay ``prop(N1, N2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from repro.util.units import us


class NodeKind(Enum):
    """Role of a node in the network (Fig. 1)."""

    ENDHOST = "endhost"
    SWITCH = "switch"
    ROUTER = "router"


@dataclass(frozen=True)
class SwitchConfig:
    """Processing parameters of a software-implemented Ethernet switch.

    Attributes
    ----------
    c_route:
        ``CROUTE(N)``: uninterrupted execution time to dequeue an Ethernet
        frame from an ingress NIC FIFO, classify it and enqueue it into
        the right prioritised output queue.  The paper measured 2.7 µs on
        its Click implementation.
    c_send:
        ``CSEND(N)``: uninterrupted execution time to move an Ethernet
        frame from a priority queue into the egress NIC FIFO.  Measured
        1.0 µs in the paper.
    n_processors:
        Conclusions extension: with ``m`` processors and
        ``NINTERFACES % m == 0``, interfaces are partitioned evenly so a
        task is served every ``(NINTERFACES/m) * (CROUTE + CSEND)``.
    interface_tickets:
        **Extension beyond the paper** (which restricts stride
        scheduling to all-tickets-equal round-robin, footnote 1):
        per-interface stride tickets as ``((interface, tickets), ...)``.
        Both tasks of an interface get its ticket count; unlisted
        interfaces default to 1.  When any entry is present, the
        per-task service period is bounded by the stride throughput-
        error argument instead of the exact round-robin ``CIRC`` —
        see :meth:`service_bound`.  Not combinable with multiprocessor
        partitioning.
    """

    c_route: float = us(2.7)
    c_send: float = us(1.0)
    n_processors: int = 1
    interface_tickets: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.c_route < 0 or self.c_send < 0:
            raise ValueError("task execution times must be >= 0")
        if self.n_processors < 1:
            raise ValueError("a switch has at least one processor")
        if self.interface_tickets:
            if self.n_processors != 1:
                raise ValueError(
                    "weighted stride tickets are only supported on "
                    "single-processor switches"
                )
            for itf, tk in self.interface_tickets:
                if tk < 1:
                    raise ValueError(
                        f"interface {itf!r}: tickets must be >= 1"
                    )
            names = [itf for itf, _ in self.interface_tickets]
            if len(set(names)) != len(names):
                raise ValueError("duplicate interface in interface_tickets")

    @property
    def is_weighted(self) -> bool:
        """True when a non-round-robin ticket allocation is configured."""
        return bool(self.interface_tickets)

    def tickets_for(self, interface: str) -> int:
        """Stride tickets of both tasks of ``interface`` (default 1)."""
        for itf, tk in self.interface_tickets:
            if itf == interface:
                return tk
        return 1

    def service_bound(self, interfaces: Sequence[str], interface: str) -> float:
        """Worst-case time between two services of ``interface``'s tasks.

        Round-robin configuration: exactly ``CIRC`` (Sec. 3.3).  With
        weighted tickets: stride scheduling guarantees a task with
        ``w`` of ``W`` total tickets is dispatched at least once in any
        ``ceil(W/w) + 1`` consecutive dispatches (the throughput-error
        bound of Waldspurger & Weihl); each intervening dispatch costs
        at most ``max(CROUTE, CSEND)``.  The weighted bound is
        conservative — for tickets all equal it exceeds the exact
        round-robin value, so the exact value is used whenever possible.
        """
        if interface not in interfaces:
            raise ValueError(f"unknown interface {interface!r}")
        if not self.is_weighted:
            return self.circ(len(interfaces))
        total = 2 * sum(self.tickets_for(itf) for itf in interfaces)
        mine = self.tickets_for(interface)
        dispatches = -(-total // mine) + 1
        return dispatches * max(self.c_route, self.c_send)

    def circ(self, n_interfaces: int) -> float:
        """``CIRC(N)``: worst-case period between services of one task.

        Sec. 3.3: with round-robin stride scheduling over
        ``NINTERFACES`` ingress tasks and ``NINTERFACES`` egress tasks,
        each pairing costs ``CROUTE + CSEND``, so any given task runs once
        every ``NINTERFACES × (CROUTE + CSEND)``.  With ``m`` processors
        (conclusions) the interfaces are partitioned, dividing the factor.
        """
        if n_interfaces < 1:
            raise ValueError("a switch has at least one interface")
        if n_interfaces % self.n_processors != 0:
            raise ValueError(
                f"NINTERFACES={n_interfaces} is not divisible by "
                f"m={self.n_processors} processors (conclusions require "
                "equal divisibility)"
            )
        per_processor = n_interfaces // self.n_processors
        return per_processor * (self.c_route + self.c_send)


@dataclass
class Node:
    """A network node (end host, switch or router)."""

    name: str
    kind: NodeKind
    switch: SwitchConfig | None = None

    def __post_init__(self) -> None:
        if self.kind is NodeKind.SWITCH and self.switch is None:
            self.switch = SwitchConfig()
        if self.kind is not NodeKind.SWITCH and self.switch is not None:
            raise ValueError(f"node {self.name!r} is not a switch but has a SwitchConfig")

    @property
    def is_switch(self) -> bool:
        return self.kind is NodeKind.SWITCH


@dataclass(frozen=True)
class Link:
    """A directed link ``link(N1, N2)`` with speed and propagation delay."""

    src: str
    dst: str
    speed_bps: float
    prop_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("self-links are not allowed")
        if self.speed_bps <= 0:
            raise ValueError("linkspeed must be positive")
        if self.prop_delay < 0:
            raise ValueError("propagation delay must be >= 0")

    @property
    def ends(self) -> tuple[str, str]:
        return (self.src, self.dst)


class Network:
    """A multihop network: named nodes plus directed links.

    The class exposes exactly the queries the analysis needs:
    ``linkspeed``, ``prop``, ``NINTERFACES(N)`` and ``CIRC(N)``.

    >>> net = Network()
    >>> _ = net.add_endhost("h0"); _ = net.add_switch("s0")
    >>> net.add_duplex_link("h0", "s0", speed_bps=1e7)
    >>> net.linkspeed("h0", "s0")
    10000000.0
    """

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        # Adjacency maps, maintained incrementally by add_link so the
        # interface queries below are O(degree) instead of O(links).
        # Both the simulator build and the analysis context's CIRC
        # queries lean on them for every switch.
        self._neighbors: dict[str, set[str]] = {}
        self._incoming: dict[str, set[str]] = {}
        # (switch, interface) -> circ_task; cleared by the builders.
        self._circ_task: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._neighbors[node.name] = set()
        self._incoming[node.name] = set()
        self._circ_task.clear()
        return node

    def add_endhost(self, name: str) -> Node:
        """Add an IP end host (a PC; sources/sinks of flows)."""
        return self.add_node(Node(name=name, kind=NodeKind.ENDHOST))

    def add_switch(self, name: str, config: SwitchConfig | None = None) -> Node:
        """Add a software-implemented Ethernet switch."""
        return self.add_node(
            Node(name=name, kind=NodeKind.SWITCH, switch=config or SwitchConfig())
        )

    def add_router(self, name: str) -> Node:
        """Add an IP router (may only start or end a route)."""
        return self.add_node(Node(name=name, kind=NodeKind.ROUTER))

    def add_link(
        self, src: str, dst: str, *, speed_bps: float, prop_delay: float = 0.0
    ) -> Link:
        """Add one directed link."""
        for name in (src, dst):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        key = (src, dst)
        if key in self._links:
            raise ValueError(f"duplicate link {src!r}->{dst!r}")
        link = Link(src=src, dst=dst, speed_bps=speed_bps, prop_delay=prop_delay)
        self._links[key] = link
        self._neighbors[src].add(dst)
        self._incoming[dst].add(src)
        self._circ_task.clear()
        return link

    def add_duplex_link(
        self, a: str, b: str, *, speed_bps: float, prop_delay: float = 0.0
    ) -> None:
        """Add both directions of a full-duplex Ethernet link.

        Switched Ethernet links are full duplex (this is what removes the
        CSMA/CD random backoff the paper's introduction highlights), so
        workloads almost always want both directions.
        """
        self.add_link(a, b, speed_bps=speed_bps, prop_delay=prop_delay)
        self.add_link(b, a, speed_bps=speed_bps, prop_delay=prop_delay)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def node_names(self) -> Iterator[str]:
        return iter(self._nodes.keys())

    def link(self, src: str, dst: str) -> Link:
        """The link ``link(src, dst)``; KeyError if absent."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src!r}->{dst!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    def neighbors(self, name: str) -> frozenset[str]:
        """Nodes reachable over one outgoing link of ``name``."""
        return frozenset(self._neighbors[name])

    def linkspeed(self, src: str, dst: str) -> float:
        """``linkspeed(N1, N2)`` in bit/s."""
        return self.link(src, dst).speed_bps

    def prop(self, src: str, dst: str) -> float:
        """``prop(N1, N2)``: propagation delay in seconds."""
        return self.link(src, dst).prop_delay

    def n_interfaces(self, name: str) -> int:
        """``NINTERFACES(N)``: number of attached network interfaces.

        Counted as the number of distinct neighbouring nodes (each
        neighbour is reached through one NIC; duplex pairs share a NIC).
        """
        self.node(name)
        return len(self._neighbors[name] | self._incoming[name])

    def circ(self, name: str) -> float:
        """``CIRC(N)`` for switch ``name`` (Sec. 3.3)."""
        node = self.node(name)
        if node.switch is None:
            raise ValueError(f"node {name!r} is not a switch; CIRC is undefined")
        return node.switch.circ(self.n_interfaces(name))

    def interfaces_of(self, name: str) -> tuple[str, ...]:
        """Sorted neighbour names reached through ``name``'s NICs."""
        self.node(name)
        return tuple(sorted(self._neighbors[name] | self._incoming[name]))

    def circ_task(self, name: str, interface: str) -> float:
        """Worst-case service period of ``interface``'s tasks at switch
        ``name``.

        Equals :meth:`circ` for the paper's round-robin configuration;
        with weighted stride tickets (extension) it is the per-interface
        bound of :meth:`SwitchConfig.service_bound`.  Memoised: every
        ingress and egress stage run asks for it, and computing it sorts
        the node's interfaces.
        """
        key = (name, interface)
        value = self._circ_task.get(key)
        if value is None:
            node = self.node(name)
            if node.switch is None:
                raise ValueError(
                    f"node {name!r} is not a switch; CIRC is undefined"
                )
            value = node.switch.service_bound(
                self.interfaces_of(name), interface
            )
            self._circ_task[key] = value
        return value

    def describe(self) -> str:
        """Multi-line human-readable summary of the topology."""
        lines = [f"Network: {len(self._nodes)} nodes, {len(self._links)} links"]
        for node in self._nodes.values():
            lines.append(f"  {node.name} [{node.kind.value}]")
        for link in self._links.values():
            lines.append(
                f"  {link.src} -> {link.dst}: {link.speed_bps:.6g} bit/s, "
                f"prop {link.prop_delay:.6g} s"
            )
        return "\n".join(lines)
