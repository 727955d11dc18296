"""E1 + E2: the paper's worked examples (Sec. 3.1 / Sec. 3.3).

E1 reproduces Fig. 3/4: the MPEG IBBPBBPBB stream on
``link(0,4)`` with ``linkspeed = 10^7 bit/s`` — per-frame transmission
times ``C_i^k``, Ethernet-frame counts, and the cycle sums
``CSUM/NSUM/TSUM``.  The paper's recoverable value ``TSUM = 270 ms`` is
asserted exactly; per-frame byte sizes of Fig. 4 are not recoverable
from the scan, so the canonical MPEG sizes of
:mod:`repro.workloads.mpeg` are used and reported.

E2 reproduces the CIRC arithmetic: the 4-interface example switch
(``CIRC = 4 x (2.7 + 1.0) us = 14.8 us``) and the conclusions' 48-port
16-processor network processor (``CIRC = 11.1 us``) including the
1 Gbit/s feasibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.demand import LinkDemand, build_link_demand
from repro.model.flow import Flow
from repro.switch.multiproc import (
    MultiprocessorPlan,
    max_linkspeed_supported,
    partition_interfaces,
)
from repro.util.tables import Table
from repro.util.units import mbps, us
from repro.workloads.mpeg import paper_fig3_flow


@dataclass(frozen=True)
class WorkedExampleResult:
    """Per-frame parameters and cycle sums of the Fig. 3/4 example."""

    flow: Flow
    demand: LinkDemand
    linkspeed_bps: float

    @property
    def tsum(self) -> float:
        return self.demand.tsum

    @property
    def csum(self) -> float:
        return self.demand.csum

    @property
    def nsum(self) -> int:
        return self.demand.nsum

    @property
    def mft(self) -> float:
        return self.demand.mft

    def render(self) -> str:
        t = Table(
            ["frame k", "type", "S (bits)", "T (ms)", "C (ms)", "eth frames"],
            title=(
                "E1: Fig. 3/4 worked example "
                f"(IBBPBBPBB on a {self.linkspeed_bps / 1e6:.0f} Mbit/s link)"
            ),
        )
        pattern = "XBBPBBPBB"
        spec = self.flow.spec
        for k in range(spec.n_frames):
            t.add_row(
                [
                    k,
                    "I+P" if pattern[k] == "X" else pattern[k],
                    spec.payload_bits[k],
                    spec.min_separations[k] * 1e3,
                    self.demand.c[k] * 1e3,
                    self.demand.n_eth[k],
                ]
            )
        footer = Table(["quantity", "value", "paper"], title="cycle sums")
        footer.add_row(["CSUM (ms)", self.csum * 1e3, "(not recoverable)"])
        footer.add_row(["NSUM (eth frames)", self.nsum, "(not recoverable)"])
        footer.add_row(["TSUM (ms)", self.tsum * 1e3, "270 (exact match)"])
        footer.add_row(["MFT (ms)", self.mft * 1e3, "12304 bits / linkspeed"])
        return t.render() + "\n" + footer.render()


def run_worked_example(linkspeed_bps: float = mbps(10)) -> WorkedExampleResult:
    """Compute the Fig. 3/4 per-link parameters of the MPEG example."""
    flow = paper_fig3_flow(route=("n0", "n4", "n6", "n3"))
    demand = build_link_demand(flow, linkspeed_bps)
    return WorkedExampleResult(flow=flow, demand=demand, linkspeed_bps=linkspeed_bps)


@dataclass(frozen=True)
class CircExamplesResult:
    """E2: the paper's CIRC numbers."""

    example_switch: MultiprocessorPlan
    network_processor: MultiprocessorPlan
    gigabit_feasible_speed: float

    def render(self) -> str:
        t = Table(
            ["configuration", "CIRC (us)", "paper", "max linkspeed (Gbit/s)"],
            title="E2: CIRC arithmetic (Sec. 3.3 example + conclusions)",
        )
        t.add_row(
            [
                "4 interfaces, 1 cpu",
                self.example_switch.circ * 1e6,
                "14.8",
                max_linkspeed_supported(4, 1) / 1e9,
            ]
        )
        t.add_row(
            [
                "48 ports, 16 cpus",
                self.network_processor.circ * 1e6,
                "11.1",
                self.gigabit_feasible_speed / 1e9,
            ]
        )
        return t.render()


def run_circ_examples() -> CircExamplesResult:
    """Reproduce CIRC = 14.8 us (example) and 11.1 us (48-port switch)."""
    return CircExamplesResult(
        example_switch=partition_interfaces(4, 1),
        network_processor=partition_interfaces(48, 16),
        gigabit_feasible_speed=max_linkspeed_supported(48, 16),
    )
