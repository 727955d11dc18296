"""The paper's primary contribution: GMF schedulability analysis.

Modules map one-to-one onto the paper's Section 3:

* :mod:`repro.core.packetization` — Sec. 3.1 basic parameters
  (``nbits``, ``C_i^{k,link}``, ``MFT``);
* :mod:`repro.core.demand` — Eqs. 4-13 (``CSUM/NSUM/TSUM``, windowed
  sums, ``MXS/MX/NXS/NX``);
* :mod:`repro.core.first_hop` — Sec. 3.2, Eqs. 14-20;
* :mod:`repro.core.switch_ingress` — Sec. 3.3, Eqs. 21-27;
* :mod:`repro.core.switch_egress` — Sec. 3.4, Eqs. 28-35;
* :mod:`repro.core.pipeline` — the Fig. 6 end-to-end algorithm;
* :mod:`repro.core.holistic` — Sec. 3.5 holistic jitter fixed point;
* :mod:`repro.core.admission` — the admission controller built on it
  (implemented incrementally in :mod:`repro.core.hierarchy`);
* :mod:`repro.core.utilization` — the convergence conditions (Eqs. 20,
  34, 35);
* :mod:`repro.core.context` / :mod:`repro.core.results` — the analysis
  context (network + flows + jitter table + caches) and result records.
"""

from repro.core.packetization import (
    PacketizationConfig,
    Packetization,
    eth_frame_count,
    max_frame_transmission_time,
    packet_wire_bits,
    packetize,
    transmission_time,
    udp_packet_bits,
)
from repro.core.demand import InterferenceSet, LinkDemand, build_link_demand
from repro.core.context import AnalysisContext, AnalysisOptions, ResourceKey
from repro.core.results import (
    FlowResult,
    FrameResult,
    HolisticResult,
    StageResult,
    StageKind,
)
from repro.core.first_hop import first_hop_response_time, first_hop_stage
from repro.core.switch_ingress import ingress_response_time, ingress_stage
from repro.core.switch_egress import egress_response_time, egress_stage
from repro.core.pipeline import analyze_flow_frame, analyze_flow
from repro.core.holistic import holistic_analysis
from repro.core.admission import AdmissionController, AdmissionDecision
from repro.core.utilization import (
    egress_utilization,
    first_hop_utilization,
    link_utilization,
    network_convergence_report,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AnalysisContext",
    "AnalysisOptions",
    "FlowResult",
    "FrameResult",
    "HolisticResult",
    "InterferenceSet",
    "LinkDemand",
    "Packetization",
    "PacketizationConfig",
    "ResourceKey",
    "StageKind",
    "StageResult",
    "analyze_flow",
    "analyze_flow_frame",
    "build_link_demand",
    "egress_response_time",
    "egress_stage",
    "egress_utilization",
    "eth_frame_count",
    "first_hop_response_time",
    "first_hop_stage",
    "first_hop_utilization",
    "holistic_analysis",
    "ingress_response_time",
    "ingress_stage",
    "link_utilization",
    "max_frame_transmission_time",
    "network_convergence_report",
    "packet_wire_bits",
    "packetize",
    "transmission_time",
    "udp_packet_bits",
]
