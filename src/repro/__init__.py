"""repro: GMF schedulability analysis on multihop software-switched Ethernet.

Reproduction of: Björn Andersson, *Schedulability Analysis of Generalized
Multiframe Traffic on Multihop-Networks Comprising Software-Implemented
Ethernet-Switches*, IPPS 2008 (HURRAY-TR-080201).

Public API tour
---------------
Model the network and the traffic::

    from repro import Network, Flow, GmfSpec

    net = Network()
    net.add_endhost("h0"); net.add_switch("sw"); net.add_endhost("h1")
    net.add_duplex_link("h0", "sw", speed_bps=100e6)
    net.add_duplex_link("sw", "h1", speed_bps=100e6)

    video = Flow(
        name="video",
        spec=GmfSpec(
            min_separations=(0.030,) * 3,
            deadlines=(0.100,) * 3,
            jitters=(0.001,) * 3,
            payload_bits=(120_000, 40_000, 40_000),
        ),
        route=("h0", "sw", "h1"),
        priority=5,
    )

Analyse::

    from repro import holistic_analysis
    result = holistic_analysis(net, [video])
    result.schedulable, result.response("video")

Validate against the discrete-event simulator::

    from repro.sim import simulate
    trace = simulate(net, [video], duration=5.0)
    trace.worst_response("video") <= result.response("video")

The subpackage docstrings are the system inventory (start at
:mod:`repro.core`, which maps modules onto the paper's Section 3), and
``python -m repro.experiments.runner`` regenerates the reproduced
tables and figures (indexed in :mod:`repro.experiments`).
"""

from repro.model import (
    Flow,
    GmfSpec,
    Link,
    Network,
    Node,
    NodeKind,
    SwitchConfig,
    Transport,
    gmf_from_uniform,
    shortest_route,
    sporadic_spec,
    validate_route,
)
from repro.core import (
    AdmissionController,
    AdmissionDecision,
    AnalysisContext,
    AnalysisOptions,
    FlowResult,
    FrameResult,
    HolisticResult,
    StageKind,
    StageResult,
    analyze_flow,
    analyze_flow_frame,
    holistic_analysis,
)
from repro.core.planning import (
    max_admissible_scale,
    minimum_link_speed_scale,
    worst_slack_per_flow,
)
from repro.io import load_scenario, save_scenario

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AnalysisContext",
    "AnalysisOptions",
    "Flow",
    "FlowResult",
    "FrameResult",
    "GmfSpec",
    "HolisticResult",
    "Link",
    "Network",
    "Node",
    "NodeKind",
    "StageKind",
    "StageResult",
    "SwitchConfig",
    "Transport",
    "__version__",
    "analyze_flow",
    "analyze_flow_frame",
    "gmf_from_uniform",
    "holistic_analysis",
    "load_scenario",
    "max_admissible_scale",
    "minimum_link_speed_scale",
    "save_scenario",
    "shortest_route",
    "sporadic_spec",
    "validate_route",
    "worst_slack_per_flow",
]
