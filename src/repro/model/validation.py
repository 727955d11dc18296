"""Cross-cutting model validation.

Checks that a (network, flows) problem instance is well-formed before
analysis or simulation: unique names, valid routes, switch-only
forwarding, and sanity warnings (e.g. a deadline shorter than the
minimum possible path latency can never be met).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.packetization import DEFAULT_CONFIG, packet_wire_bits
from repro.model.flow import Flow, check_unique_names
from repro.model.network import Network
from repro.model.routing import validate_route


@dataclass(frozen=True)
class ValidationIssue:
    """A single finding: ``severity`` is ``"error"`` or ``"warning"``."""

    severity: str
    flow: str | None
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        """True when there are no errors (warnings allowed)."""
        return not any(i.severity == "error" for i in self.issues)

    @property
    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "error")

    @property
    def warnings(self) -> tuple[ValidationIssue, ...]:
        return tuple(i for i in self.issues if i.severity == "warning")


def validate_problem(network: Network, flows: Sequence[Flow]) -> ValidationReport:
    """Validate a complete problem instance.

    Errors make analysis meaningless (bad routes, duplicate names);
    warnings flag instances that are structurally fine but can never be
    schedulable (deadline below the no-contention path latency).
    """
    issues: list[ValidationIssue] = []
    try:
        check_unique_names(flows)
    except ValueError as exc:
        issues.append(ValidationIssue("error", None, str(exc)))

    for flow in flows:
        try:
            validate_route(network, flow.route)
        except ValueError as exc:
            issues.append(ValidationIssue("error", flow.name, str(exc)))
            continue
        issues.extend(_latency_floor_warnings(network, flow))
    return ValidationReport(issues=tuple(issues))


def minimum_path_latency(network: Network, flow: Flow, frame: int) -> float:
    """A lower bound on frame ``k``'s end-to-end latency with zero load.

    Transmission time on every link plus propagation plus one
    ``CROUTE + CSEND`` of switch processing per intermediate switch.
    This is a *floor*: no analysis or simulation can report less.
    """
    wire_bits = packet_wire_bits(
        flow.spec.payload_bits[frame], flow.transport, DEFAULT_CONFIG
    )
    total = 0.0
    for (a, b) in flow.links():
        total += wire_bits / network.linkspeed(a, b)
        total += network.prop(a, b)
    for sw in flow.intermediate_switches():
        cfg = network.node(sw).switch
        total += cfg.c_route + cfg.c_send
    return total


def _latency_floor_warnings(network: Network, flow: Flow):
    for k in flow.spec.frame_indices():
        floor = minimum_path_latency(network, flow, k)
        if flow.spec.deadlines[k] < floor:
            yield ValidationIssue(
                "warning",
                flow.name,
                f"frame {k}: deadline {flow.spec.deadlines[k]:.6g}s is below "
                f"the zero-load path latency {floor:.6g}s; never schedulable",
            )
