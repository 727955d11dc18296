"""Result records of the analysis.

The Fig. 6 pipeline produces, per frame of a flow, a sequence of
per-resource *stage* results whose responses sum (together with the
source jitter) to the end-to-end bound ``R_i^k``; the holistic iteration
wraps those per-flow results with convergence metadata, and an
admission decision wraps the results it re-solved with its verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence


class StageKind(Enum):
    """Which of the paper's three analyses produced a stage result."""

    FIRST_HOP = "first_hop"  # Sec. 3.2, Eqs. 14-20
    INGRESS = "ingress"      # Sec. 3.3, Eqs. 21-27
    EGRESS = "egress"        # Sec. 3.4, Eqs. 28-35


@dataclass(frozen=True)
class StageResult:
    """Response-time bound of one frame at one resource.

    Attributes
    ----------
    kind:
        Which analysis produced this stage.
    resource:
        ``("link", N1, N2)`` or ``("in", N)``.
    response:
        The stage bound ``R_i^{k,resource}`` in seconds (``inf`` when the
        busy period diverged — unschedulable).
    busy_period:
        Length of the (level-i) busy period the analysis explored.
    n_instances:
        ``Q_i^k``: how many instances of the frame were checked.
    converged:
        False exactly when ``response`` is ``inf`` due to divergence.
    """

    kind: StageKind
    resource: tuple
    response: float
    busy_period: float = 0.0
    n_instances: int = 0
    converged: bool = True

    @property
    def diverged(self) -> bool:
        return not self.converged


def diverged_stage(kind: StageKind, resource: tuple) -> StageResult:
    """A stage marking divergence (response ``inf``)."""
    return StageResult(
        kind=kind,
        resource=resource,
        response=math.inf,
        busy_period=math.inf,
        n_instances=0,
        converged=False,
    )


@dataclass(frozen=True)
class FrameResult:
    """End-to-end result for frame ``k`` of a flow.

    ``response`` is ``GJ_i^k`` plus the sum of stage responses (Fig. 6
    initialises ``RSUM := GJ_i^k``).
    """

    frame: int
    response: float
    deadline: float
    stages: tuple[StageResult, ...]

    @property
    def schedulable(self) -> bool:
        """True when the bound meets the frame's end-to-end deadline."""
        return self.response <= self.deadline

    @property
    def slack(self) -> float:
        """Deadline minus bound; negative when unschedulable."""
        return self.deadline - self.response

    def stage_breakdown(self) -> list[tuple[str, float]]:
        """Human-readable ``(stage, response)`` rows."""
        rows: list[tuple[str, float]] = []
        for s in self.stages:
            if s.kind is StageKind.INGRESS:
                label = f"in({s.resource[1]})"
            else:
                label = f"{s.kind.value} link({s.resource[1]},{s.resource[2]})"
            rows.append((label, s.response))
        return rows


@dataclass(frozen=True)
class FlowResult:
    """Per-flow analysis outcome: one :class:`FrameResult` per frame."""

    flow_name: str
    frames: tuple[FrameResult, ...]

    @property
    def schedulable(self) -> bool:
        return all(f.schedulable for f in self.frames)

    @property
    def worst_response(self) -> float:
        return max(f.response for f in self.frames)

    @property
    def worst_slack(self) -> float:
        return min(f.slack for f in self.frames)

    def frame(self, k: int) -> FrameResult:
        return self.frames[k]


@dataclass(frozen=True)
class HolisticResult:
    """Outcome of the holistic fixed-point analysis (Sec. 3.5).

    Attributes
    ----------
    flow_results:
        Final per-flow results, keyed by flow name.
    iterations:
        Outer jitter-update iterations performed.
    converged:
        True when the jitter table reached a fixed point.  When False
        (divergence or iteration cap) the flow set must be treated as
        unschedulable even if individual responses look finite.
    """

    flow_results: Mapping[str, FlowResult]
    iterations: int
    converged: bool

    @property
    def schedulable(self) -> bool:
        """The admission test: converged and every deadline met."""
        return self.converged and all(
            r.schedulable for r in self.flow_results.values()
        )

    def result(self, flow_name: str) -> FlowResult:
        return self.flow_results[flow_name]

    def response(self, flow_name: str, frame: int | None = None) -> float:
        """End-to-end bound of a frame (or the flow's worst frame)."""
        fr = self.flow_results[flow_name]
        if frame is None:
            return fr.worst_response
        return fr.frame(frame).response

    def summary_rows(self) -> list[tuple[str, float, float, bool]]:
        """``(flow, worst R, worst slack, schedulable)`` rows."""
        return [
            (name, r.worst_response, r.worst_slack, r.schedulable)
            for name, r in sorted(self.flow_results.items())
        ]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission request.

    Attributes
    ----------
    accepted:
        True when the candidate flow was admitted.
    reason:
        Human-readable explanation (which flow/frame would miss, or
        divergence).
    analysis:
        The results of the flows the decision re-solved: the candidate
        and every flow whose analysis it could change (its changed
        set), accepted or not.  Flows outside the changed set kept
        their bounds; the controller's ``last_analysis`` holds the
        whole admitted set.  ``None`` when the utilisation pre-check
        rejected the request before any response-time analysis ran.
    """

    accepted: bool
    reason: str
    analysis: HolisticResult | None


def first_violation(results: Mapping[str, FlowResult]) -> str | None:
    """Why a converged analysis rejects: the first (by flow name) frame
    whose bound exceeds its deadline, or ``None`` when all are met."""
    for name, result in sorted(results.items()):
        for frame in result.frames:
            if not frame.schedulable:
                return (
                    f"flow {name!r} frame {frame.frame}: bound "
                    f"{frame.response:.6g}s exceeds deadline "
                    f"{frame.deadline:.6g}s"
                )
    return None
