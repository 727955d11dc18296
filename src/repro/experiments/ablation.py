"""E8: ablations of the documented reconstruction choices.

Two switches are ablated (the OCR and reconstruction notes of
:mod:`repro.core.packetization`, :mod:`repro.core.switch_ingress` and
:mod:`repro.core.switch_egress` say what the corrected model changes):

* ``strict_paper`` — the equations exactly as printed (remainder
  fragments without IP header / minimum padding; single-Ethernet-frame
  own-flow terms at switches) vs the corrected model.  Expectation:
  strict bounds are *smaller* (they omit real work), which is exactly
  why the corrected model is the default — the simulator can exceed a
  strict bound for multi-fragment packets.
* ``use_jitter`` — generalized-jitter propagation on vs off.
  Expectation: ignoring jitter lowers the bound (and would be unsound);
  the delta measures how much of the bound is jitter amplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.context import AnalysisOptions
from repro.core.holistic import holistic_analysis
from repro.experiments.endtoend import build_example_scenario
from repro.util.tables import Table
from repro.util.units import mbps, ms


@dataclass(frozen=True)
class AblationResult:
    bounds: Mapping[str, Mapping[str, float]]  # variant -> flow -> worst R

    def render(self) -> str:
        variants = list(self.bounds)
        flows = sorted(next(iter(self.bounds.values())))
        t = Table(
            ["flow"] + [f"{v} (ms)" for v in variants],
            title="E8: ablation of reconstruction choices (worst bound)",
        )
        for fname in flows:
            t.add_row(
                [fname] + [self.bounds[v][fname] * 1e3 for v in variants]
            )
        return t.render()

    def variant(self, name: str) -> Mapping[str, float]:
        return self.bounds[name]


def run_ablation(
    *, speed_bps: float = mbps(100), mpeg_jitter: float = ms(25)
) -> AblationResult:
    """Compare bound variants on the E3 example scenario.

    The MPEG flow's source jitter defaults to 25 ms here (a source
    buffering nearly one frame time) rather than E3's 1 ms: with tiny
    jitters the interference functions sit on the same plateau in every
    variant and the jitter ablation would show no difference.
    """
    variants = {
        "corrected": AnalysisOptions(),
        "strict_paper": AnalysisOptions(strict_paper=True),
        "no_jitter": AnalysisOptions(use_jitter=False),
        "strict_no_jitter": AnalysisOptions(strict_paper=True, use_jitter=False),
    }
    bounds: dict[str, dict[str, float]] = {}
    for label, opts in variants.items():
        net, flows = build_example_scenario(
            speed_bps=speed_bps, mpeg_jitter=mpeg_jitter
        )
        res = holistic_analysis(net, flows, opts)
        bounds[label] = {
            name: r.worst_response for name, r in res.flow_results.items()
        }
    return AblationResult(bounds=bounds)
