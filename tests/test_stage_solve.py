"""The stage-ordered solve (core/holistic.py): its readers map and its
stopping rule.

The admission engine keeps the solve's readers map up to date from the
subject's side: :meth:`~repro.core.hierarchy.AdmissionController._edge_changes`
names the flows whose stages a new flow joins, by link-sharing rules.
The solve itself reads what :func:`~repro.core.pipeline.plan_stage`
names.  The first test holds the two together: after every step of the
admit/release interleavings of ``tests/test_hierarchy.py``, the
engine's readers map is exactly the inverse of the participants each
admitted flow's stages read.

The second pins the stopping rule on cyclic stage graphs: over a table
seeded with the fixed point (a restore), a fresh stage deferred behind
the sweep writes no delta, and a solve that stops on that zero-delta
round reports partial walks, with bounds far below the exporter's.
"""

import pytest

from repro.core import pipeline
from repro.core.admission import AdmissionController
from repro.core.context import AnalysisContext, AnalysisOptions
from repro.core.holistic import holistic_analysis
from test_hierarchy import _assert_results_equal, _case_scenario, _interleave


def _participant_readers(ctx):
    """``(subject, resource) -> reader names``: the inverse of the
    participants each flow's stages read, other than the flow itself."""
    readers = {}
    for flow in ctx.flows:
        for position in range(len(pipeline.stage_resources(flow.route))):
            _, resource, _, participants = pipeline.plan_stage(
                ctx, flow, position
            )
            for j in participants:
                if j.name != flow.name:
                    readers.setdefault((j.name, resource), set()).add(
                        flow.name
                    )
    return readers


@pytest.mark.parametrize(
    "case",
    [
        0, 1, 2, "line3-1",
        "ring3", "ring4", "ring5", "ring3-35", "ring4-4", "ring5-20", "ring4-55",
    ],
)
def test_readers_map_is_the_inverse_of_stage_participants(case):
    """The cases of ``test_interleaving_matches_from_scratch_after_every_step``."""
    net, flows, seed = _case_scenario(case)
    hier = AdmissionController(net, AnalysisOptions())
    steps = []

    def check():
        steps.append(len(hier.admitted_flows))
        assert hier._stages.readers == _participant_readers(hier._ctx), (
            case,
            len(steps),
        )

    _interleave(hier, flows, seed, check)
    assert max(steps) > 1


@pytest.mark.parametrize("case", ["ring4-2", "ring4-7", "ring5-0", "ring5-7"])
def test_seeded_solve_completes_every_walk(case):
    """A restore, and a holistic analysis over a context seeded with
    the fixed point, reproduce the exporter's table and bounds, with
    every walk complete."""
    net, flows, _ = _case_scenario(case)
    options = AnalysisOptions()
    ctrl = AdmissionController(net, options)
    for flow in flows:
        ctrl.request(flow)
    admitted, table = ctrl.export_state()
    assert len(admitted) > 1

    restored = AdmissionController.restore(
        net, options, flows=admitted, jitters=table
    )
    assert restored.jitter_snapshot() == table
    _assert_results_equal(dict(restored.flow_results), dict(ctrl.flow_results))

    ctx = AnalysisContext(net, admitted, options)
    ctx.jitters.seed(table)
    analysis = holistic_analysis(net, admitted, options, context=ctx)
    assert analysis.converged
    _assert_results_equal(analysis.flow_results, dict(ctrl.flow_results))
    for flow in admitted:
        walk = len(pipeline.stage_resources(flow.route))
        for frame in analysis.result(flow.name).frames:
            assert len(frame.stages) == walk, flow.name
