"""Per-layer metrics from span files and telemetry counters.

Every workload runs the analysis engine, so :func:`engine` applies to
all of them; the front-end layers (service, hierarchy, simulator) are
computed by the workload modules.  Shares are self time (a span minus
the child spans it covers) over the time of the enclosing layer.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from measure import Metric, counter, hist, ratio
from spans import SpanSet, count, inclusive_total, self_total

GATHER = ("context.demand", "context.interference", "context.link_matrix")
STAGES = (
    ("first_hop", "first_hop.stage"),
    ("switch_ingress", "switch_ingress.stage"),
    ("switch_egress", "switch_egress.stage"),
)


def engine(
    sets: Sequence[SpanSet], snap: Mapping[str, Any] | None, ops: int
) -> tuple[list[Metric], dict[str, float]]:
    """Engine layers per ``ops`` operations of the workload.

    Returns the metrics and the exact work counts behind them.
    """
    analysis = inclusive_total(sets, ["pipeline.analyze_flow"])
    n_flow = count(sets, ["pipeline.analyze_flow"])
    n_solve = count(sets, ["fixed_point.solve"])
    solve = inclusive_total(sets, ["fixed_point.solve"])
    holistic = inclusive_total(sets, ["holistic.analysis"])
    n_iter, sum_iter = hist(snap, "engine.fixed_point.iterations")
    counts = {
        "holistic.analyses": counter(snap, "engine.holistic.analyses"),
        "holistic.rounds": counter(snap, "engine.holistic.rounds"),
        "holistic.flow_evals": counter(snap, "engine.holistic.flow_analyses"),
        "holistic.worklist_skips": counter(snap, "engine.holistic.worklist_skips"),
        "fixed_point.solves": counter(snap, "engine.fixed_point.solves"),
        "fixed_point.iterations": sum_iter,
        "engine.ops": float(ops),
    }
    analyses = counts["holistic.analyses"]
    evals = counts["holistic.flow_evals"]
    skips = counts["holistic.worklist_skips"]
    memo_hits = counter(snap, "engine.stage_memo.hits")
    memo_miss = counter(snap, "engine.stage_memo.misses")
    dc_hits = counter(snap, "engine.demand_cache.hits")
    dc_miss = counter(snap, "engine.demand_cache.misses")
    out = [
        Metric(
            "pipeline.analyze_flow_us",
            ratio(self_total(sets, ["pipeline.analyze_flow"]), n_flow) * 1e6,
            "us",
            n_flow,
        ),
        Metric("pipeline.memo_hit_rate", ratio(memo_hits, memo_hits + memo_miss), "fraction", int(memo_hits + memo_miss)),
        Metric(
            "context.demand_gather_ms",
            ratio(inclusive_total(sets, GATHER), ops) * 1e3,
            "ms",
            ops,
        ),
        Metric("demand.cache_hit_rate", ratio(dc_hits, dc_hits + dc_miss), "fraction", int(dc_hits + dc_miss)),
        Metric("holistic.analysis_ms", ratio(holistic, count(sets, ["holistic.analysis"])) * 1e3, "ms", count(sets, ["holistic.analysis"])),
        Metric("holistic.self_share", ratio(self_total(sets, ["holistic.analysis"]), holistic), "fraction", count(sets, ["holistic.analysis"])),
        Metric("holistic.rounds", ratio(counts["holistic.rounds"], analyses), "count", int(analyses)),
        Metric("holistic.flow_evals", ratio(evals, analyses), "count", int(analyses)),
        Metric("holistic.skip_ratio", ratio(skips, skips + evals), "fraction", int(analyses)),
        Metric("fixed_point.solves", ratio(counts["fixed_point.solves"], ops), "count", ops),
        Metric("fixed_point.iterations", ratio(sum_iter, n_iter), "count", int(n_iter)),
        Metric("fixed_point.solve_us", ratio(solve, n_solve) * 1e6, "us", n_solve),
        Metric("fixed_point.share", ratio(solve, analysis), "fraction", n_solve),
    ]
    for layer, span in STAGES:
        out.append(
            Metric(
                f"{layer}.share",
                ratio(self_total(sets, [span]), analysis),
                "fraction",
                count(sets, [span]),
            )
        )
    return out, counts
