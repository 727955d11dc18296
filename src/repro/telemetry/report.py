"""Aggregation, rollups and regression diffs over telemetry runs.

This is the reporting half of the telemetry layer: it turns the raw
run records of :mod:`repro.telemetry.store` into

* **derived KPIs** — per-subsystem numbers computed from a registry
  snapshot (fixed-point iterations per solve, cache hit rates,
  per-shard admit latency quantiles, simulator events/s, ...),
* **label rollups** — all runs under one label merged and summarised,
* **diffs** — KPI-by-KPI comparison of two labels with regression
  flags, the gate `repro.cli report --diff` (and CI) exits non-zero on.

Gating vs. informational metrics
--------------------------------
Deterministic KPIs — admission rate, iteration counts, cache hit
rates, event counts, deadline misses — gate: two runs of the same
workload must agree on them, so any drift beyond the threshold in the
*worse* direction is flagged as a regression.  Wall-clock KPIs —
req/s, latency quantiles, span times — vary run to run on shared
hardware; they are reported with deltas but never flagged, which keeps
the CI "identical runs diff clean" invariant meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry import Histogram, merge_snapshots
from repro.telemetry.store import RunRecord
from repro.util.tables import Table

#: Default relative-change threshold before a gating KPI flags.
DEFAULT_THRESHOLD = 0.05

#: Substrings marking a KPI as wall-clock derived (never gating).
_TIMING_MARKERS = ("_s.", "per_s", "_ms", "latency", "elapsed")

#: Substrings marking a gating KPI where *higher* is better.
_HIGHER_IS_BETTER = (
    "hit_rate",
    "accept_rate",
    "admission_rate",
    "warm_start",
    "accepted",
    "admitted",
    "cache_hits",
    "schedulable",
    "margin",
)


def classify(name: str) -> tuple[str, bool]:
    """``(direction, gating)`` for a KPI name.

    ``direction`` is ``"higher"`` or ``"lower"`` (which way is
    *better*); ``gating`` is whether a worse-direction change beyond
    the threshold counts as a regression.
    """
    if (
        name.startswith("span.")
        or name.endswith("_s")
        or any(marker in name for marker in _TIMING_MARKERS)
    ):
        direction = "higher" if "per_s" in name or "throughput" in name else "lower"
        return direction, False
    if any(token in name for token in _HIGHER_IS_BETTER):
        return "higher", True
    return "lower", True


# ----------------------------------------------------------------------
# Derived KPIs from a registry snapshot
# ----------------------------------------------------------------------
def _rate(counters: Mapping[str, float], hit: str, miss: str) -> float | None:
    hits = counters.get(hit, 0.0)
    total = hits + counters.get(miss, 0.0)
    return hits / total if total else None


def derived_metrics(snapshot: Mapping[str, Any] | None) -> dict[str, float]:
    """Flat KPI dict computed from a registry snapshot.

    Counter totals pass through under their own names; ratios and
    histogram summaries get derived names (``engine.demand_cache.hit_rate``,
    ``service.shard.0.admit_s.p99``, ``sim.events_per_s``).
    """
    if not snapshot:
        return {}
    counters: Mapping[str, float] = snapshot.get("counters") or {}
    hist_docs: Mapping[str, Any] = snapshot.get("histograms") or {}
    gauges: Mapping[str, float] = snapshot.get("gauges") or {}
    hists = {name: Histogram.from_dict(doc) for name, doc in hist_docs.items()}

    out: dict[str, float] = {}
    for name in sorted(counters):
        if name.startswith("span."):
            continue  # span call counts duplicate the histogram counts
        out[name] = counters[name]

    for name in sorted(gauges):
        out[name] = gauges[name]
    # Hit-rate rollup of the gauge-reported window cache (demand.py).
    hits = gauges.get("engine.window_cache.hits")
    misses = gauges.get("engine.window_cache.misses")
    if hits is not None and misses is not None and hits + misses:
        out["engine.window_cache.hit_rate"] = hits / (hits + misses)

    for name in sorted(hists):
        hist = hists[name]
        if not hist.count:
            continue
        out[f"{name}.mean"] = hist.mean
        out[f"{name}.p50"] = hist.quantile(0.5)
        out[f"{name}.p99"] = hist.quantile(0.99)
        out[f"{name}.max"] = hist.max

    for ratio_name, hit, miss in (
        ("engine.fixed_point.cache.hit_rate",
         "engine.fixed_point.cache_hits", "engine.fixed_point.cache_misses"),
        ("engine.demand_cache.hit_rate",
         "engine.demand_cache.hits", "engine.demand_cache.misses"),
        ("engine.stage_memo.hit_rate",
         "engine.stage_memo.hits", "engine.stage_memo.misses"),
    ):
        rate = _rate(counters, hit, miss)
        if rate is not None:
            out[ratio_name] = rate

    requests = counters.get("admission.requests", 0.0)
    if requests:
        out["admission.accept_rate"] = (
            counters.get("admission.accepted", 0.0) / requests
        )
    analyses = counters.get("engine.holistic.analyses", 0.0)
    if analyses:
        out["engine.holistic.rounds_per_analysis"] = (
            counters.get("engine.holistic.rounds", 0.0) / analyses
        )
    run_time = hists.get("sim.run_s")
    if run_time is not None and run_time.total > 0.0:
        out["sim.events_per_s"] = counters.get("sim.events", 0.0) / run_time.total
    return out


# ----------------------------------------------------------------------
# Label aggregation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LabelRollup:
    """All runs under one label, merged."""

    label: str
    runs: int
    metrics: Mapping[str, float]
    telemetry: Mapping[str, Any]


def aggregate(label: str, records: Sequence[RunRecord]) -> LabelRollup:
    """Merge a label's runs: mean the flat KPIs, fold the snapshots."""
    if not records:
        raise ValueError(f"no runs recorded for label {label!r}")
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for record in records:
        for name, value in record.metrics.items():
            sums[name] = sums.get(name, 0.0) + value
            counts[name] = counts.get(name, 0) + 1
    merged = merge_snapshots(r.telemetry for r in records if r.telemetry)
    metrics = derived_metrics(merged)
    # Explicitly recorded KPIs win over snapshot-derived ones.
    metrics.update({name: sums[name] / counts[name] for name in sums})
    return LabelRollup(
        label=label,
        runs=len(records),
        metrics={k: metrics[k] for k in sorted(metrics)},
        telemetry=merged,
    )


# ----------------------------------------------------------------------
# Diffs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffRow:
    metric: str
    baseline: float
    candidate: float
    rel_change: float | None
    direction: str
    gating: bool
    regression: bool


@dataclass(frozen=True)
class DiffResult:
    baseline: LabelRollup
    candidate: LabelRollup
    threshold: float
    rows: Sequence[DiffRow]

    @property
    def regressions(self) -> list[DiffRow]:
        return [row for row in self.rows if row.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions


def diff(
    baseline: LabelRollup,
    candidate: LabelRollup,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> DiffResult:
    """Compare two rollups; flag gating KPIs that got worse."""
    rows: list[DiffRow] = []
    shared = sorted(
        set(baseline.metrics) & set(candidate.metrics)
    )
    for name in shared:
        a = baseline.metrics[name]
        b = candidate.metrics[name]
        if a:
            rel: float | None = (b - a) / abs(a)
        elif b:
            rel = None  # appeared from zero: direction-checked below
        else:
            rel = 0.0
        direction, gating = classify(name)
        if rel is None:
            worse = (direction == "lower") == (b > 0)
        elif direction == "higher":
            worse = rel < -threshold
        else:
            worse = rel > threshold
        rows.append(
            DiffRow(
                metric=name,
                baseline=a,
                candidate=b,
                rel_change=rel,
                direction=direction,
                gating=gating,
                regression=gating and worse,
            )
        )
    return DiffResult(
        baseline=baseline,
        candidate=candidate,
        threshold=threshold,
        rows=rows,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_rollup(rollup: LabelRollup) -> str:
    table = Table(
        ["metric", "value"],
        title=f"telemetry rollup — {rollup.label} ({rollup.runs} run(s))",
    )
    for name, value in rollup.metrics.items():
        table.add_row([name, value])
    return table.render()


def render_diff(result: DiffResult) -> str:
    title = (
        f"telemetry diff — {result.baseline.label} "
        f"({result.baseline.runs} run(s)) vs {result.candidate.label} "
        f"({result.candidate.runs} run(s)), "
        f"threshold {result.threshold:.0%}"
    )
    table = Table(
        [
            "metric",
            result.baseline.label,
            result.candidate.label,
            "change",
            "flag",
        ],
        title=title,
    )
    for row in result.rows:
        if row.rel_change is None:
            change = "new"
        else:
            change = f"{row.rel_change:+.1%}"
        if row.regression:
            flag = "REGRESSION"
        elif row.gating:
            flag = "ok"
        else:
            flag = "info"
        table.add_row([row.metric, row.baseline, row.candidate, change, flag])
    lines = [table.render()]
    if result.regressions:
        lines.append(
            f"{len(result.regressions)} regression(s) flagged "
            f"(gating metrics worse by more than {result.threshold:.0%})"
        )
    else:
        lines.append("no regressions flagged")
    return "\n".join(lines)
