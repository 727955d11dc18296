"""Repository benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``voip-star-tcp``, ``fat-tree-tcp`` -- one TCP client connection against
  ``repro.cli serve`` (open loop for latency, closed loop for throughput);
* ``datacenter-hier`` -- in-process hierarchical admission;
* ``validate-grid`` -- in-process bound-versus-simulation campaign.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice with the same seed and work, untraced and then traced
(span wrappers plus telemetry counters), and reports the per-layer
metrics and the tracing overhead.  Every response or result is checked;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it are the full report: every
metric by name with its unit and sample count, the checks that ran, and
the revision and environment.

The result line carries the metrics ``BENCHMARK.json`` names, which every
workload reports; the report above it also carries each workload's own
metrics (``admit_p50_ms``, ``query_p50_ms``, ``scenarios_per_s``, ...).
Times are at a reference CPU speed, measured by calibrators running
beside the workload (``speed.py``); the report also prints the wall-clock
figures (``wall.*``) and the CPU's median slowdown (``speed.slowdown``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment switches that change the program under test.
FORBIDDEN_ENV = ("REPRO_TELEMETRY", "REPRO_TRACE", "REPRO_FAULTS", "REPRO_FLIGHT_DIR")
#: String-hash seed of every benchmark process (see ``main``).
HASH_SEED = "0"

#: Analysis-engine layers every workload runs.
ENGINE_LAYERS = (
    "context.demand_gather_ms", "demand.cache_hit_rate",
    "pipeline.analyze_flow_us", "pipeline.memo_hit_rate",
    "first_hop.share", "switch_ingress.share", "switch_egress.share",
    "fixed_point.solves", "fixed_point.iterations", "fixed_point.share",
    "trace.overhead_share",
)
HOLISTIC_LAYERS = (
    "holistic.analysis_ms", "holistic.self_share", "holistic.rounds",
    "holistic.flow_evals", "holistic.skip_ratio",
)
TCP_E2E = (
    "setup_s", "throughput_rps", "admit_p50_ms", "release_p50_ms",
    "query_p50_ms", "failed_share", "peak_rss_mb",
)
TCP_LAYERS = (
    "client.send_lag_p99_ms", "protocol.decode_us", "protocol.encode_us",
    "server.wait_ms_p50", "server.wait_ms_p99", "server.return_ms_p50",
    "server.batch_size_mean", "sharding.batch_ms", "sharding.pipe_ms_per_op",
    "sharding.cross_shard_share", "sharding.rollbacks",
    "admission.request_ms", "admission.release_ms", "admission.self_share",
    "admission.fast_reject_share", "context.build_ms", "utilization.check_ms",
) + HOLISTIC_LAYERS + ENGINE_LAYERS

#: Per workload, the metrics its report must print (self-check): the
#: untraced end-to-end ones and the traced per-layer ones.  Tail
#: percentiles are left out: which one has ten samples beyond it depends
#: on the run length.
NAMED = {
    "voip-star-tcp": (TCP_E2E, TCP_LAYERS),
    "fat-tree-tcp": (TCP_E2E, TCP_LAYERS),
    "datacenter-hier": (
        ("setup_s", "admit_p50_ms", "release_p50_ms", "failed_share",
         "peak_rss_mb"),
        ("hierarchy.admit_ms", "hierarchy.release_ms", "hierarchy.changed_set",
         "hierarchy.release_resolves", "hierarchy.preload_s") + ENGINE_LAYERS,
    ),
    "validate-grid": (
        ("setup_s", "scenarios_per_s", "failed_share", "peak_rss_mb"),
        ("sim.build_ms", "sim.inject_ms", "sim.dispatch_ms", "sim.finalize_ms",
         "sim.events", "sim.dispatch_events_per_s", "campaign.analysis_share")
        + HOLISTIC_LAYERS + ENGINE_LAYERS,
    ),
}


def _spec() -> dict:
    """``BENCHMARK.json``: the metric names and units every result carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads():
    import inproc
    import tcp

    return {
        "voip-star-tcp": lambda **kw: tcp.run(tcp.VOIP, **kw),
        "fat-tree-tcp": lambda **kw: tcp.run(tcp.FAT_TREE, **kw),
        "datacenter-hier": inproc.run_hier,
        "validate-grid": inproc.run_grid,
    }


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def _print_metrics(title: str, metrics) -> None:
    print(f"  {title}")
    for m in metrics:
        print(f"    {m.name:<30} {_fmt(m.value):>12} {m.unit:<9} n={m.n}")


def _print_pass(label: str, p) -> None:
    print(f"[{label}] attempted={p.attempted} failed={p.failed} "
          f"work_s={p.work_s:.4f}")
    for check in p.checks:
        print(f"  check: {check}")
    for note in p.notes:
        print(f"  note: {note}")
    if p.invalid:
        print(f"  INVALID: {p.invalid}")
    _print_metrics("end-to-end metrics:", p.report)
    if p.layers:
        _print_metrics("per-layer metrics:", p.layers)
    if p.counts:
        print("  exact counts: " + " ".join(
            f"{k}={v:.0f}" for k, v in sorted(p.counts.items())
        ))


def _finite(value: float, better: str) -> float:
    """JSON has no infinity or NaN: a metric lost to failures reads as
    the worst value, 0 where higher is better and huge where lower is."""
    if math.isfinite(value):
        return value
    return 0.0 if better == "higher" else 1e300


def run_one(workload: str, seed: int, seconds: float, trace: int,
            corrupt: bool = False) -> tuple[dict, list]:
    """Run and print the report; return the result object and the passes."""
    from measure import Metric, provenance, ratio

    spec = _spec()
    fn = _workloads()[workload]
    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} "
          f"trace={trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance().items()))
    untraced = fn(seed=seed, seconds=seconds, traced=False,
                  corrupt_reference=corrupt)
    _print_pass("untraced", untraced)
    passes = [untraced]
    if trace:
        traced = fn(seed=seed, seconds=seconds, traced=True,
                    corrupt_reference=corrupt)
        traced.layers.append(
            Metric(
                "trace.overhead_share",
                ratio(traced.work_s, untraced.work_s) - 1.0,
                "fraction",
                1,
            )
        )
        _print_pass("traced", traced)
        passes.append(traced)
        # A layer the workload bypasses has no spans or counts: it reads 0.
        by_name = {m.name: m.value for m in traced.layers}
        metrics = {
            m["name"]: {"value": _finite(by_name.get(m["name"], 0.0), m["better"]),
                        "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": _finite(untraced.e2e[m["name"]].value, m["better"]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    invalid = [p.invalid for p in passes if p.invalid]
    result = {
        "correct": failed == 0 and not invalid,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, passes


def self_check() -> int:
    """Every workload at a tiny size: every named metric is printed with
    its unit and sample count, every correctness check ran, and a
    corrupted reference answer makes the run fail."""
    problems = []
    spec = _spec()
    if [w["name"] for w in spec["workloads"]] != list(_workloads()):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for name in _workloads():
        result, passes = run_one(name, seed=1, seconds=1.0, trace=1)
        e2e_names, layer_names = NAMED[name]
        untraced, traced = passes
        for p in passes:
            if not p.checks or p.attempted < 1:
                problems.append(f"{name}: a correctness check did not run")
            if set(p.e2e) != {m["name"] for m in spec["end_to_end"]}:
                problems.append(f"{name}: result metrics differ from BENCHMARK.json")
        for want, got in ((e2e_names, untraced.report), (layer_names, traced.layers)):
            printed = {m.name for m in got if m.unit}
            for missing in sorted(set(want) - printed):
                problems.append(f"{name}: {missing} not printed")
        if list(result["metrics"]) != [m["name"] for m in spec["per_layer"]]:
            problems.append(f"{name}: per-layer metric set differs")
        if not result["correct"]:
            problems.append(f"{name}: run not correct")
        bad, _ = run_one(name, seed=1, seconds=1.0, trace=0, corrupt=True)
        if bad["correct"] or bad["failed"] < 1:
            problems.append(f"{name}: corrupted reference went unnoticed")
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)

    bad_env = [k for k in FORBIDDEN_ENV if os.environ.get(k)]
    if bad_env:
        print(f"perfbench: refusing to run with {', '.join(bad_env)} set "
              "(it changes the program under test)", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Set iteration order follows string hashes, and the engine's
        # work (worklist order, fixed-point iterations) follows set
        # order: with a random hash seed per process the same run does
        # measurably different work.  Servers and shard workers inherit
        # the variable.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.self_check:
        return self_check()
    if args.workload not in _workloads():
        parser.error(f"--workload must be one of {sorted(_workloads())}")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    result, _ = run_one(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
