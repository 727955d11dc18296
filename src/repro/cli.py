"""Command-line interface: analyse / simulate / plan / sweep scenarios.

The operator workflow without writing Python::

    python -m repro.cli analyze scenario.json          # bounds + verdict
    python -m repro.cli analyze scenario.json --strict # as-printed eqs
    python -m repro.cli simulate scenario.json -d 5.0  # run the simulator
    python -m repro.cli validate scenario.json         # bounds vs sim
    python -m repro.cli report scenario.json           # utilisation report
    python -m repro.cli plan scenario.json --min-speed # capacity planning

Scenario files are the JSON documents of :mod:`repro.io` — the legacy
``network``+``flows`` layout or the versioned scenario schema of
:mod:`repro.scenario.serialization`; every subcommand accepts both.

Campaigns (the :mod:`repro.scenario` subsystem) scale that workflow
from one file to whole scenario families::

    python -m repro.cli generate --list                 # family catalogue
    python -m repro.cli generate --family voip-star \\
        --param seed=3 -o star.json                     # write a scenario
    python -m repro.cli campaign --family random-line \\
        --grid seed=0..31 --jobs 4                      # parallel sweep
    python -m repro.cli campaign a.json b.json \\
        --actions analyze,simulate                      # file campaigns

``campaign`` fans the scenario grid across a multiprocessing pool; its
result rows (and the printed digest) are bit-identical for any
``--jobs`` value, so parallel sweeps stay reproducible.

Serving (the :mod:`repro.service` subsystem) turns the admission
controller into a network service::

    python -m repro.cli serve scenario.json --port 7420 --workers
    python -m repro.cli serve --restore state.json     # warm restart
    python -m repro.cli replay --family voip-star \\
        --requests 200 --arrival poisson --rate 200    # offline driver
    python -m repro.cli replay --family voip-star \\
        --requests 200 --connect 127.0.0.1:7420 \\
        --check-serial                                 # drive a live server

``replay`` builds a reproducible request stream from any scenario
family plus an arrival process (poisson / burst / recorded churn) and
drives either an in-process service or a live server;
``--check-serial`` feeds the stream one request at a time to a fresh
in-process :class:`~repro.core.admission.AdmissionController` and
verifies the decisions match request for request.

Observability (the :mod:`repro.telemetry` subsystem) closes the loop
from measured runs to regression gates::

    python -m repro.cli campaign --family voip-star \\
        --grid seed=0..7 --label pr6-baseline       # record a labelled run
    python -m repro.cli report --label pr6-baseline # rollup of that label
    python -m repro.cli report --diff pr6-baseline pr6-candidate
                                                    # regression gate
    python -m repro.cli replay --family voip-star \\
        --requests 200 --metrics-out metrics.json   # dump raw snapshots
    python -m repro.cli serve scenario.json --telemetry

``campaign --label`` appends a run record (KPIs + merged telemetry
snapshot) to ``TELEMETRY_runs.jsonl``; ``report --diff A B`` compares
two labels KPI by KPI and exits non-zero when a gating metric (cache
hit rates, admission rate, iteration counts — not wall-clock numbers)
moved the wrong way by more than ``--threshold``.  ``-v`` / ``-q``
raise or silence status logging for every subcommand.

Tracing and live monitoring (:mod:`repro.telemetry.tracing`)::

    python -m repro.cli serve scenario.json --trace \\
        --flight-dir flights/                       # traced server
    python -m repro.cli replay --family voip-star \\
        --requests 200 --connect 127.0.0.1:7420 \\
        --traced                                    # traced requests
    python -m repro.cli trace-export \\
        --connect 127.0.0.1:7420 -o trace.json      # Chrome trace JSON
    python -m repro.cli watch --connect 127.0.0.1:7420 \\
        --label prod --every 30                     # live stats polling
    python -m repro.cli watch --campaign voip-star \\
        --grid n_calls=4 --label nightly --every 3600
                                                    # standing scheduler

``trace-export`` renders the fleet's recent spans as Chrome
trace-event JSON (load in Perfetto); ``watch`` appends labelled run
records to the telemetry store — from a live server's ``stats`` /
``metrics`` verbs, or by re-running a registered scenario family on an
interval so ``report --diff`` gates drift over time.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from typing import Any, Sequence

from repro.core.context import AnalysisContext, AnalysisOptions
from repro.core.holistic import holistic_analysis
from repro.core.planning import minimum_link_speed_scale, scale_link_speeds
from repro.core.utilization import network_convergence_report
from repro.sim.config import SimConfig
from repro.util.tables import Table
from repro.util.units import fmt_duration, fmt_rate

log = logging.getLogger("repro.cli")


def _configure_logging(args) -> None:
    """One logging config for the whole CLI (``-v`` / ``-q``).

    Status chatter (``serve``/``replay``/``campaign`` progress) goes
    through :mod:`logging` at INFO; results (tables, digests, verdicts)
    stay on plain ``print``.  The default format is bare messages on
    stdout, so default-level output is byte-identical to the historic
    ad-hoc prints; ``-q`` silences the chatter, ``-v`` adds DEBUG
    detail.
    """
    if getattr(args, "quiet", False):
        level = logging.WARNING
    elif getattr(args, "verbose", False):
        level = logging.DEBUG
    else:
        level = logging.INFO
    logging.basicConfig(
        level=level,
        format="%(message)s",
        stream=sys.stdout,
        force=True,
    )


class _CliScenario:
    """A loaded scenario file plus which optional blocks it carried.

    Versioned files may embed ``analysis`` (:class:`AnalysisOptions`)
    and ``sim`` (:class:`SimConfig`) blocks; when present they become
    the base configuration of every subcommand, with CLI flags layered
    on top.  Legacy files keep the historic CLI defaults.
    """

    def __init__(self, path: str):
        import json as _json
        from pathlib import Path

        from repro.io import ScenarioError
        from repro.scenario import scenario_from_dict

        path = Path(path)
        try:
            doc = _json.loads(path.read_text())
        except _json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: expected a JSON object")
        self.scenario = scenario_from_dict(doc, default_name=path.stem)
        self.has_analysis = "analysis" in doc
        self.has_sim = "sim" in doc

    @property
    def network(self):
        return self.scenario.network

    @property
    def flows(self):
        return list(self.scenario.flows)

    def options(self, args) -> AnalysisOptions:
        """File-embedded options (if any) with CLI flags layered on."""
        from dataclasses import replace

        base = (
            self.scenario.options if self.has_analysis else AnalysisOptions()
        )
        return replace(
            base,
            strict_paper=base.strict_paper or getattr(args, "strict", False),
            use_jitter=base.use_jitter
            and not getattr(args, "no_jitter", False),
        )

    def sim_config(self, args, *, default_duration: float) -> SimConfig:
        """File-embedded sim config (if any) with CLI flags layered on."""
        from dataclasses import replace

        base = self.scenario.sim if self.has_sim else SimConfig()
        duration = getattr(args, "duration", None)
        if duration is None:
            duration = base.duration if self.has_sim else default_duration
        mode = getattr(args, "mode", None) or base.switch_mode
        return replace(base, duration=duration, switch_mode=mode)


def cmd_analyze(args) -> int:
    loaded = _CliScenario(args.scenario)
    network, flows = loaded.network, loaded.flows
    result = holistic_analysis(network, flows, loaded.options(args))
    table = Table(
        ["flow", "frame", "bound", "deadline", "slack", "ok"],
        title=f"holistic analysis of {args.scenario} "
        f"(converged={result.converged}, {result.iterations} iteration(s))",
    )
    for name in sorted(result.flow_results):
        for fr in result.result(name).frames:
            table.add_row(
                [
                    name,
                    fr.frame,
                    fmt_duration(fr.response),
                    fmt_duration(fr.deadline),
                    fmt_duration(fr.slack) if math.isfinite(fr.slack) else "-inf",
                    fr.schedulable,
                ]
            )
    print(table.render())
    verdict = "SCHEDULABLE" if result.schedulable else "NOT SCHEDULABLE"
    print(f"verdict: {verdict}")
    return 0 if result.schedulable else 1


def cmd_simulate(args) -> int:
    from repro.sim.simulator import simulate

    loaded = _CliScenario(args.scenario)
    network, flows = loaded.network, loaded.flows
    config = loaded.sim_config(args, default_duration=2.0)
    trace = simulate(network, flows, config=config)
    table = Table(
        ["flow", "packets", "worst response", "mean response"],
        title=(
            f"simulation of {args.scenario} "
            f"({config.duration:g}s, {config.switch_mode} mode, "
            f"{trace.events_processed} events)"
        ),
    )
    for name in trace.flows():
        table.add_row(
            [
                name,
                trace.count_completed(name),
                fmt_duration(trace.worst_response(name)),
                fmt_duration(trace.mean_response(name)),
            ]
        )
    print(table.render())
    incomplete = trace.count_incomplete()
    if incomplete:
        print(f"warning: {incomplete} packet(s) still in flight at the horizon")
    deadlines = {f.name: f.spec.deadlines for f in flows}
    misses = trace.deadline_misses(deadlines)
    print(f"deadline misses observed: {misses}")
    return 0 if misses == 0 else 1


def cmd_validate(args) -> int:
    from dataclasses import replace

    from repro.sim.simulator import simulate

    loaded = _CliScenario(args.scenario)
    network, flows = loaded.network, loaded.flows
    result = holistic_analysis(network, flows, loaded.options(args))
    if not result.converged:
        print("analysis did not converge; nothing to validate")
        return 1
    table = Table(
        ["flow", "frame", "bound", "sim worst", "tightness", "sound"],
        title=f"bound validation of {args.scenario}",
    )
    base_config = loaded.sim_config(args, default_duration=2.0)
    violations = 0
    for mode in ("event", "rotation"):
        trace = simulate(
            network,
            flows,
            config=replace(base_config, switch_mode=mode),
        )
        for f in flows:
            for k in range(f.spec.n_frames):
                observed = trace.worst_response(f.name, k)
                if observed == -math.inf:
                    continue
                bound = result.result(f.name).frame(k).response
                sound = observed <= bound + 1e-9
                if not sound:
                    violations += 1
                table.add_row(
                    [
                        f"{f.name} ({mode})",
                        k,
                        fmt_duration(bound),
                        fmt_duration(observed),
                        f"{observed / bound:.3f}" if bound > 0 else "n/a",
                        sound,
                    ]
                )
    print(table.render())
    print(f"violations: {violations}")
    return 0 if violations == 0 else 1


def _report_store(args) -> int:
    """Telemetry-store half of ``report``: rollups and label diffs."""
    from repro.telemetry.report import (
        DEFAULT_THRESHOLD,
        aggregate,
        diff,
        render_diff,
        render_rollup,
    )
    from repro.telemetry.store import StoreError, labels, load_runs

    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )

    def rollup(label: str):
        records = load_runs(args.store, label=label)
        if not records:
            known = ", ".join(labels(args.store)) or "<store is empty>"
            raise SystemExit(
                f"no runs labelled {label!r} in {args.store} "
                f"(known labels: {known})"
            )
        return aggregate(label, records)

    try:
        if args.diff:
            base_label, cand_label = args.diff
            result = diff(
                rollup(base_label), rollup(cand_label), threshold=threshold
            )
            print(render_diff(result))
            return 0 if result.ok else 1
        if args.label:
            print(render_rollup(rollup(args.label)))
            return 0
        # No label given: list what the store holds.
        table = Table(
            ["label", "runs"], title=f"telemetry store {args.store}"
        )
        counts: dict[str, int] = {}
        for record in load_runs(args.store):
            counts[record.label] = counts.get(record.label, 0) + 1
        for label in labels(args.store):
            table.add_row([label, counts[label]])
        print(table.render())
        return 0
    except StoreError as exc:
        raise SystemExit(str(exc))


def cmd_report(args) -> int:
    if args.store is None:
        from repro.telemetry.store import DEFAULT_STORE

        args.store = DEFAULT_STORE
    if args.diff or args.label or not args.scenario:
        if not args.scenario:
            from pathlib import Path

            if not (args.diff or args.label) and not Path(args.store).exists():
                raise SystemExit(
                    "report needs a scenario file (utilisation report) or "
                    "a telemetry store with --label/--diff "
                    f"(no {args.store} found)"
                )
        return _report_store(args)
    loaded = _CliScenario(args.scenario)
    network, flows = loaded.network, loaded.flows
    ctx = AnalysisContext(network, flows, loaded.options(args))
    report = network_convergence_report(ctx)
    table = Table(
        ["resource", "utilisation", "convergent"],
        title=f"resource utilisation of {args.scenario}",
    )
    for entry in sorted(report.entries, key=lambda e: -e.utilization):
        table.add_row(
            [
                "/".join(str(p) for p in entry.resource),
                f"{entry.utilization:.4f}",
                entry.convergent,
            ]
        )
    print(table.render())
    bottleneck = report.bottleneck()
    if bottleneck is not None:
        print(
            f"bottleneck: {'/'.join(str(p) for p in bottleneck.resource)} "
            f"at {bottleneck.utilization:.4f}"
        )
    return 0 if report.all_convergent else 1


def cmd_plan(args) -> int:
    loaded = _CliScenario(args.scenario)
    network, flows = loaded.network, loaded.flows
    scale = minimum_link_speed_scale(
        network, flows, options=loaded.options(args), tolerance=args.tolerance
    )
    if scale is None:
        print(
            "no link-speed scaling makes this flow set schedulable "
            "(a non-transmission stage or the source jitter already "
            "exceeds a deadline)"
        )
        return 1
    print(
        f"minimum uniform link-speed scale for schedulability: {scale:.4f}"
    )
    table = Table(["link", "current speed", "required speed"])
    for link in network.links():
        table.add_row(
            [
                f"{link.src}->{link.dst}",
                fmt_rate(link.speed_bps),
                fmt_rate(link.speed_bps * scale),
            ]
        )
    print(table.render())
    return 0


# ----------------------------------------------------------------------
# Campaigns (repro.scenario)
# ----------------------------------------------------------------------
def _parse_scalar(token: str) -> Any:
    """int | float | bool | str, in that order of preference."""
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    return token


def _parse_axis(text: str) -> tuple[str, Any]:
    """``key=v1,v2,...`` or ``key=lo..hi`` (inclusive int range)."""
    if "=" not in text:
        raise SystemExit(f"--grid/--param expects key=value, got {text!r}")
    key, _, raw = text.partition("=")
    values: list[Any] = []
    for token in raw.split(","):
        if not token:
            raise SystemExit(f"--grid/--param {text!r} has an empty value")
        if ".." in token and not token.startswith("."):
            lo, _, hi = token.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError:
                values.append(_parse_scalar(token))
                continue
            if hi_i < lo_i:
                raise SystemExit(
                    f"--grid/--param range {token!r} is empty (lo > hi)"
                )
            values.extend(range(lo_i, hi_i + 1))
            continue
        values.append(_parse_scalar(token))
    if not values:
        raise SystemExit(f"--grid/--param {text!r} has no values")
    return key.strip(), values if len(values) > 1 else values[0]


def _campaign_ok(action: str, payload: dict) -> bool:
    if action == "analyze":
        return bool(payload.get("schedulable"))
    if action == "simulate":
        return payload.get("deadline_misses") == 0
    if action == "validate":
        return bool(payload.get("converged")) and all(
            r["sim_worst"] <= r["bound"] + 1e-12 for r in payload["rows"]
        )
    if action == "admit":
        return payload.get("accepted") == payload.get("offered")
    return True


def _campaign_detail(action: str, payload: dict) -> str:
    if action == "analyze":
        worst = max(
            (f["worst_response"] for f in payload["flows"].values()),
            default=math.nan,
        )
        return (
            f"converged={payload['converged']}, "
            f"worst={fmt_duration(worst)}"
        )
    if action == "simulate":
        return (
            f"{payload['deadline_misses']} misses, "
            f"{payload['events']} events"
        )
    if action == "validate":
        ratios = [
            r["sim_worst"] / r["bound"]
            for r in payload["rows"]
            if r["bound"] > 0
        ]
        worst = max(ratios) if ratios else math.nan
        return (
            f"{len(payload['rows'])} comparisons, "
            f"max sim/bound={worst:.3f}"
        )
    if action == "admit":
        return f"{payload['accepted']}/{payload['offered']} admitted"
    return ""


def _record_campaign_run(args, units, actions, results, digest) -> None:
    """Append one labelled RunRecord for this campaign to the store."""
    from datetime import datetime, timezone

    from repro import telemetry as _telemetry
    from repro.telemetry.store import RunRecord, append_run, git_revision

    reg = _telemetry.REGISTRY
    snapshot = reg.snapshot() if reg is not None else None
    ok_rows = sum(
        1 for row in results if _campaign_ok(row.action, row.payload)
    )
    metrics = {
        "campaign.scenarios": float(len(units)),
        "campaign.rows": float(len(results)),
        "campaign.ok_rows": float(ok_rows),
        "campaign.elapsed_s": sum(row.elapsed_s for row in results),
    }
    scenario = args.family or ",".join(args.scenarios or []) or None
    record = RunRecord(
        label=args.label,
        kind="campaign",
        scenario=scenario,
        git=git_revision(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        metrics=metrics,
        telemetry=snapshot,
        meta={
            "actions": list(actions),
            "jobs": args.jobs,
            "digest": digest,
        },
    )
    append_run(args.store, record)
    log.info(
        "recorded run %r (%d row(s)) to %s", args.label, len(results),
        args.store,
    )


def cmd_campaign(args) -> int:
    from repro import telemetry as _telemetry
    from repro.scenario import (
        CampaignRunner,
        campaign_digest,
        load_scenario_file,
        scenario_grid,
    )

    if args.label and _telemetry.REGISTRY is None:
        # A labelled run is a measured run: collect telemetry for the
        # stored record (workers inherit per-action capture semantics).
        _telemetry.enable()
        log.debug("telemetry enabled for labelled campaign %r", args.label)

    actions = tuple(a.strip() for a in args.actions.split(",") if a.strip())
    if args.family and args.scenarios:
        raise SystemExit(
            "campaign takes scenario files OR --family, not both "
            "(run two campaigns instead)"
        )
    if args.family:
        axes = dict(_parse_axis(g) for g in args.grid or [])
        units: list = scenario_grid(args.family, **axes)
    elif args.scenarios:
        units = [load_scenario_file(p) for p in args.scenarios]
    else:
        raise SystemExit(
            "campaign needs scenario files or --family (with --grid axes)"
        )
    runner = CampaignRunner(jobs=args.jobs, actions=actions)
    results = runner.run(units)

    columns = ["scenario", "action", "ok", "detail"]
    if args.timing:
        columns.append("time (s)")
    table = Table(
        columns,
        title=(
            f"campaign: {len(units)} scenario(s) x {len(actions)} "
            f"action(s), jobs={args.jobs}"
        ),
    )
    all_ok = True
    for row in results:
        ok = _campaign_ok(row.action, row.payload)
        all_ok = all_ok and ok
        cells = [
            row.scenario,
            row.action,
            ok,
            _campaign_detail(row.action, row.payload),
        ]
        if args.timing:
            cells.append(f"{row.elapsed_s:.3f}")
        table.add_row(cells)
    print(table.render())
    digest = campaign_digest(results)
    print(f"campaign digest: {digest}")
    if args.label:
        _record_campaign_run(args, units, actions, results, digest)
    return 0 if all_ok else 1


def cmd_generate(args) -> int:
    from repro.scenario import (
        REGISTRY,
        save_scenario_file,
        scenario_to_dict,
    )

    if args.list:
        table = Table(["family", "summary"], title="scenario families")
        for name in REGISTRY.names():
            doc = (REGISTRY.get(name).__doc__ or "").strip()
            table.add_row([name, doc.splitlines()[0] if doc else ""])
        print(table.render())
        return 0
    if not args.family:
        raise SystemExit("generate needs --family (or --list)")
    params = dict(_parse_axis(p) for p in args.param or [])
    for key, value in params.items():
        if isinstance(value, list):
            raise SystemExit(
                f"generate takes one value per --param (got {key}={value}); "
                "use 'campaign --grid' for sweeps"
            )
    scenario = REGISTRY.build(args.family, **params)
    if args.output:
        save_scenario_file(args.output, scenario)
        print(f"wrote {scenario.describe()} to {args.output}")
    else:
        import json

        print(json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# Serving (repro.service)
# ----------------------------------------------------------------------
def cmd_serve(args) -> int:
    import os

    from repro import telemetry as _telemetry
    from repro.service import (
        FaultError,
        FaultPlan,
        Request,
        ShardedAdmissionService,
        load_service_state,
        run_server,
    )
    from repro.telemetry import tracing as _tracing

    try:
        fault_plan = FaultPlan.parse(
            args.faults or os.environ.get("REPRO_FAULTS")
        )
    except FaultError as exc:
        raise SystemExit(f"--faults: {exc}")
    if (
        fault_plan is not None
        and fault_plan.worker_faults()
        and not args.workers
    ):
        raise SystemExit(
            "worker faults (kill/hang/slow_batch) need --workers"
        )
    if args.replicas and not args.workers:
        raise SystemExit("--replicas needs --workers (standbys are worker "
                         "processes)")
    if args.replicas and args.no_supervise:
        raise SystemExit("--replicas needs supervision (drop --no-supervise)")
    if (
        fault_plan is not None
        and fault_plan.replication_faults()
        and not args.replicas
    ):
        raise SystemExit(
            "replication faults (kill_standby/drop_journal/"
            "kill:during=promotion) need --replicas 1"
        )
    if (args.telemetry or args.trace) and _telemetry.REGISTRY is None:
        # Enable before the service spawns shard workers so they fork
        # with collection on and answer the ``metrics`` verb.
        _telemetry.enable()
        log.debug("telemetry collection enabled")
    if args.trace and _tracing.TRACER is None:
        # Likewise before worker spawn: shard workers check the parent's
        # tracer at fork time to install their own per-process rings.
        _tracing.enable_tracing(proc="server")
        log.debug("request tracing enabled")
    flight_dir = args.flight_dir or os.environ.get("REPRO_FLIGHT_DIR")
    if args.scenario and args.restore:
        raise SystemExit(
            "serve takes a scenario file OR --restore, not both"
        )
    if args.workers and args.no_workers:
        raise SystemExit("--workers and --no-workers are mutually exclusive")
    if args.shards != 1:
        log.warning(
            "--shards %d ignored: each server runs one engine "
            "(multi-shard serving was removed)",
            args.shards,
        )
    if args.restore and args.admit_base:
        raise SystemExit(
            "--admit-base has no effect with --restore "
            "(the admitted set comes from the snapshot)"
        )
    if not args.scenario and not args.restore:
        raise SystemExit(
            "serve needs a scenario file (topology + options) or "
            "--restore with a service-state snapshot"
        )
    resilience = dict(
        supervise=not args.no_supervise,
        max_restarts=args.max_restarts,
        journal_limit=args.journal_limit,
        fault_plan=fault_plan,
        flight_dir=flight_dir,
    )
    if args.replicas:
        # Only pass when explicitly requested: a restore otherwise keeps
        # the snapshot's own replication knob.
        resilience["replicas"] = args.replicas
    if args.restore:
        # Tri-state: --workers forces processes, --no-workers forces
        # inline, neither keeps the snapshot's backend choice.
        workers = (
            True if args.workers else False if args.no_workers else None
        )
        try:
            service = load_service_state(
                args.restore, workers=workers, **resilience
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        log.info(
            "restored %d admitted flow(s) from %s",
            service.stats()["admitted"], args.restore,
        )
    else:
        loaded = _CliScenario(args.scenario)
        try:
            service = ShardedAdmissionService(
                loaded.network,
                options=loaded.scenario.options,
                workers=args.workers,
                **resilience,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if args.admit_base and loaded.flows:
            payloads = service.process_batch(
                [Request(op="admit", flow=f) for f in loaded.flows]
            )
            ok = sum(1 for p in payloads if p.get("accepted"))
            log.info("pre-admitted %d/%d base flow(s)", ok, len(payloads))
    log.info(
        "admission service: workers=%s, supervise=%s, replicas=%d",
        service.workers, service.supervise, service.replicas,
    )
    if fault_plan is not None:
        log.info(
            "fault injection active: %d fault(s), seed=%d",
            len(fault_plan.faults), fault_plan.seed,
        )
    # run_server owns the shutdown: it closes the service on exit.
    run_server(
        service,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        batch_window_s=args.batch_window,
        snapshot_dir=args.snapshot_dir,
        max_queue=args.max_queue,
        fault_plan=fault_plan,
    )
    return 0


def cmd_replay(args) -> int:
    from repro import telemetry as _telemetry
    from repro.scenario import REGISTRY
    from repro.service import (
        ShardedAdmissionService,
        load_trace,
        replay_serial,
        replay_service,
        replay_tcp,
        save_trace,
        trace_from_scenario,
    )

    if args.metrics_out and not args.connect and _telemetry.REGISTRY is None:
        # Local replay: collection must be on before the service forks
        # its worker, or there is nothing to dump.
        _telemetry.enable()
        log.debug("telemetry collection enabled for --metrics-out")
    if args.traced and not args.connect:
        # Local replay: the replay driver mints trace ids only when a
        # tracer is installed, and workers check it at fork time.
        from repro.telemetry import tracing as _tracing

        if _tracing.TRACER is None:
            _tracing.enable_tracing(proc="replay")
        log.debug("request tracing enabled for local replay")

    scenario = None
    if args.scenario and args.family:
        raise SystemExit("replay takes --scenario OR --family, not both")
    if args.scenario:
        scenario = _CliScenario(args.scenario).scenario
    elif args.family:
        params = dict(_parse_axis(p) for p in args.param or [])
        for key, value in params.items():
            if isinstance(value, list):
                raise SystemExit(
                    f"replay takes one value per --param (got {key}={value})"
                )
        scenario = REGISTRY.build(args.family, **params)

    if args.from_trace:
        trace = load_trace(args.from_trace)
    elif scenario is not None:
        trace = trace_from_scenario(
            scenario,
            n_requests=args.requests,
            arrival=args.arrival,
            rate=args.rate,
            burst_size=args.burst_size,
            burst_gap=args.burst_gap,
            hold=args.hold,
            seed=args.seed,
        )
    else:
        raise SystemExit(
            "replay needs a workload: --family/--scenario or --from-trace"
        )
    if args.trace_out:
        save_trace(args.trace_out, trace)
        log.info(
            "wrote %d-request log to %s", trace.n_requests, args.trace_out
        )

    metrics_doc = None
    if args.connect:
        if args.workers:
            raise SystemExit(
                "--workers configures the local service and has no effect "
                "with --connect (the live server's configuration applies)"
            )
        host, port = _parse_connect(args.connect)
        retry = None
        if args.retries > 0:
            from repro.service import RetryPolicy

            retry = RetryPolicy(
                attempts=args.retries,
                base_s=args.retry_base,
                seed=args.seed,
            )
        summary = replay_tcp(
            host,
            port,
            trace,
            window=args.batch,
            retry=retry,
            request_timeout=args.timeout,
            trace_requests=args.traced,
        )
        if args.metrics_out:
            from repro.service import fetch_metrics_tcp

            metrics_doc = fetch_metrics_tcp(host, port)
        target = f"server {args.connect}"
    else:
        if args.retries or args.timeout:
            raise SystemExit(
                "--retries/--timeout are wire-level client options and "
                "need --connect (a local in-process replay cannot lose "
                "responses)"
            )
        if scenario is None:
            raise SystemExit(
                "local replay needs --family/--scenario for the topology "
                "(or use --connect to drive a live server)"
            )
        service = ShardedAdmissionService(
            scenario.network,
            options=scenario.options,
            workers=args.workers,
        )
        try:
            summary = replay_service(service, trace, batch=args.batch)
            if args.metrics_out:
                metrics_doc = service.metrics()
        finally:
            service.close()
        target = "local service"

    if args.metrics_out:
        import json as _json

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            _json.dump(metrics_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        log.info("wrote telemetry snapshots to %s", args.metrics_out)

    table = Table(["metric", "value"], title=f"replay of {trace.name} -> {target}")
    table.add_row(["requests", summary.n_requests])
    table.add_row(["offered", summary.offered])
    table.add_row(["accepted", summary.accepted])
    table.add_row(["rejected", summary.rejected])
    table.add_row(["released", summary.released])
    table.add_row(["errors", summary.errors])
    if summary.retries or args.retries:
        table.add_row(["retries", summary.retries])
    table.add_row(["accept rate", f"{summary.accept_rate:.3f}"])
    table.add_row(["throughput", f"{summary.requests_per_s:.1f} req/s"])
    print(table.render())

    if args.check_serial:
        if scenario is None:
            raise SystemExit("--check-serial needs --family/--scenario")
        serial = replay_serial(scenario.network, trace, scenario.options)
        if serial.admit_decisions == summary.admit_decisions:
            print(
                f"serial parity: OK ({summary.offered} decisions identical "
                "to a fresh in-process engine's)"
            )
        else:
            diverged = sum(
                1
                for a, b in zip(serial.admit_decisions, summary.admit_decisions)
                if a != b
            )
            print(
                f"serial parity: MISMATCH ({diverged} of "
                f"{len(serial.admit_decisions)} decisions differ)"
            )
            return 1
    return 0


def _parse_connect(text: str) -> tuple[str, int]:
    """Split a ``HOST:PORT`` target (SystemExit on malformed input)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect expects HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_trace_export(args) -> int:
    import json as _json

    from repro.telemetry import tracing as _tracing

    if bool(args.connect) == bool(args.from_file):
        raise SystemExit(
            "trace-export needs --connect HOST:PORT or --from FILE "
            "(exactly one)"
        )
    if args.connect:
        from repro.service import fetch_metrics_tcp

        host, port = _parse_connect(args.connect)
        doc = fetch_metrics_tcp(host, port)
        source = f"server {args.connect}"
    else:
        with open(args.from_file, encoding="utf-8") as fh:
            doc = _json.load(fh)
        source = args.from_file
    spans = doc.get("trace_spans")
    if not isinstance(spans, list) or not spans:
        raise SystemExit(
            f"no trace spans in {source} — was the server started with "
            "--trace (and traced requests sent, e.g. 'replay --traced')?"
        )
    chrome = _tracing.to_chrome_trace(spans)
    _tracing.validate_chrome_trace(chrome)
    with open(args.output, "w", encoding="utf-8") as fh:
        _json.dump(chrome, fh, indent=2, sort_keys=True)
        fh.write("\n")
    tracks = {
        (ev.get("pid"), ev.get("tid"))
        for ev in chrome["traceEvents"]
        if ev.get("ph") == "X"
    }
    print(
        f"wrote {len(spans)} span(s) on {len(tracks)} track(s) from "
        f"{source} to {args.output} (open in Perfetto or chrome://tracing)"
    )
    return 0


def _watch_record(
    label: str,
    *,
    stats: dict | None,
    metrics: dict | None,
    tick: int,
    scenario: str | None = None,
):
    """Build one ``watch`` RunRecord from polled stats/metrics.

    Pure: a single immutable record from one poll's documents, so the
    subsequent :func:`append_run` is the only write — a watch tick can
    never leave a torn record behind a crash mid-poll.  Only scalar
    stats become metrics (``service.*``); the server's merged telemetry
    snapshot rides along verbatim for ``report --label`` rollups.
    """
    from datetime import datetime, timezone

    from repro.telemetry.store import RunRecord, git_revision

    doc = {
        f"service.{key}": float(value)
        for key, value in (stats or {}).items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    doc["watch.tick"] = float(tick)
    telemetry = (metrics or {}).get("merged")
    return RunRecord(
        label=label,
        kind="watch",
        scenario=scenario,
        git=git_revision(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        metrics=doc,
        telemetry=telemetry,
        meta={"tick": tick},
    )


def _watch_tick_connect(args, tick: int):
    from repro.service import fetch_metrics_tcp, fetch_stats_tcp

    host, port = _parse_connect(args.connect)
    stats = fetch_stats_tcp(host, port)
    metrics = fetch_metrics_tcp(host, port)
    return _watch_record(
        args.label,
        stats=stats,
        metrics=metrics,
        tick=tick,
        scenario=args.connect,
    )


def _watch_tick_campaign(args, tick: int):
    """Re-run a registered family grid, telemetry captured per tick."""
    from datetime import datetime, timezone

    from repro import telemetry as _telemetry
    from repro.scenario import CampaignRunner, campaign_digest, scenario_grid
    from repro.telemetry.store import RunRecord, git_revision

    actions = tuple(a.strip() for a in args.actions.split(",") if a.strip())
    axes = dict(_parse_axis(g) for g in args.grid or [])
    units = scenario_grid(args.campaign, **axes)
    with _telemetry.capture() as reg:
        runner = CampaignRunner(jobs=args.jobs, actions=actions)
        results = runner.run(units)
    ok_rows = sum(1 for row in results if _campaign_ok(row.action, row.payload))
    metrics = {
        "campaign.scenarios": float(len(units)),
        "campaign.rows": float(len(results)),
        "campaign.ok_rows": float(ok_rows),
        "campaign.elapsed_s": sum(row.elapsed_s for row in results),
        "watch.tick": float(tick),
    }
    return RunRecord(
        label=args.label,
        kind="watch",
        scenario=args.campaign,
        git=git_revision(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        metrics=metrics,
        telemetry=reg.snapshot(),
        meta={
            "actions": list(actions),
            "digest": campaign_digest(results),
            "tick": tick,
        },
    )


def cmd_watch(args) -> int:
    import time as _time

    from repro.telemetry.store import append_run

    if bool(args.connect) == bool(args.campaign):
        raise SystemExit(
            "watch needs --connect HOST:PORT or --campaign FAMILY "
            "(exactly one)"
        )
    if args.every <= 0:
        raise SystemExit("--every must be a positive interval in seconds")
    if args.count < 0:
        raise SystemExit("--count must be >= 0 (0 = poll until interrupted)")

    ticks = 0
    try:
        while True:
            if args.connect:
                record = _watch_tick_connect(args, ticks)
            else:
                record = _watch_tick_campaign(args, ticks)
            append_run(args.store, record)
            ticks += 1
            log.info(
                "watch tick %d recorded to %s under %r",
                ticks, args.store, args.label,
            )
            if args.count and ticks >= args.count:
                break
            _time.sleep(args.every)
    except KeyboardInterrupt:
        log.info("watch interrupted after %d tick(s)", ticks)
    print(
        f"watch: {ticks} tick(s) under label {args.label!r} in {args.store} "
        f"(roll up with 'report --label {args.label}')"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GMF schedulability analysis for multihop software-"
        "switched Ethernet (Andersson, IPPS 2008)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug-level status logging",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress status logging (results still print)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario JSON file (see repro.io)")
        p.add_argument(
            "--strict",
            action="store_true",
            help="use the paper's equations exactly as printed",
        )
        p.add_argument(
            "--no-jitter",
            action="store_true",
            help="ignore generalized jitter (ablation)",
        )

    p = sub.add_parser("analyze", help="compute end-to-end bounds")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="run the discrete-event simulator")
    p.add_argument("scenario")
    p.add_argument(
        "-d", "--duration", type=float, default=None,
        help="horizon in seconds (default: the file's sim block, else 2.0)",
    )
    p.add_argument(
        "--mode", choices=("event", "rotation"), default=None,
        help="switch execution model (default: the file's sim block, "
        "else event)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="check bounds against simulation")
    common(p)
    p.add_argument(
        "-d", "--duration", type=float, default=None,
        help="horizon in seconds (default: the file's sim block, else 2.0)",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "report",
        help="utilisation report (scenario file) or telemetry "
        "rollups/diffs (--label / --diff)",
    )
    p.add_argument(
        "scenario",
        nargs="?",
        help="scenario JSON file for the utilisation report "
        "(omit to query the telemetry store)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="use the paper's equations exactly as printed",
    )
    p.add_argument(
        "--no-jitter",
        action="store_true",
        help="ignore generalized jitter (ablation)",
    )
    p.add_argument(
        "--store",
        default=None,
        help="telemetry run store (default TELEMETRY_runs.jsonl)",
    )
    p.add_argument(
        "--label", help="roll up every stored run under this label"
    )
    p.add_argument(
        "--diff",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        help="compare two labels; exits non-zero on flagged regressions",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative change before a gating metric flags (default 0.05)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "plan", help="minimum link-speed scaling for schedulability"
    )
    common(p)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "campaign",
        help="run scenario files or a parametric family grid in parallel",
    )
    p.add_argument(
        "scenarios", nargs="*", help="scenario JSON files (legacy or v1)"
    )
    p.add_argument(
        "--family", help="registered scenario family (see 'generate --list')"
    )
    p.add_argument(
        "--grid",
        action="append",
        metavar="KEY=V1,V2|LO..HI",
        help="family parameter axis; repeatable, swept values build the "
        "cartesian grid (e.g. --grid seed=0..31 --grid utilization=0.3,0.6)",
    )
    p.add_argument(
        "--actions",
        default="analyze",
        help="comma-separated: analyze,simulate,simulate-batched,"
        "validate,admit (default analyze; simulate-batched reuses one "
        "built simulator topology across same-network grid points)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical for any value)",
    )
    p.add_argument(
        "--timing",
        action="store_true",
        help="include per-action wall time (varies run to run)",
    )
    p.add_argument(
        "--label",
        help="record this run (with its telemetry snapshot) to the "
        "run store under LABEL; enables telemetry collection",
    )
    p.add_argument(
        "--store",
        default="TELEMETRY_runs.jsonl",
        help="telemetry run store to append to (with --label)",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "generate", help="build a scenario from a registered family"
    )
    p.add_argument("--family", help="scenario family name")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="family parameter; repeatable",
    )
    p.add_argument("-o", "--output", help="write the scenario JSON here")
    p.add_argument(
        "--list", action="store_true", help="list registered families"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "serve", help="run the admission service over TCP"
    )
    p.add_argument(
        "scenario",
        nargs="?",
        help="scenario JSON supplying topology + analysis options",
    )
    p.add_argument(
        "--restore", help="boot from a service-state snapshot instead"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=7420, help="TCP port (0 = ephemeral)"
    )
    # Legacy: accepted and ignored (warns when N != 1).
    p.add_argument("--shards", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument(
        "--workers",
        action="store_true",
        help="run the engine in a supervised worker process",
    )
    p.add_argument(
        "--no-workers",
        action="store_true",
        help="with --restore: run the engine inline even if the snapshot "
        "was taken from a worker-backed service",
    )
    p.add_argument(
        "--admit-base",
        action="store_true",
        help="offer the scenario's base flows before serving",
    )
    p.add_argument(
        "--batch-max", type=int, default=64, help="micro-batch size cap"
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        help="coalescing pause in seconds before dispatching a batch",
    )
    p.add_argument(
        "--snapshot-dir",
        help="directory client snapshot requests may write into "
        "(default: file snapshots over the wire are refused)",
    )
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="collect telemetry; clients read it via the 'metrics' verb "
        "and versioned 'stats' responses",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record per-request spans (server + worker) into "
        "bounded ring buffers; export with 'trace-export'; implies "
        "--telemetry",
    )
    p.add_argument(
        "--flight-dir",
        metavar="DIR",
        help="write flight-recorder post-mortems (recent spans + registry "
        "+ journal position) here on worker death or degradation "
        "(falls back to the REPRO_FLIGHT_DIR environment variable)",
    )
    p.add_argument(
        "--faults",
        metavar="PLAN",
        help="deterministic fault plan, e.g. "
        "'kill:shard=0,at=40;drop_conn:at=120;seed=7' "
        "(falls back to the REPRO_FAULTS environment variable)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=0,
        choices=(0, 1),
        help="warm standby workers (needs --workers): a dying "
        "primary is promoted over from the journal-fed standby instead "
        "of cold-restarted (default 0)",
    )
    p.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable worker supervision: a dead worker degrades "
        "permanently instead of being respawned and state-restored",
    )
    p.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="supervisor restart budget (default 5)",
    )
    p.add_argument(
        "--journal-limit",
        type=int,
        default=256,
        help="recovery-journal length that triggers compaction into a "
        "fresh baseline snapshot (default 256)",
    )
    p.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="shed requests with 'overloaded' + retry_after once the "
        "dispatch queue reaches this depth (0 = unbounded)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "replay",
        help="drive the service (or a live server) with a request stream",
    )
    p.add_argument("--scenario", help="scenario JSON file as the workload")
    p.add_argument("--family", help="registered scenario family")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="family parameter; repeatable",
    )
    p.add_argument(
        "--requests", type=int, default=200, help="trace length (default 200)"
    )
    p.add_argument(
        "--arrival",
        choices=("poisson", "burst", "recorded"),
        default="poisson",
    )
    p.add_argument("--rate", type=float, default=100.0, help="req/s (poisson)")
    p.add_argument("--burst-size", type=int, default=16)
    p.add_argument("--burst-gap", type=float, default=0.05)
    p.add_argument(
        "--hold",
        type=int,
        default=8,
        help="live flows held before the oldest is released",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--workers",
        action="store_true",
        help="run the local service's engine in a worker process",
    )
    p.add_argument(
        "--batch", type=int, default=16, help="micro-batch / pipeline window"
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drive a live server instead of an in-process service",
    )
    p.add_argument(
        "--trace-out", help="also save the request log (JSON lines)"
    )
    p.add_argument(
        "--from-trace", help="replay a saved request log instead of generating"
    )
    p.add_argument(
        "--check-serial",
        action="store_true",
        help="verify decisions against a fresh in-process engine fed one "
        "request at a time",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="dump the service's telemetry snapshots to FILE as JSON "
        "(local replays enable collection; --connect asks the server)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="with --connect: retry budget per pipeline window — "
        "reconnect on connection loss, re-send retryable errors, "
        "idempotency keys on admits/releases (0 = fail fast)",
    )
    p.add_argument(
        "--retry-base",
        type=float,
        default=0.05,
        help="base backoff delay in seconds (exponential, "
        "deterministically jittered by --seed)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        help="with --connect: per-response read timeout in seconds "
        "(a stall counts as a retryable connection loss)",
    )
    p.add_argument(
        "--traced",
        action="store_true",
        help="attach a trace id to every request so server/worker spans "
        "correlate per request (local replays install a tracer; "
        "--connect needs the server started with --trace)",
    )
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "trace-export",
        help="export recent spans as Chrome trace-event JSON (Perfetto)",
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drain spans from a live server's 'metrics' verb",
    )
    p.add_argument(
        "--from",
        dest="from_file",
        metavar="FILE",
        help="read a saved metrics JSON dump (replay --metrics-out) "
        "instead of a live server",
    )
    p.add_argument(
        "-o",
        "--output",
        default="trace.json",
        help="Chrome trace JSON destination (default trace.json)",
    )
    p.set_defaults(func=cmd_trace_export)

    p = sub.add_parser(
        "watch",
        help="poll a live server (or re-run a scenario family) on an "
        "interval, appending labelled run records to the store",
    )
    p.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="poll this server's 'stats' + 'metrics' verbs each tick",
    )
    p.add_argument(
        "--campaign",
        metavar="FAMILY",
        help="scheduler mode: re-run this registered scenario family "
        "each tick (telemetry captured per tick)",
    )
    p.add_argument(
        "--grid",
        action="append",
        metavar="KEY=V1,V2|LO..HI",
        help="with --campaign: family parameter axis (repeatable)",
    )
    p.add_argument(
        "--actions",
        default="analyze",
        help="with --campaign: comma-separated actions (default analyze)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="with --campaign: worker processes per tick",
    )
    p.add_argument(
        "--every",
        type=float,
        default=10.0,
        help="seconds between ticks (default 10)",
    )
    p.add_argument(
        "--count",
        type=int,
        default=0,
        help="stop after this many ticks (default 0 = until interrupted)",
    )
    p.add_argument(
        "--label",
        required=True,
        help="store records under this label ('report --diff' gates "
        "drift between two labels)",
    )
    p.add_argument(
        "--store",
        default="TELEMETRY_runs.jsonl",
        help="telemetry run store to append to",
    )
    p.set_defaults(func=cmd_watch)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
