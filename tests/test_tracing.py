"""Request tracing, the flight recorder, and live watch records.

The contracts under test, in dependency order:

* **Tracer semantics** — bounded ring, id minting, stack-based
  parenting, explicit wire contexts winning over the stack, and an
  ``__exit__`` that never raises even over an unbalanced stack.
* **Zero overhead when disabled** — mirrors the registry contract: the
  module helpers must not allocate while ``TRACER`` is ``None``.
* **Wire propagation** — the additive protocol ``trace`` field, the
  server's echo, and worker processes recording spans under the
  client's trace id, including on a *respawned* incarnation after a
  supervised kill (the ISSUE-9 acceptance bar).
* **Chrome export** — ``to_chrome_trace`` output loads as trace-event
  JSON with one track per (process, incarnation).
* **Monotone merged telemetry + untorn watch records** — polling
  ``metrics`` over TCP while a fault plan kills workers never shows a
  counter regressing, and every polled ``watch`` RunRecord survives a
  store round-trip intact.
"""

import asyncio
import gc
import json
import sys

import pytest

from repro import telemetry
from repro.cli import _watch_record, main
from repro.service import (
    AdmissionServer,
    FaultPlan,
    ProtocolError,
    Request,
    ShardedAdmissionService,
    encode_line,
    replay_service,
    request_from_dict,
    request_to_dict,
    trace_from_scenario,
)
from repro.telemetry import tracing
from repro.telemetry.store import load_runs
from repro.telemetry.tracing import (
    DEFAULT_CAPACITY,
    FLIGHT_VERSION,
    NULL_SPAN,
    Tracer,
    load_flight_record,
    to_chrome_trace,
    validate_chrome_trace,
    write_flight_record,
)
from test_service import call_flow, two_star_scenario


@pytest.fixture(autouse=True)
def _tracing_disabled_by_default():
    """Tests manage activation explicitly; never leak tracer/registry."""
    tr_before, reg_before = tracing.TRACER, telemetry.REGISTRY
    yield
    tracing.TRACER = tr_before
    telemetry.REGISTRY = reg_before


def _two_star_service(**kwargs):
    sc = two_star_scenario()
    svc = ShardedAdmissionService(sc.network, workers=True, **kwargs)
    return sc, svc


# ----------------------------------------------------------------------
# Tracer unit semantics
# ----------------------------------------------------------------------
class TestTracer:
    def test_ring_is_bounded_and_counts_drops(self):
        tr = Tracer(capacity=4)
        for i in range(10):
            tr.record(name=f"s{i}", trace="t", ts=float(i), dur=0.001)
        assert len(tr.spans) == 4
        assert tr.dropped == 6
        assert [s["name"] for s in tr.snapshot()] == ["s6", "s7", "s8", "s9"]

    def test_nested_spans_share_trace_and_parent(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner") as inner:
                assert inner._trace == outer._trace
                assert inner._parent == outer._span
        outer_rec, = [s for s in tr.snapshot() if s["name"] == "outer"]
        inner_rec, = [s for s in tr.snapshot() if s["name"] == "inner"]
        assert inner_rec["trace"] == outer_rec["trace"]
        assert inner_rec["parent"] == outer_rec["span"]
        assert "parent" not in outer_rec  # fresh root

    def test_explicit_wire_context_wins_over_stack(self):
        tr = Tracer()
        with tr.span("ambient"):
            with tr.span("wired", trace={"id": "t-wire", "span": "s-up"}):
                pass
        rec, = [s for s in tr.snapshot() if s["name"] == "wired"]
        assert rec["trace"] == "t-wire"
        assert rec["parent"] == "s-up"

    def test_current_context_and_annotate(self):
        tr = Tracer()
        assert tr.current_context() is None
        with tr.span("work") as span:
            assert tr.current_context() == span.context
            tr.annotate("fp.solves")
            tr.annotate("fp.solves", 2.0)
        rec, = tr.snapshot()
        assert rec["tags"] == {"fp.solves": 3.0}
        tr.annotate("ghost")  # no open span: must be a silent no-op

    def test_exit_records_error_tag_and_never_raises(self):
        tr = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tr.span("fail"):
                raise RuntimeError("boom")
        rec, = tr.snapshot()
        assert rec["tags"]["error"] == 1.0
        assert tr._stack == []

    def test_exit_survives_unbalanced_stack(self):
        tr = Tracer()
        with tr.span("outer"):
            tr._stack.clear()  # simulate a harness disturbing the stack
        assert [s["name"] for s in tr.snapshot()] == ["outer"]
        assert tr._stack == []

    def test_ids_embed_pid_and_never_repeat(self):
        tr = Tracer()
        minted = {tr.mint_trace() for _ in range(100)}
        minted |= {tr.mint_span() for _ in range(100)}
        assert len(minted) == 200

    def test_drain_empties_extend_refills(self):
        worker = Tracer(proc="shard0")
        worker.record(name="shard.request", trace="t1", ts=1.0, dur=0.01)
        shipped = worker.drain()
        assert worker.snapshot() == []
        parent = Tracer(proc="server")
        parent.extend(shipped)
        rec, = parent.snapshot()
        assert rec["proc"] == "shard0"  # provenance survives the merge

    def test_enable_is_idempotent_and_disable_returns_tracer(self):
        assert not tracing.tracing_enabled()
        tr = tracing.enable_tracing(proc="test")
        assert tracing.enable_tracing() is tr
        assert tracing.disable_tracing() is tr
        assert tracing.TRACER is None

    def test_module_helpers_noop_when_disabled(self):
        tracing.TRACER = None
        assert tracing.span("x") is NULL_SPAN
        assert tracing.span("x") is tracing.span("y")
        assert tracing.current_context() is None
        tracing.annotate("k")  # must not raise
        with NULL_SPAN as s:
            s.annotate("k")
            assert s.context is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)
        assert Tracer().capacity == DEFAULT_CAPACITY

    def test_disabled_path_allocates_nothing(self):
        """The tracing no-op joins the registry's zero-overhead bar."""
        tracing.TRACER = None
        for _ in range(16):
            with tracing.span("z"):
                pass
            tracing.annotate("k")
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with tracing.span("z"):
                pass
            tracing.annotate("k")
        gc.collect()
        assert sys.getallocatedblocks() - before < 50


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
class TestChromeExport:
    def _spans(self):
        return [
            {"trace": "t1", "span": "s1", "name": "server.admit",
             "proc": "server", "inc": 0, "ts": 1.0, "dur": 0.002},
            {"trace": "t1", "span": "s2", "parent": "s1",
             "name": "shard.request", "proc": "shard0", "inc": 0,
             "ts": 1.001, "dur": 0.001, "tags": {"fp.solves": 2.0}},
            {"trace": "t1", "span": "s3", "name": "shard.request",
             "proc": "shard0", "inc": 1, "ts": 1.01, "dur": 0.001},
        ]

    def test_one_track_per_incarnation(self):
        doc = to_chrome_trace(self._spans())
        names = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert names == {"server", "shard0", "shard0 (incarnation 1)"}
        # Distinct synthetic pids -> distinct tracks in the viewer.
        pids = {
            ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "X"
        }
        assert len(pids) == 3

    def test_events_carry_ids_and_tags_in_args(self):
        doc = to_chrome_trace(self._spans())
        ev, = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["args"].get("parent") == "s1"
        ]
        assert ev["args"]["trace"] == "t1"
        assert ev["args"]["fp.solves"] == 2.0
        assert ev["cat"] == "shard"
        assert ev["ts"] == pytest.approx(1.001e6)
        assert ev["dur"] >= 0.001  # never zero-width

    def test_export_validates_and_is_json(self):
        doc = to_chrome_trace(self._spans())
        complete = validate_chrome_trace(json.loads(json.dumps(doc)))
        assert len(complete) == 3

    def test_validate_refuses_malformed(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([1, 2])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="missing 'ph'"):
            validate_chrome_trace({"traceEvents": [{"name": "x", "pid": 1}]})
        with pytest.raises(ValueError, match="numeric 'dur'"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "X", "pid": 1, "ts": 1.0}
                ]}
            )


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_write_load_roundtrip(self, tmp_path):
        path = write_flight_record(
            tmp_path / "flights",
            reason="worker_death",
            shard=1,
            incarnation=0,
            restarts=2,
            journal={"len": 7, "limit": 256, "baseline_flows": 3},
            spans=[{"trace": "t", "span": "s", "name": "n",
                    "proc": "shard1", "inc": 0, "ts": 1.0, "dur": 0.1}],
            registry={"v": 1, "counters": {"c": 1.0}, "histograms": {}},
        )
        doc = load_flight_record(path)
        assert doc["v"] == FLIGHT_VERSION
        assert doc["reason"] == "worker_death"
        assert doc["shard"] == 1 and doc["restarts"] == 2
        assert doc["journal"]["len"] == 7
        assert len(doc["spans"]) == 1
        assert doc["registry"]["counters"]["c"] == 1.0
        assert "flight_shard1_i0_r2_worker_death.json" in path

    def test_keeps_only_last_n_spans(self, tmp_path):
        spans = [
            {"trace": "t", "span": f"s{i}", "name": "n", "ts": float(i),
             "dur": 0.0}
            for i in range(10)
        ]
        path = write_flight_record(
            tmp_path, reason="degraded", shard=0, incarnation=1,
            restarts=5, journal={}, spans=spans, max_spans=4,
        )
        doc = load_flight_record(path)
        assert [s["span"] for s in doc["spans"]] == ["s6", "s7", "s8", "s9"]
        assert doc["spans_dropped"] == 6

    def test_refuses_newer_or_foreign_documents(self, tmp_path):
        newer = tmp_path / "newer.json"
        newer.write_text(json.dumps(
            {"v": FLIGHT_VERSION + 1, "kind": "flight_record"}
        ))
        with pytest.raises(ValueError, match="newer"):
            load_flight_record(newer)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"kind": "snapshot"}))
        with pytest.raises(ValueError, match="not a flight-record"):
            load_flight_record(foreign)


# ----------------------------------------------------------------------
# Protocol propagation
# ----------------------------------------------------------------------
class TestProtocolTrace:
    def test_trace_field_round_trips(self):
        req = Request(
            op="admit", id=3,
            flow=call_flow("a", ("sw0_a", "sw0", "sw0_b")),
            trace={"id": "t-7", "span": "s-2"},
        )
        doc = request_to_dict(req)
        assert doc["trace"] == {"id": "t-7", "span": "s-2"}
        back = request_from_dict(json.loads(json.dumps(doc)))
        assert back.trace == {"id": "t-7", "span": "s-2"}

    def test_untraced_requests_stay_untraced(self):
        req = Request(op="stats", id=0)
        doc = request_to_dict(req)
        assert "trace" not in doc
        assert request_from_dict(doc).trace is None

    def test_malformed_trace_refused(self):
        base = {"v": 2, "op": "stats", "id": 0}
        with pytest.raises(ProtocolError, match="must be an object"):
            request_from_dict({**base, "trace": "t-7"})
        with pytest.raises(ProtocolError, match="non-empty string 'id'"):
            request_from_dict({**base, "trace": {"span": "s"}})
        with pytest.raises(ProtocolError, match="non-empty string 'id'"):
            request_from_dict({**base, "trace": {"id": ""}})


# ----------------------------------------------------------------------
# End-to-end: server echo, worker spans, respawned incarnations
# ----------------------------------------------------------------------
async def _serve(svc, **server_kwargs):
    server = AdmissionServer(svc, port=0, **server_kwargs)
    await server.start()
    return server


class TestEndToEnd:
    def test_server_adopts_client_trace_and_echoes(self):
        sc = two_star_scenario()
        tracing.enable_tracing(proc="server")

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = await _serve(svc)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                reqs = [
                    request_to_dict(Request(
                        op="admit", id=0,
                        flow=call_flow("a", ("sw0_a", "sw0", "sw0_b")),
                        trace={"id": "client-trace-1"},
                    )),
                    request_to_dict(Request(op="stats", id=1)),
                ]
                for doc in reqs:
                    writer.write(encode_line(doc))
                await writer.drain()
                docs = [json.loads(await reader.readline()) for _ in reqs]
                writer.close()
                await writer.wait_closed()
                return docs
            finally:
                await server.stop()
                svc.close()

        admit_doc, stats_doc = asyncio.run(run())
        # The client's trace id is adopted and echoed with the server's
        # span id; a traceless request gets a server-minted trace.
        assert admit_doc["trace"]["id"] == "client-trace-1"
        assert admit_doc["trace"]["span"]
        assert stats_doc["trace"]["id"].startswith("t")
        spans = tracing.TRACER.snapshot()
        server_admit, = [s for s in spans if s["name"] == "server.admit"]
        assert server_admit["trace"] == "client-trace-1"
        shard_spans = [
            s for s in spans
            if s["name"] == "shard.request" and s["trace"] == "client-trace-1"
        ]
        assert shard_spans, "inline shard must record under the wire trace"
        admission = [
            s for s in spans
            if s["name"] == "admission.request"
            and s["trace"] == "client-trace-1"
        ]
        assert admission, "controller span must nest under the shard span"
        assert admission[0]["parent"] == shard_spans[0]["span"]

    def test_worker_spans_cross_process_with_solver_attribution(self):
        telemetry.enable()
        tracing.enable_tracing(proc="server")
        sc, svc = _two_star_service()
        try:
            with svc:
                svc.process_batch([
                    Request(
                        op="admit", id=i,
                        flow=call_flow(f"f{i}", ("sw0_a", "sw0", "sw0_b")),
                        trace={"id": f"wire-{i}"},
                    )
                    for i in range(3)
                ])
                spans = svc.metrics()["trace_spans"]
        finally:
            svc.close()
        worker = [s for s in spans if s["proc"] == "shard0"]
        assert {s["trace"] for s in worker if s["name"] == "shard.request"} \
            == {"wire-0", "wire-1", "wire-2"}
        admissions = [s for s in worker if s["name"] == "admission.request"]
        assert admissions
        # Fixed-point solver work is attributed onto the decision span.
        assert any(
            s.get("tags", {}).get("fp.solves", 0) >= 1 for s in admissions
        )
        assert all(s.get("tags", {}).get("accepted") in (0.0, 1.0)
                   for s in admissions)

    def test_respawned_incarnation_shares_retried_trace_ids(self):
        """The acceptance bar: after a supervised kill, the replacement
        incarnation's spans carry the *original* requests' trace ids —
        the export shows server -> shard -> respawned shard."""
        telemetry.enable()
        tracing.enable_tracing(proc="server")
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )
        # Each kill lands after its incarnation answered a whole batch,
        # so every incarnation ships spans before it dies.
        plan = FaultPlan.parse(
            "kill:shard=0,at=10;kill:shard=0,at=24,incarnation=1"
        )
        svc = ShardedAdmissionService(
            sc.network, workers=True, fault_plan=plan, journal_limit=8,
        )
        try:
            replay_service(svc, trace, batch=8)
            assert svc.health()["restarts"] == 2
            spans = svc.metrics()["trace_spans"]
        finally:
            svc.close()
        incs = {s["inc"] for s in spans if s["proc"] == "shard0"}
        assert {0, 1, 2} <= incs, "every incarnation must record"
        recoveries = [s for s in spans if s["name"] == "shard.recovery"]
        assert sorted(r["inc"] for r in recoveries) == [1, 2]
        # Replacement-incarnation op spans re-ran under the original
        # (replay-minted) trace ids of the in-flight requests.
        respawned = [
            s for s in spans
            if s["inc"] >= 1 and s["name"].startswith("shard.")
            and s["name"] != "shard.recovery"
        ]
        assert any(
            str(s["trace"]).startswith(trace.name) for s in respawned
        )
        # And the whole set renders as a valid Chrome trace with the
        # track split visible.
        doc = to_chrome_trace(spans)
        validate_chrome_trace(doc)
        labels = {
            ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert {
            "shard0", "shard0 (incarnation 1)", "shard0 (incarnation 2)"
        } <= labels

    def test_decisions_identical_with_tracing_on(self):
        """Tracing is observation-only: same decisions, bit for bit."""
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=30, arrival="burst", burst_size=6, hold=8,
            seed=4,
        )

        def run():
            svc = ShardedAdmissionService(sc.network)
            try:
                return replay_service(svc, trace, batch=8).admit_decisions
            finally:
                svc.close()

        tracing.TRACER = None
        clean = run()
        tracing.enable_tracing(proc="server")
        traced = run()
        assert traced == clean


# ----------------------------------------------------------------------
# Satellite: monotone merged metrics under kills; untorn watch records
# ----------------------------------------------------------------------
class TestMetricsUnderFaults:
    def test_merged_counters_monotone_across_kill_and_watch_untorn(
        self, tmp_path
    ):
        """Poll ``metrics`` over TCP while a fault plan kills a worker:
        merged counters never regress (the dead incarnation's last
        snapshot is retired, not dropped), and every poll writes one
        whole ``watch`` RunRecord."""
        telemetry.enable()
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=60, arrival="burst", burst_size=6, hold=10,
            seed=3,
        )
        plan = FaultPlan.parse(
            "kill:shard=0,at=5;kill:shard=0,at=25,incarnation=1"
        )

        async def run():
            from repro.service.client import _request_over_tcp
            from repro.service.replay import replay_over_tcp

            svc = ShardedAdmissionService(
                sc.network, workers=True, fault_plan=plan, journal_limit=8,
            )
            server = await _serve(svc)
            polls = []

            async def poller():
                while True:
                    stats = await _request_over_tcp(
                        "127.0.0.1", server.port, "stats"
                    )
                    metrics = await _request_over_tcp(
                        "127.0.0.1", server.port, "metrics"
                    )
                    polls.append((stats, metrics))
                    await asyncio.sleep(0.01)

            task = asyncio.create_task(poller())
            try:
                await replay_over_tcp(
                    "127.0.0.1", server.port, trace, window=6
                )
                # One final poll after the kills have fired.
                stats = await _request_over_tcp(
                    "127.0.0.1", server.port, "stats"
                )
                metrics = await _request_over_tcp(
                    "127.0.0.1", server.port, "metrics"
                )
                polls.append((stats, metrics))
                health = svc.health()
            finally:
                task.cancel()
                await server.stop()
                svc.close()
            return polls, health

        polls, health = asyncio.run(run())
        assert health["restarts"] == 2, "both kills must have fired"

        watched = [
            "admission.requests", "admission.accepted", "admission.rejected",
        ]
        previous = dict.fromkeys(watched, 0.0)
        for _, metrics in polls:
            counters = (metrics.get("merged") or {}).get("counters", {})
            for key in watched:
                value = counters.get(key, 0.0)
                assert value >= previous[key], (
                    f"{key} regressed across a shard incarnation: "
                    f"{previous[key]} -> {value}"
                )
                previous[key] = value
        assert previous["admission.requests"] > 0

        # Every poll becomes one whole record: the store round-trips
        # with nothing torn or interleaved.
        store = tmp_path / "watch.jsonl"
        from repro.telemetry.store import append_run

        for tick, (stats, metrics) in enumerate(polls):
            append_run(store, _watch_record(
                "live", stats=stats, metrics=metrics, tick=tick,
            ))
        records = load_runs(store, label="live")
        assert len(records) == len(polls)
        for tick, rec in enumerate(records):
            assert rec.kind == "watch"
            assert rec.metrics["watch.tick"] == float(tick)
            assert rec.telemetry is None or "counters" in rec.telemetry


# ----------------------------------------------------------------------
# Watch records and CLI surfaces
# ----------------------------------------------------------------------
class TestWatch:
    def test_watch_record_keeps_scalars_only(self):
        stats = {
            "offered": 10, "accepted": 8.0, "degraded": False,
            "stats_version": 2, "shard_flows": [5, 3],
            "telemetry": {"counters": {}},
        }
        metrics = {"merged": {"v": 1, "counters": {"c": 1.0}}}
        rec = _watch_record("lbl", stats=stats, metrics=metrics, tick=3)
        assert rec.kind == "watch"
        assert rec.metrics["service.offered"] == 10.0
        assert rec.metrics["service.accepted"] == 8.0
        assert rec.metrics["watch.tick"] == 3.0
        # Bools, lists and nested objects never leak into metrics.
        assert "service.degraded" not in rec.metrics
        assert "service.shard_flows" not in rec.metrics
        assert rec.telemetry == {"v": 1, "counters": {"c": 1.0}}

    def test_watch_campaign_scheduler_mode(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        assert main([
            "-q", "watch", "--campaign", "voip-star",
            "--grid", "n_calls=2", "--every", "0.01", "--count", "2",
            "--label", "nightly", "--store", str(store),
        ]) == 0
        records = load_runs(store, label="nightly")
        assert len(records) == 2
        for tick, rec in enumerate(records):
            assert rec.kind == "watch"
            assert rec.scenario == "voip-star"
            assert rec.metrics["campaign.scenarios"] == 1.0
            assert rec.metrics["campaign.ok_rows"] == 1.0
            assert rec.metrics["watch.tick"] == float(tick)
            assert rec.telemetry is not None
        # The standing scheduler feeds the same store as campaigns:
        # report --diff gates drift between two watch labels.
        assert main([
            "-q", "watch", "--campaign", "voip-star",
            "--grid", "n_calls=2", "--every", "0.01", "--count", "1",
            "--label", "nightly2", "--store", str(store),
        ]) == 0
        assert main([
            "report", "--diff", "nightly", "nightly2",
            "--store", str(store),
        ]) == 0

    def test_watch_validates_arguments(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["watch", "--label", "x"])
        with pytest.raises(SystemExit, match="exactly one"):
            main([
                "watch", "--connect", "h:1", "--campaign", "voip-star",
                "--label", "x",
            ])
        with pytest.raises(SystemExit, match="positive"):
            main([
                "watch", "--campaign", "voip-star", "--label", "x",
                "--every", "0",
            ])

    def test_trace_export_from_metrics_file(self, tmp_path, capsys):
        tracing.enable_tracing(proc="server")
        with tracing.span("server.admit", trace={"id": "t-cli"}):
            pass
        metrics = {"trace_spans": tracing.TRACER.snapshot()}
        src = tmp_path / "metrics.json"
        src.write_text(json.dumps(metrics))
        out = tmp_path / "trace.json"
        assert main([
            "trace-export", "--from", str(src), "-o", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        events = validate_chrome_trace(doc)
        assert events[0]["args"]["trace"] == "t-cli"
        assert "1 span(s)" in capsys.readouterr().out

    def test_trace_export_refuses_spanless_source(self, tmp_path):
        src = tmp_path / "metrics.json"
        src.write_text(json.dumps({"merged": None}))
        with pytest.raises(SystemExit, match="no trace spans"):
            main(["trace-export", "--from", str(src), "-o", "x.json"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["trace-export"])
