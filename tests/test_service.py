"""The admission service: parity, soundness, snapshots, serving."""

import asyncio
import json

import pytest

import oracle
from repro.core.admission import AdmissionController
from repro.core.results import first_violation
from repro.io import ScenarioError
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.model.network import Network
from repro.scenario import Scenario, build_scenario
from repro.service import (
    ERR_UNAVAILABLE,
    PROTOCOL_VERSION,
    STATE_VERSION,
    AdmissionServer,
    ProtocolError,
    Request,
    ShardedAdmissionService,
    load_service_state,
    load_trace,
    replay_over_tcp,
    replay_serial,
    replay_service,
    request_from_dict,
    request_to_dict,
    save_service_state,
    save_trace,
    service_state_from_dict,
    service_state_to_dict,
    trace_from_scenario,
)
from repro.util.units import mbps, ms
from repro.workloads.topologies import star_network
from repro.workloads.voip import voip_flow


def call_flow(name, route, payload=1_600_000 // 50, deadline=ms(20)):
    # ~1.6 Mbit/s per flow: a 10 Mbit/s star saturates after a handful.
    return Flow(
        name=name,
        spec=GmfSpec(
            min_separations=(ms(20),),
            deadlines=(deadline,),
            jitters=(0.0,),
            payload_bits=(payload,),
        ),
        route=route,
        priority=5,
    )


def saturating_scenario():
    """One star whose call pool rejects once enough are live."""
    net = star_network(4, speed_bps=mbps(10))
    flows = tuple(
        call_flow(f"c{i}", ("h0", "sw", "h1")) for i in range(6)
    )
    return Scenario(name="sat-star", network=net, flows=flows)


def two_star_network():
    """Two disjoint stars in one network."""
    net = Network()
    for sw, hosts in (("sw0", "abcd"), ("sw1", "wxyz")):
        net.add_switch(sw)
        for h in hosts:
            net.add_endhost(f"{sw}_{h}")
            net.add_duplex_link(f"{sw}_{h}", sw, speed_bps=mbps(10))
    return net


def two_star_scenario():
    net = two_star_network()
    flows = []
    for i in range(8):
        sw = f"sw{i % 2}"
        a, b = ("a", "b") if sw == "sw0" else ("w", "x")
        flows.append(
            call_flow(f"{sw}_call{i}", (f"{sw}_{a}", sw, f"{sw}_{b}"))
        )
    return Scenario(name="two-star", network=net, flows=tuple(flows))


def with_status_queries(requests):
    """``requests`` with, after each write, a status query of every flow
    the trace has offered and not yet released."""
    out, live = [], []
    for req in requests:
        out.append(req)
        if req.op == "admit":
            live.append(req.flow.name)
        elif req.flow_name in live:
            live.remove(req.flow_name)
        out.extend(Request(op="query", flow_name=name) for name in live)
    return out


def serial_payloads(network, options, requests):
    """A fresh in-process engine's answers, one request at a time, with
    the service's op semantics: the reference for the service plumbing
    (batching, backends, the wire), which must not change an answer."""
    ctrl = AdmissionController(network, options)
    out = []
    for req in requests:
        try:
            if req.op == "admit":
                decision = ctrl.request(req.flow)
                out.append(
                    {"accepted": decision.accepted, "reason": decision.reason}
                )
            elif req.op == "release":
                ctrl.release(req.flow_name)
                out.append({"released": True})
            elif any(f.name == req.flow_name for f in ctrl.admitted_flows):
                result = ctrl.last_analysis.result(req.flow_name)
                out.append(
                    {"admitted": True, "worst_response": result.worst_response}
                )
            else:
                out.append({"admitted": False})
        except (KeyError, ValueError) as exc:
            out.append({"error": exc.args[0]})
    return out


def reject_case(kind):
    """A request stream, status queries included, whose in-process answers
    reject an admit by ``kind``: the utilisation pre-check, a missed
    deadline, a diverging holistic iteration, or request errors."""
    if kind == "errors":
        sc = saturating_scenario()
        hog = call_flow("hog", ("h0", "sw", "h1"), payload=2_500_000)
        # The release follows its rejected admit directly, in the same
        # batch of 8: no status query separates them.
        head = [
            Request(op="admit", flow=hog),
            Request(op="release", flow_name="hog"),
        ]
        writes = [
            Request(op="admit", flow=sc.flows[0]),
            Request(op="admit", flow=sc.flows[0]),
            Request(op="release", flow_name="ghost"),
            Request(op="admit", flow=call_flow("bad", ("h0", "nope", "h1"))),
            Request(op="release", flow_name=sc.flows[0].name),
        ]
        return sc, head + with_status_queries(writes)
    if kind == "precheck":
        sc = saturating_scenario()
        hog = call_flow("hog", ("h0", "sw", "h1"), payload=2_500_000)
        writes = [
            Request(op="admit", flow=hog),
            Request(op="admit", flow=call_flow("pad", ("h2", "sw", "h3"))),
            Request(op="admit", flow=hog),
            Request(op="release", flow_name="hog"),
            Request(op="release", flow_name="pad"),
        ]
    elif kind == "deadline":
        sc = saturating_scenario()
        writes = trace_from_scenario(
            sc, n_requests=48, arrival="poisson", rate=200, hold=12, seed=5
        ).requests
    else:
        sc = build_scenario("fat-tree", utilization=0.8, seed=0)
        writes = trace_from_scenario(
            sc, n_requests=40, hold=16, seed=0
        ).requests
    return sc, with_status_queries(writes)


def decision_fields(req, payload):
    """The parts of a served payload :func:`serial_payloads` also gives."""
    if "error" in payload:
        return {"error": payload["error"]}
    keys = {
        "admit": ("accepted", "reason"),
        "release": ("released",),
        "query": ("admitted", "worst_response"),
    }[req.op]
    return {k: payload[k] for k in keys if k in payload}


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_request_round_trip(self):
        flow = call_flow("c0", ("h0", "sw", "h1"))
        req = Request(op="admit", id=7, flow=flow, at=0.25)
        back = request_from_dict(request_to_dict(req))
        assert back.op == "admit" and back.id == 7 and back.at == 0.25
        assert back.flow == flow

    def test_newer_protocol_refused(self):
        doc = {"v": PROTOCOL_VERSION + 1, "op": "stats"}
        with pytest.raises(ProtocolError, match="newer"):
            request_from_dict(doc)

    def test_missing_version_refused(self):
        with pytest.raises(ProtocolError, match="protocol version"):
            request_from_dict({"op": "stats"})

    def test_unknown_op_refused(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            request_from_dict({"v": 1, "op": "frobnicate"})

    def test_admit_needs_flow(self):
        with pytest.raises(ProtocolError, match="missing 'flow'"):
            request_from_dict({"v": 1, "op": "admit"})

    def test_release_needs_flow_name(self):
        with pytest.raises(ProtocolError, match="missing 'flow_name'"):
            Request(op="release")


# ----------------------------------------------------------------------
# Decision parity with a fresh in-process engine
# ----------------------------------------------------------------------
class TestParity:
    def test_single_shard_trace_matches_serial(self):
        sc = saturating_scenario()
        trace = trace_from_scenario(
            sc, n_requests=48, arrival="poisson", rate=200, hold=12, seed=5
        )
        serial = replay_serial(sc.network, trace, sc.options)
        assert serial.rejected > 0, "workload must exercise rejections"
        for batch in (1, 16):
            with ShardedAdmissionService(sc.network) as svc:
                summary = replay_service(svc, trace, batch=batch)
            assert summary.admit_decisions == serial.admit_decisions

    def test_worker_backend_matches_inline(self):
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=24, arrival="poisson", rate=500, hold=8, seed=9
        )
        with ShardedAdmissionService(sc.network) as inline:
            a = replay_service(inline, trace, batch=6)
        with ShardedAdmissionService(sc.network, workers=True) as procs:
            b = replay_service(procs, trace, batch=6)
        assert a.admit_decisions == b.admit_decisions

    @pytest.mark.parametrize(
        "workers", [False, True], ids=["inline", "workers"]
    )
    @pytest.mark.parametrize(
        "kind,marker",
        [
            ("precheck", "necessary utilisation condition"),
            ("deadline", "exceeds deadline"),
            ("diverged", "diverged"),
            pytest.param("errors", "is not admitted", id="errors"),
        ],
    )
    def test_served_payloads_equal_serial(self, kind, marker, workers):
        # Every admit decision and reason, release outcome, queried
        # bound and error message the service serves equals that of a
        # fresh in-process engine fed one request at a time, floats
        # compared with ==.
        sc, requests = reject_case(kind)
        want = serial_payloads(sc.network, sc.options, requests)
        assert any(
            marker in p.get("reason", p.get("error", "")) for p in want
        )
        with ShardedAdmissionService(
            sc.network, options=sc.options, workers=workers
        ) as svc:
            got = []
            for i in range(0, len(requests), 8):
                got.extend(svc.process_batch(requests[i : i + 8]))
        assert [decision_fields(r, p) for r, p in zip(requests, got)] == want

    def test_rejected_admit_can_be_reoffered_within_one_batch(self):
        # A name whose admit was rejected is free again; retrying it in
        # the same batch must yield a fresh decision, exactly as two
        # separate batches (and a fresh in-process engine) would.
        sc = saturating_scenario()
        hog = call_flow("hog", ("h0", "sw", "h1"), payload=2_500_000)
        retry = [
            Request(op="admit", flow=hog),
            Request(op="admit", flow=call_flow("pad", ("h2", "sw", "h3"))),
            Request(op="admit", flow=hog),
        ]
        with ShardedAdmissionService(sc.network) as one_batch:
            a = one_batch.process_batch(retry)
        with ShardedAdmissionService(sc.network) as per_request:
            b = [per_request.process_batch([r])[0] for r in retry]
        assert a == b
        assert a[0]["accepted"] is False and a[2]["accepted"] is False
        assert "error" not in a[2]

    def test_dead_worker_degrades_without_desync(self):
        # Without supervision, killing the worker mid-service must answer
        # every later engine op with a coded error, keep the reply
        # pairing (a barrier between them still answers in order), and
        # keep bookkeeping at the state the worker last confirmed.
        # (Supervised recovery is covered in tests/test_service_faults.py.)
        sc = two_star_scenario()
        svc = ShardedAdmissionService(
            sc.network, workers=True, supervise=False
        )
        try:
            assert svc.admit(
                call_flow("a", ("sw0_a", "sw0", "sw0_b"))
            ).accepted
            svc._engine._proc.terminate()
            svc._engine._proc.join(timeout=5.0)
            payloads = svc.process_batch([
                Request(op="admit",
                        flow=call_flow("b", ("sw1_w", "sw1", "sw1_x"))),
                Request(op="health"),
                Request(op="query", flow_name="a"),
            ])
            assert payloads[0]["code"] == ERR_UNAVAILABLE
            assert payloads[1]["status"] == "degraded"
            assert payloads[2]["code"] == ERR_UNAVAILABLE
            assert svc.admitted_names == ("a",)
            assert svc.stats()["errors"] == 2
        finally:
            svc.close()

    def test_duplicate_and_unknown_errors_mirror_serial(self):
        sc = saturating_scenario()
        flow = sc.flows[0]
        with ShardedAdmissionService(sc.network) as svc:
            assert svc.admit(flow).accepted
            with pytest.raises(ValueError, match="already admitted"):
                svc.admit(flow)
            with pytest.raises(KeyError, match="not admitted"):
                svc.release("ghost")
            svc.release(flow.name)
            assert svc.query(flow.name) == {"admitted": False}


# ----------------------------------------------------------------------
# Soundness: the admitted set always passes a from-scratch analysis
# ----------------------------------------------------------------------
class TestSoundness:
    @pytest.mark.parametrize(
        "workers", [False, True], ids=["inline", "workers"]
    )
    def test_admitted_union_passes_from_scratch_analysis(self, workers):
        # Found by a seeded search over fat-tree/datacenter traces when
        # the service split the network into shards that each decided
        # against their own flows: request 13 admitted rf4@12, after
        # which rf2@2 frame 4 missed (0.155308 s > 0.153585 s).  The one
        # engine must reject it, and every admitted set must pass the
        # oracle's from-scratch holistic analysis.
        sc = build_scenario("fat-tree", utilization=0.8, seed=0)
        trace = trace_from_scenario(sc, n_requests=120, hold=16, seed=0)
        assert trace.requests[12].flow.name == "rf4@12"
        with ShardedAdmissionService(
            sc.network, options=sc.options, workers=workers
        ) as svc:
            for i, req in enumerate(trace.requests[:40]):
                payload, = svc.process_batch([req])
                if i == 12:
                    assert payload["accepted"] is False
                flows, _ = svc.export_state()
                scratch = oracle.holistic_analysis(
                    sc.network, list(flows), sc.options
                )
                assert scratch.converged, f"after request {i + 1}"
                assert first_violation(scratch.flow_results) is None, (
                    f"after request {i + 1}: "
                    f"{first_violation(scratch.flow_results)}"
                )


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    @pytest.mark.parametrize(
        "workers", [False, True], ids=["inline", "workers"]
    )
    def test_restored_service_is_byte_identical_on_replayed_log(
        self, tmp_path, workers
    ):
        sc = saturating_scenario()
        trace = trace_from_scenario(
            sc, n_requests=60, arrival="poisson", rate=150, hold=12, seed=11
        )
        warmup, remainder = trace.requests[:30], trace.requests[30:]
        with ShardedAdmissionService(sc.network, workers=workers) as svc:
            svc.process_batch(list(warmup))
            path = tmp_path / "state.json"
            save_service_state(path, svc)
            with load_service_state(path, workers=workers) as restored:
                a = svc.process_batch(list(remainder))
                b = restored.process_batch(list(remainder))
        assert a == b

    def test_snapshot_document_shape(self):
        sc = two_star_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            for f in sc.flows[:4]:
                svc.admit(f)
            doc = service_state_to_dict(svc)
        assert doc["schema_version"] == STATE_VERSION
        assert doc["kind"] == "admission-service-state"
        assert [f["name"] for f in doc["flows"]] == [
            f.name for f in sc.flows[:4]
        ]
        assert {row[0] for row in doc["jitters"]} <= {
            f.name for f in sc.flows[:4]
        }
        json.dumps(doc)  # JSON-able throughout

    def test_snapshot_protocol_op(self, tmp_path):
        sc = saturating_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            svc.admit(sc.flows[0])
            path = str(tmp_path / "op.json")
            payload = svc.process_batch(
                [Request(op="snapshot", path=path)]
            )[0]
            assert payload == {"path": path, "admitted": 1}
            inline = svc.process_batch([Request(op="snapshot")])[0]
        assert [f["name"] for f in inline["state"]["flows"]] == [
            sc.flows[0].name
        ]
        with load_service_state(path) as restored:
            assert restored.query(sc.flows[0].name)["admitted"]

    def test_snapshot_with_removed_path_options_restores(self):
        """A STATE_VERSION 2 snapshot written while the analysis had
        fast/reference switches carries them in its analysis block; it
        restores, and the restored service decides like the original.
        The same document asking for a removed path is refused."""
        sc = saturating_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="poisson", rate=150, hold=12, seed=3
        )
        warmup, remainder = trace.requests[:20], trace.requests[20:]
        with ShardedAdmissionService(sc.network) as svc:
            svc.process_batch(list(warmup))
            doc = service_state_to_dict(svc)
            doc["analysis"].update(
                accelerate_fixed_points=True,
                anderson_fixed_points=False,
                incremental_holistic=True,
                memoize_stages=True,
                flat_demand_arrays=True,
            )
            with service_state_from_dict(json.loads(json.dumps(doc))) as old:
                assert old.options == svc.options
                a = svc.process_batch(list(remainder))
                b = old.process_batch(list(remainder))
        assert a == b
        doc["analysis"]["memoize_stages"] = False
        with pytest.raises(ScenarioError, match="memoize_stages"):
            service_state_from_dict(doc)

    def test_newer_state_version_refused(self):
        sc = saturating_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            doc = service_state_to_dict(svc)
        doc["schema_version"] = STATE_VERSION + 1
        with pytest.raises(Exception, match="newer"):
            service_state_from_dict(doc)

    def test_non_state_document_refused(self):
        sc = saturating_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            doc = service_state_to_dict(svc)
        doc["kind"] = "something-else"
        with pytest.raises(Exception, match="not a service-state"):
            service_state_from_dict(doc)

    def test_controller_restore_matches_original(self):
        sc = saturating_scenario()
        ctrl = AdmissionController(sc.network)
        for f in sc.flows[:3]:
            ctrl.request(f)
        flows, jitters = ctrl.export_state()
        restored = AdmissionController.restore(
            sc.network, flows=flows, jitters=jitters
        )
        assert restored.jitter_snapshot() == ctrl.jitter_snapshot()
        assert {
            name: [fr.response for fr in result.frames]
            for name, result in restored.flow_results.items()
        } == {
            name: [fr.response for fr in result.frames]
            for name, result in ctrl.flow_results.items()
        }
        for f in sc.flows[3:]:
            assert ctrl.request(f).accepted == restored.request(f).accepted
        assert [f.name for f in ctrl.admitted_flows] == [
            f.name for f in restored.admitted_flows
        ]


# ----------------------------------------------------------------------
# Replay traces
# ----------------------------------------------------------------------
class TestReplayTraces:
    def test_traces_are_deterministic(self):
        sc = saturating_scenario()
        kw = dict(n_requests=30, arrival="poisson", rate=100, seed=4)
        assert (
            trace_from_scenario(sc, **kw).requests
            == trace_from_scenario(sc, **kw).requests
        )

    def test_trace_file_round_trip(self, tmp_path):
        sc = saturating_scenario()
        trace = trace_from_scenario(sc, n_requests=20, seed=1)
        path = tmp_path / "trace.jsonl"
        save_trace(path, trace)
        back = load_trace(path)
        assert back.requests == trace.requests
        # every line of the log is a valid protocol request
        for line in path.read_text().splitlines():
            request_from_dict(json.loads(line))

    def test_burst_arrivals_share_timestamps(self):
        sc = saturating_scenario()
        trace = trace_from_scenario(
            sc, n_requests=12, arrival="burst", burst_size=4, burst_gap=0.1
        )
        stamps = [r.at for r in trace.requests]
        assert stamps[0] == stamps[3] and stamps[4] == stamps[7]
        assert stamps[4] == pytest.approx(0.1)

    def test_recorded_arrival_replays_churn(self):
        events = 0
        sc = saturating_scenario()
        trace = trace_from_scenario(sc, arrival="recorded", rate=100)
        assert [r.op for r in trace.requests] == ["admit"] * len(sc.flows)
        for req, flow in zip(trace.requests, sc.flows):
            assert req.flow == flow
            events += 1
        assert events == len(sc.flows)

    def test_releases_keep_live_set_bounded(self):
        sc = saturating_scenario()
        trace = trace_from_scenario(sc, n_requests=40, hold=5, seed=0)
        live = 0
        peak = 0
        for r in trace.requests:
            live += 1 if r.op == "admit" else -1
            peak = max(peak, live)
        assert peak <= 5


# ----------------------------------------------------------------------
# TCP server
# ----------------------------------------------------------------------
class TestServer:
    def test_tcp_replay_matches_serial(self):
        sc = saturating_scenario()
        trace = trace_from_scenario(
            sc, n_requests=36, arrival="poisson", rate=400, hold=12, seed=3
        )
        serial = replay_serial(sc.network, trace, sc.options)

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(svc, port=0, batch_window_s=0.001)
            await server.start()
            try:
                return await replay_over_tcp(
                    "127.0.0.1", server.port, trace, window=12
                )
            finally:
                await server.stop()
                svc.close()

        summary = asyncio.run(run())
        assert summary.admit_decisions == serial.admit_decisions
        # An open-loop trace may release flows whose admit was rejected;
        # both controllers must refuse those identically.
        assert summary.errors == serial.errors

    def test_protocol_errors_answered_in_order(self):
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(svc, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"v": 1, "id": 1, "op": "bogus"}\n')
                writer.write(b"not json at all\n")
                writer.write(b'{"v": 1, "id": 3, "op": "stats"}\n')
                await writer.drain()
                lines = [await reader.readline() for _ in range(3)]
                writer.close()
                await writer.wait_closed()
                return [json.loads(l) for l in lines]
            finally:
                await server.stop()
                svc.close()

        first, second, third = asyncio.run(run())
        assert first["ok"] is False and "unknown op" in first["error"]
        assert second["ok"] is False
        assert third["ok"] is True and third["id"] == 3
        assert third["admitted"] == 0 and third["server_requests"] == 3

    def test_half_closing_client_still_gets_all_responses(self):
        # `cat trace.jsonl | nc host port` half-closes after writing;
        # every queued request must still be answered before the server
        # closes the connection.
        sc = saturating_scenario()
        trace = trace_from_scenario(sc, n_requests=6, hold=6, seed=0)

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(svc, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.service import encode_line, request_to_dict

                for req in trace.requests:
                    writer.write(encode_line(request_to_dict(req)))
                await writer.drain()
                writer.write_eof()
                docs = []
                while line := await reader.readline():
                    docs.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return docs
            finally:
                await server.stop()
                svc.close()

        docs = asyncio.run(run())
        assert [d["id"] for d in docs] == [r.id for r in trace.requests]
        assert all(d["ok"] for d in docs)

    def test_unwritable_snapshot_path_is_a_contained_error(self, tmp_path):
        # An unwritable snapshot target (missing directory) must come
        # back as an error payload without disturbing the batch or the
        # connection.
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(
                svc, port=0, snapshot_dir=str(tmp_path / "missing-subdir")
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b'{"v":1,"id":1,"op":"snapshot","path":"x.json"}\n'
                    b'{"v":1,"id":2,"op":"stats"}\n'
                )
                await writer.drain()
                first = json.loads(await reader.readline())
                second = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return first, second
            finally:
                await server.stop()
                svc.close()

        first, second = asyncio.run(run())
        assert first["ok"] is False and "snapshot" in first["error"]
        assert second["ok"] is True and second["admitted"] == 0

    def test_failing_batch_does_not_kill_the_dispatcher(self):
        # Even if process_batch itself raises, the dispatcher must
        # answer the batch with errors and keep serving.
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            real = svc.process_batch
            calls = {"n": 0}

            def flaky(requests):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("injected fault")
                return real(requests)

            svc.process_batch = flaky
            server = AdmissionServer(svc, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"v":1,"id":1,"op":"stats"}\n')
                await writer.drain()
                first = json.loads(await reader.readline())
                writer.write(b'{"v":1,"id":2,"op":"stats"}\n')
                await writer.drain()
                second = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return first, second
            finally:
                await server.stop()
                svc.close()

        first, second = asyncio.run(run())
        assert first["ok"] is False and "internal error" in first["error"]
        assert second["ok"] is True and second["admitted"] == 0

    def test_overlong_line_answered_then_closed(self):
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(svc, port=0, line_limit=4096)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port, limit=1 << 20
                )
                writer.write(b'{"v":1,"id":1,"op":"stats"}\n')
                writer.write(b'{"pad":"' + b"x" * 8192 + b'"}\n')
                await writer.drain()
                docs = []
                while line := await reader.readline():
                    docs.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return docs
            finally:
                await server.stop()
                svc.close()

        docs = asyncio.run(run())
        assert docs[0]["ok"] is True and docs[0]["id"] == 1
        assert docs[1]["ok"] is False and "exceeds" in docs[1]["error"]

    def test_file_snapshots_gated_by_snapshot_dir(self, tmp_path):
        sc = saturating_scenario()

        async def exchange(server_kwargs, path_req):
            svc = ShardedAdmissionService(sc.network)
            server = AdmissionServer(svc, port=0, **server_kwargs)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    json.dumps(
                        {"v": 1, "id": 1, "op": "snapshot", "path": path_req}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                doc = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return doc
            finally:
                await server.stop()
                svc.close()

        # No snapshot_dir: file snapshots over the wire are refused.
        refused = asyncio.run(exchange({}, str(tmp_path / "steal.json")))
        assert refused["ok"] is False and "disabled" in refused["error"]
        assert not (tmp_path / "steal.json").exists()
        # With snapshot_dir: only the basename inside the dir is honoured.
        sandbox = tmp_path / "snaps"
        sandbox.mkdir()
        escaped = asyncio.run(
            exchange(
                {"snapshot_dir": str(sandbox)},
                str(tmp_path / "outside.json"),
            )
        )
        assert escaped["ok"] is True
        assert not (tmp_path / "outside.json").exists()
        assert (sandbox / "outside.json").exists()


# ----------------------------------------------------------------------
# Demand profiles across release and re-admission
# ----------------------------------------------------------------------
class TestRetainedDemands:
    """A flow leaves the context with its demand profiles; its window
    tables stay in the name-free cache of ``build_link_demand``."""

    def test_equal_flow_from_the_wire_reuses_profiles(self):
        # The service path never sees the same Flow *object* twice —
        # requests are re-parsed / unpickled — so sharing must work on
        # value equality, not identity.
        from repro.io import flow_from_dict, flow_to_dict

        sc = saturating_scenario()
        ctrl = AdmissionController(sc.network)
        flow = sc.flows[0]
        assert ctrl.request(flow).accepted
        demands_before = {
            link: entry[1]
            for link, entry in ctrl._ctx._demand_cache[flow.name].items()
        }
        ctrl.release(flow.name)
        reparsed = flow_from_dict(flow_to_dict(flow))
        assert reparsed is not flow and reparsed == flow
        assert ctrl.request(reparsed).accepted
        demands_after = ctrl._ctx._demand_cache[flow.name]
        for link, demand in demands_before.items():
            assert demands_after[link][1]._row is demand._row

    def test_reused_name_never_serves_stale_profile(self):
        sc = saturating_scenario()
        ctrl = AdmissionController(sc.network)
        small = call_flow("dual", ("h0", "sw", "h1"), payload=8_000)
        assert ctrl.request(small).accepted
        ctrl.release("dual")
        # Same name, different flow object and payload: the new flow
        # gets its own profile, not the released one's.
        big = call_flow("dual", ("h0", "sw", "h1"), payload=64_000)
        assert ctrl.request(big).accepted
        bound_big = ctrl.last_analysis.result("dual").worst_response
        fresh = AdmissionController(sc.network)
        assert fresh.request(big).accepted
        assert bound_big == fresh.last_analysis.result("dual").worst_response

    def test_churn_leaves_no_demand_entries(self):
        sc = saturating_scenario()
        ctrl = AdmissionController(sc.network)
        for name in ("k0", "k1"):
            flow = call_flow(name, ("h0", "sw", "h1"))
            assert ctrl.request(flow).accepted
        for i in range(300):
            flow = call_flow(f"u{i}", ("h2", "sw", "h3"))
            assert ctrl.request(flow).accepted
            ctrl.release(flow.name)
        # One reject by the pre-check and one by a missed deadline.
        overload = call_flow("over", ("h0", "sw", "h1"), payload=400_000)
        decision = ctrl.request(overload)
        assert not decision.accepted and decision.analysis is None
        late = call_flow("late", ("h0", "sw", "h1"), deadline=ms(1))
        decision = ctrl.request(late)
        assert not decision.accepted and decision.analysis is not None
        assert set(ctrl._ctx._demand_cache) == {"k0", "k1"}
