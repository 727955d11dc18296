"""Fault tolerance: supervised recovery, fault injection, retry stack.

The contract under test: with a seeded `FaultPlan` killing the
engine's worker mid-trace, once per incarnation, the supervised service's
decisions, final state document and query responses are byte-identical
to the same trace with no faults — and the client-side retry path
(reconnect, backoff, idempotency keys) preserves that parity over TCP
even when the server drops connections.
"""

import asyncio
import json
import os
import sys
import time

import pytest

from repro.service import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_OVERLOADED,
    ERR_UNAVAILABLE,
    RETRYABLE_CODES,
    AdmissionServer,
    FaultPlan,
    FaultSpec,
    ProtocolError,
    Request,
    RetryPolicy,
    ShardedAdmissionService,
    connect_with_backoff,
    is_retryable,
    replay_over_tcp,
    replay_serial,
    replay_service,
    request_from_dict,
    request_to_dict,
    response_to_dict,
    service_state_to_dict,
    trace_from_scenario,
)
from repro.service.faults import FaultError, WorkerFaults
from test_service import call_flow, saturating_scenario, two_star_scenario


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trip(self):
        spec = "kill:shard=1,at=40;slow_batch:shard=0,at=10,delay=0.02;" \
               "drop_conn:at=120;seed=7"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7
        assert len(plan.faults) == 3
        assert plan == FaultPlan.from_dict(plan.to_dict())
        assert json.dumps(plan.to_dict())  # JSON-able

    def test_parse_blank_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ; ;") is None

    def test_filtering_by_shard_and_incarnation(self):
        plan = FaultPlan.parse(
            "kill:shard=0,at=1;kill:shard=1,at=2;"
            "kill:shard=1,at=3,incarnation=1;drop_conn:at=9"
        )
        assert {f.at for f in plan.worker_faults(shard=1)} == {2, 3}
        assert {f.at for f in plan.worker_faults(shard=1, incarnation=0)} == {2}
        assert {f.at for f in plan.worker_faults(shard=1, incarnation=1)} == {3}
        assert [f.kind for f in plan.server_faults()] == ["drop_conn"]

    def test_validation(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultPlan.parse("explode:at=1")
        with pytest.raises(FaultError, match="needs shard"):
            FaultPlan.parse("kill:at=1")
        with pytest.raises(FaultError, match="delay"):
            FaultPlan.parse("slow_batch:shard=0,at=1")
        with pytest.raises(FaultError, match="key=value"):
            FaultPlan.parse("kill:shard")
        with pytest.raises(FaultError, match="unknown key"):
            FaultPlan.parse("kill:shard=0,when=now")

    def test_worker_faults_indexed_by_op(self):
        wf = WorkerFaults([FaultSpec(kind="slow_batch", shard=0, at=2,
                                     delay_s=0.01)])
        assert bool(wf)
        start = time.perf_counter()
        wf.before_op(0)
        wf.before_op(1)
        assert time.perf_counter() - start < 0.01
        wf.before_op(2)
        assert time.perf_counter() - start >= 0.01

    def test_worker_faults_require_workers(self):
        sc = saturating_scenario()
        with pytest.raises(ValueError, match="workers=True"):
            ShardedAdmissionService(
                sc.network, fault_plan=FaultPlan.parse("kill:shard=0,at=0")
            )

    def test_faults_must_target_the_one_engine(self):
        # A kill aimed at a shard that does not exist would never fire.
        sc = saturating_scenario()
        with pytest.raises(ValueError, match=r"shard\(s\) \[1\]"):
            ShardedAdmissionService(
                sc.network, workers=True,
                fault_plan=FaultPlan.parse(
                    "kill:shard=0,at=3;kill:shard=1,at=3"
                ),
            )


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        p = RetryPolicy(attempts=6, base_s=0.05, max_s=0.4, jitter=0.5,
                        seed=3)
        assert p.delays("k") == p.delays("k")
        assert p.delays("k") != p.delays("other-key")
        for attempt, delay in enumerate(p.delays("k")):
            cap = min(0.4, 0.05 * 2.0 ** attempt)
            assert cap * 0.5 <= delay <= cap

    def test_no_jitter_is_pure_exponential(self):
        p = RetryPolicy(attempts=4, base_s=0.1, max_s=1.0, jitter=0.0)
        assert p.delays() == (0.1, 0.2, 0.4, 0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_connect_backoff_gives_up_at_timeout(self):
        async def run():
            start = time.monotonic()
            with pytest.raises(OSError):
                # Port 1 on localhost: nothing listens, connects are
                # refused instantly, so the loop is pure backoff.
                await connect_with_backoff(
                    "127.0.0.1", 1, timeout=0.3,
                    policy=RetryPolicy(base_s=0.02, max_s=0.1),
                )
            return time.monotonic() - start

        elapsed = asyncio.run(run())
        assert 0.2 <= elapsed < 5.0


# ----------------------------------------------------------------------
# Protocol v2 surface
# ----------------------------------------------------------------------
class TestProtocolV2:
    def test_health_op_round_trip(self):
        req = request_from_dict({"v": 2, "id": 1, "op": "health"})
        assert req.op == "health"

    def test_v1_requests_still_accepted(self):
        req = request_from_dict({"v": 1, "id": 1, "op": "stats"})
        assert req.op == "stats"

    def test_idem_and_deadline_round_trip(self):
        req = Request(op="release", flow_name="f", idem="k#1",
                      deadline_s=0.25)
        back = request_from_dict(request_to_dict(req))
        assert back.idem == "k#1" and back.deadline_s == 0.25

    def test_negative_deadline_refused(self):
        with pytest.raises(ProtocolError, match="deadline"):
            Request(op="stats", deadline_s=-1.0)

    def test_is_retryable_taxonomy(self):
        for code in RETRYABLE_CODES:
            doc = response_to_dict(1, ok=False, error="x", code=code)
            assert is_retryable(doc)
        fatal = response_to_dict(1, ok=False, error="x",
                                 code=ERR_BAD_REQUEST)
        assert not is_retryable(fatal)
        assert not is_retryable(response_to_dict(1, {"accepted": True}))
        shed = response_to_dict(1, ok=False, error="x", code=ERR_OVERLOADED,
                                retry_after=0.05)
        assert shed["retry_after"] == 0.05


# ----------------------------------------------------------------------
# Supervised recovery (in-process)
# ----------------------------------------------------------------------
def _two_star_service(**kwargs):
    sc = two_star_scenario()
    svc = ShardedAdmissionService(sc.network, workers=True, **kwargs)
    return sc, svc


class TestSupervisedRecovery:
    def test_kill_mid_trace_recovers_byte_identical(self):
        # The acceptance bar: decisions, queries and the exported state
        # document of a faulted run equal the fault-free run's exactly.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )

        def run(plan):
            with ShardedAdmissionService(
                sc.network, workers=True, fault_plan=plan, journal_limit=8,
            ) as svc:
                summary = replay_service(svc, trace, batch=8)
                queries = [
                    svc.query(name) for name in sorted(svc.admitted_names)
                ]
                doc = service_state_to_dict(svc)
                health = svc.health()
            return summary, queries, doc, health

        clean, clean_q, clean_doc, clean_h = run(None)
        plan = FaultPlan.parse(
            "kill:shard=0,at=5;kill:shard=0,at=20,incarnation=1"
        )
        faulted, faulted_q, faulted_doc, faulted_h = run(plan)

        assert clean_h["restarts"] == 0
        assert faulted_h["restarts"] == 2, "both kills must have fired"
        assert faulted_h["status"] == "ok"
        assert faulted.admit_decisions == clean.admit_decisions
        assert faulted.errors == clean.errors
        assert faulted_q == clean_q
        assert faulted_doc == clean_doc  # byte-identical snapshot
        assert json.dumps(faulted_doc, sort_keys=True) == json.dumps(
            clean_doc, sort_keys=True
        )
        assert faulted_h["recovery_s_total"] > 0.0

    def test_journal_compaction_keeps_parity(self):
        # journal_limit=2 forces many compactions; a late kill then
        # recovers from baseline+short-journal, not a full replay.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=30, arrival="poisson", rate=500, hold=6, seed=4
        )
        plan = FaultPlan.parse(
            "kill:shard=0,at=9;kill:shard=0,at=15,incarnation=1"
        )
        with ShardedAdmissionService(
            sc.network, workers=True, journal_limit=2, fault_plan=plan,
        ) as svc:
            faulted = replay_service(svc, trace, batch=4)
            health = svc.health()
        assert health["restarts"] == 2, "both kills must have fired"
        assert health["shards"][0]["journal_len"] <= 2
        serial = replay_serial(sc.network, trace, sc.options)
        assert faulted.admit_decisions == serial.admit_decisions

    def test_restart_budget_exhaustion_degrades_with_code(self):
        # A fault that re-fires in every incarnation burns the whole
        # restart budget; the shard must then degrade exactly like the
        # unsupervised path, with a retryable error code.
        sc, svc = _two_star_service(
            max_restarts=2,
            fault_plan=FaultPlan(
                faults=tuple(
                    FaultSpec(kind="kill", shard=0, at=0, incarnation=inc)
                    for inc in range(3)
                )
            ),
        )
        try:
            payload = svc.process_batch(
                [Request(op="admit",
                         flow=call_flow("a", ("sw0_a", "sw0", "sw0_b")))]
            )[0]
            assert payload["code"] == ERR_UNAVAILABLE
            health = svc.health()
            assert health["status"] == "degraded"
            assert health["dead_shards"] == [0]
            assert health["restarts"] == 2
            # Later ops keep answering the coded error, without a hang.
            assert svc.process_batch(
                [Request(op="admit",
                         flow=call_flow("b", ("sw1_w", "sw1", "sw1_x")))]
            )[0]["code"] == ERR_UNAVAILABLE
        finally:
            svc.close()

    def test_op_timeout_recovers_from_wedged_worker(self):
        # A hang fault leaves the worker alive but unresponsive; the
        # op timeout must convert that into a recovery, not a stall.
        sc, svc = _two_star_service(
            op_timeout=0.5,
            fault_plan=FaultPlan.parse("hang:shard=0,at=1"),
        )
        try:
            flows = [call_flow(f"a{i}", ("sw0_a", "sw0", "sw0_b"))
                     for i in range(3)]
            start = time.monotonic()
            payloads = svc.process_batch(
                [Request(op="admit", flow=f) for f in flows]
            )
            assert time.monotonic() - start < 10.0
            assert [p.get("accepted") for p in payloads] == [
                True, True, False
            ]  # same as a fault-free saturating run on one 10 Mbit star
            assert svc.health()["restarts"] == 1
        finally:
            svc.close()

    def test_wedged_worker_cannot_hang_close(self):
        # Satellite: close() must escalate terminate/kill instead of
        # blocking forever on a worker stuck mid-op.
        sc, svc = _two_star_service(
            close_timeout=0.5,
            supervise=False,
            fault_plan=FaultPlan.parse("hang:shard=0,at=0"),
        )
        shard = svc._engine
        shard._conn.send(
            ("batch", [("request", call_flow("a", ("sw0_a", "sw0", "sw0_b")))])
        )
        time.sleep(0.2)  # let the worker reach the hang
        assert shard._proc.is_alive()
        start = time.monotonic()
        svc.close()
        assert time.monotonic() - start < 5.0
        assert not shard._proc.is_alive()

    def test_explicit_restore_resets_recovery_recipe(self):
        # After import_state, a crash must recover to the *restored*
        # state, not replay pre-restore history.
        sc = two_star_scenario()
        with ShardedAdmissionService(sc.network, workers=True) as donor:
            assert donor.admit(
                call_flow("keep", ("sw0_a", "sw0", "sw0_b"))
            ).accepted
            flows, jitters = donor.export_state()
        sc2, svc = _two_star_service()
        try:
            assert svc.admit(
                call_flow("gone", ("sw0_c", "sw0", "sw0_d"))
            ).accepted
            svc.import_state(flows, jitters)
            svc._engine._proc.terminate()
            q = svc.query("keep")
            assert q["admitted"] is True
            assert svc.query("gone") == {"admitted": False}
            assert svc.admitted_names == ("keep",)
        finally:
            svc.close()


# ----------------------------------------------------------------------
# TCP end-to-end
# ----------------------------------------------------------------------
async def _serve(svc, **server_kwargs):
    server = AdmissionServer(svc, port=0, **server_kwargs)
    await server.start()
    return server


class TestTcpFaults:
    def test_dead_worker_degrades_over_tcp(self):
        # Satellite: the dead-worker degradation path end-to-end over
        # TCP — ordered, coded error responses; barrier ops still serve.
        sc = two_star_scenario()

        async def run():
            svc = ShardedAdmissionService(
                sc.network, workers=True, supervise=False,
            )
            server = await _serve(svc)
            try:
                svc._engine._proc.terminate()
                svc._engine._proc.join(timeout=5.0)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.service import encode_line

                reqs = [
                    Request(op="stats", id=0),
                    Request(op="admit", id=1,
                            flow=call_flow("b", ("sw1_w", "sw1", "sw1_x"))),
                    Request(op="health", id=2),
                ]
                for req in reqs:
                    writer.write(encode_line(request_to_dict(req)))
                await writer.drain()
                docs = [
                    json.loads(await reader.readline()) for _ in reqs
                ]
                writer.close()
                await writer.wait_closed()
                return docs
            finally:
                await server.stop()
                svc.close()

        ok_doc, dead_doc, health_doc = asyncio.run(run())
        assert [d["id"] for d in (ok_doc, dead_doc, health_doc)] == [0, 1, 2]
        assert ok_doc["ok"] and ok_doc["admitted"] == 0
        assert not dead_doc["ok"]
        assert dead_doc["code"] == ERR_UNAVAILABLE
        assert is_retryable(dead_doc)
        assert health_doc["status"] == "degraded"
        assert health_doc["dead_shards"] == [0]
        assert health_doc["server"]["queue_depth"] == 0

    def test_chaos_replay_with_retries_matches_serial(self):
        # The headline e2e: worker kills + dropped connections, client
        # retries with idempotency keys -> decisions identical to a
        # fault-free in-process engine fed one request at a time.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )
        serial = replay_serial(sc.network, trace, sc.options)
        plan = FaultPlan.parse(
            "kill:shard=0,at=5;kill:shard=0,at=20,incarnation=1;"
            "drop_conn:at=11"
        )

        async def run():
            svc = ShardedAdmissionService(
                sc.network, workers=True, fault_plan=plan,
            )
            server = await _serve(svc, fault_plan=plan)
            try:
                summary = await replay_over_tcp(
                    "127.0.0.1", server.port, trace, window=8,
                    retry=RetryPolicy(attempts=5, base_s=0.01, seed=1),
                    request_timeout=30.0,
                )
                return summary, server.conns_dropped, svc.health()
            finally:
                await server.stop()
                svc.close()

        summary, dropped, health = asyncio.run(run())
        assert dropped == 1, "the drop_conn fault must have fired"
        assert health["restarts"] == 2, "both kills must have fired"
        assert summary.retries > 0
        assert summary.admit_decisions == serial.admit_decisions
        assert summary.errors == serial.errors

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="reads /proc/<pid>/fd; workers are forked only on Linux",
    )
    def test_respawned_worker_holds_no_client_socket(self):
        # A worker forked while a client is connected inherits the
        # client's connection.  It must close it (and every other
        # inherited socket but its pipe), or a connection the server
        # closes sends no FIN while the worker lives and the client
        # waits out its request timeout.
        sc = two_star_scenario()
        plan = FaultPlan.parse("kill:shard=0,at=1;drop_conn:at=3")
        flows = [
            call_flow(f"c{i}", ("sw0_a", "sw0", "sw0_b")) for i in range(4)
        ]

        def sockets(pid):
            fd_dir = f"/proc/{pid}/fd"
            links = []
            for name in os.listdir(fd_dir):
                try:
                    links.append(os.readlink(f"{fd_dir}/{name}"))
                except OSError:
                    continue
            return [link for link in links if link.startswith("socket:")]

        async def run():
            from repro.service import encode_line

            svc = ShardedAdmissionService(
                sc.network, workers=True, fault_plan=plan,
            )
            server = await _serve(svc, fault_plan=plan)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                docs = []
                for i, flow in enumerate(flows[:3]):
                    # Request 1 kills the worker; the supervisor forks
                    # its replacement while this client is connected.
                    req = Request(op="admit", id=i, flow=flow)
                    writer.write(encode_line(request_to_dict(req)))
                    await writer.drain()
                    docs.append(json.loads(await reader.readline()))
                worker = svc._engine._proc.pid
                held = sockets(worker)
                # Response 3 is dropped: the server closes the
                # connection, which must reach the client as EOF.
                req = Request(op="admit", id=3, flow=flows[3])
                writer.write(encode_line(request_to_dict(req)))
                await writer.drain()
                tail = await asyncio.wait_for(reader.read(), timeout=10.0)
                writer.close()
                return docs, held, tail, svc.health()
            finally:
                await server.stop()
                svc.close()

        docs, held, tail, health = asyncio.run(run())
        assert [d["ok"] for d in docs] == [True, True, True]
        assert health["restarts"] == 1, "the kill must have fired"
        assert len(held) == 1, f"worker sockets besides its pipe: {held}"
        assert tail == b""

    def test_idempotent_retries_never_double_apply(self):
        # Same idem key twice (across batches): the second response is
        # the cached first — not an "already admitted" error.
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = await _serve(svc)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.service import encode_line

                admit = Request(op="admit", id=1, flow=sc.flows[0],
                                idem="t#0")
                writer.write(encode_line(request_to_dict(admit)))
                await writer.drain()
                first = json.loads(await reader.readline())
                retry = Request(op="admit", id=2, flow=sc.flows[0],
                                idem="t#0")
                writer.write(encode_line(request_to_dict(retry)))
                await writer.drain()
                second = json.loads(await reader.readline())
                # Duplicate release in ONE batch: executes once.
                rel = Request(op="release", id=3,
                              flow_name=sc.flows[0].name, idem="t#1")
                rel2 = Request(op="release", id=4,
                               flow_name=sc.flows[0].name, idem="t#1")
                writer.write(encode_line(request_to_dict(rel)))
                writer.write(encode_line(request_to_dict(rel2)))
                await writer.drain()
                third = json.loads(await reader.readline())
                fourth = json.loads(await reader.readline())
                stats = svc.stats()
                writer.close()
                await writer.wait_closed()
                return first, second, third, fourth, stats, server.idem_hits
            finally:
                await server.stop()
                svc.close()

        first, second, third, fourth, stats, hits = asyncio.run(run())
        assert first["ok"] and first["accepted"]
        assert second["ok"] and second["accepted"] and second["id"] == 2
        assert third["ok"] and third["released"]
        assert fourth["ok"] and fourth["released"] and fourth["id"] == 4
        assert hits == 2
        # The service saw each logical op exactly once.
        assert stats["offered"] == 1 and stats["released"] == 1
        assert stats["errors"] == 0

    def test_load_shedding_with_retry_after(self):
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            gate = asyncio.Event()
            real = svc.process_batch

            def slow(requests):
                while not gate.is_set():
                    time.sleep(0.005)
                return real(requests)

            svc.process_batch = slow
            server = await _serve(svc, batch_max=1, max_queue=2)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # First request occupies the dispatcher; the rest pile
                # into the queue until it sheds.
                for i in range(8):
                    writer.write(
                        json.dumps({"v": 2, "id": i, "op": "stats"})
                        .encode() + b"\n"
                    )
                    await writer.drain()
                    await asyncio.sleep(0.02)
                gate.set()
                docs = [
                    json.loads(await reader.readline()) for _ in range(8)
                ]
                writer.close()
                await writer.wait_closed()
                return docs, server.requests_shed
            finally:
                gate.set()
                await server.stop()
                svc.close()

        docs, shed = asyncio.run(run())
        assert [d["id"] for d in docs] == list(range(8)), "order preserved"
        shed_docs = [d for d in docs if not d["ok"]]
        assert shed == len(shed_docs) > 0
        for doc in shed_docs:
            assert doc["code"] == ERR_OVERLOADED
            assert doc["retry_after"] > 0
            assert is_retryable(doc)
        served = [d for d in docs if d["ok"]]
        assert served and all("server_sheds" in d for d in served)

    def test_expired_deadline_is_shed_not_served(self):
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            server = await _serve(svc)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                doc = {"v": 2, "id": 1, "op": "stats", "deadline_s": 0.0}
                writer.write(json.dumps(doc).encode() + b"\n")
                writer.write(b'{"v": 2, "id": 2, "op": "stats"}\n')
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
        assert not first["ok"] and first["code"] == ERR_DEADLINE
        assert is_retryable(first)
        assert second["ok"], "later requests on the connection unaffected"

    def test_health_verb_in_process(self):
        sc = saturating_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            payload = svc.process_batch([Request(op="health")])[0]
        assert payload["status"] == "ok"
        assert payload["restarts"] == 0
        assert payload["shards"][0]["backend"] == "inline"
