"""Replicated engine: journal-shipped standby, failover, state schema.

The contract under test: with a warm standby fed by the primary's
journal (ship-on-commit), killing a primary at *any* op index yields
decisions, query responses and an exported state document
byte-identical to a fault-free run — promotion never loses a committed
op and never invents one.
"""

import asyncio
import json
import time

import pytest

from repro.io import ScenarioError
from repro.service import (
    STATE_VERSION,
    AdmissionServer,
    ConnectError,
    FaultPlan,
    ProtocolError,
    ShardedAdmissionService,
    connect_with_backoff,
    replay_service,
    request_from_dict,
    service_state_from_dict,
    service_state_to_dict,
    trace_from_scenario,
)
from repro.service.faults import DURING_PROMOTION, FaultError
from test_service import call_flow, saturating_scenario, two_star_scenario


def _run_two_star(trace, *, plan=None, replicas=0, batch=8, **kwargs):
    """One worker-backed replay on the two-star network; returns the
    full comparison surface (decisions, queries, state doc, health)."""
    sc = two_star_scenario()
    with ShardedAdmissionService(
        sc.network, workers=True, replicas=replicas, fault_plan=plan,
        **kwargs,
    ) as svc:
        summary = replay_service(svc, trace, batch=batch)
        queries = [svc.query(name) for name in sorted(svc.admitted_names)]
        doc = service_state_to_dict(svc)
        health = svc.health()
    return summary, queries, doc, health


# ----------------------------------------------------------------------
# Fault plan: replication kinds
# ----------------------------------------------------------------------
class TestReplicationFaults:
    def test_parse_round_trip(self):
        spec = (
            "kill_standby:shard=0,at=3;drop_journal:shard=1,at=40;"
            "kill:shard=0,during=promotion,at=1;"
            "kill_standby:shard=0,at=2,incarnation=1;seed=5"
        )
        plan = FaultPlan.parse(spec)
        assert plan.seed == 5
        assert len(plan.faults) == 4
        assert plan == FaultPlan.from_dict(plan.to_dict())
        assert json.dumps(plan.to_dict())  # JSON-able
        kinds = sorted(f.kind for f in plan.faults)
        assert kinds == ["drop_journal", "kill", "kill_standby",
                         "kill_standby"]

    def test_selectors(self):
        plan = FaultPlan.parse(
            "kill_standby:shard=0,at=3;kill_standby:shard=0,at=9,"
            "incarnation=1;drop_journal:shard=1,at=40;"
            "drop_journal:shard=1,at=20;kill:shard=0,during=promotion,at=0;"
            "kill:shard=0,at=7"
        )
        assert {f.at for f in plan.standby_faults(shard=0)} == {3, 9}
        assert {f.at for f in plan.standby_faults(shard=0, generation=0)} \
            == {3}
        assert {f.at for f in plan.standby_faults(shard=0, generation=1)} \
            == {9}
        assert plan.standby_faults(shard=1) == ()
        assert plan.drop_journal_at(1) == 20, "earliest drop point wins"
        assert plan.drop_journal_at(0) is None
        promo = plan.promotion_faults(0)
        assert len(promo) == 1 and promo[0].during == DURING_PROMOTION
        # during=promotion kills are supervisor faults, never worker ops.
        assert {f.at for f in plan.worker_faults(shard=0)} == {7}
        assert len(plan.replication_faults()) == 5

    def test_validation(self):
        with pytest.raises(FaultError, match="needs shard"):
            FaultPlan.parse("kill_standby:at=1")
        with pytest.raises(FaultError, match="needs shard"):
            FaultPlan.parse("drop_journal:at=1")
        with pytest.raises(FaultError, match="during"):
            FaultPlan.parse("kill_standby:shard=0,during=promotion,at=0")
        with pytest.raises(FaultError, match="during"):
            FaultPlan.parse("kill:shard=0,during=restore,at=0")

    def test_replication_faults_require_replicas(self):
        sc = two_star_scenario()
        plan = FaultPlan.parse("kill_standby:shard=0,at=1")
        with pytest.raises(ValueError, match="replicas"):
            ShardedAdmissionService(sc.network, workers=True, fault_plan=plan)
        with pytest.raises(ValueError, match="workers=True"):
            ShardedAdmissionService(sc.network, replicas=1)


# ----------------------------------------------------------------------
# connect_with_backoff: deadline + attempt accounting
# ----------------------------------------------------------------------
class TestConnectError:
    def test_max_attempts_bounds_the_loop(self):
        async def run():
            with pytest.raises(ConnectError) as err:
                # Port 1: connects are refused instantly, so the loop
                # is bounded by attempts, not the (long) deadline.
                await connect_with_backoff(
                    "127.0.0.1", 1, timeout=30.0, max_attempts=3,
                )
            return err.value

        exc = asyncio.run(run())
        assert isinstance(exc, OSError), "legacy catch-sites keep working"
        assert exc.attempts == 3
        assert exc.elapsed_s > 0.0
        assert isinstance(exc.last_error, OSError)
        assert "3 attempt(s)" in str(exc)

    def test_deadline_reported_in_error(self):
        async def run():
            start = time.monotonic()
            with pytest.raises(ConnectError) as err:
                await connect_with_backoff("127.0.0.1", 1, timeout=0.25)
            return err.value, time.monotonic() - start

        exc, elapsed = asyncio.run(run())
        assert exc.attempts >= 1
        assert 0.2 <= exc.elapsed_s <= elapsed < 5.0


# ----------------------------------------------------------------------
# Warm failover: byte-identical decisions at every kill point
# ----------------------------------------------------------------------
class TestWarmFailover:
    def test_failover_byte_identical_with_counters(self):
        # The headline: the primary killed twice mid-trace, the second
        # time as the promoted standby (incarnation 1); promotions are
        # warm (failovers, no cold restores) and the entire observable
        # surface equals the fault-free run's.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )
        clean, clean_q, clean_doc, clean_h = _run_two_star(
            trace, replicas=1
        )
        plan = FaultPlan.parse(
            "kill:shard=0,at=5;kill:shard=0,at=20,incarnation=1"
        )
        faulted, faulted_q, faulted_doc, faulted_h = _run_two_star(
            trace, plan=plan, replicas=1
        )

        assert clean_h["failovers"] == 0
        assert faulted_h["failovers"] == 2, "both kills must have fired"
        assert faulted_h["cold_restores"] == 0, "no cold path taken"
        assert faulted_h["restarts"] == 0
        assert faulted_h["failover_s_total"] > 0.0
        assert faulted_h["recovery_s_total"] == 0.0
        assert faulted_h["status"] == "ok"
        assert faulted.admit_decisions == clean.admit_decisions
        assert faulted.errors == clean.errors
        assert faulted_q == clean_q
        assert faulted_doc == clean_doc
        assert json.dumps(faulted_doc, sort_keys=True) == json.dumps(
            clean_doc, sort_keys=True
        )

    def test_successive_failovers_keep_separate_flight_records(
        self, tmp_path
    ):
        # Warm promotion does not count as a restart, so the two deaths
        # below share a restart count; the incarnation in the file name
        # keeps the second worker_death record from replacing the first.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )
        plan = FaultPlan.parse(
            "kill:shard=0,at=5;kill:shard=0,at=20,incarnation=1"
        )
        *_, health = _run_two_star(
            trace, plan=plan, replicas=1, flight_dir=str(tmp_path)
        )
        assert health["failovers"] == 2 and health["restarts"] == 0
        deaths = [
            doc
            for doc in (
                json.loads(p.read_text())
                for p in sorted(tmp_path.glob("flight_*.json"))
            )
            if doc["reason"] == "worker_death"
        ]
        assert len(deaths) == 2
        assert sorted(doc["incarnation"] for doc in deaths) == [0, 1]

    def test_kill_sweep_every_op_is_lossless(self):
        # The property test: killing the primary at ANY op index k
        # gives byte-identical results.  Full sweep at seed 0;
        # spot checks at seeds 1-2 (and without a standby) below.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=12, arrival="burst", burst_size=4, hold=6,
            seed=0,
        )
        clean = _run_two_star(trace, replicas=1)
        fired = 0
        for k in range(13):
            plan = FaultPlan.parse(f"kill:shard=0,at={k}")
            faulted = _run_two_star(trace, plan=plan, replicas=1)
            assert faulted[0].admit_decisions == clean[0].admit_decisions, \
                f"decisions diverged for kill at op {k}"
            assert faulted[1] == clean[1], f"queries diverged at op {k}"
            assert faulted[2] == clean[2], f"state doc diverged at op {k}"
            assert faulted[3]["cold_restores"] == 0
            fired += faulted[3]["failovers"]
        assert fired >= 3, "the sweep must actually exercise failovers"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_kill_spot_checks_other_seeds(self, seed):
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=12, arrival="poisson", rate=500, hold=6,
            seed=seed,
        )
        clean = _run_two_star(trace, replicas=1)
        for k in (0, 3, 7):
            plan = FaultPlan.parse(f"kill:shard=0,at={k}")
            faulted = _run_two_star(trace, plan=plan, replicas=1)
            assert faulted[0].admit_decisions == clean[0].admit_decisions
            assert faulted[2] == clean[2]
            assert faulted[3]["cold_restores"] == 0

    def test_kill_spot_checks_without_standby(self):
        # The same kills without a live standby take PR 7's cold path —
        # still byte-identical, but as restarts, not failovers.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=12, arrival="burst", burst_size=4, hold=6,
            seed=0,
        )
        clean = _run_two_star(trace, replicas=0)
        for k in (0, 3, 7):
            plan = FaultPlan.parse(f"kill:shard=0,at={k}")
            faulted = _run_two_star(trace, plan=plan, replicas=0)
            assert faulted[0].admit_decisions == clean[0].admit_decisions
            assert faulted[2] == clean[2]
            assert faulted[3]["failovers"] == 0

    def test_replica_health_and_stats_surface(self):
        sc = two_star_scenario()
        with ShardedAdmissionService(
            sc.network, workers=True, replicas=1,
        ) as svc:
            assert svc.admit(
                call_flow("a", ("sw0_a", "sw0", "sw0_b"))
            ).accepted
            health = svc.health()
            stats = svc.stats()
        assert health["replicas"] == 1
        shard_h, = health["shards"]
        assert shard_h["standby_alive"] is True
        assert shard_h["replication_lag_ops"] >= 0
        assert shard_h["cold_restores"] == shard_h["restarts"]
        assert stats["stats_version"] == 5
        for key in ("replicas", "failovers", "failover_s_total",
                    "cold_restores"):
            assert key in stats


# ----------------------------------------------------------------------
# Replication chaos: standby kills, severed journals, promotion kills
# ----------------------------------------------------------------------
class TestReplicationChaos:
    def _trace(self, sc):
        return trace_from_scenario(
            sc, n_requests=40, arrival="burst", burst_size=8, hold=10,
            seed=2,
        )

    def test_standby_killed_then_repaired_before_primary_dies(self):
        # The standby dies early; the primary notices on a later ship
        # and spawns a replacement, so the later primary kill (two
        # batches on) still promotes warm.
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        plan = FaultPlan.parse("kill_standby:shard=0,at=1;kill:shard=0,at=30")
        faulted = _run_two_star(trace, plan=plan, replicas=1)
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[1] == clean[1]
        assert faulted[2] == clean[2]
        assert faulted[3]["failovers"] == 1
        assert faulted[3]["cold_restores"] == 0

    def test_severed_journal_promotes_with_gap_replay(self):
        # drop_journal leaves the standby's high-water mark behind the
        # commit point; promotion must replay exactly the gap.
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        plan = FaultPlan.parse("drop_journal:shard=0,at=6;kill:shard=0,at=14")
        faulted = _run_two_star(trace, plan=plan, replicas=1)
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[2] == clean[2]
        assert faulted[3]["failovers"] == 1
        assert faulted[3]["cold_restores"] == 0

    def test_kill_during_promotion_falls_back_cold(self):
        # The standby dies at the start of the promotion attempt: the
        # supervisor must fall back to cold recovery — slower, never
        # wrong.
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        plan = FaultPlan.parse(
            "kill:shard=0,during=promotion,at=0;kill:shard=0,at=9"
        )
        faulted = _run_two_star(trace, plan=plan, replicas=1)
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[2] == clean[2]
        assert faulted[3]["failovers"] == 0
        assert faulted[3]["cold_restores"] == 1

    def test_combined_chaos_keeps_parity(self):
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        # The first standby (incarnation 1) dies at its op 2.  After the
        # kill at op 15 incarnation 2 serves either way: the repaired
        # standby promoted, or the cold respawn if the dead standby was
        # not yet replaced.  The second kill lands on it.
        plan = FaultPlan.parse(
            "kill_standby:shard=0,at=2;drop_journal:shard=0,at=8;"
            "kill:shard=0,at=15;kill:shard=0,at=20,incarnation=2"
        )
        faulted = _run_two_star(trace, plan=plan, replicas=1)
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[1] == clean[1]
        assert faulted[2] == clean[2]
        assert faulted[3]["failovers"] + faulted[3]["cold_restores"] >= 2

    def test_journal_compaction_under_replication(self):
        # Tight journal_limit forces compactions while shipping; the
        # standby must stay consistent across baseline rebuilds.
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        plan = FaultPlan.parse(
            "kill:shard=0,at=17;kill:shard=0,at=30,incarnation=1"
        )
        faulted = _run_two_star(
            trace, plan=plan, replicas=1, journal_limit=4
        )
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[2] == clean[2]
        assert faulted[3]["failovers"] == 2
        assert faulted[3]["cold_restores"] == 0

    def test_drop_journal_severs_only_the_standby_live_at_the_drop(self):
        # A drop_journal fault fires once: it severs the standby that is
        # live when the ship crosses ``at``, never the replacement
        # spawned after the primary kill.  Each standby is synced before
        # its lag is read, so the comparison does not hang on ack timing.
        sc = two_star_scenario()
        trace = trace_from_scenario(
            sc, n_requests=60, arrival="burst", burst_size=4, hold=6,
            seed=2,
        )
        clean = _run_two_star(trace, replicas=1, batch=4)

        def run(spec):
            with ShardedAdmissionService(
                sc.network, workers=True, replicas=1,
                fault_plan=FaultPlan.parse(spec),
            ) as svc:
                summary = replay_service(svc, trace, batch=4)
                doc = service_state_to_dict(svc)
                standby = svc._engine._standby
                assert standby.sync(30.0)
                return summary, doc, standby.severed, svc.health()

        _, _, _, kill_only = run("kill:shard=0,at=10")
        summary, doc, severed, health = run(
            "drop_journal:shard=0,at=4;kill:shard=0,at=10"
        )
        assert health["failovers"] == kill_only["failovers"] == 1
        assert not severed, "the replacement standby was severed"
        lag, = (s["replication_lag_ops"] for s in health["shards"])
        kill_only_lag, = (
            s["replication_lag_ops"] for s in kill_only["shards"]
        )
        assert lag <= kill_only_lag
        assert summary.admit_decisions == clean[0].admit_decisions
        assert doc == clean[2]

    def test_cold_replacement_takes_no_standby_faults(self):
        # The first promotion is killed, so the primary kill restores
        # cold.  The cold replacement is a worker, not a standby: the
        # kill_standby fault aimed at the first replacement standby
        # (generation 1) must not fire in it, or it would die replaying
        # its journal and burn a second cold restore.
        sc = two_star_scenario()
        trace = self._trace(sc)
        clean = _run_two_star(trace, replicas=1)
        plan = FaultPlan.parse(
            "kill:shard=0,during=promotion,at=0;kill:shard=0,at=9;"
            "kill_standby:shard=0,at=0,incarnation=1"
        )
        faulted = _run_two_star(trace, plan=plan, replicas=1)
        assert faulted[0].admit_decisions == clean[0].admit_decisions
        assert faulted[2] == clean[2]
        assert faulted[3]["cold_restores"] == 1
        assert faulted[3]["failovers"] == 0


# ----------------------------------------------------------------------
# Protocol v3
# ----------------------------------------------------------------------
class TestProtocolV3:
    def test_rebalance_request_refused(self):
        # v4 removed the verb; a v3 client's rebalance is a bad request.
        with pytest.raises(ProtocolError, match="unknown op"):
            request_from_dict({"v": 3, "id": 1, "op": "rebalance",
                               "n_shards": 1})

    def test_older_requests_still_accepted(self):
        assert request_from_dict({"v": 1, "id": 1, "op": "stats"}).op \
            == "stats"
        assert request_from_dict({"v": 2, "id": 1, "op": "health"}).op \
            == "health"


# ----------------------------------------------------------------------
# State schema: v3, and the one-shard v1/v2 documents that still load
# ----------------------------------------------------------------------
def _legacy(doc, version, n_shards=1):
    """``doc`` in the schema v1/v2 layout: one block per shard."""
    legacy = {k: v for k, v in doc.items() if k not in ("flows", "jitters")}
    empty = {"flows": [], "jitters": []}
    legacy.update(
        schema_version=version,
        n_shards=n_shards,
        shard_map={},
        flow_shards={f["name"]: [0] for f in doc["flows"]},
        shards=[{"flows": doc["flows"], "jitters": doc["jitters"]}]
        + [empty] * (n_shards - 1),
    )
    if version == 1:
        legacy.pop("replicas")
    return legacy


class TestStateV2:
    def _doc(self):
        sc = saturating_scenario()
        with ShardedAdmissionService(sc.network) as svc:
            svc.admit(sc.flows[0])
            return service_state_to_dict(svc)

    def test_v2_records_replicas(self):
        sc = two_star_scenario()
        with ShardedAdmissionService(
            sc.network, workers=True, replicas=1,
        ) as svc:
            doc = service_state_to_dict(svc)
        assert doc["schema_version"] == STATE_VERSION
        assert doc["replicas"] == 1

    def test_restore_honours_snapshotted_replicas(self):
        sc = two_star_scenario()
        with ShardedAdmissionService(
            sc.network, workers=True, replicas=1,
        ) as donor:
            donor.admit(call_flow("keep", ("sw0_a", "sw0", "sw0_b")))
            doc = service_state_to_dict(donor)
        with service_state_from_dict(doc, workers=True) as svc:
            assert svc.replicas == 1
            assert svc.query("keep")["admitted"] is True
        # Inline restores cannot run standbys; the knob degrades to 0.
        with service_state_from_dict(doc, workers=False) as inline:
            assert inline.replicas == 0
            assert inline.query("keep")["admitted"] is True

    def test_v1_documents_stay_loadable(self):
        with service_state_from_dict(_legacy(self._doc(), 1)) as svc:
            assert svc.replicas == 0
            assert len(svc.admitted_names) == 1

    def test_one_shard_v2_loads_and_multi_shard_refused(self):
        doc = self._doc()
        with service_state_from_dict(_legacy(doc, 2)) as svc:
            assert service_state_to_dict(svc) == doc
        with pytest.raises(ScenarioError, match="multi-shard serving"):
            service_state_from_dict(_legacy(doc, 2, n_shards=2))

    def test_newer_schema_refused(self):
        doc = self._doc()
        doc["schema_version"] = STATE_VERSION + 1
        with pytest.raises(ScenarioError, match="newer"):
            service_state_from_dict(doc)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_service_shutdown_writes_flight_records(self, tmp_path):
        sc = two_star_scenario()
        svc = ShardedAdmissionService(
            sc.network, workers=True, replicas=1, flight_dir=str(tmp_path),
        )
        assert svc.admit(call_flow("a", ("sw0_a", "sw0", "sw0_b"))).accepted
        svc.shutdown()
        reasons = sorted(
            json.loads(p.read_text())["reason"]
            for p in tmp_path.glob("*.json")
        )
        assert reasons.count("clean_shutdown") == 1, "one for the primary"
        assert reasons.count("clean_shutdown_standby") == 1, \
            "one for the live standby"

    def test_server_shutdown_drains_before_closing(self):
        sc = saturating_scenario()

        async def run():
            svc = ShardedAdmissionService(sc.network)
            real = svc.process_batch

            def slow(requests):
                time.sleep(0.2)  # keep a batch in flight at shutdown
                return real(requests)

            svc.process_batch = slow
            # The batch window is where the dispatcher yields with
            # requests still queued, so shutdown can start behind them.
            server = AdmissionServer(
                svc, port=0, batch_max=1, batch_window_s=0.05
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for i in range(3):
                    writer.write(
                        json.dumps({"v": 3, "id": i, "op": "stats"})
                        .encode() + b"\n"
                    )
                await writer.drain()
                # Let the connection handler queue all three requests;
                # the dispatcher then takes them one batch at a time
                # and the drain marker trails the still-queued rest.
                await asyncio.sleep(0.1)
                assert server._queue.qsize() >= 1, "a backlog to drain"
                await server.shutdown()
                docs = [
                    json.loads(await reader.readline()) for _ in range(3)
                ]
                assert await reader.readline() == b"", "EOF after drain"
                writer.close()
                # New connections are refused once shut down.
                with pytest.raises(OSError):
                    await asyncio.open_connection("127.0.0.1", server.port)
                return docs
            finally:
                svc.close()

        docs = asyncio.run(run())
        assert [d["id"] for d in docs] == [0, 1, 2]
        assert all(d["ok"] for d in docs)
