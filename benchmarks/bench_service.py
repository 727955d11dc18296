"""Admission-service recovery: what surviving worker deaths costs.

One worker-backed engine drains a burst trace over four disjoint VoIP
stars while its worker is killed twice, the second time in the
incarnation that replaced the first.  ``test_service_recovery`` prices
cold recovery (respawn, restore, journal replay);
``test_service_recovery_replicated`` prices warm failover to a
journal-fed standby, which replays only the ship lag.

Decisions are asserted identical to a fresh in-process
:class:`~repro.core.admission.AdmissionController` drain of the same
trace, so every trajectory entry measures the same admitted work.
"""

from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.model.network import Network
from repro.scenario import Scenario
from repro.service import (
    ShardedAdmissionService,
    replay_serial,
    replay_service,
    trace_from_scenario,
)
from repro.util.units import mbps, ms

N_STARS = 4
N_REQUESTS = 96


def _call(name, route):
    return Flow(
        name=name,
        spec=GmfSpec(
            min_separations=(ms(20),),
            deadlines=(ms(20),),
            jitters=(0.0,),
            payload_bits=(20_000,),
        ),
        route=route,
        priority=5,
    )


def _multi_star_scenario():
    """Four disjoint stars; the flow pool round-robins across them."""
    net = Network()
    for s in range(N_STARS):
        net.add_switch(f"sw{s}")
        for h in range(4):
            net.add_endhost(f"s{s}h{h}")
            net.add_duplex_link(f"s{s}h{h}", f"sw{s}", speed_bps=mbps(100))
    flows = []
    for i in range(8):
        s = i % N_STARS
        a, b = (0, 1) if i < N_STARS else (2, 3)
        flows.append(
            _call(f"s{s}call{i}", (f"s{s}h{a}", f"sw{s}", f"s{s}h{b}"))
        )
    return Scenario(name="multi-star", network=net, flows=tuple(flows))


SCENARIO = _multi_star_scenario()
TRACE = trace_from_scenario(
    SCENARIO,
    n_requests=N_REQUESTS,
    arrival="burst",
    burst_size=16,
    burst_gap=0.01,
    hold=12,
    seed=0,
)
# The parity reference: what a fresh in-process engine decides on this trace.
SERIAL = replay_serial(SCENARIO.network, TRACE, SCENARIO.options)


#: Two kills of the one worker: its first incarnation before op 6, then
#: the respawned or promoted incarnation 1 before its op 40.
KILLS = "kill:shard=0,at=6;kill:shard=0,at=40,incarnation=1"


def test_service_recovery(benchmark):
    """Drain the trace while killing the worker twice mid-run.

    The supervisor respawns the dead worker and restores its exact
    state (baseline snapshot + op journal), so the decisions still
    match the in-process reference; the cost of that resilience — respawn,
    restore, journal replay — is what this case prices.
    """
    from repro.service import FaultPlan

    plan = FaultPlan.parse(KILLS)

    def run():
        service = ShardedAdmissionService(
            SCENARIO.network,
            options=SCENARIO.options,
            workers=True,
            fault_plan=plan,
            journal_limit=32,
        )
        try:
            summary = replay_service(service, TRACE, batch=16)
            return summary, service.health()
        finally:
            service.close()

    summary, health = benchmark(run)
    assert summary.admit_decisions == SERIAL.admit_decisions
    assert health["restarts"] == 2
    benchmark.extra_info["requests_per_s"] = round(summary.requests_per_s, 1)
    benchmark.extra_info["restarts"] = health["restarts"]
    benchmark.extra_info["recovery_s"] = round(health["recovery_s_total"], 4)


def test_service_recovery_replicated(benchmark):
    """The same double-kill run with a warm standby.

    Each dead primary is *promoted over* instead of cold-restarted: the
    standby already holds the committed state, so failover replays only
    the ship lag, never the whole journal.  ``failover_s`` vs the cold
    case's ``recovery_s`` is the headline replication number in
    ``BENCH_scaling.json``.
    """
    from repro.service import FaultPlan

    plan = FaultPlan.parse(KILLS)

    def run():
        service = ShardedAdmissionService(
            SCENARIO.network,
            options=SCENARIO.options,
            workers=True,
            replicas=1,
            fault_plan=plan,
            journal_limit=32,
        )
        try:
            summary = replay_service(service, TRACE, batch=16)
            return summary, service.health()
        finally:
            service.close()

    summary, health = benchmark(run)
    assert summary.admit_decisions == SERIAL.admit_decisions
    assert health["failovers"] == 2
    assert health["cold_restores"] == 0
    benchmark.extra_info["requests_per_s"] = round(summary.requests_per_s, 1)
    benchmark.extra_info["failovers"] = health["failovers"]
    benchmark.extra_info["failover_s"] = round(health["failover_s_total"], 4)
