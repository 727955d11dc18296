"""Discrete-event simulator of the multihop software-switched network.

The paper's evaluation platform is a physical Click-based switch; this
simulator stands in for it: it executes the same queueing and
scheduling mechanisms the analysis models —

* sources releasing GMF frame sequences (with generalized jitter) into
  work-conserving output queues,
* links serialising Ethernet frames at ``linkspeed`` plus propagation,
* switches running per-interface ingress/egress tasks under stride
  (round-robin) scheduling with ``CROUTE``/``CSEND`` costs and
  prioritised output queues —

and measures per-UDP-packet end-to-end response times, which experiment
E4 compares against the analysis bounds (simulated max must never
exceed the bound).

Entry point: :func:`repro.sim.simulator.simulate`.
"""

from repro.sim.engine import EventEngine
from repro.sim.release import (
    BurstJitterPolicy,
    EagerRelease,
    PeriodicRelease,
    RandomRelease,
    ReleasePolicy,
    SpreadJitterPolicy,
)
from repro.sim.trace import PacketRecord, SimulationTrace
from repro.sim.simulator import SimConfig, Simulator, simulate

__all__ = [
    "BurstJitterPolicy",
    "EagerRelease",
    "EventEngine",
    "PacketRecord",
    "PeriodicRelease",
    "RandomRelease",
    "ReleasePolicy",
    "SimConfig",
    "SimulationTrace",
    "Simulator",
    "SpreadJitterPolicy",
    "simulate",
]
