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

The names below resolve on first access, each importing only its own
submodule: a scenario file's :class:`SimConfig` (from the numpy-free
:mod:`repro.sim.config`) loads neither the simulator nor numpy.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": ("SimConfig",),
        "engine": ("EventEngine",),
        "release": (
            "BurstJitterPolicy",
            "EagerRelease",
            "PeriodicRelease",
            "RandomRelease",
            "ReleasePolicy",
            "SpreadJitterPolicy",
        ),
        "simulator": ("Simulator", "simulate"),
        "trace": ("PacketRecord", "SimulationTrace"),
    },
)
