"""Simulation knobs: :class:`SimConfig`.

Kept apart from :mod:`repro.sim.simulator` so that scenario documents
and the admission server can carry a simulation configuration without
loading the simulator (or numpy, which it assembles releases with).
:class:`SimConfig` stays importable from :mod:`repro.sim.simulator` and
:mod:`repro.sim`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.packetization import DEFAULT_CONFIG, PacketizationConfig


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs.

    Attributes
    ----------
    duration:
        Horizon in seconds; frames arriving up to the horizon are
        released, and the run continues until in-flight packets drain
        (bounded by ``drain_factor * duration``).
    switch_mode:
        ``"event"`` (efficient) or ``"rotation"`` (pessimistic, fixed
        ``CIRC`` rotation) — see :mod:`repro.sim.swnode`.
    idle_cost:
        Cost of a no-work task dispatch in event mode (0 = free).
    source_discipline:
        ``"fifo"`` or ``"priority"`` output queues at sources.
    packetization:
        Wire model; must match the analysis options when validating.
    drain_factor:
        Extra time (fraction of ``duration``) allowed for draining.
    nic_fifo_capacity:
        Capacity of every switch NIC FIFO in Ethernet frames; ``None``
        (default) models the analysis' no-loss assumption.  A finite
        value enables overflow/failure-injection experiments — dropped
        fragments leave their UDP packet permanently incomplete.
    priority_levels:
        Number of 802.1p levels enforced by switch output queues
        (commercial switches support 2-8); ``None`` = unlimited.
    """

    duration: float = 1.0
    switch_mode: str = "event"
    idle_cost: float = 0.0
    source_discipline: str = "fifo"
    packetization: PacketizationConfig = DEFAULT_CONFIG
    drain_factor: float = 0.5
    nic_fifo_capacity: int | None = None
    priority_levels: int | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.drain_factor < 0:
            raise ValueError("drain_factor must be >= 0")
