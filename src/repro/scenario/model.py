"""First-class scenario objects: one self-contained experiment unit.

A :class:`Scenario` bundles everything one analyze/simulate/validate/
admit run needs — the topology, the flow set, the analysis knobs, the
simulation knobs, the provenance of how the workload was generated and
an optional admission *churn* sequence — so sweeps, campaign runs and
scenario files all speak the same object instead of each consumer
hand-rolling its own ``(network, flows, kwargs...)`` plumbing.

The pieces:

* :class:`Scenario` — the frozen bundle itself;
* :class:`ChurnEvent` — one admit/release step of an admission-control
  storyline (drives :func:`repro.scenario.campaign.action_admit`);
* :class:`ScenarioSpec` — a *recipe*: a registered generator-family
  name plus parameters.  Specs are tiny, picklable and JSON-able, so a
  campaign can ship them to worker processes and let each worker build
  its scenario locally (see :mod:`repro.scenario.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.context import AnalysisOptions
from repro.model.flow import Flow, check_unique_names
from repro.model.network import Network
from repro.model.routing import validate_route
from repro.sim.config import SimConfig


@dataclass(frozen=True)
class ChurnEvent:
    """One step of an admission-control storyline.

    ``action`` is ``"admit"`` (``flow`` required) or ``"release"``
    (``flow_name`` required).  A scenario's churn sequence is replayed
    by the campaign ``admit`` action after the scenario's base flows
    have been offered.
    """

    action: str
    flow: Flow | None = None
    flow_name: str | None = None

    def __post_init__(self) -> None:
        if self.action == "admit":
            if self.flow is None:
                raise ValueError("admit events need a flow")
        elif self.action == "release":
            if self.flow_name is None:
                raise ValueError("release events need a flow_name")
        else:
            raise ValueError(
                f"unknown churn action {self.action!r} (admit/release)"
            )

    @property
    def target(self) -> str:
        """Name of the flow the event concerns."""
        return self.flow.name if self.flow is not None else self.flow_name


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario *recipe*: registered family name + parameters.

    ``params`` is stored as a key-sorted tuple of ``(key, value)``
    pairs so specs are hashable, their labels deterministic, and the
    JSON round-trip canonical.  Values must be picklable; keep them
    JSON-able (numbers, strings, booleans) if the built scenario is
    ever saved with its provenance.
    """

    family: str
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", tuple(sorted(self.params, key=lambda kv: kv[0]))
        )

    @classmethod
    def of(cls, family: str, **params: Any) -> "ScenarioSpec":
        return cls(family=family, params=tuple(params.items()))

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def label(self) -> str:
        """Canonical display name, e.g. ``random-line[seed=3,u=0.5]``."""
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}[{inner}]"

    def build(self) -> "Scenario":
        """Resolve this spec against the global registry."""
        from repro.scenario.registry import REGISTRY  # cycle-free import

        return REGISTRY.build(self.family, **self.kwargs)


@dataclass(frozen=True)
class Scenario:
    """A complete, self-describing experiment unit.

    Attributes
    ----------
    name:
        Unique label of the scenario within a campaign (table key).
    network, flows:
        The topology and the offered flow set (routes are validated and
        flow names checked unique on construction).
    options:
        :class:`~repro.core.context.AnalysisOptions` every analysis
        action uses.
    sim:
        :class:`~repro.sim.config.SimConfig` every simulation action
        uses (including failure-injection knobs ``nic_fifo_capacity``
        and ``priority_levels``).
    generator:
        Provenance: the :class:`ScenarioSpec` this scenario was built
        from, or ``None`` for hand-built scenarios.  Round-trips
        through the JSON schema so a saved scenario can be regenerated.
    churn:
        Optional admit/release sequence applied after the base flows
        during the campaign ``admit`` action.
    """

    name: str
    network: Network
    flows: tuple[Flow, ...]
    options: AnalysisOptions = AnalysisOptions()
    sim: SimConfig = SimConfig()
    generator: ScenarioSpec | None = None
    churn: tuple[ChurnEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        object.__setattr__(self, "churn", tuple(self.churn))
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        check_unique_names(self.flows)
        for f in self.flows:
            validate_route(self.network, f.route)
        for ev in self.churn:
            if ev.action == "admit":
                validate_route(self.network, ev.flow.route)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def flow(self, name: str) -> Flow:
        for f in self.flows:
            if f.name == name:
                return f
        raise KeyError(f"scenario {self.name!r} has no flow {name!r}")

    def workload_events(self) -> tuple[ChurnEvent, ...]:
        """The full admission storyline: base flows offered in order,
        then the churn sequence.  The campaign ``admit`` action and the
        service replay driver both consume this, so a scenario means
        the same workload everywhere."""
        return (
            *(ChurnEvent(action="admit", flow=f) for f in self.flows),
            *self.churn,
        )

    def with_options(self, options: AnalysisOptions) -> "Scenario":
        return replace(self, options=options)

    def with_sim(self, sim: SimConfig) -> "Scenario":
        return replace(self, sim=sim)

    def describe(self) -> str:
        """One-line human summary (campaign table / ``generate`` echo)."""
        nodes = sum(1 for _ in self.network.nodes())
        links = sum(1 for _ in self.network.links())
        bits = [
            f"{self.name}: {nodes} nodes, {links} links, "
            f"{len(self.flows)} flows"
        ]
        if self.churn:
            bits.append(f"{len(self.churn)} churn events")
        if self.generator is not None:
            bits.append(f"from {self.generator.label()}")
        return ", ".join(bits)
