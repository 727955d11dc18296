"""Versioned JSON round-trip for :class:`~repro.scenario.model.Scenario`.

Schema v1 is a strict superset of the legacy :mod:`repro.io` format::

    {
      "schema_version": 1,
      "name": "my-scenario",
      "network": {...},          # repro.io network document
      "flows": [...],            # repro.io flow documents
      "analysis": {...},         # AnalysisOptions fields (optional)
      "sim": {...},              # SimConfig fields (optional)
      "generator": {"family": "...", "params": {...}},   # optional
      "churn": [{"action": "admit", "flow": {...}}, ...] # optional
    }

Because ``network``/``flows`` keep the legacy layout at the top level,
files written here remain loadable by :func:`repro.io.load_scenario`,
and every pre-existing legacy file (no ``schema_version``) loads as a
v1 scenario with default analysis/sim options.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Mapping

from repro.core.context import AnalysisOptions
from repro.core.packetization import PacketizationConfig
from repro.io import (
    MAX_SCHEMA_VERSION,
    ScenarioError,
    flow_from_dict,
    flow_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.scenario.model import ChurnEvent, Scenario, ScenarioSpec
from repro.sim.simulator import SimConfig

#: Current scenario-document schema version.  Legacy ``repro.io``
#: documents (no ``schema_version`` key) are treated as version 0.
#: Kept in lock-step with :data:`repro.io.MAX_SCHEMA_VERSION` so the
#: legacy loader can gate on the same number.
SCHEMA_VERSION = MAX_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Option blocks (generic dataclass field round-trip)
# ----------------------------------------------------------------------
def _fields_to_dict(obj: Any) -> dict[str, Any]:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


#: Option keys that once chose between a fast and a reference path,
#: mapped to the value naming the path that remains.  Documents written
#: while they existed (scenario files, service snapshots) carry them;
#: they still load when the value matches and are refused otherwise.
_REMOVED_ANALYSIS_KEYS = {
    "accelerate_fixed_points": True,
    "incremental_holistic": True,
    "memoize_stages": True,
    "flat_demand_arrays": True,
    "anderson_fixed_points": False,
}
_REMOVED_SIM_KEYS = {"fast": True}


def _dict_to_fields(
    cls,
    doc: Mapping[str, Any],
    label: str,
    removed: Mapping[str, bool] | None = None,
) -> Any:
    doc = dict(doc)
    for key, kept in (removed or {}).items():
        if key in doc:
            value = doc.pop(key)
            if value is not kept:
                raise ScenarioError(
                    f"{label}: option {key!r} was removed; a document "
                    f"may carry it only as {json.dumps(kept)}, the path "
                    f"that remains (got {value!r})"
                )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ScenarioError(
            f"{label}: unknown key(s) {sorted(unknown)!r}; "
            f"expected a subset of {sorted(known)!r}"
        )
    return cls(**doc)


def analysis_options_to_dict(options: AnalysisOptions) -> dict[str, Any]:
    return _fields_to_dict(options)


def analysis_options_from_dict(doc: Mapping[str, Any]) -> AnalysisOptions:
    return _dict_to_fields(
        AnalysisOptions, doc, "analysis options", _REMOVED_ANALYSIS_KEYS
    )


def sim_config_to_dict(sim: SimConfig) -> dict[str, Any]:
    out = _fields_to_dict(sim)
    out["packetization"] = _fields_to_dict(sim.packetization)
    return out


def sim_config_from_dict(doc: Mapping[str, Any]) -> SimConfig:
    doc = dict(doc)
    pkt = doc.pop("packetization", None)
    sim = _dict_to_fields(SimConfig, doc, "sim config", _REMOVED_SIM_KEYS)
    if pkt is not None:
        pkt_cfg = _dict_to_fields(
            PacketizationConfig, pkt, "sim config packetization"
        )
        sim = dataclasses.replace(sim, packetization=pkt_cfg)
    return sim


def churn_event_to_dict(event: ChurnEvent) -> dict[str, Any]:
    if event.action == "admit":
        return {"action": "admit", "flow": flow_to_dict(event.flow)}
    return {"action": "release", "flow_name": event.flow_name}


def churn_event_from_dict(doc: Mapping[str, Any]) -> ChurnEvent:
    action = doc.get("action")
    if action == "admit":
        if "flow" not in doc:
            raise ScenarioError("admit churn event: missing 'flow'")
        return ChurnEvent(action="admit", flow=flow_from_dict(doc["flow"]))
    if action == "release":
        if "flow_name" not in doc:
            raise ScenarioError("release churn event: missing 'flow_name'")
        return ChurnEvent(action="release", flow_name=str(doc["flow_name"]))
    raise ScenarioError(f"churn event: unknown action {action!r}")


# ----------------------------------------------------------------------
# Whole-scenario documents
# ----------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "name": scenario.name,
        "network": network_to_dict(scenario.network),
        "flows": [flow_to_dict(f) for f in scenario.flows],
        "analysis": analysis_options_to_dict(scenario.options),
        "sim": sim_config_to_dict(scenario.sim),
    }
    if scenario.generator is not None:
        doc["generator"] = {
            "family": scenario.generator.family,
            "params": scenario.generator.kwargs,
        }
    if scenario.churn:
        doc["churn"] = [churn_event_to_dict(ev) for ev in scenario.churn]
    return doc


def scenario_from_dict(
    doc: Mapping[str, Any], *, default_name: str = "scenario"
) -> Scenario:
    """Build a :class:`Scenario` from a v1 *or* legacy document.

    Legacy documents (no ``schema_version``) are the pre-scenario
    ``repro.io`` format: ``network`` + ``flows`` only.  They load with
    default analysis/sim options and ``default_name``.
    """
    version = doc.get("schema_version", 0)
    if not isinstance(version, int) or version < 0:
        raise ScenarioError(f"invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario schema_version {version} is newer than the "
            f"supported version {SCHEMA_VERSION}"
        )
    if "network" not in doc:
        raise ScenarioError("scenario document: missing 'network' section")
    network = network_from_dict(doc["network"])
    flows = tuple(flow_from_dict(f) for f in doc.get("flows", []))

    options = AnalysisOptions()
    sim = SimConfig()
    generator = None
    churn: tuple[ChurnEvent, ...] = ()
    name = str(doc.get("name", default_name)) or default_name
    if version >= 1:
        if "analysis" in doc:
            options = analysis_options_from_dict(doc["analysis"])
        if "sim" in doc:
            sim = sim_config_from_dict(doc["sim"])
        if "generator" in doc:
            gen = doc["generator"]
            if "family" not in gen:
                raise ScenarioError("generator block: missing 'family'")
            generator = ScenarioSpec.of(
                str(gen["family"]), **dict(gen.get("params", {}))
            )
        churn = tuple(
            churn_event_from_dict(ev) for ev in doc.get("churn", [])
        )
    return Scenario(
        name=name,
        network=network,
        flows=flows,
        options=options,
        sim=sim,
        generator=generator,
        churn=churn,
    )


def save_scenario_file(path: str | Path, scenario: Scenario) -> None:
    """Write a v1 scenario JSON file (pretty-printed, stable ordering)."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True)
        + "\n"
    )


def load_scenario_file(path: str | Path) -> Scenario:
    """Read a scenario file — v1 or legacy — and validate it."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return scenario_from_dict(doc, default_name=path.stem)
