"""Unified scenario subsystem: declarative scenarios + campaign runner.

Three layers (see the ROADMAP north-star "as many scenarios as you can
imagine"):

* :mod:`repro.scenario.model` — the frozen :class:`Scenario` bundle
  (network + flows + analysis options + sim config + generator
  provenance + churn sequence) and the tiny :class:`ScenarioSpec`
  recipe;
* :mod:`repro.scenario.registry` — named generator families
  (``@register_scenario``) with parametric-grid expansion; built-in
  families live in :mod:`repro.scenario.families`;
* :mod:`repro.scenario.campaign` — :class:`CampaignRunner`: fan a
  scenario list/grid across a multiprocessing pool with
  analyze/simulate/validate/admit actions, returning deterministic
  :class:`CampaignResult` rows.

JSON round-trip (versioned, legacy-compatible) lives in
:mod:`repro.scenario.serialization`.

The names below resolve on first access, so loading a scenario file
(``scenario_from_dict``) imports neither the generator families (and
numpy) nor the campaign runner (and the simulator).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "campaign": (
            "ACTIONS",
            "CampaignResult",
            "CampaignRunner",
            "campaign_digest",
        ),
        "model": ("ChurnEvent", "Scenario", "ScenarioSpec"),
        "registry": (
            "REGISTRY",
            "ScenarioRegistry",
            "build_scenario",
            "expand_grid",
            "register_scenario",
            "scenario_grid",
        ),
        "serialization": (
            "SCHEMA_VERSION",
            "load_scenario_file",
            "save_scenario_file",
            "scenario_from_dict",
            "scenario_to_dict",
        ),
    },
)
