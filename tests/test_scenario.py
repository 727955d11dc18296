"""Scenario subsystem: model, JSON round-trip, registry, campaigns."""

import json
import math

import pytest

from repro.core.context import AnalysisOptions
from repro.io import ScenarioError, load_scenario, save_scenario
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.scenario import (
    REGISTRY,
    CampaignRunner,
    ChurnEvent,
    Scenario,
    ScenarioSpec,
    build_scenario,
    campaign_digest,
    expand_grid,
    load_scenario_file,
    save_scenario_file,
    scenario_from_dict,
    scenario_grid,
    scenario_to_dict,
)
from repro.scenario.campaign import ACTIONS
from repro.scenario.registry import ScenarioRegistry
from repro.sim.simulator import SimConfig
from repro.util.units import ms
from repro.workloads.topologies import fat_tree_network, star_network
from repro.workloads.voip import voip_flow


#: The analysis-option keys that selected between a fast and a
#: reference path before those switches were removed, with the value of
#: the path that remains (what every file written then carries).
REMOVED_ANALYSIS_KEYS = {
    "accelerate_fixed_points": True,
    "anderson_fixed_points": False,
    "incremental_holistic": True,
    "memoize_stages": True,
    "flat_demand_arrays": True,
}


def _tiny_scenario(**overrides) -> Scenario:
    net = star_network(3)
    flow = voip_flow(("h0", "sw", "h1"), name="call0")
    defaults = dict(
        name="tiny",
        network=net,
        flows=(flow,),
        options=AnalysisOptions(strict_paper=False, use_jitter=False),
        sim=SimConfig(duration=0.5, nic_fifo_capacity=4, priority_levels=8),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Model
# ----------------------------------------------------------------------
class TestScenarioModel:
    def test_validates_routes(self):
        net = star_network(3)
        bad = voip_flow(("h0", "h1"), name="x")  # no such link
        with pytest.raises(Exception):
            Scenario(name="bad", network=net, flows=(bad,))

    def test_duplicate_flow_names_rejected(self):
        net = star_network(3)
        f = voip_flow(("h0", "sw", "h1"), name="dup")
        with pytest.raises(Exception):
            Scenario(name="bad", network=net, flows=(f, f))

    def test_churn_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(action="admit")  # missing flow
        with pytest.raises(ValueError):
            ChurnEvent(action="release")  # missing flow_name
        with pytest.raises(ValueError):
            ChurnEvent(action="reboot", flow_name="x")

    def test_spec_params_canonical_order(self):
        a = ScenarioSpec.of("fam", b=2, a=1)
        b = ScenarioSpec.of("fam", a=1, b=2)
        assert a == b
        assert a.label() == "fam[a=1,b=2]"


# ----------------------------------------------------------------------
# JSON round-trip (satellite: versioned schema + legacy compatibility)
# ----------------------------------------------------------------------
class TestScenarioRoundTrip:
    def test_file_round_trip(self, tmp_path):
        sc = _tiny_scenario(churn=(ChurnEvent("release", flow_name="call0"),))
        path = tmp_path / "scenario.json"
        save_scenario_file(path, sc)
        sc2 = load_scenario_file(path)
        assert sc2.name == sc.name
        assert sc2.flows == sc.flows
        assert sc2.options == sc.options
        assert sc2.sim == sc.sim
        assert sc2.churn == sc.churn
        assert sorted(sc2.network.node_names()) == sorted(
            sc.network.node_names()
        )

    def test_generator_provenance_round_trips(self, tmp_path):
        sc = build_scenario("voip-star", seed=5, n_calls=3)
        path = tmp_path / "scenario.json"
        save_scenario_file(path, sc)
        sc2 = load_scenario_file(path)
        assert sc2.generator == sc.generator
        # Regenerating from the stored recipe reproduces the flows.
        assert sc2.generator.build().flows == sc.flows

    def test_legacy_file_loads_as_v1_scenario(self, tmp_path):
        """Pre-scenario (network, flows) files load with defaults."""
        sc = _tiny_scenario()
        path = tmp_path / "legacy.json"
        save_scenario(path, sc.network, sc.flows)  # legacy writer
        assert "schema_version" not in json.loads(path.read_text())
        loaded = load_scenario_file(path)
        assert loaded.flows == sc.flows
        assert loaded.options == AnalysisOptions()  # defaults, not tiny's
        assert loaded.sim == SimConfig()
        assert loaded.name == "legacy"  # from the file stem

    def test_v1_file_loads_through_legacy_io(self, tmp_path):
        """repro.io.load_scenario reads versioned documents too."""
        sc = _tiny_scenario()
        path = tmp_path / "v1.json"
        save_scenario_file(path, sc)
        net, flows = load_scenario(path)
        assert tuple(flows) == sc.flows

    def test_newer_schema_rejected_everywhere(self, tmp_path):
        doc = scenario_to_dict(_tiny_scenario())
        doc["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="newer"):
            load_scenario_file(path)
        with pytest.raises(ScenarioError, match="newer"):
            load_scenario(path)

    def test_unknown_option_keys_rejected(self):
        doc = scenario_to_dict(_tiny_scenario())
        doc["analysis"]["warp_drive"] = True
        with pytest.raises(ScenarioError, match="warp_drive"):
            scenario_from_dict(doc)

    def test_files_with_removed_path_options_still_load(self, tmp_path):
        """Files written while the engine had fast/reference switches
        carry them in every option block, set to the path that
        remains; they load as if the keys were absent."""
        sc = _tiny_scenario()
        doc = scenario_to_dict(sc)
        doc["analysis"].update(REMOVED_ANALYSIS_KEYS)
        doc["sim"]["fast"] = True
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded = load_scenario_file(path)
        assert loaded.options == sc.options
        assert loaded.sim == sc.sim

    @pytest.mark.parametrize(
        "block, key, value",
        [("analysis", k, not v) for k, v in REMOVED_ANALYSIS_KEYS.items()]
        + [("sim", "fast", False)],
    )
    def test_removed_path_options_refused_off_the_kept_path(
        self, block, key, value
    ):
        """Asking for a path that no longer exists is an error naming
        the removed option, not a silent switch to the other path."""
        doc = scenario_to_dict(_tiny_scenario())
        doc[block][key] = value
        with pytest.raises(ScenarioError, match=f"{key}.*removed"):
            scenario_from_dict(doc)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_families_registered(self):
        names = REGISTRY.names()
        for expected in (
            "paper-example",
            "random-line",
            "mpeg-line",
            "voip-star",
            "fat-tree",
            "mixed-criticality",
            "failure-injection",
            "voip-churn",
        ):
            assert expected in names

    def test_generation_deterministic_under_fixed_seed(self):
        for family, params in (
            ("random-line", dict(seed=7, n_flows=5)),
            ("fat-tree", dict(seed=3)),
            ("mixed-criticality", dict(seed=11)),
            ("voip-churn", dict(seed=2, n_calls=6)),
        ):
            a = build_scenario(family, **params)
            b = build_scenario(family, **params)
            assert a.flows == b.flows, family
            assert a.churn == b.churn, family
            assert a.name == b.name, family
            assert sorted(a.network.node_names()) == sorted(
                b.network.node_names()
            ), family

    def test_different_seeds_differ(self):
        a = build_scenario("random-line", seed=0)
        b = build_scenario("random-line", seed=1)
        assert a.flows != b.flows

    def test_build_stamps_provenance(self):
        sc = build_scenario("random-line", seed=4)
        assert sc.generator == ScenarioSpec.of("random-line", seed=4)

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            build_scenario("no-such-family")

    def test_duplicate_registration_rejected(self):
        reg = ScenarioRegistry()
        reg.register("x", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("x", lambda: None)

    def test_grid_expansion(self):
        points = expand_grid(a=(1, 2), b="fixed", c=range(3))
        assert len(points) == 6
        assert points[0] == {"a": 1, "b": "fixed", "c": 0}
        assert points[-1] == {"a": 2, "b": "fixed", "c": 2}
        specs = scenario_grid("random-line", seed=(0, 1), n_flows=3)
        assert [s.kwargs["seed"] for s in specs] == [0, 1]
        assert all(s.family == "random-line" for s in specs)

    def test_failure_injection_sim_knobs(self):
        sc = build_scenario(
            "failure-injection", nic_fifo_capacity=2, priority_levels=2
        )
        assert sc.sim.nic_fifo_capacity == 2
        assert sc.sim.priority_levels == 2
        assert all(f.priority < 2 for f in sc.flows)

    def test_fat_tree_topology_is_multipath(self):
        net = fat_tree_network(spines=2, leaves=3)
        # every leaf reaches every spine
        for j in range(3):
            for i in range(2):
                assert net.has_link(f"leaf{j}", f"spine{i}")


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
class TestCampaignRunner:
    def test_parallel_identical_to_serial(self):
        """The load-bearing determinism claim: jobs=N reproduces jobs=1."""
        specs = scenario_grid(
            "random-line", seed=tuple(range(6)), n_flows=3, utilization=0.4
        )
        serial = CampaignRunner(jobs=1, actions=("analyze",)).run(specs)
        parallel = CampaignRunner(jobs=3, actions=("analyze",)).run(specs)
        assert len(serial) == len(parallel) == 6
        for a, b in zip(serial, parallel):
            assert a.scenario == b.scenario
            assert a.payload == b.payload
        assert campaign_digest(serial) == campaign_digest(parallel)

    def test_scenario_objects_and_specs_equivalent(self):
        spec = ScenarioSpec.of("random-line", seed=9, n_flows=3)
        runner = CampaignRunner(actions=("analyze",))
        from_spec = runner.run([spec])[0]
        from_obj = runner.run([spec.build()])[0]
        assert from_spec.payload == from_obj.payload

    def test_multiple_actions_per_scenario(self):
        sc = build_scenario("voip-star", seed=1, n_calls=2, duration=0.2)
        rows = CampaignRunner(actions=("analyze", "simulate")).run([sc])
        assert [r.action for r in rows] == ["analyze", "simulate"]
        assert rows[0].payload["schedulable"] is True
        assert rows[1].payload["deadline_misses"] == 0
        assert all(r.elapsed_s >= 0 for r in rows)

    def test_validate_action_soundness(self):
        sc = build_scenario(
            "random-line", seed=0, n_flows=3, utilization=0.3, duration=0.5
        )
        (row,) = CampaignRunner(actions=("validate",)).run([sc])
        assert row.payload["converged"]
        assert row.payload["rows"], "expected completed packets"
        for r in row.payload["rows"]:
            assert r["sim_worst"] <= r["bound"] + 1e-9

    def test_admit_action_runs_churn(self):
        sc = build_scenario("voip-churn", n_calls=6, release_every=2)
        # The removed action name still runs, as ``admit``.
        row, merged = CampaignRunner(
            actions=("admit", "admit-hierarchical")
        ).run([sc])
        assert merged.action == "admit"
        assert merged.payload == row.payload
        assert row.payload["offered"] == 6
        releases = [
            s for s in row.payload["steps"] if s["event"] == "release"
        ]
        assert len(releases) == 3
        assert row.payload["accepted"] == 6  # tiny calls all admit
        assert len(row.payload["admitted"]) == 3

    def test_unknown_action_rejected(self):
        with pytest.raises(KeyError, match="unknown campaign action"):
            CampaignRunner(actions=("frobnicate",)).run(
                [build_scenario("voip-star", n_calls=1)]
            )

    def test_all_builtin_actions_listed(self):
        assert set(ACTIONS) == {
            "analyze",
            "simulate",
            "simulate-batched",
            "validate",
            "admit",
        }

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            CampaignRunner(jobs=0)


# ----------------------------------------------------------------------
# Experiments route through the campaign engine without changing tables
# ----------------------------------------------------------------------
class TestExperimentParity:
    def test_e4_parallel_matches_serial(self):
        from repro.experiments.validation import run_validation

        r1 = run_validation(seeds=(0, 1), duration=0.5, jobs=1)
        r2 = run_validation(seeds=(0, 1), duration=0.5, jobs=2)
        assert r1 == r2

    def test_e5_parallel_matches_serial(self):
        from repro.experiments.acceptance import run_acceptance_sweep

        kw = dict(utilizations=(0.3, 0.6), trials=2)
        r1 = run_acceptance_sweep(jobs=1, **kw)
        r2 = run_acceptance_sweep(jobs=2, **kw)
        assert r1 == r2

    def test_e7_parallel_matches_serial(self):
        from repro.experiments.sensitivity import run_hop_sweep

        r1 = run_hop_sweep(switch_counts=(1, 2), jobs=1)
        r2 = run_hop_sweep(switch_counts=(1, 2), jobs=2)
        assert r1 == r2
        assert [row.hops for row in r1.rows] == [2, 3]
