"""Command-line interface over scenario files."""

import json

import pytest

from repro.cli import main
from repro.io import save_scenario
from repro.model.flow import Flow
from repro.model.gmf import GmfSpec
from repro.util.units import mbps, ms


@pytest.fixture
def scenario_file(two_switch_net, tmp_path):
    flow = Flow(
        name="video",
        spec=GmfSpec(
            min_separations=(ms(30),),
            deadlines=(ms(100),),
            jitters=(0.0,),
            payload_bits=(60_000,),
        ),
        route=("h0", "s0", "s1", "h2"),
        priority=5,
    )
    path = tmp_path / "scenario.json"
    save_scenario(path, two_switch_net, [flow])
    return str(path)


@pytest.fixture
def overloaded_file(two_switch_net, tmp_path):
    flows = [
        Flow(
            name=f"hog{i}",
            spec=GmfSpec(
                min_separations=(ms(20),),
                deadlines=(ms(100),),
                jitters=(0.0,),
                payload_bits=(1_500_000,),
            ),
            route=("h0", "s0", "s1", "h2") if i == 0 else ("h1", "s0", "s1", "h3"),
            priority=i,
        )
        for i in range(2)
    ]
    path = tmp_path / "overloaded.json"
    save_scenario(path, two_switch_net, flows)
    return str(path)


class TestAnalyze:
    def test_schedulable_exit_zero(self, scenario_file, capsys):
        assert main(["analyze", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "SCHEDULABLE" in out
        assert "video" in out

    def test_unschedulable_exit_one(self, overloaded_file, capsys):
        assert main(["analyze", overloaded_file]) == 1
        assert "NOT SCHEDULABLE" in capsys.readouterr().out

    def test_strict_flag(self, scenario_file, capsys):
        assert main(["analyze", scenario_file, "--strict"]) == 0


class TestSimulate:
    def test_runs_and_reports(self, scenario_file, capsys):
        assert main(["simulate", scenario_file, "-d", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "video" in out
        assert "deadline misses observed: 0" in out

    def test_rotation_mode(self, scenario_file, capsys):
        assert (
            main(["simulate", scenario_file, "-d", "0.3", "--mode", "rotation"])
            == 0
        )


class TestValidate:
    def test_no_violations(self, scenario_file, capsys):
        assert main(["validate", scenario_file, "-d", "0.3"]) == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_diverged_analysis(self, overloaded_file, capsys):
        assert main(["validate", overloaded_file, "-d", "0.1"]) == 1


class TestReport:
    def test_lists_bottleneck(self, scenario_file, capsys):
        assert main(["report", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out

    def test_overload_flagged(self, overloaded_file, capsys):
        assert main(["report", overloaded_file]) == 1


class TestPlan:
    def test_already_schedulable(self, scenario_file, capsys):
        assert main(["plan", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "minimum uniform link-speed scale" in out

    def test_overloaded_needs_faster_links(self, overloaded_file, capsys):
        assert main(["plan", overloaded_file]) == 0
        out = capsys.readouterr().out
        # The required scale must be > 1 for the overloaded set.
        scale = float(out.split("schedulability:")[1].split()[0])
        assert scale > 1.0


class TestParser:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_file(self, tmp_path):
        bad = tmp_path / "nope.json"
        with pytest.raises(Exception):
            main(["analyze", str(bad)])


def _serve(monkeypatch, argv):
    """Run ``serve`` with the server loop stubbed out; returns the
    health of the service it built and the warnings the CLI logged."""
    import logging

    import repro.service

    built = {}

    def run_server(service, **kwargs):
        built["health"] = service.health()
        service.close()

    class Collect(logging.Handler):
        def emit(self, record):
            warnings.append(record.getMessage())

    monkeypatch.setattr(repro.service, "run_server", run_server)
    warnings = []
    handler = Collect(logging.WARNING)
    logger = logging.getLogger("repro.cli")
    logger.addHandler(handler)
    try:
        assert main(["serve", *argv]) == 0
    finally:
        logger.removeHandler(handler)
    return built["health"], warnings


class TestServeSurface:
    def test_legacy_shards_flag_serves_one_worker_engine(
        self, monkeypatch, scenario_file
    ):
        # The command line of the repo benchmark's fat-tree-tcp workload.
        health, warnings = _serve(
            monkeypatch,
            [scenario_file, "--port", "0", "--shards", "2", "--workers"],
        )
        shard, = health["shards"]
        assert health["workers"] is True and shard["backend"] == "process"
        assert len(warnings) == 1 and "--shards 2 ignored" in warnings[0]

    def test_one_shard_logs_no_warning(self, monkeypatch, scenario_file):
        health, warnings = _serve(
            monkeypatch, [scenario_file, "--port", "0", "--shards", "1"]
        )
        assert health["shards"][0]["backend"] == "inline"
        assert warnings == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["rebalance", "--connect", "127.0.0.1:7434", "--shards", "1"],
            ["replay", "--family", "voip-star", "--shards", "2"],
        ],
        ids=["rebalance", "replay-shards"],
    )
    def test_removed_surface_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestGenerate:
    def test_list_families(self, capsys):
        assert main(["generate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "random-line" in out and "fat-tree" in out

    def test_write_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        code = main(
            [
                "generate",
                "--family",
                "voip-star",
                "--param",
                "seed=2",
                "--param",
                "n_calls=2",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["generator"]["family"] == "voip-star"
        # the generated file feeds straight back into analyze
        assert main(["analyze", str(path)]) == 0

    def test_stdout_without_output(self, capsys):
        assert main(["generate", "--family", "voip-star"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["generator"] == {"family": "voip-star", "params": {}}
        assert len(doc["flows"]) == 4  # the family default

    def test_missing_family(self):
        with pytest.raises(SystemExit):
            main(["generate"])


class TestCampaign:
    def test_grid_jobs_bit_identical(self, capsys):
        argv = [
            "campaign",
            "--family",
            "random-line",
            "--grid",
            "seed=0..3",
            "--grid",
            "n_flows=3",
        ]
        code1 = main(argv + ["--jobs", "1"])
        serial = capsys.readouterr().out
        code2 = main(argv + ["--jobs", "2"])
        parallel = capsys.readouterr().out
        assert code1 == code2
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith("campaign:")
        ]
        assert strip(serial) == strip(parallel)
        assert "campaign digest:" in serial

    def test_scenario_files_accepted(self, scenario_file, capsys):
        assert main(["campaign", scenario_file, "--actions", "analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyze" in out

    def test_range_and_list_grid_syntax(self, capsys):
        code = main(
            [
                "campaign",
                "--family",
                "mpeg-line",
                "--grid",
                "n_switches=1,2",
                "--actions",
                "analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("mpeg-line[") == 2

    def test_needs_input(self):
        with pytest.raises(SystemExit):
            main(["campaign"])


class TestEmbeddedScenarioBlocks:
    """v1 files carry analysis/sim blocks that the subcommands honor."""

    def test_simulate_honors_sim_block(self, tmp_path, capsys):
        from repro.scenario import build_scenario, save_scenario_file

        path = tmp_path / "fi.json"
        save_scenario_file(
            path,
            build_scenario(
                "failure-injection", nic_fifo_capacity=4, priority_levels=4
            ),
        )
        code = main(["simulate", str(path)])
        out = capsys.readouterr().out
        # the family's finite FIFOs drop fragments -> observed misses,
        # which a legacy load (unbounded FIFOs) would not produce
        assert "deadline misses observed: 0" not in out
        assert code == 1
        # the file's 1.0s duration is used, not the legacy 2.0 default
        assert "(1s," in out

    def test_duration_flag_overrides_sim_block(self, tmp_path, capsys):
        from repro.scenario import build_scenario, save_scenario_file

        path = tmp_path / "star.json"
        save_scenario_file(
            path, build_scenario("voip-star", n_calls=2, duration=1.0)
        )
        main(["simulate", str(path), "-d", "0.5"])
        assert "(0.5s," in capsys.readouterr().out

    def test_analyze_honors_analysis_block(self, tmp_path, capsys):
        import dataclasses

        from repro.scenario import build_scenario, save_scenario_file

        sc = build_scenario("voip-star", n_calls=2)
        sc = sc.with_options(
            dataclasses.replace(sc.options, holistic_max_iterations=123)
        )
        path = tmp_path / "opt.json"
        save_scenario_file(path, sc)
        # smoke: loads + analyzes fine with the embedded block
        assert main(["analyze", str(path)]) == 0
