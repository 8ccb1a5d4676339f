"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _apply_axes, build_parser, main


class TestParser:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "Speedlight" in capsys.readouterr().out

    def test_experiments_list_names_all(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig9", "fig10", "fig11", "fig12", "fig13",
                     "ablation-ideal", "ablation-initiation",
                     "ablation-transport", "sweep-service-cost", "sweep-ptp",
                     "sweep-rate", "scaling", "motivation"):
            assert name in out

    def test_metrics_lists_registry(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "packet_count" in out
        assert "queue_depth" in out
        assert "gauge" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_only_subset_fails_cleanly(self, capsys):
        assert main(["experiments", "--only", "fig99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestRun:
    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "770" in out  # the channel-state SRAM figure

    def test_run_fig11_quick(self, capsys):
        assert main(["run", "fig11", "--quick", "--no-cache"]) == 0
        assert "Figure 11" in capsys.readouterr().out

    def test_run_caches_results(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        assert "1 executed, 0 from cache" in capsys.readouterr().err
        assert main(["run", "table1", "--cache-dir", cache_dir]) == 0
        assert "0 executed, 1 from cache" in capsys.readouterr().err

    def test_experiments_subset_combined_batch(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["experiments", "--only", "table1,fig11", "--quick",
                     "--cache-dir", cache_dir]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "Figure 11" in captured.out
        # One combined batch: 1 table1 trial + 4 quick fig11 trials.
        assert "5 trials: 5 executed" in captured.err
        # Second run: everything cached, nothing re-executed.
        assert main(["experiments", "--only", "table1,fig11", "--quick",
                     "--cache-dir", cache_dir]) == 0
        assert "0 executed, 5 from cache" in capsys.readouterr().err


class TestFaultProfileFlag:
    PROFILE = ('{"type": "compose", "parts": ['
               '{"type": "correlated", "at_ns": 25000000}, '
               '{"type": "independent", "intensity": 0.25, '
               '"kinds": ["link_delay"]}]}')

    def test_inline_json_profile_reaches_the_experiment(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", self.PROFILE]) == 0
        captured = capsys.readouterr()
        assert "[fault profile applied to: faults]" in captured.err
        # The single-profile scenario replaces the intensity sweep.
        assert "profile-compose" in captured.out

    def test_profile_file_accepted(self, capsys, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(self.PROFILE)
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", str(path)]) == 0
        assert "profile-compose" in capsys.readouterr().out

    def test_bad_json_fails_cleanly(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", "{not json"]) == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_invalid_profile_fails_cleanly(self, capsys):
        assert main(["run", "faults", "--quick", "--no-cache",
                     "--fault-profile", '{"type": "gremlins"}']) == 2
        assert "unknown fault profile type" in capsys.readouterr().err

    def test_experiment_without_profile_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache",
                     "--fault-profile", self.PROFILE]) == 2
        assert "does not accept a fault profile" in capsys.readouterr().err


class TestUpdatePlanFlag:
    PLAN = ('{"type": "timed_swap", "at_ns": 20000000, '
            '"routes": [["leaf0", "server1", ["spine1"]]]}')

    def test_plan_threads_into_the_updates_config(self, capsys):
        # An uncached updates run is slow; the flag's whole effect is
        # the config it leaves behind, so check that directly.
        from repro.experiments.updates import UpdatesConfig, scenarios
        from repro.updates import UpdatePlan

        args = build_parser().parse_args(
            ["run", "updates", "--update-plan", self.PLAN])
        config = UpdatesConfig.quick()
        assert _apply_axes(args, {"updates": config})
        assert "[update plan applied to: updates]" in capsys.readouterr().err
        assert config.plan == UpdatePlan.from_jsonable(
            json.loads(self.PLAN)).to_jsonable()
        [(label, _plan)] = scenarios(config)
        assert label == "plan-timed_swap"

    def test_bad_json_fails_cleanly(self, capsys):
        assert main(["run", "updates", "--quick", "--no-cache",
                     "--update-plan", "{not json"]) == 2
        assert "--update-plan is neither a file nor valid JSON" in (
            capsys.readouterr().err)

    def test_unknown_plan_type_fails_cleanly(self, capsys):
        assert main(["run", "updates", "--quick", "--no-cache",
                     "--update-plan", '{"type": "nope"}']) == 2
        assert "unknown update plan type" in capsys.readouterr().err

    def test_experiment_without_plan_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache",
                     "--update-plan", self.PLAN]) == 2
        assert "does not accept an update plan" in capsys.readouterr().err


class TestConfigAxes:
    def test_fault_profile_becomes_the_recovery_sweep(self, capsys):
        from repro.experiments.recovery import RecoveryConfig

        profile = '{"type": "correlated", "at_ns": 25000000}'
        args = build_parser().parse_args(
            ["run", "recovery", "--fault-profile", profile])
        config = RecoveryConfig()
        assert _apply_axes(args, {"recovery": config})
        assert "[fault profile applied to: recovery]" in (
            capsys.readouterr().err)
        [(label, stored)] = config.profiles.items()
        assert label == "cli-profile"
        assert stored["type"] == "correlated"
        assert stored["at_ns"] == 25_000_000

    def test_agg_degree_zero_is_applied(self, capsys):
        from repro.experiments.scaling import ScalingConfig

        args = build_parser().parse_args(
            ["run", "scaling", "--agg-degree", "0"])
        config = ScalingConfig.quick()
        assert _apply_axes(args, {"scaling": config})
        assert config.agg_degree == 0
        assert "[agg degree 0 applied to: scaling]" in (
            capsys.readouterr().err)

    def test_experiment_without_agg_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache",
                     "--agg-degree", "2"]) == 2
        assert ("--agg-degree: table1 does not support the aggregation "
                "fabric") in capsys.readouterr().err

    def test_negative_agg_degree_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "scaling", "--no-cache", "--agg-degree", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, refusal", [
        ("--agg-degree", "2", "support the aggregation fabric"),
        ("--update-plan", TestUpdatePlanFlag.PLAN, "accept an update plan"),
        ("--shards", "2", "support sharded simulation"),
    ])
    def test_multi_experiment_refusal(self, capsys, flag, value, refusal):
        assert main(["experiments", "--only", "table1,fig11", "--no-cache",
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert f"{flag}: none of the selected experiments {refusal}" in err
        assert "does not" not in err


class TestShardsFlag:
    def test_run_scaling_quick_with_shards(self, capsys):
        # The CI quick suite's sharded exercise: a real space-parallel
        # scaling run, two worker processes per trial.
        assert main(["run", "scaling", "--quick", "--no-cache",
                     "--shards", "2"]) == 0
        captured = capsys.readouterr()
        assert "[2 shards applied to: scaling]" in captured.err
        assert "fat-trees" in captured.out

    def test_experiment_without_shard_support_fails_cleanly(self, capsys):
        assert main(["run", "table1", "--no-cache", "--shards", "2"]) == 2
        assert "does not support sharded" in capsys.readouterr().err

    def test_shards_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "scaling", "--quick", "--no-cache",
                  "--shards", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs_end_to_end(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "total packets" in out
        assert "consistent" in out


class TestServe:
    def test_serve_reports_throughput_and_summary(self, capsys):
        assert main(["serve", "--epochs", "10", "--interval-us", "1000",
                     "--seed", "3", "--json"]) == 0
        import json
        doc = json.loads(capsys.readouterr().out)
        assert doc["epochs_stored"] >= 10
        assert doc["epochs_per_sec"] > 0
        assert doc["pipeline"]["backlog"] == 0
        assert doc["summary"]["epochs_stored"] == doc["pipeline"]["ingested"]

    def test_serve_queries_inline(self, capsys):
        assert main(["serve", "--epochs", "12", "--interval-us", "1000",
                     "--seed", "3", "--retention", "8",
                     "--query-range", "5", "8", "--conservation",
                     "--heavy-hitters", "3", "--json"]) == 0
        import json
        doc = json.loads(capsys.readouterr().out)
        epochs = [d["epoch"] for d in doc["range"]]
        assert epochs == sorted(epochs)
        assert all(5 <= e <= 8 for e in epochs)
        assert doc["conservation"]["violations"] == {}
        assert doc["summary"]["epochs_stored"] == 8  # retention ring held
        assert "units" in doc["heavy_hitters"]

    def test_serve_human_readable(self, capsys):
        assert main(["serve", "--epochs", "5", "--interval-us", "1000",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "served" in out
        assert "epochs/s wall" in out
