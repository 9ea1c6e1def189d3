"""Tests for the command-line interface (cli.py)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["table1"],
            ["fig5"],
            ["fig6", "--n", "4"],
            ["fig7", "--slots", "100"],
            ["demo"],
            ["bounds", "--rho", "0.93", "--n", "1024"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "N=2048" in out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_fig6_tiny(self, capsys):
        assert main(["fig6", "--n", "4", "--slots", "400", "--loads", "0.5"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_fig7_csv(self, capsys):
        assert main(
            ["fig7", "--n", "4", "--slots", "400", "--loads", "0.5", "--csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("switch,load,")

    def test_demo(self, capsys):
        assert main(["demo", "--n", "4", "--load", "0.5", "--slots", "600"]) == 0
        out = capsys.readouterr().out
        assert "sprinklers" in out
        assert "output-queued" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--rho", "0.93", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "1.759e-09" in out

    def test_balance(self, capsys):
        assert main(
            ["balance", "--n", "16", "--trials", "10", "--loads", "0.9"]
        ) == 0
        out = capsys.readouterr().out
        assert "empirical_switch_wide" in out

    def test_validate(self, capsys):
        assert main(["validate", "--n", "4", "--slots", "1200"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_bursts_command_parses(self):
        args = build_parser().parse_args(["bursts", "--n", "8"])
        assert args.command == "bursts"


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper-uniform" in out
        assert "mmpp-bursty" in out
        assert "adversarial-stride" in out

    def test_scenarios_show(self, capsys):
        assert main(["scenarios", "show", "hotspot-4x"]) == 0
        out = capsys.readouterr().out
        assert '"family": "hotspot"' in out

    def test_scenarios_run_both_engines_agree(self, capsys):
        outputs = {}
        for engine in ("object", "vectorized"):
            assert main([
                "scenarios", "run", "--scenario", "load-ramp",
                "--switch", "sprinklers", "--n", "4", "--load", "0.6",
                "--slots", "500", "--engine", engine,
            ]) == 0
            out = capsys.readouterr().out
            outputs[engine] = out.split("\n", 1)[1]  # drop the header line
        assert "mean_delay" in outputs["object"]
        assert outputs["object"] == outputs["vectorized"]

    def test_scenarios_run_with_override_and_store(self, tmp_path, capsys):
        argv = [
            "scenarios", "run", "--scenario", "load-sine",
            "--set", "schedule.depth=0.2",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "400", "--engine", "vectorized",
            "--store", str(tmp_path / "store"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run served from the store
        assert capsys.readouterr().out == first
        assert (tmp_path / "store" / "manifest.jsonl").exists()

    def test_no_store_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env-store"))
        assert main([
            "scenarios", "run", "--scenario", "paper-uniform",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "300", "--no-store",
        ]) == 0
        capsys.readouterr()
        assert not (tmp_path / "env-store").exists()

    def test_fig6_scenario_csv(self, capsys):
        assert main([
            "fig6", "--n", "4", "--slots", "400", "--loads", "0.5",
            "--scenario", "quasi-diagonal", "--engine", "vectorized",
            "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("switch,load,")
        assert "sprinklers" in out


class TestSwitchesCommands:
    def test_switches_list_all(self, capsys):
        assert main(["switches", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("sprinklers", "cms", "tcp-hashing", "pf", "foff"):
            assert name in out

    def test_switches_list_vectorized_covers_all_kernels(self, capsys):
        """The CI coverage gate: the vectorized engine must not silently
        lose a switch."""
        assert main(["switches", "list", "--engine", "vectorized"]) == 0
        out = capsys.readouterr().out
        for name in (
            "sprinklers", "ufs", "load-balanced", "output-queued",
            "pf", "foff",
        ):
            assert name in out, name
        assert "cms" not in out

    def test_switches_show(self, capsys):
        assert main(["switches", "show", "foff"]) == 0
        out = capsys.readouterr().out
        assert "exact-replay" in out
        assert "vectorized" in out

    def test_switches_show_alias(self, capsys):
        assert main(["switches", "show", "baseline-lb"]) == 0
        assert "load-balanced" in capsys.readouterr().out


class TestFabricsCommands:
    @pytest.mark.parametrize("command", ["run", "delay"])
    @pytest.mark.parametrize("name", ["nope", "sprinklers"])
    def test_fabric_name_must_be_a_fabric(self, command, name):
        """An unknown --fabric lists the fabrics, not the switches, and a
        plain switch name is rejected instead of silently run."""
        argv = ["fabrics", command, "--fabric", name, "--n", "4",
                "--slots", "100"]
        with pytest.raises(
            ValueError,
            match=rf"unknown fabric '{name}'; known: dual-sprinklers, "
            r"leaf-spine",
        ):
            main(argv)


class TestStoreCommands:
    def _populate(self, store_dir):
        argv = [
            "scenarios", "run", "--scenario", "paper-uniform",
            "--switch", "ufs", "--n", "4", "--load", "0.5",
            "--slots", "300", "--engine", "vectorized",
            "--store", store_dir,
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # second run hits the cache

    def test_stats_reports_entries_and_hit_rate(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "stats", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "entries      1" in out
        assert "hits         1" in out
        assert "hit rate     50.0%" in out

    def test_gc_by_age_empties_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        self._populate(store_dir)
        capsys.readouterr()
        assert main(["store", "gc", "--max-age-days", "0",
                     "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert main(["store", "stats", "--store", store_dir]) == 0
        assert "entries      0" in capsys.readouterr().out

    def test_missing_store_is_not_an_error(self, tmp_path, capsys):
        assert main(["store", "stats", "--store",
                     str(tmp_path / "nowhere")]) == 0
        assert "no experiment store" in capsys.readouterr().out
