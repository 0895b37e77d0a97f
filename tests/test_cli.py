"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.repro_all import REPRO_EXPERIMENTS


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig6"])
        assert args.name == "fig6"
        assert args.scale == "paper"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_accepts_every_registry_experiment(self):
        for exp_id in REPRO_EXPERIMENTS:
            args = build_parser().parse_args(["figure", exp_id])
            assert args.name == exp_id

    def test_figure_takes_repro_all_scale_flags(self):
        args = build_parser().parse_args([
            "figure", "cmesh", "--scale", "quick", "--jobs", "2",
            "--cache-dir", "c",
        ])
        assert (args.scale, args.jobs, args.cache_dir) == ("quick", 2, "c")
        for gone in ("--quick", "--duration", "--audit"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["figure", "fig5", gone])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "dozznoc"
        assert args.benchmark == "blackscholes"
        assert not args.compressed

    def test_campaign_flags(self):
        args = build_parser().parse_args(["campaign", "--compressed", "--quick"])
        assert args.compressed and args.quick


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dozznoc" in out
        assert "blackscholes" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table V" in out
        assert "claim holds: the LDO dropout ranges equal the paper's" in out
        assert "FAILS" not in out

    def test_figure_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "T-Wakeup" in out
        assert "8.5" in out
        assert "settling_ns" in out  # the payload table's header

    def test_figure_fig6(self, capsys):
        assert main(["figure", "fig6"]) == 0
        out = capsys.readouterr().out
        assert "SIMO" in out

    def test_figure_replays_the_repro_all_memo(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["repro-all", "--only", "fig9", "--cache-dir", cache,
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["figure", "fig9", "--scale", "quick",
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "claim holds: IBU is the strongest single feature" in out

    def test_figure_exits_1_on_a_failed_claim(self, monkeypatch, capsys):
        import dataclasses

        entry = REPRO_EXPERIMENTS["fig5"]
        failing = dataclasses.replace(
            entry.claims[0], check=lambda payload: False
        )
        monkeypatch.setitem(REPRO_EXPERIMENTS, "fig5", dataclasses.replace(
            entry, claims=(failing, *entry.claims[1:])
        ))
        assert main(["figure", "fig5"]) == 1
        assert "claim FAILS: T-Wakeup" in capsys.readouterr().out

    def test_run_tiny(self, capsys):
        rc = main([
            "run", "--policy", "pg", "--benchmark", "swaptions",
            "--duration", "400",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "packets_delivered" in out
        assert "gated_fraction" in out
