"""Tests for the CLI entry point."""

from repro.__main__ import build_parser, main
from repro.bench.harness import MigrationExperiment
from repro.bench.reporting import format_comparison_table, format_phase_table
from repro.city.params import PAPER_FILE_SIZES_MB
from repro.core import BindingPolicy


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert "MDAgent" in capsys.readouterr().out

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--size-mb", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "suspend" in out and "migration" in out
        assert "context.app" in out  # the hub's timeline is printed

    def test_quickstart_static_policy(self, capsys):
        assert main(["quickstart", "--size-mb", "1",
                     "--policy", "static"]) == 0

    def test_lecture(self, capsys):
        assert main(["lecture", "--rooms", "1"]) == 0
        assert "mean_clone_ms" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "quickstart" in capsys.readouterr().out

    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("quickstart", "sweep", "lecture", "version"):
            assert command in text


def test_cli_sweep(capsys, tmp_path):
    """The CLI prints the asserted Figs. 8-10 numbers, and tracing the
    sweep does not move them."""
    assert main(["sweep", "--trace-jsonl", str(tmp_path / "t.jsonl")]) == 0
    out = capsys.readouterr().out
    experiment = MigrationExperiment()
    adaptive = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.ADAPTIVE)
    static = experiment.sweep(PAPER_FILE_SIZES_MB, BindingPolicy.STATIC)
    assert out == "\n\n".join([
        format_phase_table("Fig. 8 -- adaptive component binding", adaptive),
        format_phase_table("Fig. 9 -- static component binding", static),
        format_comparison_table("Fig. 10 -- comparative total cost",
                                adaptive, static),
    ]) + "\n"
