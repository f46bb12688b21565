"""Tests for the CLI entry point."""

from repro.__main__ import build_parser, main


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


def test_cli_sweep(capsys):
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 8" in out and "Fig. 9" in out and "Fig. 10" in out
    assert "7.5M" in out
