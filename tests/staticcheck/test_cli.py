"""CLI surface: the ``repro staticcheck`` subcommand, its exit codes,
``--verbose`` and ``--list-rules``."""

from pathlib import Path

from repro.cli import main as repro_main
from repro.staticcheck.cli import main as staticcheck_main

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


class TestStaticcheckCli:
    def test_repro_subcommand_clean_exit(self, capsys):
        code = repro_main([
            "staticcheck", str(FIXTURES / "clean.py"), "--root", str(ROOT),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean" in out

    def test_findings_set_the_exit_code(self, capsys):
        code = repro_main([
            "staticcheck", str(FIXTURES / "ra005_cli.py"),
            "--root", str(ROOT),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "RA005" in out
        assert "ra005_cli.py:7" in out

    def test_list_rules_names_every_rule(self, capsys):
        assert staticcheck_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RA001", "RA002", "RA004", "RA005", "RA006"):
            assert rule in out
        assert "RA003" not in out  # metric names: the registry checks them

    def test_unknown_rule_selection_exits_2(self, capsys):
        code = staticcheck_main([
            str(FIXTURES / "clean.py"), "--root", str(ROOT),
            "--rules", "RA999",
        ])
        capsys.readouterr()
        assert code == 2

    def test_verbose_lists_suppressed_findings(self, tmp_path, capsys):
        # RA002 applies everywhere, so this works under the CLI's
        # normal scoping; the marker is assembled at runtime so the
        # scanner never sees it spelled out in this file.
        mark = "# static" "check:"
        target = tmp_path / "sample.py"
        target.write_text(
            "from repro.resilience import SupervisedPool\n"
            "def run(tasks):\n"
            "    return SupervisedPool(lambda t: t)"
            f"  {mark} disable=RA002 -- fixture lambda\n"
        )
        code = staticcheck_main([str(target), "--root", str(ROOT),
                                 "--verbose"])
        out = capsys.readouterr().out
        assert code == 0  # the only finding is suppressed
        assert "suppressed: fixture lambda" in out
