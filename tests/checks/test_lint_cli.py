"""CLI, JSON-schema and CI-gate tests for ``repro lint``.

Two gates live here:

* the golden fixture ``fixtures/known_bad.py`` must trigger **every**
  DET rule — if a rule stops firing, the linter regressed;
* ``repro lint`` over the installed ``repro`` package must exit 0 —
  the tree stays self-clean (violations are fixed or carry a justified
  suppression).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.checks.cli import default_lint_root, lint_main
from repro.checks.linter import lint_paths
from repro.checks.report import JSON_SCHEMA_VERSION, render_json, render_text
from repro.checks.rules import all_rules

FIXTURE = Path(__file__).parent / "fixtures" / "known_bad.py"

#: The stable shape of one finding object in the JSON report.
FINDING_KEYS = {"path", "line", "col", "code", "message", "suppressed"}


class TestGoldenFixture:
    def test_every_rule_fires_on_the_fixture(self):
        """CI gate: each DET rule must keep triggering on known-bad code."""
        result = lint_paths([FIXTURE])
        fired = set(result.counts_by_code())
        expected = {rule.code for rule in all_rules("DET")}
        assert fired == expected, (
            f"rules that stopped firing on the golden fixture: "
            f"{sorted(expected - fired)}"
        )

    def test_fixture_suppression_demo_is_recorded(self):
        result = lint_paths([FIXTURE])
        assert [f.code for f in result.suppressed] == ["DET001"]

    def test_fixture_exit_code_is_one(self, capsys):
        assert lint_main([str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "finding(s)" in out


class TestSelfClean:
    def test_repro_package_lints_clean(self):
        """CI gate: the shipped tree has no unsuppressed findings."""
        result = lint_paths([default_lint_root()])
        assert result.clean, render_text(result)
        # The deliberate suppressions (engine wall-clock guard, penalty
        # accumulation, wait-promote set scan) stay visible as such.
        assert len(result.suppressed) >= 5

    def test_cli_exit_zero_on_package(self, capsys):
        assert lint_main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestJsonSchema:
    def test_report_shape_is_stable(self):
        result = lint_paths([FIXTURE])
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert set(payload) == {
            "version",
            "files_checked",
            "clean",
            "findings",
            "suppressed",
            "errors",
            "summary",
            "rules",
        }
        assert payload["files_checked"] == 1
        assert payload["clean"] is False
        for finding in payload["findings"]:
            assert set(finding) == FINDING_KEYS
            assert isinstance(finding["line"], int)
            assert finding["suppressed"] is False
        for finding in payload["suppressed"]:
            assert set(finding) == FINDING_KEYS
            assert finding["suppressed"] is True
        assert payload["summary"] == result.counts_by_code()
        assert set(payload["rules"]) == {r.code for r in all_rules("DET")}
        for entry in payload["rules"].values():
            assert set(entry) == {"name", "summary", "scope"}

    def test_cli_json_output_parses(self, capsys):
        assert lint_main([str(FIXTURE), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["summary"]  # non-empty on the bad fixture

    def test_errors_surface_in_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert lint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert len(payload["errors"]) == 1


class TestCliFlags:
    def test_select_restricts_codes(self, capsys):
        assert lint_main([str(FIXTURE), "--select", "DET004"]) == 1
        out = capsys.readouterr().out
        assert "DET004" in out and "DET001" not in out

    def test_select_unknown_code_is_usage_error(self, capsys):
        assert lint_main([str(FIXTURE), "--select", "DET999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules("DET"):
            assert rule.code in out

    def test_show_suppressed_lists_allows(self, capsys):
        assert lint_main([str(FIXTURE), "--show-suppressed"]) == 1
        assert "suppressed (# repro: allow[DET001])" in capsys.readouterr().out

    def test_main_cli_dispatches_lint(self, capsys):
        from repro.cli import main

        assert main(["lint", str(FIXTURE)]) == 1
        assert "DET001" in capsys.readouterr().out
