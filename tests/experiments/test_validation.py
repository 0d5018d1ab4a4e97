"""Reproduction self-check module."""

import pytest

from repro.cli import main
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import clear_cache
from repro.experiments.validation import (
    CheckResult,
    render_report,
    validate_all,
    validate_ext_occ,
)

TINY = ExperimentScale("tiny", 2, 2, 0.05)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCheckResult:
    def test_str_pass(self):
        check = CheckResult("fig4a", "CCA wins", True, "by 2 points")
        assert str(check) == "[PASS] fig4a: CCA wins — by 2 points"

    def test_str_fail_without_detail(self):
        check = CheckResult("fig4a", "CCA wins", False)
        assert str(check) == "[FAIL] fig4a: CCA wins"


class TestValidateAll:
    def test_covers_every_figure(self):
        checks = validate_all(TINY)
        figures = {check.figure_id for check in checks}
        assert figures == {
            "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
            "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
        }

    def test_report_counts(self):
        checks = [
            CheckResult("a", "x", True),
            CheckResult("b", "y", False),
        ]
        report = render_report(checks)
        assert "1/2 claims verified" in report
        assert "[FAIL] b: y" in report


class TestValidateExtOcc:
    def test_claims_hold_at_quick_scale(self):
        """ext-occ's four claims, on the series the sweep executor ran."""
        checks = validate_ext_occ(ExperimentScale.quick())
        assert len(checks) == 4
        assert {check.figure_id for check in checks} == {"ext-occ"}
        assert all(check.passed for check in checks), "\n".join(map(str, checks))


class TestCliValidate:
    def test_validate_command_runs(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        # The quick-scale shapes should all verify; exit code 0.
        assert main(["validate", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "claims verified" in out
        assert "[PASS]" in out
