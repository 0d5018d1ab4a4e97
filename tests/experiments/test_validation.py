"""Reproduction self-check module."""

import re

import pytest

from repro.cli import main
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import clear_cache
from repro.experiments.parallel import execution
from repro.experiments.validation import (
    CheckResult,
    render_report,
    validate_all,
    validate_ext_wp,
    validate_extensions,
)

TINY = ExperimentScale("tiny", 2, 2, 0.05)


@pytest.fixture(scope="module")
def quick_cache_dir(tmp_path_factory):
    """One result cache for the module's quick-scale runs: the CLI run
    replays the extension cells the validator test simulated."""
    return tmp_path_factory.mktemp("quick-cache")


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


class TestValidateExtensions:
    def test_claims_hold_at_quick_scale(self, quick_cache_dir):
        """Every extension claim, on the series the sweep executor ran."""
        with execution(jobs=2, cache=ResultCache(quick_cache_dir)):
            checks = validate_extensions(ExperimentScale.quick())
        assert {check.figure_id for check in checks} == {
            "ext-shared-locks", "ext-multiprocessor", "ext-occ",
            "ext-bursty", "ext-disk-sched", "ext-wp",
        }
        assert all(check.passed for check in checks), "\n".join(map(str, checks))

    def test_deadlock_counts_survive_a_warm_cache(self, tmp_path):
        """Cached cells carry no counters: the ext-wp claims must
        simulate their cells even when the cache holds them."""
        with execution(jobs=1, cache=ResultCache(tmp_path)):
            for _ in range(2):
                (deadlocks,) = [
                    check for check in validate_ext_wp(TINY)
                    if "deadlock" in check.claim
                ]
                assert deadlocks.passed
                assert int(re.search(r"EDF-WP (\d+)", deadlocks.detail)[1]) > 0


class TestCliValidate:
    def test_validate_command_runs(self, capsys, monkeypatch, quick_cache_dir):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        # The quick-scale shapes should all verify; exit code 0.
        assert main([
            "validate", "--scale", "quick", "--jobs", "2",
            "--cache-dir", str(quick_cache_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "claims verified" in out
        assert "[PASS]" in out
