"""``--cell X,SEED,POLICY`` and the sample cell, shared by every CLI.

``repro trace``, ``repro profile`` and ``repro certify`` resolve a
``--cell`` spec through :func:`repro.experiments.figures.resolve_cell`:
the ``(x, seed)`` point must exist in the sweep, and any policy name
``make_policy`` accepts may run there.  Every rejection exits 2 and
lists the sweep's axes.
"""

import pytest

from repro.certify.cli import certify_main
from repro.checks.cli_core import UsageError
from repro.cli import main
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import experiment_cells, sample_cell

QUICK = ExperimentScale.quick()


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))


def run_cli(command, spec, tmp_path):
    argv = [command, "fig4a", "--scale", "quick", "--cell", spec]
    if command == "profile":
        argv += ["--out", str(tmp_path / "trace.json")]
    return main(argv)


class TestOutOfMatrixPolicy:
    """fig4a runs EDF-HP and CCA only; EDF-WP still resolves."""

    @pytest.mark.parametrize("command", ["trace", "profile"])
    def test_resolves(self, command, tmp_path, capsys):
        assert run_cli(command, "2,3,EDF-WP", tmp_path) == 0
        assert "x=2 seed=3 policy=EDF-WP" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["trace", "profile", "certify"])
@pytest.mark.parametrize(
    "spec",
    ["2,3,NO-SUCH-POLICY", "1,2", "a,b,CCA", "99,1,CCA"],
    ids=["unknown-policy", "too-few-fields", "not-numbers", "absent-point"],
)
def test_rejections_exit_2_and_list_the_axes(command, spec, tmp_path, capsys):
    if command == "certify":
        code = certify_main(["fig4a", "--scale", "quick", "--cell", spec])
    else:
        code = run_cli(command, spec, tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "x values" in err and "seeds:" in err and "policies" in err


class TestSampleCell:
    def test_middle_x_first_seed_first_policy(self):
        cells = experiment_cells("fig4a", QUICK)
        xs = sorted({c.x for c in cells})
        cell = sample_cell("fig4a", QUICK)
        assert cell.x == xs[len(xs) // 2]
        assert cell == next(c for c in cells if c.x == cell.x)

    def test_trace_defaults_to_the_sample_cell(self, capsys):
        cell = sample_cell("fig4a", QUICK)
        assert main(["trace", "fig4a", "--scale", "quick"]) == 0
        assert (
            f"x={cell.x:g} seed={cell.seed} policy={cell.policy}"
            in capsys.readouterr().out
        )

    def test_unknown_experiment_is_a_usage_error(self):
        with pytest.raises(UsageError, match="unknown experiment .fig9z."):
            sample_cell("fig9z", QUICK)


class TestScaleByName:
    @pytest.mark.parametrize("name", ["quick", "default", "full"])
    def test_named(self, name):
        assert ExperimentScale.named(name).name == name

    def test_none_defers_to_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert ExperimentScale.named(None) == ExperimentScale.quick()
