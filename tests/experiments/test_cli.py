"""Command-line interface."""

import os

import pytest

from repro.cli import build_parser, build_trace_parser, main
from repro.experiments import faults
from repro.experiments.cache import cache_key
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import occ_cells
from repro.experiments.figures import clear_cache, experiment_cells
from repro.obs.manifest import load_manifest, validate_manifest


@pytest.fixture(autouse=True)
def fresh_cache(tmp_path, monkeypatch):
    """Clear the in-process sweep memo and isolate the on-disk cache
    (the CLI caches by default; tests must not touch ~/.cache)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "result-cache"))
    clear_cache()
    yield
    clear_cache()


class TestParser:
    def test_experiment_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_scale_choices(self):
        args = build_parser().parse_args(["fig4a", "--scale", "quick"])
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4a", "--scale", "huge"])


class TestMain:
    def test_table_experiment_prints(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "done in" in out

    def test_csv_export(self, tmp_path, capsys, monkeypatch):
        # Use a tiny scale via env to keep the run fast; fig5f is one of
        # the cheapest sweeps (single policy, disk, 75 transactions).
        monkeypatch.setenv("REPRO_SCALE", "quick")
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert main(["fig5f", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig5f.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_scale_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert main(["table2", "--scale", "quick"]) == 0
        assert "scale=quick" in capsys.readouterr().out


class TestExecutionFlags:
    def test_jobs_flag_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(["fig5f", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig5f" in out
        assert "sweeps:" in out and "cache hits" in out

    def test_jobs_must_be_positive(self):
        assert main(["fig5f", "--jobs", "0"]) == 2

    def test_no_cache_leaves_cache_dir_empty(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        cache_dir = tmp_path / "never-created"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(["fig5f", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_warm_cache_run_does_zero_sims(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        cache_dir = tmp_path / "cli-cache"
        assert main(["fig5f", "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert "0 cache hits" in first
        clear_cache()  # drop the in-process memo; force the disk path
        assert main(["fig5f", "--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "0 sims" in second


class TestReport:
    def test_report_writes_valid_manifest(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        runs = tmp_path / "runs"
        assert main(["fig5f", "--report", str(runs)]) == 0
        assert "wrote manifest" in capsys.readouterr().out
        manifests = list(runs.glob("fig5f-quick-*.json"))
        assert len(manifests) == 1
        manifest = load_manifest(manifests[0])
        assert validate_manifest(manifest) == []
        assert manifest["experiment"] == "fig5f"
        assert manifest["n_cells"] > 0
        assert manifest["config_hash"]
        assert manifest["cache"]["misses"] == manifest["n_cells"]
        assert manifest["cell_wall_ms"]["count"] == manifest["n_cells"]
        assert manifest["policies"] == ["CCA"]

    def test_cached_rerun_manifest_counts_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        runs = tmp_path / "runs"
        assert main(["fig5f", "--report", str(runs)]) == 0
        clear_cache()
        assert main(["fig5f", "--report", str(runs)]) == 0
        latest = max(runs.glob("fig5f-quick-*.json"), key=lambda p: p.stat().st_mtime)
        manifest = load_manifest(latest)
        assert manifest["cache"]["hits"] == manifest["n_cells"]
        assert manifest["cache"]["misses"] == 0

    def test_extension_manifest_fingerprints_its_cells(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["ext-occ", "--scale", "quick", "--jobs", "2", "--report", str(runs)]) == 0
        assert "engines: kernel=12 occ=6" in capsys.readouterr().out
        manifest = load_manifest(next(runs.glob("ext-occ-quick-*.json")))
        assert validate_manifest(manifest) == []
        cells = occ_cells(ExperimentScale.quick())
        assert manifest["n_cells"] == len(cells) == 18
        assert manifest["config_hash"]
        assert manifest["policies"] == ["CCA", "EDF-HP", "OCC"]
        assert manifest["cache"] == {"hits": 0, "misses": 18}
        assert manifest["cell_wall_ms"]["count"] == 18
        assert manifest["failures"] == []

    def test_table_manifest_is_valid_without_cells(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["table1", "--report", str(runs)]) == 0
        manifest = load_manifest(next(runs.glob("table1-*.json")))
        assert validate_manifest(manifest) == []
        assert manifest["n_cells"] == 0
        assert manifest["config_hash"] is None

    def test_manifest_analysis_disabled_without_flag(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["table1", "--report", str(runs)]) == 0
        manifest = load_manifest(next(runs.glob("table1-*.json")))
        assert manifest["analysis"] == {"enabled": False}


class TestAnalyzeFlag:
    def test_analyze_digest_and_manifest_section(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        runs = tmp_path / "runs"
        assert main(["fig5f", "--analyze", "--report", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "[analyze fig5f: clean" in out
        assert "miss floor" in out
        manifest = load_manifest(next(runs.glob("fig5f-quick-*.json")))
        assert validate_manifest(manifest) == []
        analysis = manifest["analysis"]
        assert analysis["enabled"] is True
        assert analysis["clean"] is True
        codes = [verdict["code"] for verdict in analysis["verdicts"]]
        assert codes == [
            "ANA001", "ANA002", "ANA003", "ANA004", "ANA005", "ANA006",
        ]
        assert len(analysis["cells"]) > 0

    def test_analyze_without_report_still_prints(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(["table1", "--analyze"]) == 0
        assert "[analyze table1: clean" in capsys.readouterr().out


def _fault_spec(max_failures: int = 1, max_hits: int = None) -> str:
    """A ``--faults`` spec whose crash schedule deterministically hits
    at least one (but never every) fig5f quick-scale cell."""
    cells = experiment_cells("fig5f", ExperimentScale.quick())
    max_hits = len(cells) - 1 if max_hits is None else max_hits
    for seed in range(500):
        plan = faults.FaultPlan(seed=seed, crash=0.2, max_failures=max_failures)
        hits = sum(
            plan.decide(cache_key(c.config, c.seed, c.policy), 1) is not None
            for c in cells
        )
        if 1 <= hits <= max_hits:
            return plan.to_spec()
    raise AssertionError("no suitable fault seed")


class TestFaultToleranceFlags:
    def test_retries_must_be_positive(self, capsys):
        assert main(["fig5f", "--on-error", "retry", "--retries", "0"]) == 2
        assert "max_attempts" in capsys.readouterr().err

    def test_timeout_must_be_positive(self, capsys):
        assert main(["fig5f", "--timeout", "0"]) == 2
        assert "timeout" in capsys.readouterr().err

    def test_bad_fault_spec_rejected(self, capsys):
        assert main(["fig5f", "--faults", "explode=1.0"]) == 2
        assert "--faults" in capsys.readouterr().err

    def test_fault_env_cleared_after_run(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        spec = _fault_spec()
        assert main(
            ["fig5f", "--on-error", "retry", "--faults", spec]
        ) == 0
        assert faults.FAULTS_ENV not in os.environ

    def test_retry_recovers_and_matches_fault_free(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        assert main(["fig5f", "--no-cache", "--csv", str(clean_dir)]) == 0
        capsys.readouterr()
        clear_cache()  # drop the in-process memo; force a real re-sweep
        assert main(
            [
                "fig5f",
                "--no-cache",
                "--csv",
                str(chaos_dir),
                "--on-error",
                "retry",
                "--faults",
                _fault_spec(),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "faulted" in out and "recovered" in out
        assert (clean_dir / "fig5f.csv").read_text() == (
            chaos_dir / "fig5f.csv"
        ).read_text()

    def test_fail_mode_aborts_with_checkpoint_notice(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(
            ["fig5f", "--no-cache", "--faults", _fault_spec()]
        ) == 1
        err = capsys.readouterr().err
        assert "aborted" in err
        assert "checkpointed" in err

    def test_skip_mode_drops_cells_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        spec = _fault_spec(max_failures=10**6, max_hits=2)
        assert main(
            [
                "fig5f",
                "--no-cache",
                "--on-error",
                "skip",
                "--retries",
                "2",
                "--faults",
                spec,
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "DROPPED" in out
        assert "fig5f" in out  # figure still rendered from survivors

    def test_manifest_records_failures(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        runs = tmp_path / "runs"
        assert main(
            [
                "fig5f",
                "--no-cache",
                "--report",
                str(runs),
                "--on-error",
                "retry",
                "--faults",
                _fault_spec(),
            ]
        ) == 0
        manifest = load_manifest(next(runs.glob("fig5f-quick-*.json")))
        assert validate_manifest(manifest) == []
        assert manifest["failures"]
        for failure in manifest["failures"]:
            assert failure["exception"] == "InjectedCrash"
            assert failure["recovered"] is True
            assert set(failure["cell"]) == {"x", "policy", "seed"}

    def test_fault_free_manifest_has_empty_failures(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        runs = tmp_path / "runs"
        assert main(["fig5f", "--no-cache", "--report", str(runs)]) == 0
        manifest = load_manifest(next(runs.glob("fig5f-quick-*.json")))
        assert manifest["failures"] == []


class TestTrace:
    def test_trace_parser_rejects_tables(self):
        with pytest.raises(SystemExit):
            build_trace_parser().parse_args(["table1"])

    def test_trace_prints_gantt_table_and_metrics(self, capsys):
        assert main(["trace", "fig4a", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "CPU schedule" in out
        assert "event" in out and "count" in out
        assert "sim.commits" in out
        assert "policy=EDF-HP" in out

    def test_trace_selects_requested_cell(self, capsys):
        assert main(
            ["trace", "fig4a", "--scale", "quick", "--cell", "2,3,CCA"]
        ) == 0
        out = capsys.readouterr().out
        assert "x=2 seed=3 policy=CCA" in out

    def test_trace_rejects_unknown_cell(self, capsys):
        assert main(
            ["trace", "fig4a", "--scale", "quick", "--cell", "99,1,CCA"]
        ) == 2
        err = capsys.readouterr().err
        assert "x values" in err and "policies" in err

    def test_trace_rejects_malformed_cell(self, capsys):
        assert main(["trace", "fig4a", "--cell", "1,2"]) == 2
        assert main(["trace", "fig4a", "--cell", "a,b,CCA"]) == 2

    def test_trace_jsonl_export(self, tmp_path, capsys):
        out_file = tmp_path / "events" / "cell.jsonl"
        assert main(
            ["trace", "fig5f", "--scale", "quick", "--jsonl", str(out_file)]
        ) == 0
        assert out_file.exists()
        assert out_file.read_text().startswith("{")
