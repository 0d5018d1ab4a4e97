"""Cell labels select engines: locking policies, ``OCC`` and ``<policy>x<n>``.

Every experiment's cells run through one path (``run_cell`` and the
executor); the label alone picks the locking engines (kernel or
reference), broadcast-commit OCC, or the multiprocessor engine.  These
tests hold the dispatch to what the engines give when built by hand,
and check that budgets, observation, profiling and cache keys
work for every family.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import KernelSimulator
from repro.core.policy import CCAPolicy, EDFPolicy
from repro.core.simulator import RTDBSimulator
from repro.experiments import faults, parallel
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import occ_cells
from repro.experiments.parallel import (
    CorruptResultError,
    RetryPolicy,
    SweepCell,
    cell_engine,
    cells_for_sweep,
    execute_cells,
    CellOptions,
    CellOutcome,
    run_cell,
    simulate_cell,
)
from repro.metrics.summary import RunStats
from repro.mp.simulator import MultiprocessorSimulator
from repro.obs.prof import SpanProfiler
from repro.obs.registry import MetricsRegistry
from repro.occ.simulator import OCCSimulator
from repro.sim import engine as sim_engine
from repro.sim.engine import WallClockExceeded
from repro.workload.generator import generate_workload

SEED = 7
LABELS = ("CCA", "OCC", "CCAx2")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.install(None)
    parallel.take_failures()
    yield
    faults.install(None)
    parallel.take_failures()


@pytest.fixture
def config(mm_config):
    return mm_config.replace(n_transactions=30)


class TestDispatch:
    @pytest.mark.parametrize(
        "label, family, result_name",
        [
            ("EDF-HP", "locking", "EDF-HP"),
            ("EDF-Wait", "locking", "EDF-Wait"),
            ("OCC", "occ", "OCC-EDF-HP"),
            ("CCAx2", "mp", "CCAx2"),
            ("EDF-HPx4", "mp", "EDF-HPx4"),
        ],
    )
    def test_label_selects_family_and_result_name(self, label, family, result_name):
        engine = cell_engine(label)
        assert engine.family == family
        assert engine.locking == (family == "locking")
        assert engine.result_name(label) == result_name

    def test_locking_label_runs_on_the_kernel(self, config):
        workload = generate_workload(config, SEED)
        simulator = cell_engine("CCA").build(config, workload, "CCA")
        assert isinstance(simulator, KernelSimulator)

    def test_cells_equal_hand_built_engines(self, config):
        workload = generate_workload(config, SEED)
        assert simulate_cell(config, SEED, "CCA") == RTDBSimulator(
            config, workload, CCAPolicy(1.0)
        ).run()
        assert simulate_cell(config, SEED, "OCC") == OCCSimulator(
            config, workload, EDFPolicy()
        ).run()
        assert simulate_cell(config, SEED, "CCAx2") == MultiprocessorSimulator(
            config, workload, CCAPolicy(1.0), n_cpus=2
        ).run()

    def test_result_from_the_wrong_engine_is_rejected(self, config):
        locking = CellOutcome(result=simulate_cell(config, SEED, "EDF-HP"))
        cell = SweepCell(x=0.0, policy="OCC", seed=SEED, config=config)
        with pytest.raises(CorruptResultError, match="OCC-EDF-HP"):
            parallel._validate_outcome(cell, locking)


class TestCacheKeys:
    def test_ext_occ_cells_keep_plain_cache_keys(self, tmp_path):
        cells = occ_cells(ExperimentScale("tiny", 2, 2, 0.05))
        execute_cells(cells, jobs=1, cache=ResultCache(tmp_path))
        stored = {path.stem for path in tmp_path.rglob("*.json")}
        assert stored == {
            cache_key(cell.config, cell.seed, cell.policy) for cell in cells
        }
        occ = [cell for cell in cells if cell.policy == "OCC"]
        assert occ and all(
            cache_key(cell.config, cell.seed, "OCC") in stored for cell in occ
        )

    def test_mp_cells_differing_only_in_cpu_count_get_distinct_keys(
        self, config, tmp_path
    ):
        cache = ResultCache(tmp_path)
        cells = cells_for_sweep({0.0: config}, (SEED,), ("CCAx1", "CCAx2"))
        results = execute_cells(cells, jobs=1, cache=cache)
        assert cache_key(config, SEED, "CCAx1") != cache_key(config, SEED, "CCAx2")
        assert len(list(tmp_path.rglob("*.json"))) == 2
        assert results[(0.0, "CCAx2", SEED)] == RunStats.of(cache.get(config, SEED, "CCAx2"))


class TestBudgets:
    @pytest.mark.parametrize(
        "label, engine", [("CCA", "kernel"), ("CCA", "reference"), ("OCC", "auto"),
                          ("CCAx2", "auto")],
    )
    def test_tiny_wall_budget_raises_with_partial_progress(self, config, label, engine):
        with pytest.raises(WallClockExceeded) as excinfo:
            simulate_cell(config.replace(engine=engine), SEED, label, max_wall_s=1e-9)
        progress = excinfo.value.progress
        assert progress["events"] == 0
        assert {"sim_time", "committed", "restarts", "live"} <= set(progress)

    @pytest.mark.parametrize("label", ["OCC", "CCAx2"])
    def test_executor_memory_budget_reaches_the_engine(self, config, label, monkeypatch):
        monkeypatch.setattr(sim_engine, "rss_bytes", lambda: 10 * 1024**3)
        cells = cells_for_sweep({0.0: config}, (SEED,), (label,))
        results = execute_cells(
            cells,
            jobs=1,
            retry=RetryPolicy(on_error="skip", max_attempts=1, memory_mb=1.0),
        )
        assert results == {}
        (failure,) = parallel.take_failures()
        assert failure.exception == "MemoryBudgetExceeded"
        assert failure.progress["committed"] == 0


class TestObservation:
    @pytest.mark.parametrize("label, family", [("OCC", "occ"), ("CCAx2", "mp")])
    def test_observed_cell_ships_engine_tally_and_stage_timings(
        self, config, label, family
    ):
        (outcome,) = run_cell(config, SEED, (label,), CellOptions(observe=True))
        deltas = outcome.deltas
        assert outcome.result == simulate_cell(config, SEED, label)
        assert outcome.wall_ms > 0
        assert deltas["counters"] == {f"sweep.engine{{engine={family}}}": 1}
        stages = {key for key in deltas["histograms"] if key.startswith("prof.stage_ms")}
        assert stages == {
            "prof.stage_ms{stage=build}",
            "prof.stage_ms{stage=event_loop}",
            "prof.stage_ms{stage=workload_gen}",
        }

    def test_profiled_occ_cell_records_stage_spans(self, config):
        (outcome,) = run_cell(config, SEED, ("OCC",), CellOptions(profile=True))
        assert outcome.result == simulate_cell(config, SEED, "OCC")
        names = {span[1] for span in outcome.prof_state["spans"]}
        assert {"cell.workload_gen", "cell.build", "cell.event_loop"} <= names

    def test_metrics_and_profile_leave_mixed_results_unchanged(self, config):
        cells = cells_for_sweep({0.0: config}, (SEED, SEED + 1), LABELS)
        plain = execute_cells(cells, jobs=1)
        with parallel.execution(metrics=MetricsRegistry(), profile=SpanProfiler()):
            assert execute_cells(cells, jobs=2) == plain
