"""One task per workload: grouped sweep cells stay independent cells.

The executor runs the uncached cells of each ``(config, seed)`` as one
task — the workload is generated once and replayed under every pending
policy — while caching, failure isolation, retries and merge order stay
per cell.  These tests hold it to that:

* ``generate_workload`` runs once per distinct uncached workload;
* a fault on one label never costs its group-mates their result;
* skips, results, merged counters and profile structure are the same
  at ``jobs=1`` and ``jobs=2``;
* a hung label times out without charging the cells that share its task.
"""

from __future__ import annotations

import pytest

from repro.core.kernel import KernelSimulator
from repro.experiments import faults, parallel
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import (
    RetryPolicy,
    cells_for_sweep,
    execute_cells,
    last_stats,
)
from repro.metrics.summary import RunStats
from repro.obs.prof import SpanProfiler
from repro.obs.registry import MetricsRegistry
from repro.workload import generator

SEEDS = (1, 2)
RATES = (2.0, 6.0)
POLICIES = ("CCA", "EDF-HP", "OCC")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.install(None)
    parallel.take_failures()
    yield
    faults.install(None)
    parallel.take_failures()


@pytest.fixture
def cells(mm_config):
    tiny = mm_config.replace(n_transactions=12)
    configs = {rate: tiny.replace(arrival_rate=rate) for rate in RATES}
    return cells_for_sweep(configs, SEEDS, POLICIES)


@pytest.fixture
def generations(monkeypatch):
    """The (config, seed) of every workload the executor generates."""
    calls = []
    real = generator.generate_workload

    def counting(config, seed):
        calls.append((config, seed))
        return real(config, seed)

    monkeypatch.setattr(parallel, "generate_workload", counting)
    return calls


def plan_hitting_one(cells, **rates) -> tuple[FaultPlan, object]:
    """A deterministic plan faulting exactly one cell; (plan, cell)."""
    for seed in range(2000):
        plan = FaultPlan(seed=seed, **rates)
        hits = [
            cell
            for cell in cells
            if plan.decide(cache_key(cell.config, cell.seed, cell.policy), 1)
        ]
        if len(hits) == 1:
            return plan, hits[0]
    raise AssertionError("no plan seed faults exactly one cell")


def group_mates(cells, cell):
    return [
        other
        for other in cells
        if other.x == cell.x and other.seed == cell.seed and other is not cell
    ]


def profile_structure(prof: SpanProfiler) -> list:
    """Span names, categories and arguments, minus the parent's own
    sweep spans (whose arguments name ``jobs``)."""
    return [
        (name, cat, args)
        for _pid, name, cat, _start, _dur, args in prof.spans
        if not name.startswith("sweep.")
    ]


class TestOneGenerationPerWorkload:
    def test_cold_pass_generates_each_workload_once(self, cells, generations, tmp_path):
        execute_cells(cells, jobs=1, cache=ResultCache(tmp_path))
        assert len(generations) == len(RATES) * len(SEEDS)
        assert len({(config.arrival_rate, seed) for config, seed in generations}) == len(
            generations
        )

    def test_warm_pass_generates_nothing(self, cells, generations, tmp_path):
        cache = ResultCache(tmp_path)
        cold = execute_cells(cells, jobs=1, cache=cache)
        generations.clear()
        assert execute_cells(cells, jobs=1, cache=cache) == cold
        assert generations == []
        assert last_stats().cells_run == 0

    def test_partly_cached_group_generates_once_and_reruns_no_cached_label(
        self, cells, generations, tmp_path
    ):
        cache = ResultCache(tmp_path)
        first = cells[0]
        execute_cells([first], jobs=1, cache=cache)
        mates = group_mates(cells, first)
        generations.clear()
        execute_cells([first, *mates], jobs=1, cache=cache)
        assert generations == [(first.config, first.seed)]
        stats = last_stats()
        assert stats.cache_hits == 1
        assert stats.cells_run == len(mates)


class TestFailureIsolation:
    @pytest.mark.parametrize("kind", ["crash", "kernel"])
    def test_fault_on_one_label_leaves_group_mates_computed_and_cached(
        self, cells, kind, tmp_path, monkeypatch
    ):
        baseline = execute_cells(cells, jobs=1)
        locking = [cell for cell in cells if cell.policy != "OCC"]
        plan, doomed = plan_hitting_one(locking, max_failures=10**6, crash=0.2)
        if kind == "crash":
            faults.install(plan)
        else:
            # The kernel engine itself raises on the doomed cell.
            doomed_workload = tuple(generator.generate_workload(doomed.config, doomed.seed))
            clean_run = KernelSimulator.run

            def run(simulator):
                if (
                    simulator.policy.name == doomed.policy
                    and simulator.config == doomed.config
                    and simulator.workload == doomed_workload
                ):
                    raise RuntimeError("kernel defect")
                return clean_run(simulator)

            monkeypatch.setattr(KernelSimulator, "run", run)
        cache = ResultCache(tmp_path)
        results = execute_cells(
            cells,
            jobs=1,
            cache=cache,
            retry=RetryPolicy(on_error="skip", max_attempts=1),
        )
        assert set(results) == set(baseline) - {doomed.key}
        stats = last_stats()
        assert [failure.key for failure in stats.failures] == [doomed.key]
        for mate in group_mates(cells, doomed):
            assert results[mate.key] == baseline[mate.key]
            entry = cache.get(mate.config, mate.seed, mate.policy)
            assert RunStats.of(entry) == baseline[mate.key]

    def test_skip_drops_the_same_cells_at_jobs_1_and_2(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan, doomed = plan_hitting_one(cells, crash=0.2, max_failures=10**6)
        faults.install(plan)
        retry = RetryPolicy(on_error="skip", max_attempts=2)
        serial = execute_cells(cells, jobs=1, retry=retry)
        serial_stats = last_stats()
        pooled = execute_cells(cells, jobs=2, retry=retry)
        pooled_stats = last_stats()
        assert serial == pooled
        assert set(serial) == set(baseline) - {doomed.key}
        for stats in (serial_stats, pooled_stats):
            assert stats.cells_skipped == 1
            assert [(f.key, f.attempts) for f in stats.failures] == [(doomed.key, 2)]

    def test_hung_label_times_out_without_charging_its_group_mates(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan, hung = plan_hitting_one(cells, hang=0.1, max_failures=1, hang_s=1.5)
        faults.install(plan)
        results = execute_cells(
            cells,
            jobs=2,
            retry=RetryPolicy(on_error="retry", max_attempts=3, timeout=0.3),
        )
        stats = last_stats()
        assert results == baseline
        assert stats.timeouts >= 1
        assert [(f.key, f.exception) for f in stats.failures] == [
            (hung.key, "CellTimeoutError")
        ]
        assert all(failure.recovered for failure in stats.failures)


class TestJobsParity:
    def test_results_counters_and_profile_structure(self, cells):
        runs = {}
        for jobs in (1, 2):
            registry, prof = MetricsRegistry(), SpanProfiler()
            results = execute_cells(cells, jobs=jobs, metrics=registry, profile=prof)
            runs[jobs] = (results, registry.snapshot()["counters"], profile_structure(prof))
        assert runs[1] == runs[2]
        _, counters, structure = runs[1]
        assert counters["sweep.cells_run"] == len(cells)
        names = [name for name, _cat, _args in structure]
        # One workload generation per (config, seed) task, one build and
        # event loop per cell.
        assert names.count("cell.workload_gen") == len(RATES) * len(SEEDS)
        assert names.count("cell.build") == names.count("cell.event_loop") == len(cells)
