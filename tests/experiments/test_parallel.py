"""Parallel executor parity: ``jobs=N`` output equals serial output.

The determinism guarantee of :mod:`repro.experiments.parallel` — merge
by cell key, never by completion order; regenerate workloads
deterministically per cell — must make parallel, cached, and serial
executions bit-identical for the same seeds.  These tests hold that
for the executor, the runner entry points, and a full figure sweep,
with the cache cold, warm, and disabled.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.core.simulator import TransactionRecord
from repro.experiments import figures, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import (
    SweepCell,
    cells_for_sweep,
    execute_cells,
    last_stats,
)
from repro.experiments.runner import compare_policies, sweep
from repro.tracing import TraceCounters

SEEDS = (1, 2)
RATES = (2.0, 6.0)


@pytest.fixture(autouse=True)
def _fresh_figure_memo():
    figures.clear_cache()
    yield
    figures.clear_cache()


@pytest.fixture
def configs(mm_config):
    small = mm_config.replace(n_transactions=30)
    return {rate: small.replace(arrival_rate=rate) for rate in RATES}


def assert_summaries_equal(left, right):
    """Metric-by-metric equality of two sweep outputs."""
    assert list(left) == list(right)
    for x in left:
        assert list(left[x]) == list(right[x])
        for policy in left[x]:
            a, b = left[x][policy], right[x][policy]
            for field in dataclasses.fields(a):
                assert getattr(a, field.name) == getattr(b, field.name), (
                    f"{field.name} differs at x={x}, policy={policy}"
                )


class TestExecuteCells:
    def test_parallel_equals_serial(self, configs):
        cells = cells_for_sweep(configs, SEEDS, ("EDF-HP", "CCA"))
        serial = execute_cells(cells, jobs=1)
        parallel = execute_cells(cells, jobs=4)
        assert serial == parallel
        assert list(serial) == sorted(serial)  # merged in cell-key order

    def test_duplicate_cells_rejected(self, configs):
        cell = SweepCell(x=1.0, policy="CCA", seed=1, config=configs[2.0])
        with pytest.raises(ValueError, match="duplicate"):
            execute_cells([cell, cell])

    def test_stats_count_runs_and_hits(self, configs, tmp_path):
        cells = cells_for_sweep(configs, SEEDS, ("CCA",))
        cache = ResultCache(tmp_path)
        execute_cells(cells, jobs=1, cache=cache)
        cold = last_stats()
        assert cold.cells_total == len(cells)
        assert cold.cells_run == len(cells)
        assert cold.cache_hits == 0
        execute_cells(cells, jobs=1, cache=cache)
        warm = last_stats()
        assert warm.cells_run == 0
        assert warm.cache_hits == len(cells)


class TestSweepParity:
    def test_jobs4_equals_serial(self, configs):
        serial = sweep(configs, SEEDS, jobs=1)
        parallel = sweep(configs, SEEDS, jobs=4)
        assert_summaries_equal(serial, parallel)

    def test_parity_cold_warm_and_disabled_cache(self, configs, tmp_path):
        baseline = sweep(configs, SEEDS, jobs=1)  # cache disabled
        cache = ResultCache(tmp_path)
        cold = sweep(configs, SEEDS, jobs=4, cache=cache)
        assert cache.counters.hits == 0 and cache.counters.stores > 0
        warm = sweep(configs, SEEDS, jobs=4, cache=cache)
        assert last_stats().cells_run == 0
        assert_summaries_equal(baseline, cold)
        assert_summaries_equal(baseline, warm)

    def test_warm_cache_parity_across_jobs(self, configs, tmp_path):
        """Serial compute, parallel replay (and vice versa) agree."""
        cache = ResultCache(tmp_path)
        serial_cold = sweep(configs, SEEDS, jobs=1, cache=cache)
        parallel_warm = sweep(configs, SEEDS, jobs=4, cache=cache)
        assert_summaries_equal(serial_cold, parallel_warm)

    def test_compare_policies_parity(self, mm_config):
        small = mm_config.replace(n_transactions=30)
        serial = compare_policies(small, SEEDS)
        parallel = compare_policies(small, SEEDS, jobs=2)
        assert list(serial) == list(parallel)
        for policy in serial:
            assert serial[policy] == parallel[policy]

    def test_one_policy_execute_cells_parity(self, mm_config):
        small = mm_config.replace(n_transactions=30)
        cells = cells_for_sweep({0.0: small}, SEEDS, ("CCA",))
        assert execute_cells(cells, jobs=1) == execute_cells(cells, jobs=2)

    def test_trace_stream_is_deterministic(self, configs):
        streams = []
        for jobs in (1, 4):
            counters = TraceCounters()
            sweep(configs, SEEDS, jobs=jobs, trace=counters)
            streams.append(
                (counters.count("sweep_cell"), counters.last["sweep_cell"])
            )
        assert streams[0] == streams[1]


class TestFigureSweeps:
    """The acceptance criterion: a warm-cache figure rerun simulates
    nothing, and still produces identical curves."""

    SCALE = ExperimentScale("tiny", 1, 1, 0.05)

    def test_warm_rerun_of_figure_sweep_runs_zero_sims(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold_counters = TraceCounters()
        cold = figures.run_experiment(
            "fig4a", self.SCALE, cache=cache, trace=cold_counters
        )
        assert cold_counters.total("sweep_end", "cells_run") > 0

        figures.clear_cache()  # bypass the in-process memo
        warm_counters = TraceCounters()
        warm = figures.run_experiment(
            "fig4a", self.SCALE, jobs=2, cache=cache, trace=warm_counters
        )
        assert warm_counters.total("sweep_end", "cells_run") == 0
        assert warm_counters.total("sweep_end", "cache_hits") == (
            warm_counters.total("sweep_end", "cells")
        )
        assert warm.series == cold.series


def _live_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is TransactionRecord)


class TestNoRecordRetention:
    """The executor keeps each merged cell's ``RunStats``, never its
    records: when the sweep's last task starts, the parent holds at most
    one task's records, however many cells merged before it.  Serially
    the last task is the last ``run_cell`` call; pooled, it is the
    parent's wait for the last task's payload."""

    POLICIES = ("EDF-HP", "CCA")

    @pytest.fixture
    def cells(self, configs):
        return cells_for_sweep(configs, (1, 2, 3), self.POLICIES)

    def _check(self, cells, jobs, monkeypatch, target, name):
        tasks = len({(cell.x, cell.seed) for cell in cells})
        one_task = len(self.POLICIES) * cells[0].config.n_transactions
        seen: list[int] = []
        real = getattr(target, name)

        def counting(*args, **kwargs):
            seen.append(_live_records() if len(seen) == tasks - 1 else -1)
            return real(*args, **kwargs)

        monkeypatch.setattr(target, name, counting)
        before = _live_records()
        results = execute_cells(cells, jobs=jobs)
        assert len(seen) == tasks and len(results) == len(cells)
        assert seen[-1] - before <= one_task

    def test_serial_sweep_holds_one_task(self, cells, monkeypatch):
        self._check(cells, 1, monkeypatch, parallel, "run_cell")

    def test_pooled_sweep_holds_one_task(self, cells, monkeypatch):
        self._check(cells, 2, monkeypatch, parallel._SweepRunner, "_await")
