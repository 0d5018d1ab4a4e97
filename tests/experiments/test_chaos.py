"""Chaos tests: fault-tolerant sweep execution under injected faults.

The fault-injection harness (:mod:`repro.experiments.faults`) schedules
worker crashes, hangs, corrupt payloads, process deaths, and interrupts
deterministically per cell, so these tests can hold the executor to the
same invariants as fault-free runs:

* retried sweeps converge to the *bit-identical* fault-free result, at
  any ``jobs`` count;
* ``on_error=skip`` drops exactly the same cells serially and in
  parallel;
* an interrupted sweep checkpoints completed cells and a re-launch
  recomputes only the missing ones (``sweep.cells_run``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.kernel import KernelSimulator
from repro.experiments import faults
from repro.experiments import parallel
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.faults import FaultPlan
from repro.experiments.parallel import (
    RetryPolicy,
    SweepError,
    cells_for_sweep,
    execute_cells,
    last_stats,
)
from repro.obs.manifest import build_manifest, validate_manifest
from repro.obs.registry import MetricsRegistry
from repro.sim import engine as sim_engine

SEEDS = (1, 2, 3)
RATES = (2.0, 6.0)
POLICIES = ("CCA", "EDF-HP")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No fault plan (or stale failure records) leaks across tests."""
    faults.install(None)
    parallel.take_failures()
    yield
    faults.install(None)
    parallel.take_failures()


@pytest.fixture
def tiny_config(mm_config):
    return mm_config.replace(n_transactions=12)


@pytest.fixture
def cells(tiny_config):
    configs = {rate: tiny_config.replace(arrival_rate=rate) for rate in RATES}
    return cells_for_sweep(configs, SEEDS, POLICIES)


def fault_schedule(plan: FaultPlan, cells, attempt: int = 1) -> dict:
    """Which cells the plan faults on ``attempt`` (key -> fault kind)."""
    hits = {}
    for cell in cells:
        kind = plan.decide(
            cache_key(cell.config, cell.seed, cell.policy), attempt
        )
        if kind is not None:
            hits[cell.key] = kind
    return hits


def plan_hitting(cells, min_hits: int = 2, max_hits: int = None, **rates) -> FaultPlan:
    """A deterministic plan whose schedule faults >= ``min_hits`` cells.

    Searches plan seeds so the tests never depend on one lucky hash;
    the chosen plan is still fully deterministic.
    """
    max_hits = len(cells) - 1 if max_hits is None else max_hits
    for seed in range(500):
        plan = FaultPlan(seed=seed, **rates)
        hits = fault_schedule(plan, cells)
        if min_hits <= len(hits) <= max_hits:
            return plan
    raise AssertionError(f"no plan seed yields {min_hits}..{max_hits} faults")


class TestChaosParity:
    """Transient faults + retries converge to the fault-free result."""

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_retry_matches_fault_free(self, cells, jobs):
        baseline = execute_cells(cells, jobs=1)

        plan = plan_hitting(cells, crash=0.4, max_failures=2)
        faults.install(plan)
        chaotic = execute_cells(
            cells, jobs=jobs, retry=RetryPolicy(on_error="retry", max_attempts=3)
        )
        stats = last_stats()

        assert stats.failed_attempts >= 2  # faults actually fired
        assert stats.retries == stats.failed_attempts
        assert all(failure.recovered for failure in stats.failures)
        assert chaotic == baseline  # bit-identical results

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_merged_counters_match_fault_free(self, cells, jobs):
        """Worker metric deltas merge identically with and without
        retries: only successful attempts ship deltas, merged in key
        order per round."""
        clean = MetricsRegistry()
        execute_cells(cells, jobs=1, metrics=clean)

        plan = plan_hitting(cells, crash=0.4, max_failures=2)
        faults.install(plan)
        chaotic = MetricsRegistry()
        execute_cells(
            cells,
            jobs=jobs,
            metrics=chaotic,
            retry=RetryPolicy(on_error="retry", max_attempts=3),
        )

        clean_counters = clean.snapshot()["counters"]
        chaos_counters = chaotic.snapshot()["counters"]
        # The executor's own failure counters differ by design.
        for name in ("sweep.failures", "sweep.retries"):
            chaos_counters.pop(name, None)
        assert chaos_counters == clean_counters


class TestSkipMode:
    def test_permanent_faults_drop_same_cells_at_any_jobs(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(
            cells, crash=0.3, max_failures=10**6  # permanent: retries never win
        )
        doomed = set(fault_schedule(plan, cells))
        retry = RetryPolicy(on_error="skip", max_attempts=2)

        faults.install(plan)
        serial = execute_cells(cells, jobs=1, retry=retry)
        serial_stats = last_stats()
        parallel_run = execute_cells(cells, jobs=4, retry=retry)
        parallel_stats = last_stats()

        assert set(serial) == set(baseline) - doomed
        assert serial == parallel_run  # same drops, same survivors
        assert serial_stats.cells_skipped == len(doomed)
        assert parallel_stats.cells_skipped == len(doomed)
        for stats in (serial_stats, parallel_stats):
            terminal = [f for f in stats.failures if not f.recovered]
            assert {f.key for f in terminal} == doomed
            assert all(f.attempts == 2 for f in terminal)

    def test_exhausted_retries_raise_without_skip(self, cells):
        plan = plan_hitting(cells, crash=0.3, max_failures=10**6)
        faults.install(plan)
        with pytest.raises(SweepError) as excinfo:
            execute_cells(
                cells, jobs=1, retry=RetryPolicy(on_error="retry", max_attempts=2)
            )
        assert excinfo.value.failures
        assert all(f.exception == "InjectedCrash" for f in excinfo.value.failures)


class TestFailMode:
    def test_first_failure_aborts(self, cells):
        plan = plan_hitting(cells, crash=0.4)
        faults.install(plan)
        with pytest.raises(SweepError) as excinfo:
            execute_cells(cells, jobs=1)  # default RetryPolicy: on_error=fail
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].attempts == 1

    def test_completed_cells_checkpointed_before_abort(self, cells, tmp_path):
        cache = ResultCache(tmp_path)
        plan = plan_hitting(cells, crash=0.4)
        first_doomed = min(fault_schedule(plan, cells))
        survivors_before = [c for c in sorted(cells, key=lambda c: c.key)
                            if c.key < first_doomed]
        faults.install(plan)
        with pytest.raises(SweepError):
            execute_cells(cells, jobs=1, cache=cache)
        for cell in survivors_before:
            assert cache.get(cell.config, cell.seed, cell.policy) is not None


class TestCorruptPayloads:
    def test_corrupt_payload_detected_and_retried(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(cells, corrupt=0.4, max_failures=1)
        faults.install(plan)
        results = execute_cells(
            cells, jobs=1, retry=RetryPolicy(on_error="retry", max_attempts=2)
        )
        stats = last_stats()
        assert results == baseline
        assert stats.failed_attempts >= 2
        assert all(f.exception == "CorruptResultError" for f in stats.failures)
        assert all(f.recovered for f in stats.failures)

    def test_corrupt_payload_detected_in_pool_mode(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(cells, corrupt=0.4, max_failures=1)
        faults.install(plan)
        results = execute_cells(
            cells, jobs=4, retry=RetryPolicy(on_error="retry", max_attempts=2)
        )
        assert results == baseline


class TestTimeouts:
    def test_hung_worker_times_out_and_recovers(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(
            cells, min_hits=1, max_hits=2, hang=0.15, max_failures=1, hang_s=1.5
        )
        faults.install(plan)
        results = execute_cells(
            cells,
            jobs=2,
            retry=RetryPolicy(on_error="retry", max_attempts=3, timeout=0.25),
        )
        stats = last_stats()
        assert results == baseline
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 1  # hung worker's pool was replaced
        assert any(f.exception == "CellTimeoutError" for f in stats.failures)
        assert all(f.recovered for f in stats.failures)


class TestDeadWorkers:
    def test_killed_worker_rebuilds_pool_and_recovers(self, cells):
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(cells, min_hits=1, max_hits=2, die=0.15, max_failures=1)
        faults.install(plan)
        results = execute_cells(
            cells, jobs=2, retry=RetryPolicy(on_error="retry", max_attempts=3)
        )
        stats = last_stats()
        assert results == baseline
        assert stats.pool_rebuilds >= 1
        assert stats.failed_attempts >= 1

    def test_die_downgrades_to_crash_in_serial(self, cells):
        """A ``die`` fault must never hard-kill the main process."""
        baseline = execute_cells(cells, jobs=1)
        plan = plan_hitting(cells, min_hits=1, max_hits=2, die=0.15, max_failures=1)
        faults.install(plan)
        results = execute_cells(
            cells, jobs=1, retry=RetryPolicy(on_error="retry", max_attempts=3)
        )
        stats = last_stats()
        assert results == baseline
        assert any(f.exception == "InjectedCrash" for f in stats.failures)


class TestInterruptAndResume:
    """The SIGINT story: checkpoint on interrupt, resume from the cache."""

    def _interrupt_plan(self, cells) -> FaultPlan:
        """A plan whose first interrupt (in key order) leaves some cells
        completed *and* some never attempted."""
        ordered = sorted(cells, key=lambda c: c.key)
        for seed in range(500):
            plan = FaultPlan(seed=seed, interrupt=0.25, max_failures=10**6)
            hits = fault_schedule(plan, ordered)
            if not hits:
                continue
            first = next(
                i for i, cell in enumerate(ordered) if cell.key in hits
            )
            if 2 <= first <= len(ordered) - 3:
                return plan
        raise AssertionError("no suitable interrupt plan found")

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_sweep_resumes_from_checkpoint(
        self, cells, tmp_path, jobs
    ):
        cache = ResultCache(tmp_path)
        plan = self._interrupt_plan(cells)
        faults.install(plan)
        with pytest.raises(KeyboardInterrupt):
            execute_cells(cells, jobs=jobs, cache=cache)
        interrupted = last_stats()
        assert 0 < interrupted.cells_run < len(cells)  # partial checkpoint

        # Re-launch without faults: only the missing cells are simulated.
        faults.install(None)
        cache.reset_counters()
        results = execute_cells(cells, jobs=jobs, cache=cache)
        resumed = last_stats()
        assert len(results) == len(cells)
        assert resumed.cache_hits == interrupted.cells_run
        assert resumed.cells_run == len(cells) - interrupted.cells_run
        assert results == execute_cells(cells, jobs=1, cache=None)


class TestFaultPlanDeterminism:
    def test_schedule_independent_of_call_order(self, cells):
        plan = FaultPlan(seed=7, crash=0.5)
        forward = fault_schedule(plan, cells)
        backward = fault_schedule(plan, list(reversed(cells)))
        assert forward == backward

    def test_spec_round_trip(self):
        plan = FaultPlan(
            seed=42, crash=0.3, hang=0.1, max_failures=2, hang_s=0.25
        )
        assert faults.parse_spec(plan.to_spec()) == plan

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_spec("crash=0.8,hang=0.5")  # rates sum > 1
        with pytest.raises(ValueError):
            faults.parse_spec("explode=1.0")
        with pytest.raises(ValueError):
            faults.parse_spec("crash")

    def test_faults_stop_after_max_failures(self):
        plan = FaultPlan(seed=1, crash=1.0, max_failures=2)
        assert plan.decide("cell", 1) == "crash"
        assert plan.decide("cell", 2) == "crash"
        assert plan.decide("cell", 3) is None

    def test_env_round_trip_activates_plan(self, monkeypatch):
        plan = FaultPlan(seed=9, crash=0.5)
        monkeypatch.setenv(faults.FAULTS_ENV, plan.to_spec())
        assert faults.active_plan() == plan
        monkeypatch.delenv(faults.FAULTS_ENV)
        assert faults.active_plan() is None


class TestKernelEngineChaos:
    """The chaos matrix extended to explicit kernel-engine cells.

    Every invariant above holds when cells *force* ``engine="kernel"``,
    and an exception raised inside the kernel itself is an ordinary
    cell failure: recorded, retried, and recovered like any other.
    """

    @pytest.fixture
    def kernel_cells(self, cells):
        return [
            dataclasses.replace(
                cell, config=cell.config.replace(engine="kernel")
            )
            for cell in cells
        ]

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_retry_matches_fault_free_on_kernel_engine(
        self, kernel_cells, jobs
    ):
        baseline = execute_cells(kernel_cells, jobs=1)
        plan = plan_hitting(kernel_cells, crash=0.4, max_failures=2)
        faults.install(plan)
        chaotic = execute_cells(
            kernel_cells,
            jobs=jobs,
            retry=RetryPolicy(on_error="retry", max_attempts=3),
        )
        stats = last_stats()
        assert stats.failed_attempts >= 2
        assert all(failure.recovered for failure in stats.failures)
        assert chaotic == baseline

    def test_kernel_exception_is_an_ordinary_failure(
        self, kernel_cells, monkeypatch
    ):
        """A kernel that raises on a cell's first attempt fails that
        cell alone; a retry recovers it, the results equal a clean run,
        and the failure record fits the manifest schema."""
        baseline = execute_cells(kernel_cells, jobs=1)
        target = kernel_cells[-1]

        class KernelDefect(Exception):
            pass

        clean_run = KernelSimulator.run
        raised = []

        def run(self):
            if (
                not raised
                and self.config == target.config
                and self.policy.name == target.policy
            ):
                raised.append(True)
                raise KernelDefect("kernel state corrupted")
            return clean_run(self)

        monkeypatch.setattr(KernelSimulator, "run", run)
        results = execute_cells(
            kernel_cells,
            jobs=1,
            retry=RetryPolicy(on_error="retry", max_attempts=2),
        )
        stats = last_stats()

        (failure,) = stats.failures
        assert failure.key[:2] == target.key[:2]
        assert failure.exception == "KernelDefect"
        assert failure.message == "kernel state corrupted"
        assert failure.attempts == 1
        assert failure.recovered
        assert stats.retries == 1
        assert results == baseline
        manifest = build_manifest(
            experiment="chaos",
            scale="test",
            cells=[
                (cell.config.canonical_dict(), cell.seed, cell.policy)
                for cell in kernel_cells
            ],
            metrics_snapshot=MetricsRegistry().snapshot(),
            failures=[f.to_dict() for f in stats.failures],
        )
        assert validate_manifest(manifest) == []
        assert manifest["failures"] == [failure.to_dict()]


class TestFailureProgress:
    def test_budget_failure_carries_progress(self, tiny_config, monkeypatch):
        monkeypatch.setattr(
            sim_engine, "rss_bytes", lambda: 10 * 1024 * 1024 * 1024
        )
        cells = cells_for_sweep(
            {2.0: tiny_config.replace(arrival_rate=2.0)}, (1,), ("CCA",)
        )
        execute_cells(
            cells,
            jobs=1,
            retry=RetryPolicy(on_error="skip", max_attempts=1, memory_mb=1.0),
        )
        failures = parallel.take_failures()
        assert len(failures) == 1
        failure = failures[0]
        assert failure.exception == "MemoryBudgetExceeded"
        assert failure.progress is not None
        assert failure.progress["rss_bytes"] == 10 * 1024 * 1024 * 1024
        assert "events" in failure.progress
        assert "committed" in failure.progress
        assert failure.to_dict()["progress"] == failure.progress
