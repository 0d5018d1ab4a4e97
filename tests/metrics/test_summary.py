"""Summary statistics."""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.core.simulator import SimulationResult, TransactionRecord
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import occ_cells
from repro.experiments.parallel import cell_engine, execute_cells, simulate_cell
from repro.metrics.summary import RunStats, Statistic, summarize
from repro.rtdb.transaction import Operation, TransactionSpec


def record(tid, commit, deadline, restarts=0):
    return TransactionRecord(
        tid=tid,
        type_id=0,
        arrival_time=0.0,
        deadline=deadline,
        commit_time=commit,
        restarts=restarts,
    )


def result(policy="CCA", records=(), restarts=0, makespan=1000.0):
    records = tuple(records)
    return SimulationResult(
        policy_name=policy,
        n_committed=len(records),
        n_missed=sum(1 for r in records if r.missed),
        total_restarts=restarts,
        makespan=makespan,
        cpu_utilization=0.5,
        disk_utilization=0.0,
        mean_plist_size=1.5,
        records=records,
    )


class TestStatistic:
    def test_mean_std(self):
        stat = Statistic.of([1.0, 2.0, 3.0])
        assert stat.mean == pytest.approx(2.0)
        assert stat.std == pytest.approx(1.0)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0
        assert stat.n == 3

    def test_single_value(self):
        stat = Statistic.of([5.0])
        assert stat.mean == 5.0
        assert stat.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Statistic.of([])

    def test_format(self):
        assert f"{Statistic.of([1.23456]):.2f}" == "1.23"


class TestResultMetrics:
    def test_miss_percent(self):
        res = result(records=[record(1, 50, 100), record(2, 150, 100)])
        assert res.miss_percent == pytest.approx(50.0)

    def test_mean_lateness_is_tardiness(self):
        res = result(records=[record(1, 50, 100), record(2, 160, 100)])
        # Early commit contributes 0, late one contributes 60.
        assert res.mean_lateness == pytest.approx(30.0)
        assert res.mean_signed_lateness == pytest.approx((-50 + 60) / 2)

    def test_restarts_per_transaction(self):
        res = result(records=[record(1, 1, 10), record(2, 2, 10)], restarts=3)
        assert res.restarts_per_transaction == pytest.approx(1.5)

    def test_empty_result_metrics(self):
        res = result(records=[])
        assert res.miss_percent == 0.0
        assert res.mean_lateness == 0.0
        assert res.restarts_per_transaction == 0.0


class TestSummarize:
    def test_aggregates_across_seeds(self):
        runs = [
            result(records=[record(1, 150, 100)]),   # 100% miss
            result(records=[record(1, 50, 100)]),    # 0% miss
        ]
        summary = summarize(runs)
        assert summary.n_runs == 2
        assert summary.miss_percent.mean == pytest.approx(50.0)
        assert summary.policy_name == "CCA"

    def test_mixed_policies_rejected(self):
        with pytest.raises(ValueError):
            summarize([result(policy="CCA"), result(policy="EDF-HP")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


#: (config.engine, cell label): the kernel, the reference engine, OCC
#: and the multiprocessor engine.
ENGINES = [
    ("kernel", "EDF-HP"),
    ("kernel", "CCA"),
    ("reference", "EDF-HP"),
    ("reference", "CCA"),
    ("auto", "OCC"),
    ("auto", "CCAx2"),
]


class TestRunStats:
    """``RunStats`` is what the sweep executor keeps of a result; every
    summary built from it must equal the one built from the results."""

    @staticmethod
    def assert_same_summary(results):
        stats = [RunStats.of(r) for r in results]
        assert summarize(stats) == summarize(results)
        for run, stat in zip(results, stats):
            for field in dataclasses.fields(RunStats):
                assert getattr(stat, field.name) == getattr(run, field.name)

    @pytest.mark.parametrize("engine,label", ENGINES)
    def test_soft_runs(self, mm_config, engine, label):
        config = mm_config.replace(engine=engine)
        self.assert_same_summary([simulate_cell(config, s, label) for s in (1, 2, 3)])

    @pytest.mark.parametrize("engine,label", ENGINES[:-1])
    def test_firm_runs_with_drops(self, mm_config, engine, label):
        config = mm_config.replace(
            engine=engine, firm_deadlines=True, arrival_rate=12.0, max_slack=1.0
        )
        results = [simulate_cell(config, s, label) for s in (1, 2, 3)]
        assert all(r.n_dropped > 0 for r in results)
        self.assert_same_summary(results)

    @pytest.mark.parametrize("engine,label", ENGINES[:-1])
    def test_run_with_zero_commits(self, engine, label):
        """Two firm transactions whose deadlines fall before their work
        can finish: both are dropped, so every ratio divides by zero
        commits."""
        config = SimulationConfig(firm_deadlines=True, db_size=10, engine=engine)
        workload = [
            TransactionSpec(
                tid=tid, type_id=0, arrival_time=0.0, deadline=1.0,
                criticalness=0,
                operations=(Operation(item=tid, compute_time=4.0, io_time=0.0),),
            )
            for tid in (0, 1)
        ]
        result = cell_engine(label).build(config, workload, label).run()
        assert (result.n_committed, result.n_dropped) == (0, 2)
        self.assert_same_summary([result])

    def test_ext_occ_miss_or_drop_percent(self):
        """ext-occ averages ``miss_or_drop_percent``, which the executor
        hands back as ``RunStats``."""
        cells = occ_cells(ExperimentScale("tiny", 2, 2, 0.05))
        stats = execute_cells(cells, jobs=1)
        assert any(stat.n_dropped > 0 for stat in stats.values())
        for cell in cells:
            result = simulate_cell(cell.config, cell.seed, cell.policy)
            assert stats[cell.key] == RunStats.of(result)
            assert stats[cell.key].miss_or_drop_percent == result.miss_or_drop_percent
