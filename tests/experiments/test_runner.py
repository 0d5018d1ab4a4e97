"""Multi-seed runner and sweeps."""

from repro.experiments.parallel import cells_for_sweep, execute_cells
from repro.experiments.runner import compare_policies, point_results, sweep
from repro.metrics.summary import RunStats


SEEDS = (1, 2)


class TestPointResults:
    def test_one_run_per_seed(self, mm_config):
        cells = cells_for_sweep({0.0: mm_config}, SEEDS, ("EDF-HP",))
        points = point_results(cells, execute_cells(cells))
        runs = points[(0.0, "EDF-HP")]
        assert len(runs) == 2
        assert all(isinstance(r, RunStats) for r in runs)
        assert all(r.policy_name == "EDF-HP" for r in runs)
        assert all(r.n_committed == mm_config.n_transactions for r in runs)


class TestComparePolicies:
    def test_paired_summaries(self, mm_config):
        summaries = compare_policies(mm_config, SEEDS)
        assert set(summaries) == {"EDF-HP", "CCA"}
        assert summaries["EDF-HP"].n_runs == 2
        assert summaries["CCA"].n_runs == 2

    def test_extra_policies(self, mm_config):
        summaries = compare_policies(
            mm_config, (1,), policies=("EDF-HP", "CCA", "EDF-Wait")
        )
        assert set(summaries) == {"EDF-HP", "CCA", "EDF-Wait"}


class TestSweep:
    def test_sweep_structure(self, mm_config):
        configs = {
            rate: mm_config.replace(arrival_rate=rate) for rate in (2.0, 6.0)
        }
        swept = sweep(configs, SEEDS)
        assert set(swept) == {2.0, 6.0}
        for summaries in swept.values():
            assert set(summaries) == {"EDF-HP", "CCA"}

    def test_load_monotonicity(self, mm_config):
        """Sanity of the harness end to end: much heavier load cannot
        reduce EDF-HP mean lateness on the same seeds."""
        configs = {
            rate: mm_config.replace(arrival_rate=rate) for rate in (1.0, 20.0)
        }
        swept = sweep(configs, (1, 2, 3))
        light = swept[1.0]["EDF-HP"].mean_lateness.mean
        heavy = swept[20.0]["EDF-HP"].mean_lateness.mean
        assert heavy >= light
