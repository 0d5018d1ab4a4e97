"""Multi-seed runner and sweeps."""

from repro.experiments.runner import compare_policies, run_policy, sweep


SEEDS = (1, 2)


class TestRunPolicy:
    def test_one_result_per_seed(self, mm_config):
        results = run_policy(mm_config, "EDF-HP", SEEDS)
        assert len(results) == 2
        assert all(r.policy_name == "EDF-HP" for r in results)
        assert all(r.n_committed == mm_config.n_transactions for r in results)


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
