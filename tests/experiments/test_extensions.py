"""Extension experiments (ext-* CLI entries)."""

import pytest

from repro.cli import ALL_RUNNABLE, build_parser
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import (
    EXTENSION_CELLS,
    EXTENSION_EXPERIMENTS,
    ext_bursty,
    ext_disk_scheduling,
    ext_occ,
    ext_shared_locks,
)
from repro.experiments.figures import clear_cache
from repro.experiments.parallel import execution, last_stats

TINY = ExperimentScale("tiny", 2, 2, 0.05)
SMALL = ExperimentScale("small", 3, 3, 0.15)

#: ``FigureResult.series`` as the serial, per-engine loops these
#: experiments ran before every cell went through the sweep executor.
PINNED_TINY = {
    "ext-bursty": {"EDF-HP": [(0.0, 3.0), (1.0, 22.0)], "CCA": [(0.0, 3.0), (1.0, 14.0)]},
    "ext-disk-sched": {
        "EDF-HP": [(0.0, 1834.7928383897508), (1.0, 1796.2225677730676)],
        "CCA": [(0.0, 553.2161059152618), (1.0, 553.2161059152618)],
    },
    "ext-multiprocessor": {
        "EDF-HP-MP": [(1.0, 1.0), (2.0, 1.0), (4.0, 9.0)],
        "CCA-MP": [(1.0, 1.0), (2.0, 4.0), (4.0, 21.0)],
    },
    "ext-occ": {
        "EDF-HP": [(0.0, 18.0), (1.0, 10.0)],
        "CCA": [(0.0, 11.0), (1.0, 5.0)],
        "OCC": [(0.0, 17.0), (1.0, 10.0)],
    },
    "ext-shared-locks": {
        "EDF-HP": [(0.0, 0.2), (25.0, 0.2), (50.0, 0.2), (75.0, 0.18), (90.0, 0.13)],
        "CCA": [
            (0.0, 0.16), (25.0, 0.16), (50.0, 0.15000000000000002), (75.0, 0.14),
            (90.0, 0.11),
        ],
    },
    "ext-slack": {
        "EDF-HP": [(0.25, 38.0), (0.5, 27.0), (1.0, 6.0), (1.5, 2.0), (2.0, 0.0)],
        "CCA": [(0.25, 33.0), (0.5, 27.0), (1.0, 6.0), (1.5, 0.0), (2.0, 0.0)],
    },
    "ext-wp": {
        "EDF-HP": [(6.0, 1.0), (8.0, 6.0), (10.0, 26.0)],
        "EDF-WP": [(6.0, 4.0), (8.0, 11.0), (10.0, 21.0)],
        "EDF-Wait": [(6.0, 4.0), (8.0, 9.0), (10.0, 21.0)],
        "CCA": [(6.0, 1.0), (8.0, 6.0), (10.0, 22.0)],
    },
}

#: The same at SMALL, where the means are not round numbers.
PINNED_SMALL = {
    "ext-occ": {
        "EDF-HP": [(0.0, 15.333333333333334), (1.0, 8.666666666666666)],
        "CCA": [(0.0, 12.0), (1.0, 6.0)],
        "OCC": [(0.0, 14.888888888888891), (1.0, 8.666666666666666)],
    },
    "ext-wp": {
        "EDF-HP": [(6.0, 3.5555555555555554), (8.0, 10.444444444444445),
                   (10.0, 28.888888888888886)],
        "EDF-WP": [(6.0, 4.666666666666666), (8.0, 11.555555555555557),
                   (10.0, 19.333333333333332)],
        "EDF-Wait": [(6.0, 4.0), (8.0, 8.0), (10.0, 17.333333333333332)],
        "CCA": [(6.0, 2.2222222222222223), (8.0, 8.444444444444445),
                (10.0, 23.11111111111111)],
    },
}


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestRegistry:
    def test_extension_ids(self):
        assert set(EXTENSION_EXPERIMENTS) == {
            "ext-shared-locks",
            "ext-multiprocessor",
            "ext-occ",
            "ext-bursty",
            "ext-disk-sched",
            "ext-slack",
            "ext-wp",
        }

    def test_cli_accepts_extension_ids(self):
        args = build_parser().parse_args(["ext-occ"])
        assert args.experiment == "ext-occ"

    def test_all_runnable_merges_both_registries(self):
        assert "fig4a" in ALL_RUNNABLE
        assert "ext-shared-locks" in ALL_RUNNABLE


class TestExtensionResults:
    def test_shared_locks_series(self):
        result = ext_shared_locks(TINY)
        assert set(result.series) == {"EDF-HP", "CCA"}
        xs = [x for x, _ in result.series["CCA"]]
        assert xs == [0.0, 25.0, 50.0, 75.0, 90.0]

    def test_occ_covers_both_semantics(self):
        result = ext_occ(TINY)
        assert set(result.series) == {"EDF-HP", "CCA", "OCC"}
        for points in result.series.values():
            assert [x for x, _ in points] == [0.0, 1.0]
            assert all(0.0 <= y <= 100.0 for _, y in points)

    def test_bursty_two_models(self):
        result = ext_bursty(TINY)
        for points in result.series.values():
            assert len(points) == 2

    def test_disk_scheduling_two_disciplines(self):
        result = ext_disk_scheduling(TINY)
        for points in result.series.values():
            assert len(points) == 2
            assert all(y >= 0.0 for _, y in points)


class TestSlackSensitivity:
    def test_misses_fall_as_deadlines_loosen(self):
        from repro.experiments.extensions import ext_slack

        result = ext_slack(TINY)
        for name, points in result.series.items():
            by_scale = dict(points)
            assert by_scale[0.25] >= by_scale[2.0], name

    def test_registered(self):
        assert "ext-slack" in EXTENSION_EXPERIMENTS


class TestExecutorParity:
    """Every extension runs as one executor batch and reproduces the
    series of its old hand-rolled loop bit for bit."""

    @pytest.mark.parametrize("experiment", sorted(PINNED_TINY))
    def test_serial_uncached_run_matches_pinned(self, experiment):
        with execution(jobs=1, cache=None):
            result = EXTENSION_EXPERIMENTS[experiment](TINY)
        assert result.series == PINNED_TINY[experiment]
        assert list(result.series) == list(PINNED_TINY[experiment])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("experiment", sorted(EXTENSION_CELLS))
    def test_cold_then_warm_cache_matches_pinned(self, experiment, jobs, tmp_path):
        cells = EXTENSION_CELLS[experiment](TINY)
        with execution(jobs=jobs, cache=ResultCache(tmp_path)):
            cold = EXTENSION_EXPERIMENTS[experiment](TINY)
            cold_stats = last_stats()
            warm = EXTENSION_EXPERIMENTS[experiment](TINY)
            warm_stats = last_stats()
        assert cold.series == warm.series == PINNED_TINY[experiment]
        assert cold_stats.cells_run == cold_stats.cells_total == len(cells)
        assert warm_stats.cells_run == 0
        assert warm_stats.cache_hits == len(cells)

    @pytest.mark.parametrize("experiment", sorted(PINNED_SMALL))
    def test_parallel_run_matches_pinned_at_small_scale(self, experiment):
        with execution(jobs=2, cache=None):
            result = EXTENSION_EXPERIMENTS[experiment](SMALL)
        assert result.series == PINNED_SMALL[experiment]
