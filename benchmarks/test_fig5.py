"""Regenerate Figure 5 (penalty weight + disk-resident database).

Each benchmark times and prints the series the paper plots; the headline
shapes are ``repro validate``'s claims.
"""

from repro.experiments import figures

from benchmarks.conftest import run_once


def test_fig5a_penalty_weight_main_memory(benchmark, scale, show):
    result = run_once(benchmark, figures.fig5a, scale)
    show(result)


def test_fig5b_disk_miss_percent(benchmark, scale, show):
    result = run_once(benchmark, figures.fig5b, scale)
    show(result)


def test_fig5c_disk_restarts(benchmark, scale, show):
    """The paper's starkest panel: EDF-HP restarts grow monotonically on
    the disk-resident database while CCA stays flat."""
    result = run_once(benchmark, figures.fig5c, scale)
    show(result)


def test_fig5d_disk_improvement(benchmark, scale, show):
    result = run_once(benchmark, figures.fig5d, scale)
    show(result)


def test_fig5e_disk_db_size(benchmark, scale, show):
    result = run_once(benchmark, figures.fig5e, scale)
    show(result)


def test_fig5f_penalty_weight_disk(benchmark, scale, show):
    result = run_once(benchmark, figures.fig5f, scale)
    show(result)
