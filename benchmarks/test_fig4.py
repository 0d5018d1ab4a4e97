"""Regenerate Figure 4 (main-memory database), one benchmark per panel.

Each benchmark times and prints the same series the paper plots; the
headline shapes are ``repro validate``'s claims.  Panels 4a/4b/4c share
the arrival-rate sweep through the figure cache, so only the first pays
for it.
"""

from repro.experiments import figures

from benchmarks.conftest import run_once


def test_fig4a_miss_percent(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4a, scale)
    show(result)


def test_fig4b_improvement(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4b, scale)
    show(result)


def test_fig4c_restarts(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4c, scale)
    show(result)


def test_fig4d_high_variance_miss_percent(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4d, scale)
    show(result)


def test_fig4e_high_variance_improvement(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4e, scale)
    show(result)


def test_fig4f_db_size(benchmark, scale, show):
    result = run_once(benchmark, figures.fig4f, scale)
    show(result)
