"""Experiment harness: one entry per paper table/figure.

* :mod:`repro.experiments.config` — the Table 1 / Table 2 base parameter
  sets, the seed lists, and run-scale selection (quick / default / full);
* :mod:`repro.experiments.runner` — multi-seed paired runs and sweeps;
* :mod:`repro.experiments.parallel` — the sweep-cell executor: process
  fan-out (``jobs``), deterministic merge, execution defaults;
* :mod:`repro.experiments.cache` — content-addressed on-disk cache of
  per-cell simulation results;
* :mod:`repro.experiments.figures` — ``fig4a`` .. ``fig5f`` plus the two
  parameter tables, each returning a :class:`FigureResult`;
* :mod:`repro.experiments.report` — ASCII rendering and CSV export.

Regenerate any figure from the command line::

    python -m repro fig4a            # default scale
    REPRO_SCALE=full python -m repro fig4c
    python -m repro all --csv out/
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.cache import ResultCache, cache_key
    from repro.experiments.config import (
        DISK_BASE,
        DISK_SEEDS,
        MAIN_MEMORY_BASE,
        MAIN_MEMORY_SEEDS,
        ExperimentScale,
    )
    from repro.experiments.parallel import (
        CellFailure,
        RetryPolicy,
        SweepCell,
        SweepError,
        SweepStats,
        execute_cells,
        simulate_cell,
    )
    from repro.experiments.figures import (
        ALL_EXPERIMENTS,
        FigureResult,
        run_experiment,
    )
    from repro.experiments.runner import compare_policies, sweep
    from repro.experiments.report import render_figure, write_csv

__all__ = [
    "ALL_EXPERIMENTS",
    "CellFailure",
    "DISK_BASE",
    "DISK_SEEDS",
    "ExperimentScale",
    "FigureResult",
    "MAIN_MEMORY_BASE",
    "MAIN_MEMORY_SEEDS",
    "ResultCache",
    "RetryPolicy",
    "SweepCell",
    "SweepError",
    "SweepStats",
    "cache_key",
    "compare_policies",
    "execute_cells",
    "render_figure",
    "run_experiment",
    "simulate_cell",
    "sweep",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.cache": ("ResultCache", "cache_key"),
    "repro.experiments.config": (
        "DISK_BASE", "DISK_SEEDS", "MAIN_MEMORY_BASE", "MAIN_MEMORY_SEEDS", "ExperimentScale",
    ),
    "repro.experiments.parallel": (
        "CellFailure", "RetryPolicy", "SweepCell", "SweepError", "SweepStats", "execute_cells",
        "simulate_cell",
    ),
    "repro.experiments.figures": ("ALL_EXPERIMENTS", "FigureResult", "run_experiment"),
    "repro.experiments.runner": ("compare_policies", "sweep"),
    "repro.experiments.report": ("render_figure", "write_csv"),
})
