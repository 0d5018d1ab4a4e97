"""Metrics: per-run statistics aggregation and policy comparison.

The paper's methodology: run each configuration under each algorithm for
10 (main memory) or 30 (disk) random seeds, average the per-run metrics,
and report CCA's improvement over EDF-HP as::

    improvement = (EDF - CCA) / EDF * 100

Modules:

* :mod:`repro.metrics.summary` — summary statistics over a set of runs,
  and :class:`RunStats`, the per-run numbers the sweep executor keeps;
* :mod:`repro.metrics.comparison` — paired policy comparisons and the
  improvement percentage.
"""

from repro.metrics.comparison import PolicyComparison, improvement_percent
from repro.metrics.summary import RunStats, RunSummary, Statistic, summarize

__all__ = [
    "PolicyComparison",
    "RunStats",
    "RunSummary",
    "Statistic",
    "improvement_percent",
    "summarize",
]
