"""Summary statistics over multiple simulation runs (seeds)."""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

from repro.core.simulator import SimulationResult


@dataclasses.dataclass(frozen=True)
class RunStats:
    """One run's run-level numbers, without its per-transaction records.

    What the sweep executor keeps per cell: every number
    :func:`summarize` and the figures read, taken through the
    :class:`SimulationResult`'s own fields and properties by :meth:`of`,
    so each value is bit-identical to the full result's.  A sweep's
    memory then grows with its cell count, not with the transactions
    its cells commit.
    """

    policy_name: str
    n_committed: int
    n_missed: int
    total_restarts: int
    makespan: float
    cpu_utilization: float
    disk_utilization: float
    mean_plist_size: float
    n_dropped: int
    miss_percent: float
    miss_or_drop_percent: float
    mean_lateness: float
    restarts_per_transaction: float

    @classmethod
    def of(cls, result: SimulationResult) -> "RunStats":
        return cls(*(getattr(result, name) for name in _RUN_STATS_FIELDS))


_RUN_STATS_FIELDS = tuple(field.name for field in dataclasses.fields(RunStats))


@dataclasses.dataclass(frozen=True)
class Statistic:
    """Mean / spread of one metric across seeds."""

    mean: float
    std: float
    minimum: float
    maximum: float
    n: int

    @classmethod
    def of(cls, values: Sequence[float]) -> "Statistic":
        if not values:
            raise ValueError("cannot summarize zero values")
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        else:
            variance = 0.0
        return cls(
            mean=mean,
            std=math.sqrt(variance),
            minimum=min(values),
            maximum=max(values),
            n=n,
        )

    def __format__(self, spec: str) -> str:
        return f"{self.mean:{spec or '.3g'}}"


@dataclasses.dataclass(frozen=True)
class RunSummary:
    """Seed-averaged metrics for one (policy, configuration) pair.

    Fields mirror the paper's reported metrics: miss percent, mean
    lateness (tardiness), restarts per transaction, plus the diagnostics
    the paper quotes in the text (mean P-list size, CPU and disk
    utilization).
    """

    policy_name: str
    n_runs: int
    miss_percent: Statistic
    mean_lateness: Statistic
    restarts_per_transaction: Statistic
    mean_plist_size: Statistic
    cpu_utilization: Statistic
    disk_utilization: Statistic
    makespan: Statistic


def summarize(results: Iterable[SimulationResult | RunStats]) -> RunSummary:
    """Aggregate per-seed results for one policy into a summary.

    Each run is a :class:`SimulationResult` or its :class:`RunStats`;
    only attributes both carry are read, so the two give equal
    summaries.  All results must come from the same policy (mixing
    policies across seeds would silently average incomparable numbers).
    """
    runs = list(results)
    if not runs:
        raise ValueError("cannot summarize zero runs")
    names = {run.policy_name for run in runs}
    if len(names) != 1:
        raise ValueError(f"runs mix policies: {sorted(names)}")
    return RunSummary(
        policy_name=runs[0].policy_name,
        n_runs=len(runs),
        miss_percent=Statistic.of([run.miss_percent for run in runs]),
        mean_lateness=Statistic.of([run.mean_lateness for run in runs]),
        restarts_per_transaction=Statistic.of(
            [run.restarts_per_transaction for run in runs]
        ),
        mean_plist_size=Statistic.of([run.mean_plist_size for run in runs]),
        cpu_utilization=Statistic.of([run.cpu_utilization for run in runs]),
        disk_utilization=Statistic.of([run.disk_utilization for run in runs]),
        makespan=Statistic.of([run.makespan for run in runs]),
    )
