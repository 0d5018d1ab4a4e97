"""Multi-seed paired runs and parameter sweeps.

The paper's methodology is *paired comparison*: for each seed, generate
one workload and replay it under every policy, then average each policy's
metrics across seeds.  :func:`compare_policies` does that for one
configuration; :func:`sweep` repeats it along a parameter axis (arrival
rate, database size, penalty weight, ...).

Both entry points route through
:mod:`repro.experiments.parallel`: every (x, policy, seed) cell is
served from / stored to an optional on-disk
:class:`~repro.experiments.cache.ResultCache` on its own, and the
uncached cells run one task per workload — each ``(config, seed)`` is
generated once and replayed under every pending policy, which is the
paired comparison itself — fanned out over ``jobs`` worker processes.
Results are merged in cell-key order, so parallel output is identical
to serial output for the same seeds (proven by
``tests/experiments/test_parallel.py``).

What a sweep averages is each cell's
:class:`~repro.metrics.summary.RunStats`, the run-level numbers the
executor keeps; per-transaction records stay in engine results and
cache entries.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.policy import make_policy
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    CellFailure,
    CellKey,
    SweepCell,
    SweepError,
    TraceHook,
    cells_for_sweep,
    execute_cells,
    simulate_cell,
)
from repro.obs.registry import MetricsRegistry
from repro.metrics.summary import RunStats, RunSummary, summarize


def compare_policies(
    config: SimulationConfig,
    seeds: Sequence[int],
    policies: Sequence[str] = ("EDF-HP", "CCA"),
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace: Optional[TraceHook] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict[str, RunSummary]:
    """Seed-averaged summaries for several policies on paired workloads.

    Each seed's workload is generated once and replayed under every
    policy, so the comparison isolates the scheduling decision.
    """
    swept = sweep(
        {0.0: config}, seeds, policies,
        jobs=jobs, cache=cache, trace=trace, metrics=metrics,
    )
    return swept[0.0]


def sweep(
    configs: Mapping[float, SimulationConfig],
    seeds: Sequence[int],
    policies: Sequence[str] = ("EDF-HP", "CCA"),
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace: Optional[TraceHook] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict[float, dict[str, RunSummary]]:
    """Paired comparison at each point of a parameter axis.

    ``configs`` maps x-axis value -> configuration; the result maps
    x -> policy name -> :class:`RunSummary`.  All cells of the whole
    sweep are executed in one batch (maximal parallelism).
    """
    # Canonicalize policy spellings ("cca" -> "CCA") so cells — and
    # therefore cache entries — are addressed consistently.
    canonical = {
        name: make_policy(name, penalty_weight=1.0).name for name in policies
    }
    cells = cells_for_sweep(configs, seeds, list(canonical.values()))
    points = point_results(
        cells,
        execute_cells(cells, jobs=jobs, cache=cache, trace=trace, metrics=metrics),
    )
    out: dict[float, dict[str, RunSummary]] = {}
    for x in configs:
        out[x] = {
            name: summarize(points[(x, canonical[name])]) for name in policies
        }
    return out


def point_results(
    cells: Sequence[SweepCell],
    results: Mapping[CellKey, RunStats],
) -> dict[tuple[float, str], list[RunStats]]:
    """Each (x, policy) point's :class:`RunStats` (what
    :func:`~repro.experiments.parallel.execute_cells` returns), in
    ``cells`` order.

    Cells dropped under ``on_error=skip`` are left out — identically at
    any jobs count, since the failure schedule is process-independent.
    A point with no cell left raises :class:`SweepError`: there is
    nothing to average.
    """
    points: dict[tuple[float, str], list[RunStats]] = {}
    for cell in cells:
        runs = points.setdefault((cell.x, cell.policy), [])
        if cell.key in results:
            runs.append(results[cell.key])
    emptied = [cell for cell in cells if not points[(cell.x, cell.policy)]]
    if emptied:
        raise SweepError(
            [
                CellFailure(
                    key=cell.key,
                    attempts=0,
                    exception="AllSeedsDropped",
                    message=(
                        f"every seed of x={cell.x:g} policy={cell.policy} "
                        f"failed or was skipped; nothing left to summarize"
                    ),
                )
                for cell in emptied
            ]
        )
    return points


__all__ = [
    "compare_policies",
    "point_results",
    "simulate_cell",
    "sweep",
]
