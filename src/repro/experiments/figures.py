"""One experiment per paper table/figure.

Every function takes an :class:`~repro.experiments.config.ExperimentScale`
and returns a :class:`FigureResult` whose series carry the same x/y data
the paper plots.  Figures that share a sweep (4a/4b/4c share the
main-memory arrival-rate sweep; 5b/5c/5d the disk one) reuse a per-scale
cache so ``python -m repro all`` does each sweep once.

The expected *shapes* (not absolute values — our substrate is a re-built
simulator, not the authors' SIMPACK binary) are recorded in each result's
``paper_expectation`` and checked by ``tests/experiments/``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, Optional

from repro.config import SimulationConfig
from repro.core.policy import make_policy
from repro.experiments import parallel
from repro.experiments.cache import ResultCache
from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE, ExperimentScale
from repro.experiments.parallel import SweepCell, cells_for_sweep
from repro.experiments.runner import sweep
from repro.metrics.comparison import improvement_percent
from repro.metrics.summary import RunSummary
from repro.obs.registry import MetricsRegistry

Series = list[tuple[float, float]]


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """The data behind one reproduced table or figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: dict[str, Series]
    paper_expectation: str = ""
    notes: str = ""


# ---------------------------------------------------------------------------
# Shared sweeps, cached per scale
# ---------------------------------------------------------------------------

_SWEEP_CACHE: dict[tuple[str, str], dict[float, dict[str, RunSummary]]] = {}

MM_ARRIVAL_RATES = tuple(float(rate) for rate in range(1, 11))
DISK_ARRIVAL_RATES = tuple(float(rate) for rate in range(1, 8))
HIGH_VARIANCE_RATES = tuple(round(0.2 * step, 1) for step in range(1, 10))
PENALTY_WEIGHTS = (0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
MM_DB_SIZES = tuple(range(100, 1001, 100))
DISK_DB_SIZES = tuple(range(100, 601, 100))


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative description of one paper sweep.

    Everything an experiment needs — and everything the observability
    layer needs to *enumerate* the experiment without running it:
    :meth:`cells` yields the exact :class:`SweepCell` cross product the
    executor will run, which is what ``repro trace`` uses to pick a cell
    and what run manifests hash to fingerprint a figure.
    """

    key: str
    """Memo-cache key; unique per distinct (base, axis, vary) triple."""
    base: SimulationConfig
    axis: tuple[float, ...]
    vary: Callable[[SimulationConfig, float], SimulationConfig]
    policies: tuple[str, ...] = ("EDF-HP", "CCA")

    def configs(self, scale: ExperimentScale) -> dict[float, SimulationConfig]:
        """x-axis value -> scaled config, in axis order."""
        scaled = scale.scale_config(self.base)
        return {x: self.vary(scaled, x) for x in self.axis}

    def seeds(self, scale: ExperimentScale) -> tuple[int, ...]:
        return tuple(scale.seeds_for(self.base))

    def canonical_policies(self) -> tuple[str, ...]:
        """Policy names in their canonical spelling (cache addressing)."""
        return tuple(
            make_policy(name, penalty_weight=1.0).name for name in self.policies
        )

    def cells(self, scale: ExperimentScale) -> list[SweepCell]:
        """Every (x, policy, seed) cell this sweep will execute."""
        return cells_for_sweep(
            self.configs(scale), self.seeds(scale), self.canonical_policies()
        )

    def run(self, scale: ExperimentScale) -> dict[float, dict[str, RunSummary]]:
        """Execute (or recall from the in-process memo) this sweep."""
        cache_key = (self.key, scale.name)
        if cache_key not in _SWEEP_CACHE:
            _SWEEP_CACHE[cache_key] = sweep(
                self.configs(scale), self.seeds(scale), self.policies
            )
        return _SWEEP_CACHE[cache_key]


def clear_cache() -> None:
    """Forget cached sweeps (used by tests)."""
    _SWEEP_CACHE.clear()


MM_RATE_SWEEP = SweepSpec(
    key="mm-rate",
    base=MAIN_MEMORY_BASE,
    axis=MM_ARRIVAL_RATES,
    vary=lambda cfg, rate: cfg.replace(arrival_rate=rate),
)

DISK_RATE_SWEEP = SweepSpec(
    key="disk-rate",
    base=DISK_BASE,
    axis=DISK_ARRIVAL_RATES,
    vary=lambda cfg, rate: cfg.replace(arrival_rate=rate),
)

HIGH_VARIANCE_SWEEP = SweepSpec(
    key="mm-high-variance",
    base=MAIN_MEMORY_BASE.replace(update_time_classes=(0.4, 4.0, 40.0)),
    axis=HIGH_VARIANCE_RATES,
    vary=lambda cfg, rate: cfg.replace(arrival_rate=rate),
)

MM_DBSIZE_SWEEP = SweepSpec(
    key="mm-dbsize",
    base=MAIN_MEMORY_BASE.replace(arrival_rate=10.0),
    axis=tuple(float(size) for size in MM_DB_SIZES),
    vary=lambda cfg, size: cfg.replace(db_size=int(size)),
)

DISK_DBSIZE_SWEEP = SweepSpec(
    key="disk-dbsize",
    base=DISK_BASE.replace(arrival_rate=4.0),
    axis=tuple(float(size) for size in DISK_DB_SIZES),
    vary=lambda cfg, size: cfg.replace(db_size=int(size)),
)

MM_WEIGHT_SWEEPS: dict[float, SweepSpec] = {
    rate: SweepSpec(
        key=f"mm-weight-{rate:g}",
        base=MAIN_MEMORY_BASE.replace(arrival_rate=rate),
        axis=PENALTY_WEIGHTS,
        vary=lambda cfg, weight: cfg.replace(penalty_weight=weight),
        policies=("CCA",),
    )
    for rate in (5.0, 8.0)
}

DISK_WEIGHT_SWEEP = SweepSpec(
    key="disk-weight",
    base=DISK_BASE.replace(arrival_rate=4.0),
    axis=PENALTY_WEIGHTS,
    vary=lambda cfg, weight: cfg.replace(penalty_weight=weight),
    policies=("CCA",),
)


def _improvement_series(
    swept: Mapping[float, Mapping[str, RunSummary]],
) -> dict[str, Series]:
    miss: Series = []
    lateness: Series = []
    for x in sorted(swept):
        edf = swept[x]["EDF-HP"]
        cca = swept[x]["CCA"]
        miss.append(
            (x, improvement_percent(edf.miss_percent.mean, cca.miss_percent.mean))
        )
        lateness.append(
            (x, improvement_percent(edf.mean_lateness.mean, cca.mean_lateness.mean))
        )
    return {"Miss Percent": miss, "Mean Lateness": lateness}


def metric_series(
    swept: Mapping[float, Mapping[str, RunSummary]],
    metric: str,
) -> dict[str, Series]:
    """Each policy's seed-mean ``metric`` against x, in x order."""
    out: dict[str, Series] = {}
    for x in sorted(swept):
        for policy, summary in swept[x].items():
            value = getattr(summary, metric).mean
            out.setdefault(policy, []).append((x, value))
    return out


# ---------------------------------------------------------------------------
# Tables 1 and 2
# ---------------------------------------------------------------------------

def table1(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Table 1: base parameters, main memory resident database."""
    cfg = MAIN_MEMORY_BASE
    notes = (
        f"Transaction types: {cfg.n_transaction_types}; "
        f"updates/transaction ~ N({cfg.updates_mean:g}, {cfg.updates_std:g}); "
        f"computation/update: {cfg.compute_per_update:g} ms; "
        f"database size: {cfg.db_size} (the table's literal value — a "
        f"deliberately extreme-contention hot set; see DESIGN.md §6); "
        f"slack: {cfg.min_slack*100:g}%..{cfg.max_slack*100:g}%; "
        f"abort cost: {cfg.abort_cost:g} ms; "
        f"penalty weight: {cfg.penalty_weight:g}. "
        f"Capacity (no aborts): 1000 / ({cfg.updates_mean:g} x "
        f"{cfg.compute_per_update:g}) = 12.5 tr/s."
    )
    return FigureResult(
        figure_id="table1",
        title="Table 1: base parameters (main memory)",
        x_label="",
        y_label="",
        series={},
        notes=notes,
    )


def table2(scale: Optional[ExperimentScale] = None) -> FigureResult:
    """Table 2: base parameters, disk resident database."""
    cfg = DISK_BASE
    notes = (
        f"As Table 1, plus: abort cost {cfg.abort_cost:g} ms; "
        f"disk access time {cfg.disk_access_time:g} ms; "
        f"disk access probability {cfg.disk_access_prob:g}. "
        f"Disk utilization at capacity: 12.5 x 2 x 25 / 1000 = 62.5%."
    )
    return FigureResult(
        figure_id="table2",
        title="Table 2: base parameters (disk resident)",
        x_label="",
        y_label="",
        series={},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Figure 4 — main memory database
# ---------------------------------------------------------------------------

def fig4a(scale: ExperimentScale) -> FigureResult:
    """Figure 4a: miss percent of EDF-HP and CCA vs arrival rate."""
    swept = MM_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4a",
        title="Miss percent of EDF, CCA (base parameters)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Miss percent",
        series=metric_series(swept, "miss_percent"),
        paper_expectation=(
            "Both curves rise with load; CCA at or below EDF-HP throughout, "
            "with the gap widening as the restart rate grows."
        ),
    )


def fig4b(scale: ExperimentScale) -> FigureResult:
    """Figure 4b: improvement of CCA over EDF-HP (base parameters)."""
    swept = MM_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4b",
        title="Improvement of CCA over EDF-HP (base parameters)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Improvement (%)",
        series=_improvement_series(swept),
        paper_expectation=(
            "Up to ~30% mean-lateness and ~20% miss-percent improvement, "
            "tracking the shape of the restart curve (fig4c)."
        ),
    )


def fig4c(scale: ExperimentScale) -> FigureResult:
    """Figure 4c: restarts per transaction vs arrival rate."""
    swept = MM_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4c",
        title="Restarts per transaction (base parameters)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Restarts per transaction",
        series=metric_series(swept, "restarts_per_transaction"),
        paper_expectation=(
            "Restarts climb steeply to a peak (paper: around 8 tr/s), then "
            "decline sharply; CCA stays below EDF-HP before the peak."
        ),
    )


def fig4d(scale: ExperimentScale) -> FigureResult:
    """Figure 4d: miss percent with high-variance update times."""
    swept = HIGH_VARIANCE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4d",
        title="Miss percent, high variance (update time classes 0.4/4/40 ms)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Miss percent",
        series=metric_series(swept, "miss_percent"),
        paper_expectation=(
            "With execution times spanning 4..1200 ms (capacity ~3.37 tr/s), "
            "preemption chances grow; CCA still at or below EDF-HP."
        ),
    )


def fig4e(scale: ExperimentScale) -> FigureResult:
    """Figure 4e: improvement of CCA, high-variance update times."""
    swept = HIGH_VARIANCE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4e",
        title="Improvement of CCA over EDF-HP (high variance)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Improvement (%)",
        series=_improvement_series(swept),
        paper_expectation=(
            "Slightly larger improvements than the base-parameter case "
            "(more preemption opportunities)."
        ),
    )


def fig4f(scale: ExperimentScale) -> FigureResult:
    """Figure 4f: effect of database size at arrival rate 10."""
    swept = MM_DBSIZE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig4f",
        title="Miss percent vs DB size (base parameters, arrival rate 10)",
        x_label="DB size",
        y_label="Miss percent",
        series=metric_series(swept, "miss_percent"),
        paper_expectation=(
            "Smaller databases mean heavier data contention; CCA's advantage "
            "is largest at small DB sizes and both curves flatten as "
            "contention vanishes."
        ),
    )


# ---------------------------------------------------------------------------
# Figure 5 — penalty weight (main memory) and disk resident database
# ---------------------------------------------------------------------------

def fig5a(scale: ExperimentScale) -> FigureResult:
    """Figure 5a: effect of penalty weight (main memory, 5 and 8 TPS)."""
    series: dict[str, Series] = {}
    for rate, spec in sorted(MM_WEIGHT_SWEEPS.items()):
        swept = spec.run(scale)
        series[f"{rate:g} TPS"] = [
            (w, swept[w]["CCA"].miss_percent.mean) for w in sorted(swept)
        ]
    return FigureResult(
        figure_id="fig5a",
        title="Effect of penalty-weight (main memory, base parameters)",
        x_label="Penalty-weight",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "Miss percent is insensitive to the penalty weight over a wide "
            "range (w >= 1); w = 0 (EDF-HP behaviour) is the worst point "
            "under load."
        ),
    )


def fig5b(scale: ExperimentScale) -> FigureResult:
    """Figure 5b: miss percent of EDF-HP and CCA (disk resident)."""
    swept = DISK_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig5b",
        title="Miss percent of EDF, CCA (disk resident, base parameters)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Miss percent",
        series=metric_series(swept, "miss_percent"),
        paper_expectation="CCA at or below EDF-HP across 1..7 tr/s.",
    )


def fig5c(scale: ExperimentScale) -> FigureResult:
    """Figure 5c: restarts per transaction (disk resident)."""
    swept = DISK_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig5c",
        title="Restarts per transaction (disk resident, base parameters)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Restarts per transaction",
        series=metric_series(swept, "restarts_per_transaction"),
        paper_expectation=(
            "EDF-HP restarts rise monotonically with arrival rate (wounded "
            "noncontributing executions during IO waits); CCA stays low and "
            "flat, as in the main-memory case."
        ),
    )


def fig5d(scale: ExperimentScale) -> FigureResult:
    """Figure 5d: improvement of CCA over EDF-HP (disk resident)."""
    swept = DISK_RATE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig5d",
        title="Improvement of CCA over EDF-HP (disk resident)",
        x_label="Arrival Rate (trs/sec)",
        y_label="Improvement (%)",
        series=_improvement_series(swept),
        paper_expectation=(
            "Up to ~95% mean-lateness and ~40% miss-percent improvement — "
            "larger than main memory because CCA also avoids "
            "noncontributing executions."
        ),
    )


def fig5e(scale: ExperimentScale) -> FigureResult:
    """Figure 5e: effect of database size (disk resident, rate 4)."""
    swept = DISK_DBSIZE_SWEEP.run(scale)
    return FigureResult(
        figure_id="fig5e",
        title="Miss percent vs DB size (disk resident, arrival rate 4)",
        x_label="DB size",
        y_label="Miss percent",
        series=metric_series(swept, "miss_percent"),
        paper_expectation=(
            "CCA's advantage grows as the database shrinks (heavier data "
            "contention), mirroring the main-memory result."
        ),
    )


def fig5f(scale: ExperimentScale) -> FigureResult:
    """Figure 5f: effect of penalty weight (disk resident, 4 TPS)."""
    swept = DISK_WEIGHT_SWEEP.run(scale)
    series = {
        "4 TPS": [(w, swept[w]["CCA"].miss_percent.mean) for w in sorted(swept)]
    }
    return FigureResult(
        figure_id="fig5f",
        title="Effect of penalty-weight (disk resident, base parameters)",
        x_label="Penalty-weight",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "Performance insensitive to the penalty weight over a wide range."
        ),
    )


#: Registry: experiment id -> callable(scale) -> FigureResult.
ALL_EXPERIMENTS: dict[str, Callable[[ExperimentScale], FigureResult]] = {
    "table1": table1,
    "table2": table2,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig4d": fig4d,
    "fig4e": fig4e,
    "fig4f": fig4f,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig5c": fig5c,
    "fig5d": fig5d,
    "fig5e": fig5e,
    "fig5f": fig5f,
}


#: Registry: experiment id -> the sweeps it runs, in execution order.
#: Tables carry no sweeps; fig5a runs one weight sweep per arrival rate.
#: This is what lets observability tooling enumerate an experiment's
#: cells (``repro trace``, run manifests) without executing it.
FIGURE_SWEEPS: dict[str, tuple[SweepSpec, ...]] = {
    "table1": (),
    "table2": (),
    "fig4a": (MM_RATE_SWEEP,),
    "fig4b": (MM_RATE_SWEEP,),
    "fig4c": (MM_RATE_SWEEP,),
    "fig4d": (HIGH_VARIANCE_SWEEP,),
    "fig4e": (HIGH_VARIANCE_SWEEP,),
    "fig4f": (MM_DBSIZE_SWEEP,),
    "fig5a": tuple(spec for _, spec in sorted(MM_WEIGHT_SWEEPS.items())),
    "fig5b": (DISK_RATE_SWEEP,),
    "fig5c": (DISK_RATE_SWEEP,),
    "fig5d": (DISK_RATE_SWEEP,),
    "fig5e": (DISK_DBSIZE_SWEEP,),
    "fig5f": (DISK_WEIGHT_SWEEP,),
}

assert set(FIGURE_SWEEPS) == set(ALL_EXPERIMENTS)


def experiment_cells(figure_id: str, scale: ExperimentScale) -> list[SweepCell]:
    """Every cell the experiment would execute, across all its sweeps."""
    try:
        specs = FIGURE_SWEEPS[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {figure_id!r}; known: {sorted(FIGURE_SWEEPS)}"
        ) from None
    return [cell for spec in specs for cell in spec.cells(scale)]


#: Base configuration behind each sweep-less experiment.
TABLE_BASES = {"table1": MAIN_MEMORY_BASE, "table2": DISK_BASE}


def _usage_error(message: str) -> ValueError:
    # The check-CLI core's error class, imported only when a command
    # line names something that does not exist, so the sweep path never
    # loads the checker packages.
    from repro.checks.cli_core import UsageError

    return UsageError(message)


def _known_cells(experiment: str, scale: ExperimentScale) -> list[SweepCell]:
    """:func:`experiment_cells`, or a UsageError naming the known ids."""
    if experiment not in FIGURE_SWEEPS:
        raise _usage_error(
            f"unknown experiment {experiment!r}; "
            f"known: {', '.join(sorted(FIGURE_SWEEPS))}"
        )
    return experiment_cells(experiment, scale)


def sample_cell(experiment: str, scale: ExperimentScale) -> SweepCell:
    """The experiment's deterministic sample cell: middle x, first seed.

    For a sweep that is its first cell at the middle x-value (first
    seed, first policy): a cell under moderate load, which is where
    schedules are interesting.  ``table1``/``table2`` have no sweep and
    synthesize the base-parameter cell (x is its arrival rate) under
    EDF-HP.
    """
    cells = _known_cells(experiment, scale)
    if not cells:
        base = TABLE_BASES[experiment]
        config = scale.scale_config(base)
        return SweepCell(
            x=config.arrival_rate,
            policy="EDF-HP",
            seed=scale.seeds_for(base)[0],
            config=config,
        )
    xs = sorted({cell.x for cell in cells})
    mid_x = xs[len(xs) // 2]
    return next(cell for cell in cells if cell.x == mid_x)


def _parse_cell_spec(spec: str) -> tuple[float, int, str]:
    """``"X,SEED,POLICY"`` -> (x, seed, canonical policy name)."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"--cell must be X,SEED,POLICY, got {spec!r}")
    try:
        x, seed = float(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"--cell X must be a number and SEED an integer, got {spec!r}"
        ) from None
    return x, seed, make_policy(parts[2], penalty_weight=1.0).name


def resolve_cell(experiment: str, scale: ExperimentScale, spec: str) -> SweepCell:
    """The cell a ``--cell X,SEED,POLICY`` spec names.

    The ``(x, seed)`` point must exist in the experiment's sweep, so
    the workload is one the experiment actually runs; the policy may be
    any name :func:`make_policy` accepts, not just the sweep's own.
    Anything else raises a UsageError that lists the sweep's axes.
    """
    cells = _known_cells(experiment, scale)
    try:
        x, seed, policy = _parse_cell_spec(spec)
    except ValueError as exc:
        problem = str(exc)
    else:
        for cell in cells:
            if cell.x == x and cell.seed == seed:
                return dataclasses.replace(cell, policy=policy)
        problem = (
            f"no cell at x={x:g} seed={seed} in {experiment} "
            f"at scale={scale.name}"
        )
    xs = sorted({cell.x for cell in cells})
    seeds = sorted({cell.seed for cell in cells})
    policies = sorted({cell.policy for cell in cells})
    raise _usage_error(
        f"{problem}\n"
        f"  x values: {', '.join(f'{value:g}' for value in xs)}\n"
        f"  seeds:    {', '.join(str(value) for value in seeds)}\n"
        f"  policies: {', '.join(policies)}  (any policy name is accepted)"
    )


def run_experiment(
    figure_id: str,
    scale: ExperimentScale,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace: Optional[parallel.TraceHook] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> FigureResult:
    """Run one experiment by its paper id (e.g. ``"fig4a"``).

    ``jobs``/``cache``/``trace``/``metrics`` (when given) override the
    execution defaults for the duration of this experiment, so its
    sweeps fan out over worker processes, reuse the on-disk result
    cache, and feed the metrics registry.  Note the in-process memo
    above still short-circuits repeated sweeps within a session;
    :func:`clear_cache` resets it.
    """
    try:
        experiment = ALL_EXPERIMENTS[figure_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {figure_id!r}; known: {sorted(ALL_EXPERIMENTS)}"
        ) from None
    with parallel.execution(
        jobs=jobs if jobs is not None else parallel.UNSET,
        cache=cache if cache is not None else parallel.UNSET,
        trace=trace if trace is not None else parallel.UNSET,
        metrics=metrics if metrics is not None else parallel.UNSET,
    ):
        return experiment(scale)
