"""Extension experiments: future-work studies as first-class artifacts.

Beyond the paper's own tables and figures, the repository reproduces the
studies its Section 6 proposes (and two from its related work).  Each
function here returns a :class:`~repro.experiments.figures.FigureResult`
so the CLI can print and export them exactly like the paper figures:

    python -m repro ext-shared-locks --csv results/
    python -m repro ext-occ --scale full

Every cell runs through the sweep executor (jobs, cache, budgets,
manifests), which hands back each cell's
:class:`~repro.metrics.summary.RunStats`; ``OCC`` and ``<policy>x<n>``
cell labels select the OCC and multiprocessor engines
(``parallel.CELL_ENGINES``).

These experiments carry the data; their claims are checked on the same
executor series by :func:`repro.experiments.validation.validate_extensions`
(``repro validate``).
"""

from __future__ import annotations

from typing import Callable

from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE, ExperimentScale
from repro.experiments.figures import FigureResult, Series, SweepSpec, metric_series
from repro.experiments.parallel import SweepCell, cells_for_sweep, execute_cells
from repro.experiments.runner import point_results, sweep
from repro.metrics.summary import summarize


#: ext-shared-locks: the read fraction, in percent, at 8 tr/s.  A
#: 100-item database: at the base 30 items virtually every pair collides
#: on some write regardless of the read mix, which hides the sharing
#: effect this extension studies.
SHARED_LOCKS_SWEEP = SweepSpec(
    key="ext-shared-locks",
    base=MAIN_MEMORY_BASE.replace(arrival_rate=8.0, db_size=100),
    axis=(0.0, 25.0, 50.0, 75.0, 90.0),
    vary=lambda config, percent: config.replace(read_fraction=percent / 100),
)


def ext_shared_locks(scale: ExperimentScale) -> FigureResult:
    """Restarts per transaction vs read fraction (shared-lock extension)."""
    spec = SHARED_LOCKS_SWEEP
    swept = sweep(spec.configs(scale), spec.seeds(scale), spec.policies)
    series = metric_series(swept, "restarts_per_transaction")
    return FigureResult(
        figure_id="ext-shared-locks",
        title="Shared locks: restarts per transaction vs read fraction "
        "(8 tr/s, DB 100)",
        x_label="Read fraction (%)",
        y_label="Restarts per transaction",
        series=series,
        paper_expectation=(
            "Paper future work #1. Read sharing thins conflicts: restarts "
            "fall with the read fraction; CCA stays at or below EDF-HP."
        ),
    )


def multiprocessor_cells(scale: ExperimentScale) -> list[SweepCell]:
    """ext-multiprocessor's cells: ``EDF-HPx<n>``/``CCAx<n>`` at x=n CPUs."""
    cells = []
    for n in (1, 2, 4):
        config = scale.scale_config(
            MAIN_MEMORY_BASE.replace(arrival_rate=8.0 * n, db_size=1000)
        )
        seeds = scale.seeds_for(config)[:5]
        cells += cells_for_sweep({float(n): config}, seeds, (f"EDF-HPx{n}", f"CCAx{n}"))
    return cells


def ext_multiprocessor(scale: ExperimentScale) -> FigureResult:
    """Miss percent vs CPU count at 8 tr/s per CPU (CCA-MP vs EDF-HP-MP)."""
    cells = multiprocessor_cells(scale)
    series: dict[str, Series] = {}
    for (x, label), runs in point_results(cells, execute_cells(cells)).items():
        name = label.rsplit("x", 1)[0] + "-MP"  # "CCAx2" -> "CCA-MP"
        series.setdefault(name, []).append((x, summarize(runs).miss_percent.mean))
    return FigureResult(
        figure_id="ext-multiprocessor",
        title="Multiprocessor scaling: miss percent at 8 tr/s per CPU "
        "(DB 1000)",
        x_label="CPUs",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "Paper future work: EDF-HP 'looks almost impossible to get "
            "better performance on multiprocessors'; CCA-MP's compatible "
            "co-scheduling avoids the wide-machine thrash."
        ),
    )


def occ_cells(scale: ExperimentScale) -> list[SweepCell]:
    """ext-occ's cells: EDF-HP, CCA and OCC (over EDF-HP) at 9 tr/s,
    under soft (x=0) and firm (x=1) deadlines."""
    base = scale.scale_config(MAIN_MEMORY_BASE.replace(arrival_rate=9.0))
    configs = {0.0: base, 1.0: base.replace(firm_deadlines=True)}
    return cells_for_sweep(configs, scale.seeds_for(base), ("EDF-HP", "CCA", "OCC"))


def ext_occ(scale: ExperimentScale) -> FigureResult:
    """Failure rate of EDF-HP / CCA / OCC under soft and firm deadlines."""
    cells = occ_cells(scale)
    series: dict[str, Series] = {}
    for (x, name), runs in point_results(cells, execute_cells(cells)).items():
        failure = sum(r.miss_or_drop_percent for r in runs) / len(runs)
        series.setdefault(name, []).append((x, failure))
    return FigureResult(
        figure_id="ext-occ",
        title="OCC vs locking: failure percent, soft (x=0) vs firm (x=1) "
        "deadlines (9 tr/s)",
        x_label="Deadline semantics (0=soft, 1=firm)",
        y_label="Miss-or-drop percent",
        series=series,
        paper_expectation=(
            "Related work re-test: the 1991 claim was 'OCC wins only for "
            "firm deadlines'; against an eager-wound locking baseline the "
            "two schemes track within a couple of points under both "
            "semantics, and CCA beats both."
        ),
    )


#: ext-bursty: Poisson (x=0) vs 3x bursts (x=1) at the same 7 tr/s mean.
BURSTY_SWEEP = SweepSpec(
    key="ext-bursty",
    base=MAIN_MEMORY_BASE.replace(arrival_rate=7.0),
    axis=(0.0, 1.0),
    vary=lambda config, bursty: (
        config.replace(arrival_model="bursty", burst_factor=3.0) if bursty else config
    ),
)


def ext_bursty(scale: ExperimentScale) -> FigureResult:
    """Miss percent under Poisson vs bursty arrivals at the same mean rate."""
    spec = BURSTY_SWEEP
    swept = sweep(spec.configs(scale), spec.seeds(scale), spec.policies)
    series = metric_series(swept, "miss_percent")
    return FigureResult(
        figure_id="ext-bursty",
        title="Bursty arrivals: miss percent, Poisson (x=0) vs 3x bursts "
        "(x=1), 7 tr/s mean",
        x_label="Arrival model (0=Poisson, 1=bursty)",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "Load transients stress both schedulers; CCA keeps an edge "
            "through the bursts (its continuous evaluation is the paper's "
            "fourth claimed property)."
        ),
    )


#: ext-disk-sched: FCFS (x=0) vs priority (x=1) disk queues, 5 tr/s
#: with 30 % IO, a congested disk.
DISK_SCHED_SWEEP = SweepSpec(
    key="ext-disk-sched",
    base=DISK_BASE.replace(arrival_rate=5.0, disk_access_prob=0.3),
    axis=(0.0, 1.0),
    vary=lambda config, priority: (
        config.replace(disk_scheduling="priority") if priority else config
    ),
)


def ext_disk_scheduling(scale: ExperimentScale) -> FigureResult:
    """Mean lateness under FCFS vs priority disk queues (congested disk)."""
    spec = DISK_SCHED_SWEEP
    swept = sweep(spec.configs(scale), spec.seeds(scale), spec.policies)
    series = metric_series(swept, "mean_lateness")
    return FigureResult(
        figure_id="ext-disk-sched",
        title="Disk queue discipline: mean lateness, FCFS (x=0) vs "
        "priority (x=1), 5 tr/s with 30% IO",
        x_label="Disk discipline (0=FCFS, 1=priority)",
        y_label="Mean lateness (ms)",
        series=series,
        paper_expectation=(
            "Real-time IO scheduling (cited in §3.3.2) complements CPU "
            "scheduling; urgency-ordered IO should not hurt either policy."
        ),
    )


#: ext-slack: the paper's U[20 %, 800 %] slack window scaled by x, at
#: 8 tr/s.
SLACK_SWEEP = SweepSpec(
    key="ext-slack",
    base=MAIN_MEMORY_BASE.replace(arrival_rate=8.0),
    axis=(0.25, 0.5, 1.0, 1.5, 2.0),
    vary=lambda config, factor: config.replace(
        min_slack=config.min_slack * factor, max_slack=config.max_slack * factor
    ),
)


def ext_slack(scale: ExperimentScale) -> FigureResult:
    """Sensitivity to deadline tightness (the Min/Max-slack parameters).

    The paper fixes slack at U[20 %, 800 %]; this sweep scales that
    window down to a quarter (much tighter deadlines) and up to double,
    at fixed load.  Tight deadlines leave EDF-HP no room to recover from
    a wasted wound, which is where cost-consciousness pays most.
    """
    spec = SLACK_SWEEP
    swept = sweep(spec.configs(scale), spec.seeds(scale), spec.policies)
    series = metric_series(swept, "miss_percent")
    return FigureResult(
        figure_id="ext-slack",
        title="Deadline tightness: miss percent vs slack-window scale "
        "(8 tr/s; 1.0 = the paper's U[20%, 800%])",
        x_label="Slack window scale",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "Misses fall as deadlines loosen; CCA's edge is largest when "
            "deadlines are tight and a wasted wound cannot be absorbed."
        ),
    )


#: ext-wp: the four protocols across the loaded half of the rate axis.
WP_SWEEP = SweepSpec(
    key="ext-wp",
    base=MAIN_MEMORY_BASE,
    axis=(6.0, 8.0, 10.0),
    vary=lambda config, rate: config.replace(arrival_rate=rate),
    policies=("EDF-HP", "EDF-WP", "EDF-Wait", "CCA"),
)


def ext_abort_wait_spectrum(scale: ExperimentScale) -> FigureResult:
    """Miss percent across the abort/wait spectrum vs arrival rate.

    The paper frames EDF-HP and the wait-based protocols as the two
    extremes CCA interpolates between (Sections 3.2, 6).  This sweep
    runs all four — EDF-HP (abort), EDF-WP (wait + priority
    inheritance), EDF-Wait (CCA's w→∞ limit) and CCA — over the loaded
    half of the arrival-rate axis.
    """
    swept = sweep(WP_SWEEP.configs(scale), WP_SWEEP.seeds(scale), WP_SWEEP.policies)
    series = metric_series(swept, "miss_percent")
    return FigureResult(
        figure_id="ext-wp",
        title="The abort/wait spectrum: miss percent vs arrival rate",
        x_label="Arrival Rate (trs/sec)",
        y_label="Miss percent",
        series=series,
        paper_expectation=(
            "EDF-HP aborts the most; EDF-WP waits instead and suffers "
            "broken deadlocks; CCA interpolates and wins on misses under "
            "load."
        ),
    )


#: Registry merged into the CLI next to the paper figures.
EXTENSION_EXPERIMENTS: dict[
    str, Callable[[ExperimentScale], FigureResult]
] = {
    "ext-shared-locks": ext_shared_locks,
    "ext-multiprocessor": ext_multiprocessor,
    "ext-occ": ext_occ,
    "ext-bursty": ext_bursty,
    "ext-disk-sched": ext_disk_scheduling,
    "ext-slack": ext_slack,
    "ext-wp": ext_abort_wait_spectrum,
}

#: Every cell of the extensions that run through the sweep executor as
#: a single batch — what run manifests fingerprint.
EXTENSION_CELLS: dict[str, Callable[[ExperimentScale], list[SweepCell]]] = {
    "ext-shared-locks": SHARED_LOCKS_SWEEP.cells,
    "ext-multiprocessor": multiprocessor_cells,
    "ext-occ": occ_cells,
    "ext-bursty": BURSTY_SWEEP.cells,
    "ext-disk-sched": DISK_SCHED_SWEEP.cells,
    "ext-slack": SLACK_SWEEP.cells,
    "ext-wp": WP_SWEEP.cells,
}
