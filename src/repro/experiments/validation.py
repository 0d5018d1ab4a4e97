"""Reproduction self-check: verify every figure's paper shape.

``python -m repro validate`` runs all sweeps at the chosen scale and
checks, per figure, the qualitative claims the paper makes (who wins,
where the curve peaks, what stays flat).  The same predicates guard the
test suite; this module packages them as a user-facing report so a
fresh install can confirm the reproduction in one command.  The
extensions' future-work and related-work claims are checked the same
way, on what the sweep executor computed for ``repro ext-*``
(:func:`validate_extensions`).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Mapping, Sequence

from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import (
    EXTENSION_EXPERIMENTS,
    WP_SWEEP,
    multiprocessor_cells,
)
from repro.experiments.figures import (
    FigureResult,
    fig4a,
    fig4b,
    fig4c,
    fig4d,
    fig4e,
    fig4f,
    fig5a,
    fig5b,
    fig5c,
    fig5d,
    fig5e,
    fig5f,
)
from repro.experiments.parallel import execute_cells, execution, resolve_metrics
from repro.experiments.runner import point_results
from repro.metrics.summary import summarize
from repro.obs.registry import MetricsRegistry


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One verified (or refuted) paper claim."""

    figure_id: str
    claim: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        return f"[{mark}] {self.figure_id}: {self.claim}{suffix}"


def _series(result: FigureResult, name: str) -> dict[float, float]:
    return dict(result.series[name])


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _check(
    figure_id: str, claim: str, predicate: Callable[[], tuple[bool, str]]
) -> CheckResult:
    passed, detail = predicate()
    return CheckResult(figure_id=figure_id, claim=claim, passed=passed, detail=detail)


def _dominance(
    result: FigureResult,
    upper: str = "EDF-HP",
    lower: str = "CCA",
    from_x: float = -math.inf,
) -> tuple[bool, str]:
    upper_series = _series(result, upper)
    lower_series = _series(result, lower)
    xs = [x for x in upper_series if x >= from_x]
    upper_mean = _mean(upper_series[x] for x in xs)
    lower_mean = _mean(lower_series[x] for x in xs)
    return (
        lower_mean <= upper_mean,
        f"mean {lower}={lower_mean:.2f} vs {upper}={upper_mean:.2f}",
    )


def _positive_under_load(
    result: FigureResult, series_name: str, threshold: float
) -> tuple[bool, str]:
    points = _series(result, series_name)
    heavy = [x for x in points if x >= threshold]
    value = _mean(points[x] for x in heavy)
    return value > 0.0, f"mean improvement at load: {value:.1f}%"


def _plateau(points: Mapping[float, float], weights: Sequence[float]) -> tuple[bool, str]:
    values = [points[w] for w in weights]
    spread = max(values) - min(values)
    return spread <= 10.0, f"plateau spread {spread:.2f} points"


def validate_all(scale: ExperimentScale) -> list[CheckResult]:
    """Run every figure sweep and evaluate its paper claims."""
    checks: list[CheckResult] = []

    a = fig4a(scale)
    checks.append(_check("fig4a", "CCA at or below EDF-HP (miss %)",
                         lambda: _dominance(a)))
    checks.append(_check(
        "fig4a",
        "miss percent rises with load",
        lambda: (
            _mean(_series(a, "EDF-HP")[x] for x in (8.0, 9.0, 10.0))
            > _mean(_series(a, "EDF-HP")[x] for x in (1.0, 2.0, 3.0)),
            "",
        ),
    ))

    b = fig4b(scale)
    checks.append(_check("fig4b", "positive miss improvement under load",
                         lambda: _positive_under_load(b, "Miss Percent", 6.0)))
    checks.append(_check("fig4b", "positive lateness improvement under load",
                         lambda: _positive_under_load(b, "Mean Lateness", 6.0)))

    c = fig4c(scale)

    def restart_peak() -> tuple[bool, str]:
        edf = _series(c, "EDF-HP")
        peak = max(edf, key=edf.get)
        declines = edf[10.0] < edf[peak]
        return (
            5.0 <= peak <= 9.0 and declines,
            f"peak at {peak:g} tr/s, value {edf[peak]:.3f}",
        )

    checks.append(_check(
        "fig4c", "restarts peak near 8 tr/s then decline", restart_peak
    ))
    checks.append(_check("fig4c", "CCA restarts below EDF-HP",
                         lambda: _dominance(c)))

    d = fig4d(scale)
    checks.append(_check("fig4d", "CCA at or below EDF-HP (high variance)",
                         lambda: _dominance(d)))
    checks.append(_check("fig4d", "CCA at or below EDF-HP at variance >= 1.0",
                         lambda: _dominance(d, from_x=1.0)))

    e = fig4e(scale)
    checks.append(_check("fig4e", "positive improvement (high variance)",
                         lambda: _positive_under_load(e, "Mean Lateness", 1.0)))

    f = fig4f(scale)

    def contention_relief() -> tuple[bool, str]:
        edf = _series(f, "EDF-HP")
        cca = _series(f, "CCA")
        return (
            edf[100.0] > edf[1000.0] and cca[100.0] <= edf[100.0],
            f"EDF-HP {edf[100.0]:.1f}->{edf[1000.0]:.1f} over 100..1000",
        )

    checks.append(_check(
        "fig4f", "contention falls with DB size; CCA below EDF-HP",
        contention_relief,
    ))

    a5 = fig5a(scale)
    for name in a5.series:
        points = dict(a5.series[name])
        checks.append(_check(
            "fig5a",
            f"penalty-weight plateau at {name}",
            lambda points=points: _plateau(
                points, (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)
            ),
        ))

    b5 = fig5b(scale)
    checks.append(_check("fig5b", "CCA at or below EDF-HP (disk miss %)",
                         lambda: _dominance(b5)))
    checks.append(_check("fig5b", "CCA at or below EDF-HP at >= 4 tr/s",
                         lambda: _dominance(b5, from_x=4.0)))

    c5 = fig5c(scale)

    def monotone_disk_restarts() -> tuple[bool, str]:
        edf = _series(c5, "EDF-HP")
        cca = _series(c5, "CCA")
        light = _mean(edf[x] for x in (1.0, 2.0, 3.0))
        heavy = _mean(edf[x] for x in (5.0, 6.0, 7.0))
        cca_heavy = _mean(cca[x] for x in (5.0, 6.0, 7.0))
        return (
            heavy > 2.0 * light and cca_heavy < heavy,
            f"EDF-HP {light:.2f}->{heavy:.2f}, CCA stays {cca_heavy:.2f}",
        )

    checks.append(_check(
        "fig5c",
        "EDF-HP disk restarts grow monotonically; CCA stays flat",
        monotone_disk_restarts,
    ))

    d5 = fig5d(scale)
    checks.append(_check("fig5d", "positive disk improvement under load",
                         lambda: _positive_under_load(d5, "Mean Lateness", 4.0)))

    e5 = fig5e(scale)
    checks.append(_check("fig5e", "CCA at or below EDF-HP across DB sizes",
                         lambda: _dominance(e5)))

    def small_database() -> tuple[bool, str]:
        edf = _series(e5, "EDF-HP")[100.0]
        cca = _series(e5, "CCA")[100.0]
        return cca <= edf, f"CCA {cca:.2f} vs EDF-HP {edf:.2f}"

    checks.append(_check("fig5e", "CCA at or below EDF-HP at DB 100",
                         small_database))

    f5 = fig5f(scale)
    checks.append(_check(
        "fig5f",
        "penalty-weight plateau (disk)",
        lambda: _plateau(dict(f5.series["4 TPS"]), (1.0, 2.0, 5.0, 10.0, 15.0, 20.0)),
    ))

    return checks


def validate_extensions(scale: ExperimentScale) -> list[CheckResult]:
    """Run the ``ext-*`` experiments and evaluate their claims on the
    executor's series (``ext-slack`` plots a sensitivity, not a claim).

    ``ext-occ`` re-tests the related-work claim the paper repeats:
    "Optimistic concurrency control scheme, however, shows better
    performance only for firm real-time transactions" ([Har91, HSRT91]).
    Measured in this substrate, broadcast-commit OCC and EDF-HP stay
    within a few failure points of each other under *both* semantics:
    the literature's soft-deadline OCC penalty assumed a locking
    baseline that blocks instead of aborting, while EDF-HP resolves
    conflicts by eager High Priority wounds (the paper's own model),
    which wastes about as much work as OCC's validation-time restarts.
    What holds in every cell: CCA beats both.  Its "CCA at or below
    both" claim is also the firm-deadline check: the same 9 tr/s cells
    under soft and firm deadlines.
    """
    checks: list[CheckResult] = []

    locks = EXTENSION_EXPERIMENTS["ext-shared-locks"](scale)
    edf = _series(locks, "EDF-HP")
    cca = _series(locks, "CCA")
    checks.append(CheckResult(
        "ext-shared-locks",
        "EDF-HP restarts fall from 0% to 90% reads",
        edf[90.0] < edf[0.0],
        f"{edf[0.0]:.3f} -> {edf[90.0]:.3f} restarts/tr",
    ))
    gap = max(cca[x] - edf[x] for x in edf)
    checks.append(CheckResult(
        "ext-shared-locks",
        "CCA restarts at or below EDF-HP + 0.02 at every read fraction",
        gap <= 0.02,
        f"worst CCA - EDF-HP {gap:+.3f} restarts/tr",
    ))

    # The figure plots miss percent; the claim is about restarts.
    cells = multiprocessor_cells(scale)
    restarts = {
        label: summarize(runs).restarts_per_transaction.mean
        for (_, label), runs in point_results(cells, execute_cells(cells)).items()
    }
    for n in (1, 2, 4):
        edf_mp, cca_mp = restarts[f"EDF-HPx{n}"], restarts[f"CCAx{n}"]
        checks.append(CheckResult(
            "ext-multiprocessor",
            f"CCAx{n} restarts at or below EDF-HPx{n} + 0.02",
            cca_mp <= edf_mp + 0.02,
            f"CCA {cca_mp:.3f} vs EDF-HP {edf_mp:.3f} restarts/tr",
        ))

    occ_result = EXTENSION_EXPERIMENTS["ext-occ"](scale)
    for x, mode in ((0.0, "soft"), (1.0, "firm")):
        occ = _series(occ_result, "OCC")[x]
        edf_x = _series(occ_result, "EDF-HP")[x]
        cca_x = _series(occ_result, "CCA")[x]
        detail = f"OCC {occ:.2f} vs EDF-HP {edf_x:.2f} vs CCA {cca_x:.2f}"
        checks.append(CheckResult(
            "ext-occ",
            f"{mode}: OCC within 5 failure points of EDF-HP",
            abs(occ - edf_x) < 5.0,
            detail,
        ))
        checks.append(CheckResult(
            "ext-occ",
            f"{mode}: CCA at or below both (0.5-point tolerance)",
            cca_x <= min(edf_x, occ) + 0.5,
            detail,
        ))

    bursty = EXTENSION_EXPERIMENTS["ext-bursty"](scale)
    edf = _series(bursty, "EDF-HP")
    cca = _series(bursty, "CCA")
    checks.append(CheckResult(
        "ext-bursty",
        "bursts raise EDF-HP misses over Poisson arrivals",
        edf[1.0] >= edf[0.0],
        f"EDF-HP {edf[0.0]:.2f} -> {edf[1.0]:.2f} miss %",
    ))
    checks.append(CheckResult(
        "ext-bursty",
        "bursty: CCA at or below EDF-HP (0.5-point tolerance)",
        cca[1.0] <= edf[1.0] + 0.5,
        f"CCA {cca[1.0]:.2f} vs EDF-HP {edf[1.0]:.2f} miss %",
    ))

    disk = _series(EXTENSION_EXPERIMENTS["ext-disk-sched"](scale), "EDF-HP")
    checks.append(CheckResult(
        "ext-disk-sched",
        "priority disk queue: EDF-HP lateness within 1.10x of FCFS",
        disk[1.0] <= disk[0.0] * 1.10,
        f"priority {disk[1.0]:.0f} vs FCFS {disk[0.0]:.0f} ms",
    ))

    return checks + validate_ext_wp(scale)


def validate_ext_wp(scale: ExperimentScale) -> list[CheckResult]:
    """ext-wp's claims at 8 tr/s (paper Sections 3.2 and 6).

    The deadlock-break counts are kernel counters, which a cached cell
    does not carry, so these cells always simulate (``cache=None``),
    into a private registry that is then folded into the surrounding
    one (``repro validate``'s digest and manifest).
    """
    cells = [cell for cell in WP_SWEEP.cells(scale) if cell.x == 8.0]
    registry = MetricsRegistry()
    with execution(metrics=registry, cache=None):
        points = point_results(cells, execute_cells(cells))
    surrounding = resolve_metrics(None)
    if surrounding is not None:
        surrounding.merge_snapshot(registry.snapshot())
    summaries = {label: summarize(runs) for (_, label), runs in points.items()}
    restarts = {
        label: summary.restarts_per_transaction.mean
        for label, summary in summaries.items()
    }
    miss = {label: summary.miss_percent.mean for label, summary in summaries.items()}
    breaks = {
        label: registry.counter("sim.deadlock_breaks", policy=label).value
        for label in summaries
    }
    return [
        CheckResult(
            "ext-wp",
            "EDF-WP restarts below EDF-HP's at 8 tr/s",
            restarts["EDF-WP"] < restarts["EDF-HP"],
            f"EDF-WP {restarts['EDF-WP']:.3f} vs EDF-HP "
            f"{restarts['EDF-HP']:.3f} restarts/tr",
        ),
        CheckResult(
            "ext-wp",
            "no deadlock breaks under EDF-HP, EDF-Wait or CCA at 8 tr/s",
            breaks["EDF-HP"] == breaks["EDF-Wait"] == breaks["CCA"] == 0,
            "deadlock breaks: "
            + ", ".join(f"{label} {count}" for label, count in breaks.items()),
        ),
        CheckResult(
            "ext-wp",
            "CCA at or below EDF-HP at 8 tr/s (0.5-point tolerance)",
            miss["CCA"] <= miss["EDF-HP"] + 0.5,
            f"CCA {miss['CCA']:.2f} vs EDF-HP {miss['EDF-HP']:.2f} miss %",
        ),
    ]


def render_report(checks: Sequence[CheckResult]) -> str:
    """Human-readable validation report."""
    lines = ["Reproduction self-check", "=" * 23]
    lines.extend(str(check) for check in checks)
    n_passed = sum(1 for check in checks if check.passed)
    lines.append("-" * 23)
    lines.append(f"{n_passed}/{len(checks)} claims verified")
    return "\n".join(lines)
