"""Text and JSON reporters for ``repro analyze``.

Same contract as the linter's and certifier's reporters: the text form
is for humans, the JSON form is versioned machine output (CI smoke,
tooling), and the digest renderers are the one-screen summaries the
sweep runner (``repro <fig> --analyze``) and ``repro validate`` print.
"""

from __future__ import annotations

from typing import Optional

from repro.analyze.feasibility import CellPrediction, classify_regime
from repro.analyze.runner import AnalysisResult
from repro.checks.cli_core import json_envelope

#: Version of the JSON report layout.  Bump on breaking changes.
JSON_SCHEMA_VERSION = 1


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """Human-readable analysis report."""
    where = (
        f"{result.experiment} (scale {result.scale})"
        if result.experiment is not None
        else "workload"
    )
    lines = [
        f"analyze: {where} — {result.n_transactions} transactions, "
        f"{result.graph.n_classes} program classes, db {result.db_size}"
    ]
    if result.sample_x is not None:
        lines.append(
            f"sample cell: x={result.sample_x:g}, seed={result.sample_seed}"
        )
    for verdict in result.verdicts:
        status = "PASS" if verdict.passed else "FAIL"
        lines.append(f"  {verdict.code}  {verdict.name:<26} {status}")
        if not verdict.passed or verbose:
            lines.append(f"          {verdict.detail}")
    lines.append(_graph_line(result))
    if result.cells:
        lines.append(_cells_line(result.cells))
        if verbose:
            for cell in result.cells:
                lines.append(
                    f"    x={cell.x:g} seed={cell.seed}: "
                    f"cpu {cell.cpu_utilization:.2f}, "
                    f"io {cell.io_utilization:.2f}, "
                    f"conflict {cell.conflict_density:.3f}, "
                    f"{cell.regime}, miss floor "
                    f"{100.0 * cell.predicted_miss_floor:.1f}%"
                )
    failed = [verdict for verdict in result.verdicts if not verdict.passed]
    if failed:
        lines.append(f"ANALYSIS FAILED: {len(failed)} verdict(s)")
    else:
        lines.append("ANALYSIS CLEAN")
    return "\n".join(lines)


def _graph_line(result: AnalysisResult) -> str:
    graph = result.graph
    bound = "exact" if graph.max_compatible_exact else "greedy bound"
    theorem1 = "yes" if graph.theorem1_no_wait else "no"
    return (
        f"graph: conflict {100.0 * graph.conflict_fraction:.1f}% certain, "
        f"{100.0 * graph.conditional_fraction:.1f}% conditional; "
        f"degrees {graph.degree_min}-{graph.degree_max} "
        f"(mean {graph.degree_mean:.1f}); "
        f"max compatible set {graph.max_compatible_set} ({bound}); "
        f"Theorem 1 no-wait: {theorem1}"
    )


def _cells_line(cells: list[CellPrediction]) -> str:
    by_regime: dict[str, int] = {}
    for cell in cells:
        by_regime[cell.regime] = by_regime.get(cell.regime, 0) + 1
    regimes = ", ".join(
        f"{name} {by_regime[name]}"
        for name in ("light", "moderate", "saturated")
        if name in by_regime
    )
    worst = max(cell.predicted_miss_floor for cell in cells)
    return (
        f"cells: {len(cells)} predicted — {regimes}; "
        f"worst miss floor {100.0 * worst:.1f}%"
    )


def render_json(result: AnalysisResult) -> str:
    """Machine-readable report with a pinned schema version."""
    return json_envelope("repro-analysis", JSON_SCHEMA_VERSION, result.to_dict())


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def render_analysis_digest(
    result: AnalysisResult, figure_result: Optional[object] = None
) -> str:
    """The console digest ``--analyze`` prints after a sweep.

    One verdict line, then one line per x value with the predicted
    regime/utilization — and, when ``figure_result`` carries the
    figure's observed miss-percent series, the observed numbers next to
    the predicted floor.  An observed miss rate *below* the static
    floor is impossible (the floor counts transactions no scheduler can
    save), so any such cell is flagged.
    """
    failed = [v.code for v in result.verdicts if not v.passed]
    verdict = (
        "clean"
        if not failed
        else f"FAILED ({', '.join(failed)})"
    )
    lines = [
        f"[analyze {result.experiment or 'workload'}: {verdict} — "
        f"{len(result.verdicts)} verdicts on sample x={result.sample_x:g} "
        f"seed={result.sample_seed}]"
        if result.sample_x is not None
        else f"[analyze {result.experiment or 'workload'}: {verdict}]"
    ]
    if not result.cells:
        return "\n".join(lines)

    observed: dict[str, dict[float, float]] = {}
    if figure_result is not None and _is_miss_figure(figure_result):
        observed = {
            name: dict(points)
            for name, points in figure_result.series.items()
        }

    by_x: dict[float, list[CellPrediction]] = {}
    for cell in result.cells:
        by_x.setdefault(cell.x, []).append(cell)
    for x in sorted(by_x):
        cells = by_x[x]
        cpu = _mean([cell.cpu_utilization for cell in cells])
        io = _mean([cell.io_utilization for cell in cells])
        floor = 100.0 * _mean([cell.predicted_miss_floor for cell in cells])
        line = (
            f"  x={x:g}: {classify_regime(cpu, io)} "
            f"(cpu {cpu:.2f}, io {io:.2f}), miss floor {floor:.1f}%"
        )
        seen = [
            (name, series[x])
            for name, series in observed.items()
            if x in series
        ]
        if seen:
            shown = ", ".join(f"{name} {value:.1f}%" for name, value in seen)
            line += f"; observed {shown}"
            if any(value < floor - 1e-6 for _, value in seen):
                line += "  << BELOW STATIC FLOOR"
        lines.append(line)
    return "\n".join(lines)


def _is_miss_figure(figure_result: object) -> bool:
    label = getattr(figure_result, "y_label", "")
    return isinstance(label, str) and "miss" in label.lower()
