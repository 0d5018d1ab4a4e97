"""Rendering experiment results: ASCII tables and CSV export.

The paper presents line plots; a terminal harness prints the underlying
series as aligned columns (one row per x value, one column per series)
so the reader can compare the same numbers.  CSV export feeds external
plotting.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.experiments.figures import FigureResult


def render_figure(result: FigureResult) -> str:
    """A human-readable block for one experiment's data."""
    lines = [f"== {result.figure_id}: {result.title} =="]
    if result.paper_expectation:
        lines.append(f"paper expectation: {result.paper_expectation}")
    if result.notes:
        lines.append(result.notes)
    if result.series:
        xs = sorted({x for series in result.series.values() for x, _ in series})
        names = list(result.series)
        header = [result.x_label or "x"] + names
        by_series = {
            name: dict(points) for name, points in result.series.items()
        }
        rows = [header]
        for x in xs:
            row = [f"{x:g}"]
            for name in names:
                value = by_series[name].get(x)
                row.append("-" if value is None else f"{value:.3f}")
            rows.append(row)
        widths = [
            max(len(row[col]) for row in rows) for col in range(len(header))
        ]
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
            )
            if index == 0:
                lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def render_certification(samples) -> str:
    """One summary line per certified cell of a ``--certify`` sample.

    ``samples`` is a sequence of
    :class:`~repro.certify.runner.CellCertification`; the full verdicts
    live in the run manifest — this is the console digest.
    """
    if not samples:
        return "[certify: no cells certified]"
    lines = []
    for sample in samples:
        result = sample.result
        verdict = "certified" if result.certified else "NOT CERTIFIED"
        detail = ""
        if not result.certified:
            by_rule = result.violations_by_rule()
            detail = " (" + ", ".join(
                f"{code}:{count}" for code, count in sorted(by_rule.items())
            ) + ")"
        lines.append(
            f"[certify {sample.experiment} x={sample.cell.x:g} "
            f"seed={sample.cell.seed} policy={sample.cell.policy}: "
            f"{verdict}{detail} — {result.n_committed} committed, "
            f"{result.n_wounds} wounds, {result.n_graph_edges} edges]"
        )
    return "\n".join(lines)


def _series_parts(key: str) -> tuple[str, dict]:
    """Split a registry series key ``name{k=v,...}`` into name + labels."""
    if "{" not in key:
        return key, {}
    name, rest = key.split("{", 1)
    labels = dict(part.split("=", 1) for part in rest.rstrip("}").split(","))
    return name, labels


def render_kernel_digest(snapshot) -> str:
    """Console digest of the kernel introspection counters.

    Aggregates the ``kernel.*`` counter family (see docs/KERNEL.md) and
    the ``sweep.engine`` engine-selection tallies across policies into a
    few lines; returns ``""`` when the snapshot carries neither (e.g. a
    fully cached run, or one that predates introspection).
    """
    counters = snapshot.get("counters", {})
    engines: dict[str, float] = {}
    by_label: dict[str, dict[str, float]] = {}
    scalars: dict[str, float] = {}
    for key, value in counters.items():
        name, labels = _series_parts(key)
        if name == "sweep.engine":
            engine = labels.get("engine", "?")
            engines[engine] = engines.get(engine, 0) + value
        elif name == "kernel.fusion_spans":
            kinds = by_label.setdefault("spans", {})
            kind = labels.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + value
        elif name == "kernel.penalty_scans":
            modes = by_label.setdefault("scans", {})
            mode = labels.get("mode", "?")
            modes[mode] = modes.get(mode, 0) + value
        elif name == "kernel.cca_prunes":
            sites = by_label.setdefault("prunes", {})
            site = labels.get("site", "?")
            sites[site] = sites.get(site, 0) + value
        elif name.startswith("kernel."):
            scalars[name] = scalars.get(name, 0) + value
    if not engines and not by_label and not scalars:
        return ""
    lines = ["[kernel digest]"]
    if engines:
        mix = " ".join(
            f"{engine}={int(count)}" for engine, count in sorted(engines.items())
        )
        lines.append(f"  engines: {mix}")
    spans = by_label.get("spans", {})
    n_spans = sum(spans.values())
    if n_spans:
        ops = scalars.get("kernel.fused_ops", 0)
        lines.append(
            f"  fusion: {int(n_spans)} spans "
            f"(free {int(spans.get('free', 0))}, "
            f"locked {int(spans.get('locked', 0))}), "
            f"{int(ops)} ops fused ({ops / n_spans:.2f}/span), "
            f"{int(scalars.get('kernel.fusion_truncated', 0))} truncated, "
            f"{int(scalars.get('kernel.fusion_arrival_crossings', 0))} "
            "arrival crossings"
        )
    scans = by_label.get("scans", {})
    if scans:
        lines.append(
            "  penalty scans: "
            + " ".join(
                f"{mode}={int(count)}" for mode, count in sorted(scans.items())
            )
        )
    prunes = by_label.get("prunes", {})
    if prunes:
        lines.append(
            "  cca prunes: "
            + " ".join(
                f"{site}={int(count)}" for site, count in sorted(prunes.items())
            )
        )
    builds = scalars.get("kernel.mask_builds", 0)
    fired = scalars.get("kernel.events_fired", 0)
    if builds or fired:
        lines.append(
            f"  mask builds: {int(builds)}; kernel events: {int(fired)}"
        )
    return "\n".join(lines)


def write_csv(result: FigureResult, directory: Path) -> Path:
    """Write one experiment's series to ``<directory>/<figure_id>.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.figure_id}.csv"
    xs = sorted({x for series in result.series.values() for x, _ in series})
    names = list(result.series)
    by_series = {name: dict(points) for name, points in result.series.items()}
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([result.x_label or "x"] + names)
        for x in xs:
            writer.writerow(
                [x] + [by_series[name].get(x, "") for name in names]
            )
    return path
