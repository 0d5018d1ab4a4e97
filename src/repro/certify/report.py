"""Text and JSON reporters for certification results.

Mirrors ``repro lint``'s reporter contract: the text form is for
humans, the JSON form is versioned machine output (consumed by the CI
smoke step and the sweep manifest).
"""

from __future__ import annotations

from repro.certify.certifier import CertificationResult
from repro.checks.cli_core import json_envelope
from repro.checks.rules import all_rules

#: Version of the JSON report layout.  Bump on breaking changes.
JSON_SCHEMA_VERSION = 1


def render_text(result: CertificationResult, verbose: bool = False) -> str:
    """Human-readable certification report."""
    lines = [
        f"certify: policy {result.policy_name} — "
        f"{result.n_events} events, {result.n_incarnations} incarnations, "
        f"{result.n_committed} committed, {result.n_wounds} wounds"
    ]
    by_rule = result.violations_by_rule()
    for rule in all_rules("CERT"):
        if rule.code in result.skipped:
            status = f"SKIP ({result.skipped[rule.code]})"
        elif rule.code in by_rule:
            status = f"FAIL ({by_rule[rule.code]} violation(s))"
        else:
            status = "PASS"
        lines.append(f"  {rule.code}  {rule.name:<26} {status}")
    if result.violations:
        lines.append("")
        for violation in result.violations:
            stamp = (
                f"t={violation.time:.6g}"
                if violation.time is not None
                else "t=?"
            )
            lines.append(f"{violation.code} [{stamp}] {violation.message}")
        lines.append("")
        lines.append(
            f"NOT CERTIFIED: {len(result.violations)} violation(s)"
        )
    else:
        if result.serialization_order is not None:
            order = ", ".join(
                f"tx{tid}" for tid in result.serialization_order
            )
            shown = order if len(order) <= 120 or verbose else (
                order[:117] + "..."
            )
            lines.append(
                f"  serialization order ({len(result.serialization_order)} "
                f"committed, {result.n_graph_edges} edges): {shown}"
            )
        lines.append("CERTIFIED")
    return "\n".join(lines)


def render_json(result: CertificationResult) -> str:
    """Machine-readable report with a pinned schema version."""
    return json_envelope(
        "repro-certification", JSON_SCHEMA_VERSION, result.to_dict()
    )


def render_cells_json(experiment: str, scale_name: str, samples) -> str:
    """One JSON document covering every certified cell of a sample.

    ``samples`` is a sequence of
    :class:`~repro.certify.runner.CellCertification`.
    """
    payload = {
        "experiment": experiment,
        "scale": scale_name,
        "certified": all(s.result.certified for s in samples),
        "cells": [
            {
                "cell": {
                    "x": sample.cell.x,
                    "seed": sample.cell.seed,
                    "policy": sample.cell.policy,
                },
                **sample.result.to_dict(),
            }
            for sample in samples
        ],
    }
    return json_envelope("repro-certification", JSON_SCHEMA_VERSION, payload)
