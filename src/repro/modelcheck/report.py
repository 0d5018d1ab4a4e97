"""Text and JSON reporters for ``repro mc``.

The JSON document follows the shared check-CLI envelope (``kind`` +
``schema`` + payload) so CI and editor integrations can dispatch on it:

.. code-block:: json

    {
      "kind": "repro-mc-report",
      "schema": 1,
      "clean": false,
      "explorations": [ {"workload": "...", "policy": "...",
                         "schedules": 4, "clean": true, ...} ],
      "bundles": ["results/mc/..."],
      "por_measure": {"naive_events": 44, "por_events": 10,
                      "factor": 4.4}
    }
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.checks.cli_core import json_envelope
from repro.modelcheck.explorer import Exploration

#: Document type of the machine-readable report.
REPORT_KIND = "repro-mc-report"

#: Bump when the JSON reporter's shape changes incompatibly.
REPORT_SCHEMA = 1


@dataclasses.dataclass
class McReport:
    """Everything one ``repro mc`` invocation concluded."""

    explorations: list[Exploration]
    bundles: list[str] = dataclasses.field(default_factory=list)
    """Counterexample bundle directories written this run."""
    por_measure: Optional[dict] = None
    """``--measure-por`` comparison (naive vs reduced), when requested."""

    @property
    def clean(self) -> bool:
        return all(ex.clean for ex in self.explorations)


def render_text(report: McReport) -> str:
    """Human-readable report: one verdict line per exploration."""
    lines: list[str] = []
    for ex in report.explorations:
        target = f"{ex.workload} / {ex.policy}"
        if ex.mutant:
            target += f" / mutant={ex.mutant}"
        reduction = f", {ex.por_skipped} pruned" if ex.por else ", no POR"
        bound = " (TRUNCATED: bounded verdict)" if ex.truncated else ""
        verdict = "clean" if ex.clean else "VIOLATION"
        lines.append(
            f"{verdict:9s} {target}: {ex.schedules} schedule(s), "
            f"{ex.events_total} events, depth {ex.choice_points}"
            f"{reduction}{bound}"
        )
        if ex.counterexample is not None:
            violation = ex.counterexample.violation
            lines.append(
                f"          {violation.rule} (via {violation.source}) at "
                f"t={violation.time:g}: {violation.message}"
            )
            choices = ex.counterexample.choices
            schedule = (
                ",".join(str(c) for c in choices) if choices else "<default>"
            )
            lines.append(
                f"          minimal schedule: [{schedule}] "
                f"(found at [{','.join(str(c) for c in ex.counterexample.raw_choices) or '<default>'}])"
            )
    if report.por_measure is not None:
        m = report.por_measure
        lines.append(
            f"POR: {m['naive_schedules']} naive / {m['por_schedules']} "
            f"reduced schedule(s); {m['naive_events']} vs "
            f"{m['por_events']} events — {m['factor']:.2f}x reduction"
        )
    for bundle in report.bundles:
        lines.append(f"counterexample bundle: {bundle}")
    n_bad = sum(1 for ex in report.explorations if not ex.clean)
    lines.append(
        f"{len(report.explorations)} exploration(s), {n_bad} with "
        f"violations"
    )
    return "\n".join(lines)


def render_json(report: McReport) -> str:
    """Machine-readable report (see the module docstring)."""
    return json_envelope(
        REPORT_KIND,
        REPORT_SCHEMA,
        {
            "clean": report.clean,
            "explorations": [ex.to_dict() for ex in report.explorations],
            "bundles": list(report.bundles),
            "por_measure": report.por_measure,
        },
    )
