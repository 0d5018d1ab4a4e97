"""Text and JSON reporters for lint results.

The JSON schema is versioned and stable — CI jobs and editor
integrations parse it, and ``tests/checks/test_lint_cli.py`` pins it:

.. code-block:: json

    {
      "version": 1,
      "files_checked": 42,
      "clean": false,
      "findings": [
        {"path": "...", "line": 10, "col": 5, "code": "DET001",
         "message": "...", "suppressed": false}
      ],
      "suppressed": [ ...same shape, "suppressed": true... ],
      "errors": ["path: syntax error ..."],
      "summary": {"DET001": 1},
      "rules": {"DET001": {"name": "...", "summary": "...",
                           "scope": "sim-path"}}
    }
"""

from __future__ import annotations

import json

from repro.checks.linter import LintResult
from repro.checks.rules import all_rules

#: Bump when the JSON reporter's shape changes incompatibly.
JSON_SCHEMA_VERSION = 1


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location}: {finding.code} {finding.message}")
    for error in result.errors:
        lines.append(f"error: {error}")
    if verbose:
        for finding in result.suppressed:
            lines.append(
                f"{finding.location}: {finding.code} suppressed "
                f"(# repro: allow[{finding.code}])"
            )
    counts = result.counts_by_code()
    breakdown = (
        " (" + ", ".join(f"{code}: {n}" for code, n in counts.items()) + ")"
        if counts
        else ""
    )
    lines.append(
        f"{len(result.findings)} finding(s){breakdown}, "
        f"{len(result.suppressed)} suppressed, "
        f"{result.files_checked} file(s) checked"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (see the module docstring for the schema)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "clean": result.clean,
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": [finding.to_dict() for finding in result.suppressed],
        "errors": list(result.errors),
        "summary": result.counts_by_code(),
        "rules": {
            rule.code: {
                "name": rule.name,
                "summary": rule.summary,
                "scope": rule.scope.value if rule.scope is not None else None,
            }
            for rule in all_rules("DET")
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)
