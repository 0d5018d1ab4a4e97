"""Byte-for-byte pins on the four check CLIs' machine-facing output.

``data/`` holds, for ``repro lint``, ``certify``, ``analyze`` and
``mc``, the exact ``--list-rules`` catalog and one JSON report each
(plus ``mc``'s text report on a table), recorded from the CLIs as they
are run below.  Rule text, catalog layout, JSON shape and exit codes
must not move when the CLI plumbing behind them is refactored; a
deliberate change re-records the file.
"""

from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]
DATA = Path(__file__).parent / "data"

PINS = [
    ("lint_rules.txt", ["lint", "--list-rules"], 0),
    ("certify_rules.txt", ["certify", "--list-rules"], 0),
    ("analyze_rules.txt", ["analyze", "--list-rules"], 0),
    ("mc_rules.txt", ["mc", "--list-rules"], 0),
    (
        "lint_known_bad.json",
        ["lint", "--format", "json", "tests/checks/fixtures/known_bad.py"],
        1,
    ),
    (
        "certify_bad.json",
        [
            "certify",
            "--events", "tests/certify/fixtures/bad_trace.jsonl",
            "--workload", "tests/certify/fixtures/bad_workload.jsonl",
            "--policy", "EDF-HP",
            "--format", "json",
        ],
        1,
    ),
    (
        "analyze_table1.json",
        ["analyze", "table1", "--scale", "quick", "--no-cells", "--format", "json"],
        0,
    ),
    (
        "mc_tie_twins.json",
        ["mc", "tie-twins", "--policy", "EDF-HP", "--format", "json"],
        0,
    ),
    # A table has no sweep cells; mc checks its base cell.
    ("mc_table1.txt", ["mc", "table1", "--take", "3"], 0),
]

#: Command lines that must end as usage errors: exit 2, ``error:`` on
#: stderr, nothing on stdout.
USAGE_ERRORS = [
    ("mc_unknown_policy", ["mc", "tie-twins", "--policy", "NOPE"]),
    # ``repro replay`` replays only model-check bundles; a leftover
    # bundle of any other kind is a usage error.
    (
        "replay_quarantine_bundle",
        ["replay", "tests/checks/fixtures/quarantine_bundle"],
    ),
]


@pytest.mark.parametrize(
    "name, argv, exit_code", PINS, ids=[pin[0] for pin in PINS]
)
def test_output_matches_pin(name, argv, exit_code, monkeypatch, capsys):
    # Paths in the reports are relative to the repository root.
    monkeypatch.chdir(REPO)
    assert main(argv) == exit_code
    assert capsys.readouterr().out == (DATA / name).read_text()


@pytest.mark.parametrize(
    "argv", [argv for _, argv in USAGE_ERRORS], ids=[name for name, _ in USAGE_ERRORS]
)
def test_usage_error_exits_2(argv, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
