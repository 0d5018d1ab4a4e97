"""Smoke tests of the benchmark at its tiny size.

    python3 -m pytest perfbench -q

They run the real command, so they take about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(to: Path) -> None:
    """The benchmark's files and BENCHMARK.json, without the program."""
    (to / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (to / "perfbench" / path.name).write_text(path.read_text())
    (to / "perfbench" / "expected_digests.json").write_text(
        (BENCH / "expected_digests.json").read_text()
    )
    (to / "BENCHMARK.json").write_text(json.dumps(SPEC))


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [workload["name"] for workload in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    code, stdout, result = run("--workload", workload, "--seed", "0", "--trace", trace)
    assert code == 0, stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in SPEC[section])
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    fields = [line.split() for line in stdout.splitlines()]
    printed = {name: unit for name, _value, unit in filter(lambda f: len(f) == 3, fields)}
    shown = SPEC["end_to_end"] + (SPEC["per_layer"] if trace == "1" else [])
    for metric in shown:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]


def test_hold_out_seed_is_checked_against_a_second_engine():
    # ext-occ's locking cells run on the reference engine; at a hold-out
    # seed they are compared with the kernel.
    code, stdout, result = run("--workload", "ext-occ", "--seed", "1", "--trace", "0")
    assert code == 0, stdout
    assert result["correct"] is True and result["failed"] == 0


def test_corrupted_expected_digest_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests = tmp_path / "perfbench" / "expected_digests.json"
    expected = json.loads(digests.read_text())
    victim = next(key for key in sorted(expected) if key.startswith("mm-dbsize|") and "n=50" in key)
    expected[victim] = "0" * 64
    digests.write_text(json.dumps(expected))
    code, _, result = run("--workload", "mm-dbsize", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm-dbsize", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
