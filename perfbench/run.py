"""Benchmark of the reproduction's figure sweeps: one command, every metric.

    python3 perfbench/run.py --workload mm-dbsize --seed 0 --seconds 30 --trace 0

Run from the repository root.  It prints the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with ``--trace 1`` it also
makes a traced run and prints the per-layer metrics.  Every metric line
carries its unit.  The last line of standard output is one JSON object,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``,
whose metrics are the end-to-end ones, or with ``--trace 1`` the
per-layer ones.

Every cell result every pass computed is digested and compared with
the expected one (``expected_digests.json`` at the default seed, a
second engine at any other); a wrong result makes ``correct`` false and
the exit code 1.  README.md maps
each metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH / "expected_digests.json"
#: The seed whose cell digests ``expected_digests.json`` records; at any
#: other seed the cells are compared with a second engine.
DEFAULT_SEED = 0

MIN_REPS = 3
#: Every step, and the whole run, ends well inside three minutes.
RUN_BUDGET_S = 170.0


class StepFailed(RuntimeError):
    pass


def hermetic_env(out: Path) -> dict:
    """The caller's environment minus every ``REPRO_*`` setting (jobs,
    scale, fault injection...), with the default result cache pointed
    inside this run's own directory, never at ``~/.cache/repro``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(out / "default-cache")
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self, args, out: Path) -> None:
        self.args = args
        self.env = hermetic_env(out)
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def step(self, step: str, *extra: str) -> dict:
        """Run one worker step in a fresh interpreter; its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed(f"{step}: run budget of {RUN_BUDGET_S:g}s used up")
        cmd = [
            sys.executable, str(BENCH / "worker.py"), step,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--size", self.args.size, *extra,
        ]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise StepFailed(f"{step}: timed out") from None
        finally:
            stop_group(proc.pid)
        if proc.returncode != 0:
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            raise StepFailed(f"{step}: exit {proc.returncode}\n{tail}")
        return json.loads(stdout.strip().splitlines()[-1])


def stop_group(pgid: int) -> None:
    """Kill whatever is left of a step's process group (pool workers of
    a step that failed) and wait until it is gone."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it (nearest
    rank), or the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Ledger:
    """Attempted and failed cell checks across every pass of the run."""

    def __init__(self, cells: dict[str, str], expected: dict[str, str]) -> None:
        self.cells = cells  # cell id -> output group
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check_pass(self, label: str, report: dict) -> None:
        """Count every cell of one pass; a cell fails if the pass did not
        compute it, if its digest differs from the expected one, or if
        the output group it feeds differs from the one its cells give.
        A cell with no expected digest (OCC at a hold-out seed) must
        repeat the first digest any pass gave for it."""
        self.errors += [f"{label} pass: {problem}" for problem in report["problems"]]
        bad_groups = set(report["bad_groups"])
        for cell_id, group in self.cells.items():
            self.attempted += 1
            got = report["cells"].get(cell_id)
            want = self.expected.setdefault(cell_id, got)
            if got is None or got != want:
                self.failed += 1
                self.errors.append(f"{label} pass: cell {cell_id} differs from its expected result")
            elif group in bad_groups:
                self.failed += 1
                self.errors.append(f"{label} pass: output group {group} differs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="mm-rate, mm-dbsize, disk-rate or ext-occ (see README.md)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 is the baseline, 1 the hold-out)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to repeat the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="tiny: a few cells, for the smoke test")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    ledger = Ledger({}, {})
    values, notes = None, []
    try:
        values, notes, ledger = measure(args, Runner(args, out), out)
    except StepFailed as exc:
        ledger.errors.append(str(exc))
        ledger.failed += 1
        ledger.attempted += 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for error in ledger.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    metrics = {}
    if values is not None:
        values["fail_ratio"] = ledger.failed / max(1, ledger.attempted)
        # Every metric is printed; the result line carries the end-to-end
        # ones, or with --trace 1 the per-layer ones.
        reported = spec["per_layer"] if args.trace else spec["end_to_end"]
        printed = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
        for metric in printed:
            value = values[metric["name"]]
            print(f"  {metric['name']:<28} {value:>14.6g} {metric['unit']}")
            if metric in reported:
                metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for line in notes:
        print(line)
    correct = values is not None and ledger.failed == 0 and not ledger.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measure(args, runner: Runner, out: Path) -> tuple[dict, list[str], Ledger]:
    # Warm-up: compiles bytecode, fills the OS cache, lists the cells.
    cells = runner.step("setup")["cells"]
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(EXPECTED.read_text())
        expected = {cell_id: recorded[cell_id] for cell_id in cells if cell_id in recorded}
    else:
        expected = runner.step("check")["cells"]
    ledger = Ledger(cells, expected)

    # Repetitions, tracing off, for --seconds.  Each is a fresh
    # interpreter, so each also times set-up: spawn to the point where
    # the first cell can run.
    reps = []
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started < args.seconds:
        rep_dir = out / f"rep{len(reps)}"
        spawned = time.monotonic()
        rep = runner.step("passes", "--out", str(rep_dir))
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep["setup_s"] = rep["setup"]["ready"] - spawned
        for label, report in rep["passes"].items():
            ledger.check_pass(f"rep {len(reps)} {label}", report)
        reps.append(rep)

    values = {
        "setup_s": median([rep["setup_s"] for rep in reps]),
        "cold_s": median([rep["cold_s"] for rep in reps]),
        "parallel_s": median([rep["parallel_s"] for rep in reps]),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in reps]),
        "parallel.retries": sum(rep["retries"] for rep in reps),
        "setup.import_ms": median([rep["setup"]["import_ms"] for rep in reps]),
        "setup.modules": median([rep["setup"]["modules"] for rep in reps]),
    }
    notes = [
        f"perfbench {args.workload} seed={args.seed} size={args.size}: "
        f"{len(reps)} timed repetitions, {len(cells)} cells per pass, "
        f"{ledger.attempted} cell results checked; times are medians",
    ]
    if args.trace:
        trace_file = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        trace = runner.step("trace", "--out", str(out / "trace"), "--trace-file", str(trace_file))
        for label, report in trace["passes"].items():
            ledger.check_pass(label, report)
        if trace["trace_problems"]:
            ledger.errors.append(f"invalid Chrome trace: {trace['trace_problems'][:3]}")
        notes += per_layer(values, trace)
    return values, notes, ledger


def per_layer(values: dict, trace: dict) -> list[str]:
    """Add the traced run's per-layer metrics to ``values``; the lines
    that explain them."""
    cold_ms = values["cold_s"] * 1000.0
    wall = trace["traced_wall_ms"]
    layer_ms = trace["layer_self_ms"]
    attributed = trace["layer_ms"]
    cells = trace["cell_ms"]
    tail, percentile = tail_percentile(cells)
    values.update(trace["metrics"])
    values.update({
        # Measured inside the traced pass: cold_s comes from other
        # processes at other moments, and host noise swamps the difference.
        "parallel.overhead_ms": wall - attributed,
        "parallel.idle_frac": 1.0 - sum(cells) / (2000.0 * values["parallel_s"]),
        "cell.ms_p50": median(cells),
        "cell.ms_tail": tail,
        "trace.overhead_ms": wall - cold_ms,
    })
    notes = ["", "  self time per layer in the traced cold pass (jobs=1):"]
    for layer, ms in sorted(layer_ms.items(), key=lambda item: -item[1]):
        notes.append(f"    {layer:<34} {ms:>10.1f} ms {100.0 * ms / wall:5.1f}%")
    notes += [
        f"  layer self time {attributed:.1f} ms + parallel.overhead_ms "
        f"{values['parallel.overhead_ms']:.1f} ms = traced wall {wall:.1f} ms",
        f"  tracing overhead: traced wall minus cold_s = "
        f"{values['trace.overhead_ms']:.1f} ms",
        f"  cell.ms_tail is p{percentile:.1f} of {len(cells)} cells; "
        f"cell.ms_p50 is their median",
        f"  {trace['spans']} spans written to {Path(trace['trace_file']).relative_to(ROOT)}",
    ]
    return notes


if __name__ == "__main__":
    sys.exit(main())
