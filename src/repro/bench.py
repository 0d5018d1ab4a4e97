"""Engine benchmark: reference vs. kernel wall-clock on fig4a cells.

The kernel engine (:mod:`repro.core.kernel`) exists to make the paper
sweeps cheap; this module makes that claim checkable.  It times complete
simulation cells — construction plus run, the unit the sweep runner
pays — for both engines over the fig 4(a) workload (main-memory, soft
deadlines, the paper's base parameter table), and maintains a committed
JSON baseline (``benchmarks/BENCH_kernel.json``) so speedup regressions
fail CI instead of rotting silently.

Two measurement profiles are defined:

* ``full`` — the paper-scale grid (1000 transactions, arrival rates
  1/4/7/10, EDF-HP and CCA).  This is the acceptance measurement for
  the kernel: its committed geomean speedup must stay ≥ 5x.
* ``quick`` — a CI-sized subset used by
  ``benchmarks/test_kernel_speedup.py`` to gate regressions on every
  push without paper-scale runtimes.

Because absolute milliseconds are machine-dependent, regression checks
compare the *speedup ratio* (reference time / kernel time), which is a
property of the two engines rather than of the host: a >20% drop of the
current geomean ratio below the committed baseline ratio fails the
check.  Use ``repro bench --update`` on a quiet machine to re-baseline
after intentional engine changes.

Timing uses best-of-N with the two engines interleaved, which cancels
slow drift (thermal, background load) out of the ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator
from repro.obs.prof import SpanProfiler, host_provenance
from repro.workload.generator import generate_workload

#: v2: added the top-level ``host`` provenance block (interpreter,
#: platform, CPU model, core count) and the per-profile ``phases``
#: section (kernel wall-time attribution from one profiled pass per
#: cell).  Baselines written before the kernel dropped numpy also carry
#: a ``host.numpy`` version and a ``kernel.penalty_scan_numpy`` phase;
#: both are provenance only, since the gate reads speedup ratios.
SCHEMA_VERSION = 2

#: Committed baseline location (repo checkout layout).
DEFAULT_BASELINE = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_kernel.json"
)

#: Fraction the geomean speedup may drop below baseline before failing.
DEFAULT_TOLERANCE = 0.2


@dataclass(frozen=True)
class BenchProfile:
    """One measurement grid over the fig4a workload."""

    name: str
    arrival_rates: tuple[float, ...]
    policies: tuple[str, ...]
    n_transactions: int
    seeds: tuple[int, ...]
    repeats: int

    def config_for(self, arrival_rate: float) -> SimulationConfig:
        # SimulationConfig defaults are the paper's main-memory base
        # table (db_size=30, updates_mean=20, soft deadlines) — exactly
        # the fig4a sweep with the arrival rate as the free variable.
        return SimulationConfig(
            arrival_rate=arrival_rate, n_transactions=self.n_transactions
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "arrival_rates": list(self.arrival_rates),
            "policies": list(self.policies),
            "n_transactions": self.n_transactions,
            "seeds": list(self.seeds),
            "repeats": self.repeats,
        }


PROFILES: dict[str, BenchProfile] = {
    "full": BenchProfile(
        name="full",
        arrival_rates=(1.0, 4.0, 7.0, 10.0),
        policies=("EDF-HP", "CCA"),
        n_transactions=1000,
        seeds=(1,),
        repeats=5,
    ),
    "quick": BenchProfile(
        name="quick",
        arrival_rates=(4.0, 10.0),
        policies=("EDF-HP", "CCA"),
        n_transactions=300,
        seeds=(1,),
        repeats=3,
    ),
}


def _time_cell(
    engine: type, config: SimulationConfig, workload: Sequence[Any], policy_name: str
) -> float:
    """Seconds for one construct+run of ``engine`` on the cell."""
    policy = make_policy(policy_name, penalty_weight=config.penalty_weight)
    started = time.perf_counter()  # repro: allow[DET001] -- benchmark timer
    engine(config, workload, policy).run()
    return time.perf_counter() - started  # repro: allow[DET001] -- benchmark timer


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_profile(profile: BenchProfile, verbose: bool = False) -> dict[str, Any]:
    """Measure every cell of ``profile``; returns its baseline section.

    The timed repetitions run both engines bare (no profiler — its
    overhead must not leak into the speedup ratio); one extra *profiled*
    kernel pass per cell then attributes kernel wall time across phases
    (event handlers by type, penalty scans, mask builds), summed into
    the section's ``phases`` block.
    """
    cells: list[dict[str, Any]] = []
    prof = SpanProfiler()
    for arrival_rate in profile.arrival_rates:
        config = profile.config_for(arrival_rate)
        for seed in profile.seeds:
            workload = generate_workload(config, seed)
            for policy_name in profile.policies:
                best_ref = math.inf
                best_kernel = math.inf
                # Interleave engines so drift cancels out of the ratio.
                for _ in range(profile.repeats):
                    best_ref = min(
                        best_ref,
                        _time_cell(RTDBSimulator, config, workload, policy_name),
                    )
                    best_kernel = min(
                        best_kernel,
                        _time_cell(KernelSimulator, config, workload, policy_name),
                    )
                policy = make_policy(
                    policy_name, penalty_weight=config.penalty_weight
                )
                KernelSimulator(config, workload, policy, profile=prof).run()
                cell = {
                    "arrival_rate": arrival_rate,
                    "policy": policy_name,
                    "seed": seed,
                    "reference_ms": round(best_ref * 1000.0, 3),
                    "kernel_ms": round(best_kernel * 1000.0, 3),
                    "speedup": round(best_ref / best_kernel, 3),
                }
                cells.append(cell)
                if verbose:
                    print(
                        f"  a={arrival_rate:5.1f} {policy_name:8s} seed={seed} "
                        f"ref={cell['reference_ms']:9.1f}ms "
                        f"kernel={cell['kernel_ms']:8.1f}ms "
                        f"x{cell['speedup']:.2f}"
                    )
    speedups = [cell["speedup"] for cell in cells]
    return {
        "profile": profile.to_json(),
        "cells": cells,
        "summary": {
            "geomean_speedup": round(geomean(speedups), 3),
            "min_speedup": round(min(speedups), 3),
        },
        "phases": prof.phase_totals(),
    }


def cell_key(cell: dict[str, Any]) -> tuple[float, str, int]:
    return (cell["arrival_rate"], cell["policy"], cell["seed"])


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Regression problems of ``current`` vs. a baseline profile section.

    The hard gate is the geomean speedup ratio; per-cell drops beyond
    tolerance are reported too so a localized regression hidden by an
    unrelated improvement still surfaces.  Grid mismatches are problems:
    a check against a baseline measured on a different grid is
    meaningless.
    """
    problems: list[str] = []
    if current["profile"] != baseline["profile"]:
        return [
            "profile grids differ: current "
            f"{current['profile']} vs baseline {baseline['profile']}"
        ]
    base_geo = baseline["summary"]["geomean_speedup"]
    cur_geo = current["summary"]["geomean_speedup"]
    floor = base_geo * (1.0 - tolerance)
    if cur_geo < floor:
        problems.append(
            f"geomean speedup regressed: x{cur_geo:.2f} < x{floor:.2f} "
            f"(baseline x{base_geo:.2f} - {tolerance:.0%})"
        )
    base_cells = {cell_key(cell): cell for cell in baseline["cells"]}
    for cell in current["cells"]:
        base = base_cells.get(cell_key(cell))
        if base is None:
            problems.append(f"cell {cell_key(cell)} missing from baseline")
            continue
        cell_floor = base["speedup"] * (1.0 - tolerance)
        if cell["speedup"] < cell_floor:
            problems.append(
                f"cell a={cell['arrival_rate']} {cell['policy']} "
                f"seed={cell['seed']} regressed: x{cell['speedup']:.2f} < "
                f"x{cell_floor:.2f} (baseline x{base['speedup']:.2f})"
            )
    return problems


def load_baseline(path: Path) -> dict[str, Any]:
    doc = json.loads(path.read_text())
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has schema {doc.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    return doc


def bench_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Benchmark the kernel engine against the reference engine on "
            "fig4a cells; maintain / check the committed speedup baseline."
        ),
    )
    parser.add_argument(
        "--profile",
        choices=[*PROFILES, "all"],
        default="full",
        help="measurement grid (default: full; 'all' runs every profile)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline JSON path (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="write the measured profile(s) into the baseline file",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional speedup drop for --check (default: 0.2)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the measured document as JSON",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="also write the measured document to this path (CI artifact)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    names = list(PROFILES) if args.profile == "all" else [args.profile]
    measured: dict[str, Any] = {}
    for name in names:
        print(f"[bench] profile {name}:")
        measured[name] = run_profile(PROFILES[name], verbose=True)
        summary = measured[name]["summary"]
        print(
            f"[bench] {name}: geomean x{summary['geomean_speedup']:.2f}, "
            f"min x{summary['min_speedup']:.2f}"
        )

    document = {
        "schema": SCHEMA_VERSION,
        "host": host_provenance(),
        "profiles": measured,
    }
    if args.json:
        print(json.dumps(document, indent=2))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=2) + "\n")

    status = 0
    if args.check:
        baseline = load_baseline(args.baseline)
        for name in names:
            section = baseline["profiles"].get(name)
            if section is None:
                print(f"[bench] FAIL: baseline has no profile {name!r}")
                status = 1
                continue
            problems = compare(measured[name], section, args.tolerance)
            for problem in problems:
                print(f"[bench] FAIL ({name}): {problem}")
            if problems:
                status = 1
            else:
                print(f"[bench] OK ({name}): within {args.tolerance:.0%} of baseline")

    if args.update:
        if args.baseline.exists():
            doc = load_baseline(args.baseline)
        else:
            doc = {"schema": SCHEMA_VERSION, "profiles": {}}
        doc["host"] = document["host"]
        doc["profiles"].update(measured)
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"[bench] baseline updated: {args.baseline}")

    return status


if __name__ == "__main__":
    sys.exit(bench_main())
