"""``repro mc`` — the schedule-space model checker's entry point.

Examples::

    repro mc all                         # every bundled workload x policy
    repro mc tie-conflict --policy CCA   # one workload, one policy
    repro mc --workload load.jsonl --policy EDF-HP,CCA
    repro mc fig4a --take 3              # prefix of an experiment workload
    repro mc --mutate all                # every seeded bug must be caught
    repro mc tie-twins --measure-por     # naive vs reduced state counts
    repro mc --list-rules

Exit status: 0 when every explored schedule of every target passes all
MC rules, 1 when any violation is found (a minimal counterexample
bundle is written under ``--bundle-dir``), 2 on usage errors — the
same contract as ``repro lint`` / ``certify`` / ``analyze``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.checks.cli_core import Report, UsageError, add_report_arguments, check_main
from repro.core.policy import make_policy
from repro.modelcheck.bundle import write_mc_bundle
from repro.modelcheck.explorer import (
    DEFAULT_DEPTH,
    DEFAULT_MAX_SCHEDULES,
    Exploration,
    explore,
)
from repro.modelcheck.mutants import all_mutants, get_mutant
from repro.modelcheck.report import McReport, render_json, render_text
from repro.modelcheck.workloads import ALL_MC_POLICIES, all_cases, get_case


def build_mc_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro mc",
        description=(
            "Bounded exhaustive model checker: enumerates every "
            "reachable schedule of a small workload (branching on "
            "priority ties, simultaneous events, IO orderings) and "
            "checks Theorems 1-2, lock-table consistency, deadlock "
            "freedom and endstate serializability on each (MC001-006).  "
            "See docs/MODELCHECK.md."
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help=(
            "bundled workload name (see --list-workloads), 'all', or a "
            "paper experiment id (a small prefix of its generated "
            "workload is checked; see --take)"
        ),
    )
    parser.add_argument(
        "--workload",
        type=Path,
        default=None,
        metavar="FILE",
        help="model check a saved workload JSONL instead of a bundled one",
    )
    parser.add_argument(
        "--db-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "database size for --workload mode (default: inferred from "
            "the largest item accessed)"
        ),
    )
    parser.add_argument(
        "--disk",
        action="store_true",
        help="--workload mode: run the disk-resident configuration",
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated policies to quantify over "
            f"(default: {','.join(ALL_MC_POLICIES)})"
        ),
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=DEFAULT_DEPTH,
        metavar="N",
        help=(
            "bound on the choice-vector length explored (default: "
            f"{DEFAULT_DEPTH}; deeper trails are reported as truncated)"
        ),
    )
    parser.add_argument(
        "--mutate",
        default=None,
        metavar="NAME",
        help=(
            "run a seeded scheduler bug ('all' for every one) on its "
            "demo workload/policy; the checker must find it and exit 1.  "
            f"Known: {', '.join(m.name for m in all_mutants())}"
        ),
    )
    parser.add_argument(
        "--por",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "prune provably commuting tie-break alternatives via the "
            "static conflict relation (default: on; --no-por explores "
            "the full naive space)"
        ),
    )
    parser.add_argument(
        "--measure-por",
        action="store_true",
        help=(
            "explore each target twice (naive, then reduced) and report "
            "the state-count reduction factor"
        ),
    )
    parser.add_argument(
        "--max-schedules",
        type=int,
        default=DEFAULT_MAX_SCHEDULES,
        metavar="N",
        help=(
            "ceiling on schedules per exploration (default: "
            f"{DEFAULT_MAX_SCHEDULES}; hitting it reports truncation)"
        ),
    )
    parser.add_argument(
        "--take",
        type=int,
        default=3,
        metavar="N",
        help=(
            "experiment mode: model check the first N transactions of "
            "the generated workload (default: 3)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="experiment mode: workload generator seed (default: 0)",
    )
    parser.add_argument(
        "--bundle-dir",
        type=Path,
        default=Path("results") / "mc",
        metavar="DIR",
        help=(
            "where counterexample bundles are written on violation "
            "(default: results/mc)"
        ),
    )
    parser.add_argument(
        "--list-workloads",
        action="store_true",
        help="print the bundled workload catalog and exit",
    )
    add_report_arguments(parser, what="model-check rule")
    return parser


def mc_main(argv: Optional[Sequence[str]] = None) -> int:
    return check_main(build_mc_parser(), "MC", _mc, argv)


def _mc(args: argparse.Namespace) -> Report:
    if args.list_workloads:
        catalog = "\n".join(
            f"{case.name:<16} {case.summary}" for case in all_cases()
        )
        return Report(True, lambda: catalog, lambda: catalog)
    if args.depth < 1 or args.max_schedules < 1 or args.take < 1:
        raise UsageError("--depth, --max-schedules and --take must be >= 1")

    targets = _resolve_targets(args)
    report = McReport(explorations=[])
    for name, config, specs, policies, mutant in targets:
        for policy_name in policies:
            exploration = explore(
                config,
                specs,
                policy_name,
                workload_name=name,
                mutant=mutant,
                depth=args.depth,
                por=args.por,
                max_schedules=args.max_schedules,
            )
            if args.measure_por:
                _attach_por_measure(
                    report, exploration, config, specs, policy_name, name,
                    mutant, args,
                )
            report.explorations.append(exploration)
            if exploration.counterexample is not None:
                slug = f"{name}-{policy_name}"
                if mutant is not None:
                    slug += f"-{mutant.name}"
                bundle = write_mc_bundle(
                    args.bundle_dir / slug, exploration, config, specs
                )
                report.bundles.append(str(bundle))

    return Report(
        report.clean, lambda: render_text(report), lambda: render_json(report)
    )


def _attach_por_measure(
    report: McReport,
    reduced: Exploration,
    config,
    specs,
    policy_name: str,
    name: str,
    mutant,
    args,
) -> None:
    """Run the naive twin of one exploration and record the factor."""
    naive = explore(
        config,
        specs,
        policy_name,
        workload_name=name,
        mutant=mutant,
        depth=args.depth,
        por=False,
        max_schedules=args.max_schedules,
    )
    measure = {
        "workload": name,
        "policy": policy_name,
        "naive_schedules": naive.schedules,
        "por_schedules": reduced.schedules,
        "naive_events": naive.events_total,
        "por_events": reduced.events_total,
        "factor": (
            naive.events_total / reduced.events_total
            if reduced.events_total
            else 1.0
        ),
    }
    # Keep the strongest reduction when several targets are measured.
    if (
        report.por_measure is None
        or measure["factor"] > report.por_measure["factor"]
    ):
        report.por_measure = measure


def _resolve_targets(args):
    """Build the (name, config, specs, policies, mutant) work list."""
    policies = (
        tuple(p.strip() for p in args.policy.split(",") if p.strip())
        if args.policy is not None
        else ALL_MC_POLICIES
    )
    for name in policies:
        try:
            make_policy(name)
        except ValueError as exc:
            raise UsageError(f"--policy: {exc}") from None

    if args.mutate is not None:
        mutants = (
            list(all_mutants())
            if args.mutate == "all"
            else [_get_mutant_or_raise(args.mutate)]
        )
        targets = []
        for mutant in mutants:
            case = get_case(
                args.target if args.target else mutant.demo_workload
            )
            mutant_policies = (
                policies if args.policy is not None else (mutant.demo_policy,)
            )
            targets.append(
                (case.name, case.config, case.specs, mutant_policies, mutant)
            )
        return targets

    if args.workload is not None:
        if args.policy is None:
            raise UsageError("--workload requires --policy NAMES")
        if not args.workload.exists():
            raise UsageError(f"no such file: {args.workload}")
        from repro.config import SimulationConfig
        from repro.workload.serialization import load_workload

        specs = load_workload(args.workload)
        db_size = args.db_size
        if db_size is None:
            db_size = 1 + max(
                op.item for spec in specs for op in spec.operations
            )
        config = SimulationConfig(
            db_size=db_size,
            n_transactions=len(specs),
            disk_resident=args.disk,
        )
        return [(str(args.workload), config, specs, policies, None)]

    if args.target is None:
        raise UsageError(
            "a target is required: a bundled workload name, 'all', an "
            "experiment id, or --workload FILE (see --list-workloads)"
        )
    if args.target == "all":
        return [
            (case.name, case.config, case.specs, policies, None)
            for case in all_cases()
        ]
    try:
        case = get_case(args.target)
    except KeyError:
        return [_experiment_target(args, policies)]
    return [(case.name, case.config, case.specs, policies, None)]


def _get_mutant_or_raise(name: str):
    try:
        return get_mutant(name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None


def _experiment_target(args, policies):
    """A small prefix of a paper experiment's generated workload.

    Exhaustive exploration is exponential in transactions, so the
    checker takes the first ``--take`` arrivals of the experiment's
    first sweep cell — a bounded but real sample of its workload
    distribution and configuration (disk residency, database size).
    ``table1``/``table2`` have no sweep; they take their base cell.
    """
    from repro.experiments.config import ExperimentScale
    from repro.experiments.figures import FIGURE_SWEEPS, experiment_cells, sample_cell
    from repro.workload.generator import generate_workload

    if args.target not in FIGURE_SWEEPS:
        known = ", ".join(case.name for case in all_cases())
        raise UsageError(
            f"unknown target {args.target!r}: not a bundled workload "
            f"({known}) and not an experiment "
            f"({', '.join(sorted(FIGURE_SWEEPS))})"
        )
    scale = ExperimentScale.from_env()
    cells = experiment_cells(args.target, scale)
    config = (cells[0] if cells else sample_cell(args.target, scale)).config
    specs = tuple(generate_workload(config, args.seed)[: args.take])
    config = config.replace(n_transactions=len(specs), sanitize=False)
    return (f"{args.target}[:{args.take}]", config, specs, policies, None)


if __name__ == "__main__":
    sys.exit(mc_main())
