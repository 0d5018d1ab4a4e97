"""``repro analyze`` — the static workload analyzer's entry point.

Examples::

    repro analyze fig4a                  # prove masks + tables, predict
                                         # every sweep cell statically
    repro analyze table1 --format json
    repro analyze fig5b --no-cells       # verdicts only, skip predictions
    repro analyze --workload load.jsonl  # analyze a saved workload
    repro analyze fig4a --mutate data:0:3   # corrupt one mask bit; the
                                            # prover must exit 1
    repro analyze --list-rules

No simulation runs anywhere: every verdict comes from the declared
specs, the reference set oracle, and the paper's tree relations.  Exit
status: 0 when every verdict passes, 1 when any fails, 2 on usage
errors — the same contract as ``repro lint`` and ``repro certify``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence

from repro.analyze.equivalence import MUTATION_KINDS, MaskMutation, parse_mutation
from repro.analyze.report import render_json, render_text
from repro.analyze.runner import AnalysisResult, analyze_experiment, analyze_specs
from repro.checks.cli_core import (
    Report,
    UsageError,
    add_experiment_argument,
    add_report_arguments,
    add_scale_argument,
    check_main,
)
from repro.experiments.config import ExperimentScale


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Static workload analyzer: proves the kernel engine's flat "
            "conflict/safety tables equivalent to the reference oracle "
            "over every transaction pair and reachable access state "
            "(ANA001-004), checks static feasibility (ANA005), and "
            "computes conflict-graph metrics and per-cell contention "
            "predictions (ANA006) — all without simulating.  See "
            "docs/ANALYZE.md."
        ),
    )
    add_experiment_argument(
        parser,
        help=(
            "paper experiment to analyze (e.g. fig4a, table1); omit "
            "when analyzing a saved workload via --workload"
        ),
    )
    parser.add_argument(
        "--workload",
        type=Path,
        default=None,
        metavar="FILE",
        help="analyze a saved workload JSONL instead of an experiment",
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
    add_scale_argument(parser)
    parser.add_argument(
        "--cells",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "predict every sweep cell's feasibility and contention "
            "regime (default: on; --no-cells proves equivalence only)"
        ),
    )
    parser.add_argument(
        "--mutate",
        default=None,
        metavar="KIND:ROW:BIT",
        help=(
            "flip one bit (or one table code) of the named kernel table "
            "before proving; the prover must then fail with a "
            f"counterexample.  Kinds: {', '.join(MUTATION_KINDS)}"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="show per-verdict detail and per-cell predictions",
    )
    add_report_arguments(parser, what="analysis rule")
    return parser


def analyze_main(argv: Optional[Sequence[str]] = None) -> int:
    return check_main(build_analyze_parser(), "ANA", _analyze, argv)


def _analyze(args: argparse.Namespace) -> Report:
    mutation = None
    if args.mutate is not None:
        try:
            mutation = parse_mutation(args.mutate)
        except ValueError as exc:
            raise UsageError(f"--mutate: {exc}") from None

    if args.workload is not None:
        result = _analyze_workload_file(args, mutation)
    elif args.experiment is not None:
        result = analyze_experiment(
            args.experiment,
            ExperimentScale.named(args.scale),
            mutation=mutation,
            predict_cells=args.cells,
        )
    else:
        raise UsageError("an experiment id (or --workload FILE) is required")
    return Report(
        result.clean,
        lambda: render_text(result, verbose=args.verbose),
        lambda: render_json(result),
    )


def _analyze_workload_file(
    args: argparse.Namespace, mutation: Optional[MaskMutation]
) -> AnalysisResult:
    from repro.workload.serialization import load_workload

    if not args.workload.exists():
        raise UsageError(f"no such file: {args.workload}")
    try:
        specs = load_workload(args.workload)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.db_size is not None and args.db_size < 1:
        raise UsageError(f"--db-size must be >= 1, got {args.db_size}")
    try:
        return analyze_specs(specs, db_size=args.db_size, mutation=mutation)
    except (IndexError, ValueError) as exc:
        raise UsageError(str(exc)) from None
