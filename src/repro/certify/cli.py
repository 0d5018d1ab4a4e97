"""``repro certify`` — the offline schedule certifier's entry point.

Examples::

    repro certify fig4a                    # default sample: one cell per
                                           # policy (EDF-HP, EDF-Wait, CCA)
    repro certify fig4a --policy CCA,cca-static
    repro certify fig5b --cell 4,2,EDF-HP  # one specific cell
    repro certify table1 --format json
    repro certify --events run.jsonl --workload load.jsonl --policy EDF-HP
    repro certify --list-rules

Exit status: 0 when every certified property holds, 1 when any
violation is found, 2 on usage errors — the same contract as
``repro lint``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.certify.report import (
    render_cells_json,
    render_json,
    render_text,
)
from repro.checks.cli_core import (
    Report,
    UsageError,
    add_experiment_argument,
    add_report_arguments,
    add_scale_argument,
    check_main,
)


def build_certify_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro certify",
        description=(
            "Offline schedule certifier: replays a completed run's trace "
            "event stream and certifies serializability (CERT001), strict "
            "2PL lock discipline (CERT002-004), and pre-analysis "
            "soundness (CERT005-006).  See docs/CERTIFY.md."
        ),
    )
    add_experiment_argument(
        parser,
        help=(
            "paper experiment to certify a cell sample of (e.g. fig4a, "
            "table1); omit when certifying a saved trace via --events"
        ),
    )
    parser.add_argument(
        "--cell",
        default=None,
        metavar="X,SEED,POLICY",
        help=(
            "certify one specific sweep cell instead of the default "
            "per-policy sample (e.g. '4,2,EDF-HP'; the policy may be "
            "any policy name, not just the sweep's own)"
        ),
    )
    parser.add_argument(
        "--policy",
        default=None,
        metavar="NAMES",
        help=(
            "comma-separated policies for the default sample "
            "(default: EDF-HP,EDF-Wait,CCA), or the policy of a saved "
            "trace under --events"
        ),
    )
    add_scale_argument(parser)
    parser.add_argument(
        "--events",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "certify a saved JSONL event log (repro trace --jsonl) "
            "instead of re-simulating; requires --workload and --policy"
        ),
    )
    parser.add_argument(
        "--workload",
        type=Path,
        default=None,
        metavar="FILE",
        help="the saved workload the --events trace executed",
    )
    parser.add_argument(
        "--penalty-weight",
        type=float,
        default=1.0,
        metavar="W",
        help="penalty weight for --events mode policies (default: 1.0)",
    )
    parser.add_argument(
        "--stream",
        type=Path,
        nargs="?",
        const=Path("results") / "certify-stream",
        default=None,
        metavar="DIR",
        help=(
            "spill each cell's trace to a JSONL file under DIR while "
            "simulating and certify from the stream — bounded memory, "
            "identical verdicts (default DIR: results/certify-stream)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget for the re-simulation",
    )
    add_report_arguments(parser, what="certifier rule")
    return parser


def certify_main(argv: Optional[Sequence[str]] = None) -> int:
    return check_main(build_certify_parser(), "CERT", _certify, argv)


def _certify(args: argparse.Namespace) -> Report:
    if args.events is not None:
        return _certify_offline(args)
    if args.experiment is None:
        raise UsageError("an experiment id (or --events FILE) is required")
    return _certify_experiment(args)


def _certify_offline(args: argparse.Namespace) -> Report:
    """Certify a saved (events, workload) pair without simulating.

    The event file is consumed as a lazy stream (one record in memory
    at a time), so arbitrarily large spilled traces certify in bounded
    memory.
    """
    from repro.sim.stream import iter_jsonl
    from repro.workload.serialization import load_workload
    from repro.certify.certifier import certify_events

    if args.workload is None or args.policy is None:
        raise UsageError("--events requires --workload FILE and --policy NAME")
    for path in (args.events, args.workload):
        if not path.exists():
            raise UsageError(f"no such file: {path}")
    try:
        workload = load_workload(args.workload)
        result = certify_events(
            iter_jsonl(args.events),
            workload,
            args.policy,
            penalty_weight=args.penalty_weight,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Report(
        result.certified, lambda: render_text(result), lambda: render_json(result)
    )


def _certify_experiment(args: argparse.Namespace) -> Report:
    """Re-simulate and certify experiment cells."""
    from repro.certify.runner import DEFAULT_POLICIES, certify_cell, default_cells
    from repro.experiments.config import ExperimentScale
    from repro.experiments.figures import resolve_cell

    scale = ExperimentScale.named(args.scale)
    if args.cell is not None:
        cells = [resolve_cell(args.experiment, scale, args.cell)]
    else:
        policies = (
            [p.strip() for p in args.policy.split(",") if p.strip()]
            if args.policy is not None
            else DEFAULT_POLICIES
        )
        try:
            cells = default_cells(args.experiment, scale, policies)
        except ValueError as exc:
            raise UsageError(str(exc)) from None

    samples = [
        certify_cell(
            args.experiment,
            cell,
            max_wall_s=args.timeout,
            stream_dir=args.stream,
        )
        for cell in cells
    ]
    if args.stream is not None:
        # stderr so `--format json` output stays machine-parseable.
        print(
            f"[certify: trace streams spilled under {args.stream}]",
            file=sys.stderr,
        )

    def text() -> str:
        blocks = []
        for sample in samples:
            header = (
                f"== {args.experiment} cell x={sample.cell.x:g} "
                f"seed={sample.cell.seed} policy={sample.cell.policy} "
                f"(scale={scale.name}) =="
            )
            blocks.append(header + "\n" + render_text(sample.result))
        return "\n\n".join(blocks)

    return Report(
        all(sample.result.certified for sample in samples),
        text,
        lambda: render_cells_json(args.experiment, scale.name, samples),
    )


if __name__ == "__main__":
    sys.exit(certify_main())
