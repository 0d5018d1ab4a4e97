"""``repro lint`` — the determinism linter's command-line entry point.

Examples::

    repro lint                      # lint the installed repro package
    repro lint src/repro            # lint a source tree
    repro lint --format json        # machine-readable report
    repro lint --select DET001,DET006 path/to/file.py
    repro lint --list-rules         # print the rule catalog

Exit status: 0 when clean (suppressed findings do not count), 1 when
any finding or parse error remains, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.checks.cli_core import Report, UsageError, add_report_arguments, check_main
from repro.checks.linter import lint_paths
from repro.checks.report import render_json, render_text


def default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).parent


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static determinism linter: flags nondeterminism hazards "
            "(wall-clock reads, unseeded RNG, set-order dependence, "
            "id()-ordering, float accumulation in priority keys, "
            "environment reads) in simulation-path modules.  See "
            "docs/CHECKS.md for rule codes and suppression syntax."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to check (default: all)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also list findings silenced by # repro: allow[...]",
    )
    add_report_arguments(parser)
    return parser


def lint_main(argv: Optional[Sequence[str]] = None) -> int:
    return check_main(build_lint_parser(), "DET", _lint, argv)


def _lint(args: argparse.Namespace) -> Report:
    select = None
    if args.select is not None:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
    paths = args.paths if args.paths else [default_lint_root()]
    missing = [path for path in paths if not path.exists()]
    if missing:
        raise UsageError(f"no such path: {', '.join(map(str, missing))}")
    try:
        result = lint_paths(paths, select)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return Report(
        result.clean,
        lambda: render_text(result, verbose=args.show_suppressed),
        lambda: render_json(result),
    )


if __name__ == "__main__":
    sys.exit(lint_main())
