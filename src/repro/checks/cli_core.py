"""The check-CLI core: the contract every check CLI follows.

``repro lint``, ``repro certify``, ``repro analyze`` and ``repro mc``
all expose the same surface: a ``--format text|json`` switch, a
``--list-rules`` catalog, a versioned JSON envelope, a broken-pipe-safe
report printer, and the 0/1/2 exit mapping (clean / findings / usage
error).  :func:`check_main` is that surface in one place: each CLI
supplies its parser and a ``run(args)`` that returns a :class:`Report`
or raises :class:`UsageError`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.checks.rules import Rule, all_rules

#: The three-way exit contract shared by every check CLI.
EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE = 0, 1, 2


class UsageError(ValueError):
    """A bad argument or combination of arguments.

    :func:`check_main` prints it as ``error: ...`` on stderr and exits
    with :data:`EXIT_USAGE`.
    """


@dataclasses.dataclass(frozen=True)
class Report:
    """What one check run concluded, and its two renderings."""

    clean: bool
    text: Callable[[], str]
    json: Callable[[], str]


def print_report(text: str) -> None:
    """Print a report, tolerating a closed downstream pipe.

    When a pager or ``head`` closes the pipe early the exit status still
    carries the verdict, so the report body is best-effort.
    """
    try:
        print(text)
    except BrokenPipeError:
        sys.stderr.close()


def json_envelope(kind: str, schema: int, payload: Mapping[str, Any]) -> str:
    """Serialize a payload inside the self-identifying JSON envelope.

    Every check CLI's machine output leads with ``kind`` (the document
    type) and ``schema`` (its pinned version) so consumers can dispatch
    and refuse layouts they do not understand.
    """
    document = {"kind": kind, "schema": schema, **payload}
    return json.dumps(document, indent=2, sort_keys=True)


def render_catalog(rules: Iterable[Rule]) -> str:
    """The ``--list-rules`` catalog: code, name, summary per rule.

    Rules that carry a ``scope`` (the lint rules) get it shown inline.
    """
    lines = []
    for rule in rules:
        tag = f" [{rule.scope.value}]" if rule.scope is not None else ""
        lines.append(f"{rule.code}  {rule.name:<26}{tag}\n        {rule.summary}")
    return "\n".join(lines)


def add_experiment_argument(parser: argparse.ArgumentParser, help: str) -> None:
    """The optional ``experiment`` positional (a paper experiment id)."""
    parser.add_argument("experiment", nargs="?", default=None, help=help)


def add_scale_argument(parser: argparse.ArgumentParser) -> None:
    """``--scale``, resolved by ``ExperimentScale.named``."""
    parser.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help="run scale (default: $REPRO_SCALE or 'default')",
    )


def add_report_arguments(parser: argparse.ArgumentParser, what: str = "rule") -> None:
    """``--format`` and ``--list-rules``, the flags :func:`check_main` reads."""
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help=f"print the {what} catalog and exit",
    )


def check_main(
    parser: argparse.ArgumentParser,
    prefix: str,
    run: Callable[[argparse.Namespace], Report],
    argv: Optional[Sequence[str]] = None,
) -> int:
    """Run one check CLI and return its exit code.

    Parse ``argv``; with ``--list-rules`` print the catalog of the
    rules coded ``prefix...``; otherwise ``run`` the check, print its
    report in the requested format, and map the verdict onto the exit
    contract.  A :class:`UsageError` from ``run`` becomes ``error: ...``
    on stderr and :data:`EXIT_USAGE`.
    """
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        print_report(render_catalog(all_rules(prefix)))
        return EXIT_CLEAN
    try:
        report = run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print_report(report.json() if args.format == "json" else report.text())
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS
