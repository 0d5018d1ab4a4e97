"""Command-line interface: regenerate any paper table or figure.

Examples::

    repro fig4a                    # one figure, default scale
    repro all --scale quick        # everything, CI-sized
    repro fig5c --scale full       # paper-exact seeds and sizes
    repro fig4b --csv out/         # also write out/fig4b.csv
    repro all --jobs 8             # fan sweep cells over 8 processes
    repro fig4a --no-cache         # force recomputation
    repro fig4a --cache-dir /tmp/c # cache somewhere else
    repro fig4a --report           # also write a run manifest
    repro trace fig4a              # schedule trace of one sweep cell
    repro trace fig5b --cell 4,2,EDF-HP
    repro profile fig4a            # span-profile a whole sweep; writes
                                   # a Chrome-trace JSON for Perfetto
    repro profile fig4a --cell 4,2,CCA --out trace.json
    repro lint                     # determinism-lint the repro package
    repro lint src/repro --format json
    repro certify fig4a            # certify serializability, 2PL, and
                                   # pre-analysis soundness of a sample
    repro fig4a --certify          # run + certify; verdicts also land
                                   # in the manifest under --report
    repro analyze fig4a            # prove kernel masks equivalent to the
                                   # reference oracle, statically
    repro fig4a --analyze          # run + analyze; verdicts and cell
                                   # predictions land in the manifest
    repro validate --analyze       # also compare static predictions
                                   # against observed miss rates
    repro fig4a --sanitize         # validate every event against the
                                   # paper's invariants (RTSan)
    repro mc all                   # model-check every bundled workload
                                   # under every policy (Theorems 1-2
                                   # over all interleavings)
    repro mc --mutate all          # every seeded scheduler bug must be
                                   # caught with a minimal counterexample
    repro replay results/mc/...    # re-run a counterexample bundle and
                                   # verify it reproduces bit-for-bit
    repro bench                    # time reference vs kernel engine on
                                   # fig4a cells (see repro.bench)
    repro bench --check            # gate against the committed
                                   # benchmarks/BENCH_kernel.json

Sweep cells are cached on disk (``~/.cache/repro`` or
``$REPRO_CACHE_DIR``) keyed by the full configuration, seed, policy and
schema version, so re-running a figure — at any ``--jobs`` — replays
cached simulations for free.  Parallel and cached runs produce output
identical to serial, cold runs.

``--report [DIR]`` attaches a metrics registry to the run and writes one
run manifest per experiment (config hash, seeds, cache counters,
per-cell wall-time histogram, full metric snapshot) under ``DIR``
(default ``results/runs/``).  ``repro trace`` re-simulates a single
sweep cell with a full event log attached and prints the CPU Gantt
chart, the event-kind table, and the metric summary.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import faults, parallel
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentScale
from repro.experiments.extensions import EXTENSION_CELLS, EXTENSION_EXPERIMENTS
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    FIGURE_SWEEPS,
    experiment_cells,
    resolve_cell,
    sample_cell,
)
from repro.experiments.report import render_figure, write_csv
from repro.obs.registry import MetricsRegistry
from repro.tracing import TraceCounters

#: Everything the CLI can regenerate: paper artifacts plus extensions.
ALL_RUNNABLE = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}

#: Where ``--report`` writes run manifests when given no directory.
DEFAULT_RUNS_DIR = Path("results") / "runs"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce tables/figures of 'Real-Time Transaction Scheduling: "
            "A Cost Conscious Approach' (SIGMOD 1993)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_RUNNABLE) + ["all", "validate"],
        help=(
            "experiment id (paper figure/table or ext-* extension study), "
            "'all' to run every paper artifact, or 'validate' to "
            "self-check every figure's paper shape"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help=(
            "run scale; 'full' matches the paper's seeds and run sizes "
            "(default: $REPRO_SCALE or 'default')"
        ),
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each experiment's series to DIR/<id>.csv",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run sweep cells in N worker processes; results are "
            "identical to serial runs (default: $REPRO_JOBS or 1)"
        ),
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "reuse the on-disk result cache at $REPRO_CACHE_DIR or "
            "~/.cache/repro (default: on; --no-cache recomputes)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="result-cache directory (implies --cache)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        nargs="?",
        const=DEFAULT_RUNS_DIR,
        default=None,
        metavar="DIR",
        help=(
            "write a run manifest (config hash, seeds, cache counters, "
            "wall-time histogram, metric snapshot, failures) per "
            f"experiment under DIR (default: {DEFAULT_RUNS_DIR})"
        ),
    )
    parser.add_argument(
        "--on-error",
        choices=sorted(parallel.ON_ERROR_MODES),
        default="fail",
        help=(
            "what a crashed/hung sweep cell does to the sweep: abort it "
            "(fail, default), retry the cell with backoff (retry), or "
            "drop it after retries (skip; exits nonzero if any cell was "
            "dropped); completed cells are always checkpointed to the "
            "cache, so re-running resumes where the sweep stopped"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help=(
            "attempts per cell under --on-error retry/skip (default: 3)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-cell wall-clock budget: a parallel task is abandoned "
            "after it per cell it holds, and the simulation engine's "
            "wall-clock guard "
            "terminates livelocked cells in any mode (default: none)"
        ),
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "per-cell resident-memory budget in MiB: the simulation "
            "engine polls its RSS at event granularity and aborts the "
            "cell with MemoryBudgetExceeded when it grows past the "
            "budget (default: none)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic worker faults for chaos testing, e.g. "
            "'crash=0.3,hang=0.1,seed=42' (also via $REPRO_FAULTS; see "
            "docs/ROBUSTNESS.md)"
        ),
    )
    parser.add_argument(
        "--certify",
        action="store_true",
        help=(
            "after each experiment, certify a deterministic sample of "
            "cells (one per policy: EDF-HP, EDF-Wait, CCA) with the "
            "offline schedule certifier and record the verdicts in the "
            "run manifest; exits nonzero if any cell fails "
            "certification (see docs/CERTIFY.md)"
        ),
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "after each experiment, run the static analyzer: prove the "
            "kernel's flat conflict/safety tables equivalent to the "
            "reference oracle and predict each cell's contention regime "
            "— no extra simulation; verdicts and predictions land in "
            "the run manifest under --report, and the run exits nonzero "
            "if any verdict fails (see docs/ANALYZE.md)"
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "attach the RTSan invariant sanitizer to every simulation: "
            "lock-table consistency and the paper's schedule theorems "
            "are validated after each event, aborting on the first "
            "violation (results are identical; see docs/CHECKS.md)"
        ),
    )
    return parser


def _cell_triples(figure_id: str, scale: ExperimentScale) -> list[tuple[dict, int, str]]:
    """(canonical config dict, seed, policy) per cell — manifest input.

    Paper figures list their :data:`FIGURE_SWEEPS` cells, and the
    extensions in :data:`EXTENSION_CELLS` theirs; the manifests of the
    other extensions carry no cell fingerprint.
    """
    if figure_id in FIGURE_SWEEPS:
        cells = experiment_cells(figure_id, scale)
    elif figure_id in EXTENSION_CELLS:
        cells = EXTENSION_CELLS[figure_id](scale)
    else:
        return []
    return [(cell.config.canonical_dict(), cell.seed, cell.policy) for cell in cells]


def _write_report(
    figure_id: str,
    scale: ExperimentScale,
    registry: MetricsRegistry,
    report_dir: Path,
    jobs: int,
    elapsed: float,
    failures: Sequence[parallel.CellFailure] = (),
    notes: str = "",
    certification: Optional[dict] = None,
    analysis: Optional[dict] = None,
) -> Path:
    from repro.obs.manifest import build_manifest, write_manifest

    manifest = build_manifest(
        experiment=figure_id,
        scale=scale.name,
        cells=_cell_triples(figure_id, scale),
        metrics_snapshot=registry.snapshot(),
        jobs=jobs,
        elapsed_s=elapsed,
        cache_hits=int(registry.counter("sweep.cache_hits").value),
        cache_misses=int(registry.counter("sweep.cells_run").value),
        failures=[failure.to_dict() for failure in failures],
        notes=notes,
        certification=certification,
        analysis=analysis,
    )
    return write_manifest(manifest, report_dir)


def _failure_summary(
    figure_id: str, failures: Sequence[parallel.CellFailure]
) -> str:
    """One line per troubled cell, prefixed by an aggregate count."""
    dropped = [failure for failure in failures if not failure.recovered]
    lines = [
        f"[{figure_id} failures: {len(failures)} cell(s) faulted, "
        f"{len(dropped)} dropped]"
    ]
    for failure in failures:
        x, policy, seed = failure.key
        outcome = "recovered" if failure.recovered else "DROPPED"
        progress = ""
        if failure.progress:
            parts = []
            if "events" in failure.progress:
                parts.append(f"reached {failure.progress['events']} events")
            if "committed" in failure.progress:
                parts.append(f"{failure.progress['committed']} committed")
            if "rss_bytes" in failure.progress:
                parts.append(
                    f"rss {failure.progress['rss_bytes'] / 1048576.0:.0f} MB"
                )
            if parts:
                progress = f" [{', '.join(parts)}]"
        lines.append(
            f"  cell x={x:g} policy={policy} seed={seed}: "
            f"{failure.exception} after {failure.attempts} attempt(s) "
            f"({outcome}){progress}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.checks.cli import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "certify":
        from repro.certify.cli import certify_main

        return certify_main(argv[1:])
    if argv and argv[0] == "analyze":
        from repro.analyze.cli import analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "mc":
        from repro.modelcheck.cli import mc_main

        return mc_main(argv[1:])
    if argv and argv[0] == "bench":
        from repro.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    scale = ExperimentScale.named(args.scale)

    try:
        retry = parallel.RetryPolicy(
            on_error=args.on_error,
            max_attempts=args.retries,
            timeout=args.timeout,
            memory_mb=args.memory_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    installed_faults = False
    if args.faults is not None:
        try:
            faults.install(faults.parse_spec(args.faults))
        except ValueError as exc:
            print(f"error: --faults: {exc}", file=sys.stderr)
            return 2
        installed_faults = True

    cache: Optional[ResultCache] = None
    if args.cache or args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)

    try:
        with parallel.execution(
            jobs=args.jobs,
            cache=cache,
            retry=retry,
            sanitize=args.sanitize,
        ):
            return _run_experiments(args, scale)
    finally:
        if installed_faults:
            faults.install(None)


def _run_experiments(args, scale: ExperimentScale) -> int:
    parallel.take_failures()  # drop records left over from earlier calls
    if args.experiment == "validate":
        from repro.experiments.report import render_kernel_digest
        from repro.experiments.validation import (
            render_report,
            validate_all,
            validate_extensions,
        )

        started = time.time()
        counters = TraceCounters()
        # validate always carries a registry: the kernel digest below
        # shows which engine ran and what its machinery did, whether or
        # not a manifest was requested.
        registry = MetricsRegistry()
        with parallel.execution(trace=counters, metrics=registry):
            checks = validate_all(scale) + validate_extensions(scale)
        failures = parallel.take_failures()
        print(render_report(checks))
        elapsed = time.time() - started
        print(f"[validated in {elapsed:.1f}s at scale={scale.name}]")
        if counters.count("sweep_end"):
            print(f"[validate sweeps: {counters.sweep_summary()}]")
        digest = render_kernel_digest(registry.snapshot())
        if digest:
            print(digest)
        if failures:
            print(_failure_summary("validate", failures))
        analysis_clean = True
        if getattr(args, "analyze", False):
            from repro.analyze.report import render_analysis_digest
            from repro.analyze.runner import analyze_experiment

            # One main-memory and one disk-resident miss-percent sweep:
            # the figure results above are memoized, so the comparison
            # costs only the static analysis itself.
            for figure_id in ("fig4a", "fig5b"):
                analysis = analyze_experiment(figure_id, scale)
                analysis_clean = analysis_clean and analysis.clean
                print(
                    render_analysis_digest(
                        analysis, ALL_RUNNABLE[figure_id](scale)
                    )
                )
        if args.report is not None:
            path = _write_report(
                "validate",
                scale,
                registry,
                args.report,
                jobs=parallel.resolve_jobs(args.jobs),
                elapsed=elapsed,
                failures=failures,
                notes="aggregate over every figure's and extension's validation sweeps",
            )
            print(f"wrote manifest {path}")
        dropped = any(not failure.recovered for failure in failures)
        passed = (
            all(check.passed for check in checks)
            and not dropped
            and analysis_clean
        )
        return 0 if passed else 1

    ids = (
        sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    )
    any_dropped = False
    any_uncertified = False
    any_analysis_failed = False
    want_certify = getattr(args, "certify", False)
    want_analyze = getattr(args, "analyze", False)
    for figure_id in ids:
        started = time.time()
        counters = TraceCounters()
        registry = (
            MetricsRegistry()
            if args.report is not None or want_certify
            else None
        )
        try:
            with parallel.execution(
                trace=counters,
                metrics=registry if registry is not None else parallel.UNSET,
            ):
                result = ALL_RUNNABLE[figure_id](scale)
        except parallel.SweepError as exc:
            failures = parallel.take_failures()
            print(f"error: {figure_id} aborted: {exc}", file=sys.stderr)
            if failures:
                print(_failure_summary(figure_id, failures), file=sys.stderr)
            print(
                "completed cells are checkpointed in the result cache; "
                "re-run to resume (see --on-error retry/skip)",
                file=sys.stderr,
            )
            return 1
        except KeyboardInterrupt:
            print(
                f"\ninterrupted during {figure_id}; completed cells are "
                "checkpointed in the result cache — re-run to resume",
                file=sys.stderr,
            )
            return 130
        failures = parallel.take_failures()
        print(render_figure(result))
        certification_section = None
        if want_certify:
            if figure_id in FIGURE_SWEEPS:
                from repro.certify.runner import (
                    certification_section as build_certification,
                    certify_sample,
                )
                from repro.experiments.report import render_certification

                samples = certify_sample(
                    figure_id,
                    scale,
                    registry=registry,
                    max_wall_s=args.timeout,
                )
                certification_section = build_certification(samples)
                print(render_certification(samples))
                any_uncertified = any_uncertified or any(
                    not sample.result.certified for sample in samples
                )
            else:
                print(
                    f"[certify: {figure_id} has no enumerable cells; "
                    "skipped]"
                )
        analysis_section = None
        if want_analyze:
            if figure_id in FIGURE_SWEEPS:
                from repro.analyze.report import render_analysis_digest
                from repro.analyze.runner import (
                    analysis_section as build_analysis,
                    analyze_experiment,
                )

                analysis = analyze_experiment(figure_id, scale)
                analysis_section = build_analysis(analysis)
                print(render_analysis_digest(analysis, result))
                any_analysis_failed = any_analysis_failed or not analysis.clean
            else:
                print(
                    f"[analyze: {figure_id} has no enumerable cells; "
                    "skipped]"
                )
        elapsed = time.time() - started
        print(f"[{figure_id} done in {elapsed:.1f}s at scale={scale.name}]")
        if counters.count("sweep_end"):
            print(f"[{figure_id} sweeps: {counters.sweep_summary()}]")
        if registry is not None:
            from repro.experiments.report import render_kernel_digest

            digest = render_kernel_digest(registry.snapshot())
            if digest:
                print(digest)
        if failures:
            print(_failure_summary(figure_id, failures))
            any_dropped = any_dropped or any(
                not failure.recovered for failure in failures
            )
        if args.report is not None and registry is not None:
            path = _write_report(
                figure_id,
                scale,
                registry,
                args.report,
                jobs=parallel.resolve_jobs(args.jobs),
                elapsed=elapsed,
                failures=failures,
                certification=certification_section,
                analysis=analysis_section,
            )
            print(f"wrote manifest {path}")
        print()
        if args.csv is not None:
            path = write_csv(result, args.csv)
            print(f"wrote {path}")
    # Dropped cells mean the figures above are incomplete, and an
    # uncertified schedule (or a failed equivalence proof) means the
    # numbers rest on a broken property: make the run fail loudly even
    # though each series rendered fine.
    return 1 if any_dropped or any_uncertified or any_analysis_failed else 0


def _cell_arg(args, scale: ExperimentScale):
    """The cell ``--cell`` names (default: the sweep's sample cell).

    Returns ``None`` after printing resolve_cell's usage error, with
    the sweep's axes, to stderr.
    """
    if args.cell is None:
        return sample_cell(args.experiment, scale)
    try:
        return resolve_cell(args.experiment, scale, args.cell)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# `repro trace` — re-simulate one sweep cell with full observability
# ---------------------------------------------------------------------------

def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description=(
            "Re-simulate one sweep cell of a paper experiment with an "
            "event log and metrics registry attached, then print the CPU "
            "Gantt chart, the event-kind table, and the metric summary."
        ),
    )
    traceable = sorted(
        figure_id for figure_id, specs in FIGURE_SWEEPS.items() if specs
    )
    parser.add_argument(
        "experiment",
        choices=traceable,
        help="which paper experiment's sweep to pick the cell from",
    )
    parser.add_argument(
        "--cell",
        default=None,
        metavar="X,SEED,POLICY",
        help=(
            "which cell to trace, as x-value, seed, policy "
            "(e.g. '4,2,EDF-HP'; default: the sweep's middle x, first "
            "seed, first policy)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help="run scale (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--jsonl",
        type=Path,
        default=None,
        metavar="FILE",
        help="also dump the raw event log as JSON lines to FILE",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=72,
        metavar="COLS",
        help="Gantt chart width in columns (default: 72)",
    )
    return parser


def trace_main(argv: Sequence[str]) -> int:
    from repro.core.policy import make_policy
    from repro.core.simulator import RTDBSimulator
    from repro.tracing import EventLog
    from repro.workload.generator import generate_workload

    args = build_trace_parser().parse_args(argv)
    scale = ExperimentScale.named(args.scale)
    cell = _cell_arg(args, scale)
    if cell is None:
        return 2

    log = EventLog()
    registry = MetricsRegistry()
    workload = generate_workload(cell.config, cell.seed)
    policy = make_policy(cell.policy, penalty_weight=cell.config.penalty_weight)
    started = time.time()
    result = RTDBSimulator(
        cell.config, workload, policy, trace=log, metrics=registry
    ).run()

    print(
        f"{args.experiment} cell x={cell.x:g} seed={cell.seed} "
        f"policy={cell.policy} (scale={scale.name})"
    )
    print(
        f"{len(workload)} transactions, makespan {result.makespan:.6g} ms, "
        f"miss {result.miss_percent:.1f}%, "
        f"{result.total_restarts} restarts, "
        f"CPU {result.cpu_utilization * 100:.1f}% busy"
    )
    print()
    print(log.gantt(width=args.width))
    print()
    print(log.kind_table())
    print()
    print(registry.summary())
    print(f"\n[traced {len(log)} events in {time.time() - started:.1f}s]")
    if args.jsonl is not None:
        path = log.to_jsonl(args.jsonl)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# `repro profile` — span-profile an experiment, export a Chrome trace
# ---------------------------------------------------------------------------

def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Run a paper experiment's sweep (or one cell of it) with the "
            "span profiler attached, print the wall-time attribution "
            "(pipeline stages, engine phases, kernel internals, "
            "introspection digest), and write a Chrome Trace Event "
            "Format JSON loadable in Perfetto or chrome://tracing.  "
            "Profiling never changes results; the cache is bypassed so "
            "every cell is really simulated."
        ),
    )
    profilable = sorted(
        figure_id for figure_id, specs in FIGURE_SWEEPS.items() if specs
    )
    parser.add_argument(
        "experiment",
        choices=profilable,
        help="which paper experiment's sweep to profile",
    )
    parser.add_argument(
        "--cell",
        default=None,
        metavar="X,SEED,POLICY",
        help=(
            "profile just this cell, in-process (e.g. '4,2,EDF-HP'; "
            "default: the whole sweep through the parallel executor)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help="run scale (default: $REPRO_SCALE or 'default')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for whole-sweep profiling; the trace gets "
            "one track per worker (default: $REPRO_JOBS or 1)"
        ),
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "Chrome-trace JSON path "
            "(default: results/trace-<experiment>.json)"
        ),
    )
    return parser


def profile_main(argv: Sequence[str]) -> int:
    from repro.experiments.report import render_kernel_digest
    from repro.obs.prof import SpanProfiler, timing_section, validate_chrome_trace

    args = build_profile_parser().parse_args(argv)
    scale = ExperimentScale.named(args.scale)
    prof = SpanProfiler()
    registry = MetricsRegistry()
    started = time.time()

    if args.cell is not None:
        cell = _cell_arg(args, scale)
        if cell is None:
            return 2
        options = parallel.CellOptions(observe=True, profile=True)
        outcome = parallel.run_cell(
            cell.config, cell.seed, (cell.policy,), options
        )[0].checked()
        registry.merge_snapshot(outcome.deltas)
        prof.extend(outcome.prof_state)
        print(
            f"{args.experiment} cell x={cell.x:g} seed={cell.seed} "
            f"policy={cell.policy} (scale={scale.name}): "
            f"miss {outcome.result.miss_percent:.1f}%, "
            f"wall {outcome.wall_ms:.1f} ms"
        )
    else:
        # Bypass the result cache: a cache hit records no timing, and a
        # profile of replayed results would be an empty lie.
        with parallel.execution(cache=None):
            results = parallel.execute_cells(
                experiment_cells(args.experiment, scale),
                jobs=args.jobs,
                metrics=registry,
                profile=prof,
            )
        stats = parallel.last_stats()
        print(
            f"{args.experiment} scale={scale.name}: {len(results)} cells "
            f"in {stats.elapsed:.1f}s "
            f"({stats.sims_per_sec:.1f} sims/s, jobs={stats.jobs})"
        )

    snapshot = registry.snapshot()
    timing = timing_section(snapshot)
    if timing["enabled"]:
        print("\nstage timing (wall clock, merged across workers):")
        for stage, data in sorted(timing["stages"].items()):
            print(
                f"  {stage:<14s} count={data['count']:<6d} "
                f"total={data['total_ms']:>10.2f} ms  "
                f"mean={data['mean_ms']:>8.3f} ms  "
                f"p95={data['p95_ms']:>8.3f} ms"
            )
    aggregates = prof.aggregate_summary()
    if aggregates:
        print("\naggregate timers (engine/kernel internals):")
        for name, data in aggregates.items():
            print(
                f"  {name:<28s} total={data['total_ms']:>10.2f} ms  "
                f"calls={data['calls']:<9d} mean={data['mean_us']:>8.2f} us"
            )
    digest = render_kernel_digest(snapshot)
    if digest:
        print()
        print(digest)

    out = (
        args.out
        if args.out is not None
        else Path("results") / f"trace-{args.experiment}.json"
    )
    doc = prof.chrome_trace(
        extra={"experiment": args.experiment, "scale": scale.name}
    )
    problems = validate_chrome_trace(doc)
    if problems:
        for problem in problems:
            print(f"error: invalid trace: {problem}", file=sys.stderr)
        return 1
    path = prof.write_chrome_trace(
        out, extra={"experiment": args.experiment, "scale": scale.name}
    )
    print(
        f"\nwrote {path} ({len(doc['traceEvents'])} events; load in "
        "Perfetto or chrome://tracing)"
    )
    print(f"[profiled in {time.time() - started:.1f}s]")
    return 0


# ---------------------------------------------------------------------------
# `repro replay` — reproduce a model-check counterexample bit-for-bit
# ---------------------------------------------------------------------------

def build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Replay a model-check counterexample bundle (written by "
            "repro mc) bit-for-bit: re-run the recorded choice vector "
            "through the controlled engine and verify the same rule "
            "fires with an identical trace digest.  Exit 0 when it "
            "matches, 1 when it does not (the defect is fixed, or "
            "drifted), 2 on a bad or non-model-check bundle."
        ),
    )
    parser.add_argument(
        "bundle",
        type=Path,
        help=(
            "a model-check counterexample directory (or its bundle.json), "
            "e.g. under results/mc/"
        ),
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    return parser


def replay_main(argv: Sequence[str]) -> int:
    import json

    from repro.modelcheck.bundle import replay_mc_bundle
    from repro.modelcheck.decider import ReplayDivergence

    args = build_replay_parser().parse_args(argv)
    try:
        report = replay_mc_bundle(args.bundle)
    except (OSError, ValueError, KeyError, ReplayDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["matched"] else 1
    mutant = f" mutant={report['mutant']}" if report["mutant"] else ""
    schedule = ",".join(str(c) for c in report["choices"]) or "<default>"
    print(
        f"bundle {args.bundle}: model-check counterexample, "
        f"policy={report['policy']}{mutant} schedule=[{schedule}]"
    )
    expected = report["expected"]
    print(
        f"recorded violation: {expected['rule']} (via "
        f"{expected['source']}) at t={expected['time']:g}: "
        f"{expected['message']}"
    )
    if report["matched"]:
        print(
            f"REPRODUCED: {report['actual']['rule']} — rule, source, "
            "and full trace digest all match the bundle"
        )
        return 0
    actual = report["actual"]
    print("NOT REPRODUCED:")
    print(f"  expected: {expected['rule']} via {expected['source']}")
    if actual is None:
        print("  actual:   clean run (no violation)")
    else:
        print(f"  actual:   {actual['rule']} via {actual['source']}")
    if not report["trace_matched"]:
        print(
            f"  trace digests differ ({report['expected_digest'][:12]} "
            f"vs {report['actual_digest'][:12]})"
        )
    return 1


if __name__ == "__main__":
    sys.exit(main())
