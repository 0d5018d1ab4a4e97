"""Parallel, fault-tolerant execution of sweep cells with deterministic
merging.

A *cell* is the atomic unit of every paper experiment: simulate one
configuration for one seed under one policy.  The unit of *work* is a
workload: :func:`run_cell`, the one cell function, generates the
``(config, seed)`` workload once and replays it under each of its
labels — the paper's paired comparison — and every cell's result is a
pure function of ``(config, seed, policy)`` wherever it runs.

:func:`execute_cells` consults an optional
:class:`~repro.experiments.cache.ResultCache` per cell first, then runs
one task per ``(config, seed)`` over its uncached cells, fanned out
over a ``ProcessPoolExecutor`` (``jobs`` workers), and merges results
**ordered by cell key, never by completion order** — so for the same
seeds, ``jobs=N`` output is identical to serial output, and the trace
event stream is deterministic too.  The parity tests in
``tests/experiments/test_parallel.py`` hold this as an invariant.

The executor returns each cell's :class:`~repro.metrics.summary.RunStats`,
not its :class:`SimulationResult`: a computed cell's full result, with
one record per committed transaction, is validated and stored in the
cache as its task's outcomes arrive, then dropped, and a cache hit is
reduced to its stats at lookup.  Per-transaction records live only in
engine results (what :func:`run_cell` and :func:`simulate_cell`
return) and cache entries, so a sweep's memory does not grow with the
transactions it simulates.

Failure isolation (see docs/ROBUSTNESS.md) stays per cell: a cell's
exception becomes a structured :class:`CellFailure` of that cell alone
instead of aborting the sweep or its task.  The
:class:`RetryPolicy` chooses what happens next — ``fail`` (abort with a
:class:`SweepError`, completed cells already flushed to the cache),
``retry`` (bounded re-attempts with exponential backoff), or ``skip``
(drop the cell after its attempts are exhausted, identically at any
``jobs``).  Per-cell timeouts, worker payload validation, automatic
pool rebuilds on ``BrokenProcessPool`` (degrading to serial execution
when the pool keeps breaking), and incremental checkpointing — each
completed cell is flushed to the cache as its task's outcomes arrive,
even if the sweep is later interrupted — make long sweeps restartable:
re-run the same command and only missing cells are recomputed.

Module-level *execution defaults* (:func:`configure` / the
:func:`execution` context manager) let entry points like the CLI choose
``jobs``/``cache``/``trace``/``retry`` once without threading
parameters through every figure function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import re
import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import SimulationResult
from repro.experiments import faults
from repro.experiments.cache import ResultCache, cache_key
from repro.metrics.summary import RunStats
from repro.obs.registry import MetricsRegistry
from repro.occ.simulator import OCCSimulator
from repro.rtdb.transaction import TransactionSpec
from repro.workload.generator import generate_workload

# Imported where they are used: the process pool by the first sweep that
# builds one, the multiprocessor engine and the profiler by the cells
# that ask for them.  A ``jobs=1`` sweep loads none of them.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from repro.mp.simulator import MultiprocessorSimulator
    from repro.obs.prof import SpanProfiler

TraceHook = Callable[..., None]
"""``callable(event_name, **fields)`` — same shape as simulator trace
hooks; :class:`repro.tracing.EventLog` and
:class:`repro.tracing.TraceCounters` both qualify."""

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

CellKey = tuple[float, str, int]
"""(x value, policy name, seed) — the deterministic merge order."""


@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One simulation to run: a config at axis point ``x`` for one
    ``(policy, seed)`` pair."""

    x: float
    policy: str
    seed: int
    config: SimulationConfig

    @property
    def key(self) -> CellKey:
        return (self.x, self.policy, self.seed)


# ---------------------------------------------------------------------------
# Failure handling vocabulary
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CellFailure:
    """One cell's failure record: worst case across all its attempts."""

    key: CellKey
    attempts: int
    """How many attempts had been made when the last failure occurred."""
    exception: str
    """Exception class name of the most recent failure."""
    message: str
    recovered: bool = False
    """``True`` if a later attempt of the same cell succeeded."""
    progress: Optional[dict] = None
    """Partial-progress snapshot for budget aborts (events fired,
    committed/live counts, sim time) — how far the cell got before the
    wall-clock/event/memory budget tripped."""

    def to_dict(self) -> dict:
        """JSON-ready form, as embedded in run manifests."""
        x, policy, seed = self.key
        record = {
            "cell": {"x": x, "policy": policy, "seed": seed},
            "attempts": self.attempts,
            "exception": self.exception,
            "message": self.message,
            "recovered": self.recovered,
        }
        if self.progress:
            record["progress"] = dict(self.progress)
        return record


class SweepError(RuntimeError):
    """A sweep aborted on unrecoverable cell failures.

    ``failures`` holds the :class:`CellFailure` records that caused the
    abort; completed cells were already flushed to the result cache, so
    re-running the sweep resumes from the checkpoint.
    """

    def __init__(self, failures: Sequence[CellFailure]) -> None:
        self.failures = list(failures)
        first = self.failures[0] if self.failures else None
        detail = (
            f"; first: cell {first.key} after {first.attempts} attempt(s): "
            f"{first.exception}: {first.message}"
            if first is not None
            else ""
        )
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed{detail}"
        )


class CellTimeoutError(RuntimeError):
    """A cell exceeded the per-cell wall-clock timeout."""


class CorruptResultError(RuntimeError):
    """A worker returned a payload that is not a valid cell result."""


#: What each ``on_error`` mode does once a cell exhausts its attempts.
ON_ERROR_MODES = ("fail", "retry", "skip")


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How :func:`execute_cells` reacts to cell failures.

    ``fail``
        No retries; the first failure aborts the sweep with a
        :class:`SweepError` (the default — bit-compatible with the old
        behaviour, minus losing completed work).
    ``retry``
        Re-attempt failed cells up to ``max_attempts`` times with
        exponential backoff; abort with :class:`SweepError` only when a
        cell exhausts its attempts.
    ``skip``
        Like ``retry``, but exhausted cells are dropped from the result
        mapping instead of aborting.  Dropped cells are excluded
        identically at any ``jobs`` count (the failure schedule is
        process-independent), preserving the parallel == serial parity
        invariant over the surviving cells.

    ``timeout`` bounds each cell's wall clock twice over: the parent
    waits at most ``timeout`` seconds per cell of a pool task, and
    workers run each cell's engine with ``max_wall_s=timeout`` so a
    livelocked cell kills itself even in serial mode.  ``memory_mb``
    bounds each worker's resident memory via the engine's in-process guard
    (:class:`~repro.sim.engine.MemoryBudgetExceeded`) — a cell that
    would OOM fails with a partial-progress record instead of taking
    its process down.
    """

    on_error: str = "fail"
    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    timeout: Optional[float] = None
    memory_mb: Optional[float] = None
    max_pool_rebuilds: int = 2
    """Pool breakages tolerated before degrading to serial execution."""

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, got {self.on_error!r}"
            )
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.memory_mb is not None and self.memory_mb <= 0:
            raise ValueError(f"memory_mb must be > 0, got {self.memory_mb}")

    @property
    def attempts_per_cell(self) -> int:
        """Effective attempt budget (``fail`` never retries)."""
        return 1 if self.on_error == "fail" else self.max_attempts

    def backoff(self, round_index: int) -> float:
        """Sleep before retry round ``round_index`` (1-based)."""
        return min(
            self.backoff_max_s,
            self.backoff_s * self.backoff_factor ** (round_index - 1),
        )


@dataclasses.dataclass
class SweepStats:
    """Counters for one :func:`execute_cells` call."""

    cells_total: int = 0
    cells_run: int = 0
    """Cells actually simulated (cache misses)."""
    cache_hits: int = 0
    elapsed: float = 0.0
    jobs: int = 1
    failed_attempts: int = 0
    """Worker attempts that ended in an exception/timeout/corruption."""
    retries: int = 0
    """Re-submissions after a failed attempt."""
    timeouts: int = 0
    pool_rebuilds: int = 0
    """Times the process pool was torn down after a timeout/breakage."""
    cells_skipped: int = 0
    """Cells dropped after exhausting attempts (``on_error=skip``)."""
    cache_put_errors: int = 0
    failures: list[CellFailure] = dataclasses.field(default_factory=list)
    """Per-cell failure records (recovered and terminal), in key order."""

    @property
    def sims_per_sec(self) -> float:
        """Simulator throughput (computed cells only; 0 if none ran)."""
        if self.cells_run == 0 or self.elapsed <= 0:
            return 0.0
        return self.cells_run / self.elapsed


# ---------------------------------------------------------------------------
# Cell engines: the policy label picks what runs
# ---------------------------------------------------------------------------

#: ``"<policy>x<n>"`` — the name MultiprocessorSimulator gives its results.
_MP_LABEL = re.compile(r"(?P<policy>.+)x(?P<cpus>[1-9][0-9]*)")

Workload = Sequence[TransactionSpec]


def _build_locking(
    config: SimulationConfig, workload: Workload, label: str, **options
):
    policy = make_policy(label, penalty_weight=config.penalty_weight)
    return make_simulator(config, workload, policy, **options)


def _build_occ(
    config: SimulationConfig,
    workload: Workload,
    label: str,
    *,
    trace: Optional[TraceHook] = None,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> OCCSimulator:
    return OCCSimulator(
        config, workload, make_policy("EDF-HP"),
        trace=trace, max_wall_s=max_wall_s, max_memory_mb=max_memory_mb,
    )


def _build_mp(
    config: SimulationConfig,
    workload: Workload,
    label: str,
    *,
    trace: Optional[TraceHook] = None,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> MultiprocessorSimulator:
    from repro.mp.simulator import MultiprocessorSimulator

    match = _MP_LABEL.fullmatch(label)
    assert match is not None, label
    policy = make_policy(match["policy"], penalty_weight=config.penalty_weight)
    return MultiprocessorSimulator(
        config, workload, policy, n_cpus=int(match["cpus"]),
        trace=trace, max_wall_s=max_wall_s, max_memory_mb=max_memory_mb,
    )


@dataclasses.dataclass(frozen=True)
class CellEngine:
    """The engine family a cell's policy label selects.

    ``build(config, workload, label, **options)`` returns a simulator
    whose ``run()`` yields a result named ``result_name(label)``.  Every
    family takes ``trace``, ``max_wall_s`` and ``max_memory_mb``; only
    ``locking`` (:func:`~repro.core.factory.make_simulator`, so
    ``engine="auto"`` picks the kernel) also takes a metrics registry, a
    profiler and kernel introspection.
    """

    family: str
    build: Callable[..., Any]
    result_name: Callable[[str], str]

    @property
    def locking(self) -> bool:
        return self.family == "locking"


#: label matcher -> engine, first match wins.  ``"OCC"`` is
#: broadcast-commit OCC over EDF-HP, ``"CCAx2"`` CCA on two CPUs, and
#: anything else a locking policy name (``EDF-HP``, ``CCA``, ...).
CELL_ENGINES: tuple[tuple[Callable[[str], object], CellEngine], ...] = (
    (lambda label: label == "OCC", CellEngine("occ", _build_occ, lambda _: "OCC-EDF-HP")),
    (_MP_LABEL.fullmatch, CellEngine("mp", _build_mp, str)),
    (lambda label: True, CellEngine("locking", _build_locking, str)),
)


def cell_engine(label: str) -> CellEngine:
    """The :class:`CellEngine` a cell's policy label selects."""
    return next(engine for matches, engine in CELL_ENGINES if matches(label))


@dataclasses.dataclass(frozen=True)
class CellOptions:
    """What :func:`run_cell` attaches to each label's engine.

    ``max_wall_s``/``max_memory_mb`` are each engine run's budgets.
    ``trace`` is a trace sink (an :class:`~repro.tracing.EventLog`, a
    :class:`~repro.sim.stream.JsonlSink`, ...) for in-process, one-label
    calls; it is closed once the call returns, so a spilled stream is
    complete.  ``observe`` gives each label a private metrics registry
    (kernel introspection, stage timings) and ``profile`` a span
    profiler, both shipped back in the outcome.
    """

    max_wall_s: Optional[float] = None
    max_memory_mb: Optional[float] = None
    trace: Optional[TraceHook] = None
    observe: bool = False
    profile: bool = False


@dataclasses.dataclass
class CellOutcome:
    """One label's outcome of a :func:`run_cell` call.

    ``result`` is the :class:`SimulationResult` (or the payload an
    injected ``corrupt`` fault puts in its place; once the executor has
    filed a valid outcome, its :class:`RunStats`), ``error`` what the
    label raised instead.  ``wall_ms`` times the engine build and run
    (plus the workload generation, for the label that records it).
    ``deltas`` is the label's registry snapshot (``observe``),
    ``prof_state`` its :meth:`SpanProfiler.export_state` (``profile``),
    and ``workload`` the specs a traced label ran on.
    """

    result: Any = None
    error: Optional[BaseException] = None
    wall_ms: float = 0.0
    deltas: Optional[dict] = None
    prof_state: Optional[dict] = None
    workload: Optional[Workload] = None

    def checked(self) -> "CellOutcome":
        """This outcome, or the label's error raised."""
        if self.error is not None:
            raise self.error
        return self


def run_cell(
    config: SimulationConfig,
    seed: int,
    labels: Sequence[str],
    options: CellOptions = CellOptions(),
    attempts: Optional[Sequence[int]] = None,
) -> list[CellOutcome]:
    """Generate the ``(config, seed)`` workload once and run each label on it.

    The one cell function: sweep tasks (one per ``(config, seed)``),
    :func:`simulate_cell`, the certifier and ``repro profile --cell``
    all run through it.  Deterministic in its arguments — the workload
    is generated from ``(config, seed)`` and the engines draw no further
    randomness — so a label's result is the same in any process and in
    any company; one workload replayed under several policies is the
    paper's paired comparison.  Each label picks its engine
    (:func:`cell_engine`); consecutive kernels share the workload's
    tables.

    Returns one :class:`CellOutcome` per label, in order.  A label's
    exception is caught into its outcome and never stops the others; a
    ``KeyboardInterrupt`` is caught too but ends the call, as the last
    outcome.  Observed and profiled calls record the workload generation
    once, with the first label.  ``attempts`` (the executor's attempt
    number per label) turns on the active fault plan
    (:mod:`repro.experiments.faults`): each label's scheduled fault
    fires just before it runs.
    """
    if options.trace is not None and len(labels) != 1:
        raise ValueError("a trace sink records exactly one label")
    outcomes: list[CellOutcome] = []
    try:
        started = time.perf_counter()
        try:
            # Looked up at call time: instrumentation may rebind the name.
            workload = generate_workload(config, seed)
        except Exception as exc:
            return [CellOutcome(error=exc) for _ in labels]
        generated: Optional[tuple[float, float]] = (started, time.perf_counter())
        plan = faults.active_plan() if attempts is not None else None
        for index, label in enumerate(labels):
            attempt = attempts[index] if attempts is not None else None
            try:
                outcome = _run_label(
                    config, seed, label, workload, options, plan, attempt, generated
                )
            except Exception as exc:
                outcome = CellOutcome(error=exc)
            except KeyboardInterrupt as exc:
                outcomes.append(CellOutcome(error=exc))
                break
            outcomes.append(outcome)
            generated = None
        if options.trace is not None and outcomes[0].error is None:
            outcomes[0].workload = workload
        return outcomes
    finally:
        close = getattr(options.trace, "close", None)
        if close is not None:
            close()


def _run_label(
    config: SimulationConfig,
    seed: int,
    label: str,
    workload: Workload,
    options: CellOptions,
    plan: Optional[faults.FaultPlan],
    attempt: Optional[int],
    generated: Optional[tuple[float, float]],
) -> CellOutcome:
    """One label of :func:`run_cell`: its scheduled fault, then the run.

    An engine's exception (the kernel's included) propagates, and the
    executor records it as this cell's :class:`CellFailure`.
    """
    if plan is not None:
        injected = faults.maybe_inject(cache_key(config, seed, label), attempt)
        if injected is not None:
            return CellOutcome(result=injected)  # CORRUPT_PAYLOAD, for validation
    return _simulate_label(config, seed, label, workload, options, generated)


def _simulate_label(
    config: SimulationConfig,
    seed: int,
    label: str,
    workload: Workload,
    options: CellOptions,
    generated: Optional[tuple[float, float]],
) -> CellOutcome:
    """Build and run one label's engine on ``workload``, observed as
    ``options`` asks: the engine that actually ran is tallied under
    ``sweep.engine{engine=...}``, and the ``build`` and ``event_loop``
    stages (plus ``workload_gen``, when ``generated`` holds its
    interval) are timed.  Only locking engines take the registry (with
    ``kernel.*`` introspection) and the profiler."""
    engine = cell_engine(label)
    registry = MetricsRegistry() if options.observe else None
    prof = None
    if options.profile:
        from repro.obs.prof import SpanProfiler

        prof = SpanProfiler()
    kwargs: dict = {
        "trace": options.trace,
        "max_wall_s": options.max_wall_s,
        "max_memory_mb": options.max_memory_mb,
    }
    if engine.locking and (registry is not None or prof is not None):
        kwargs.update(metrics=registry, profile=prof, introspect=True)
    started = time.perf_counter()
    simulator = engine.build(config, workload, label, **kwargs)
    built = time.perf_counter()
    result = simulator.run()
    finished = time.perf_counter()
    first = generated[0] if generated is not None else started
    outcome = CellOutcome(result=result, wall_ms=(finished - first) * 1000.0)
    if registry is None and prof is None:
        return outcome
    from repro.obs.prof import observe_stage

    ran = engine.family
    if engine.locking:
        ran = "kernel" if isinstance(simulator, KernelSimulator) else "reference"
    if registry is not None:
        if generated is not None:
            observe_stage(registry, "workload_gen", (generated[1] - generated[0]) * 1000.0)
        observe_stage(registry, "build", (built - started) * 1000.0)
        observe_stage(registry, "event_loop", (finished - built) * 1000.0)
        registry.counter("sweep.engine", engine=ran).inc()
        outcome.deltas = registry.snapshot()
    if prof is not None:
        if generated is not None:
            prof.add_span("cell.workload_gen", "stage", *generated, {"n": len(workload)})
        cell_args = {"policy": label, "seed": seed, "engine": ran}
        prof.add_span("cell.build", "stage", started, built, cell_args)
        prof.add_span("cell.event_loop", "stage", built, finished, cell_args)
        outcome.prof_state = prof.export_state()
    return outcome


def simulate_cell(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> SimulationResult:
    """One cell's result: :func:`run_cell` for a single label.

    ``policy_name`` is the cell label, which picks the engine
    (:func:`cell_engine`); ``max_wall_s``/``max_memory_mb`` bound the
    engine run (:class:`CellOptions`).  Raises what the cell raised.
    """
    options = CellOptions(max_wall_s=max_wall_s, max_memory_mb=max_memory_mb)
    return run_cell(config, seed, (policy_name,), options)[0].checked().result


def _validate_outcome(cell: SweepCell, outcome) -> None:
    """Raise a cell's error, or reject a corrupt payload (wrong shape,
    wrong cell) with :class:`CorruptResultError`; the retry machinery
    treats both like any other per-cell failure."""
    result = outcome.checked().result if isinstance(outcome, CellOutcome) else outcome
    if not isinstance(outcome, CellOutcome) or not isinstance(result, SimulationResult):
        raise CorruptResultError(
            f"cell {cell.key}: payload is {type(result).__name__}, "
            f"not a SimulationResult"
        )
    expected = cell_engine(cell.policy).result_name(cell.policy)
    if result.policy_name != expected:
        raise CorruptResultError(
            f"cell {cell.key}: result claims policy "
            f"{result.policy_name!r}, expected {expected!r}"
        )


# ---------------------------------------------------------------------------
# Execution defaults (entry points set once; sweeps inherit)
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ExecutionDefaults:
    """What ``jobs=None`` / ``cache=None`` / ``trace=None`` /
    ``metrics=None`` / ``retry=None`` resolve to."""

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    trace: Optional[TraceHook] = None
    metrics: Optional[MetricsRegistry] = None
    retry: Optional[RetryPolicy] = None
    sanitize: bool = False
    """Run every cell with the RTSan invariant sanitizer attached
    (``config.sanitize=True``); results are identical, but cells are
    addressed separately in the cache so a sanitized pass really
    re-validates every simulation."""
    profile: Optional[SpanProfiler] = None
    """Span profiler the sweep records into: workers run profiled and
    ship their recordings back; the parent folds them in (cell-key
    order) together with its own sweep-stage spans.  Results are
    bit-identical with or without it."""


_DEFAULTS = ExecutionDefaults()

UNSET = object()
"""Sentinel distinguishing 'not passed' from an explicit ``None`` (which
means *disable* for ``cache``/``trace``/``metrics``)."""


def configure(
    jobs: object = UNSET,
    cache: object = UNSET,
    trace: object = UNSET,
    metrics: object = UNSET,
    retry: object = UNSET,
    sanitize: object = UNSET,
    profile: object = UNSET,
) -> None:
    """Set process-wide execution defaults (omitted fields keep theirs)."""
    if jobs is not UNSET:
        _DEFAULTS.jobs = jobs  # type: ignore[assignment]
    if cache is not UNSET:
        _DEFAULTS.cache = cache  # type: ignore[assignment]
    if trace is not UNSET:
        _DEFAULTS.trace = trace  # type: ignore[assignment]
    if metrics is not UNSET:
        _DEFAULTS.metrics = metrics  # type: ignore[assignment]
    if retry is not UNSET:
        _DEFAULTS.retry = retry  # type: ignore[assignment]
    if sanitize is not UNSET:
        _DEFAULTS.sanitize = sanitize  # type: ignore[assignment]
    if profile is not UNSET:
        _DEFAULTS.profile = profile  # type: ignore[assignment]


@contextlib.contextmanager
def execution(
    jobs: object = UNSET,
    cache: object = UNSET,
    trace: object = UNSET,
    metrics: object = UNSET,
    retry: object = UNSET,
    sanitize: object = UNSET,
    profile: object = UNSET,
) -> Iterator[None]:
    """Temporarily override execution defaults (nestable).

    Fields not passed inherit the surrounding defaults, so e.g. the CLI
    can set ``jobs``/``cache``/``retry`` once and swap only
    ``trace``/``metrics`` per figure.
    """
    saved = dataclasses.replace(_DEFAULTS)
    try:
        configure(
            jobs=jobs,
            cache=cache,
            trace=trace,
            metrics=metrics,
            retry=retry,
            sanitize=sanitize,
            profile=profile,
        )
        yield
    finally:
        configure(
            jobs=saved.jobs,
            cache=saved.cache,
            trace=saved.trace,
            metrics=saved.metrics,
            retry=saved.retry,
            sanitize=saved.sanitize,
            profile=saved.profile,
        )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: explicit arg > configured default >
    ``$REPRO_JOBS`` > 1."""
    if jobs is None:
        jobs = _DEFAULTS.jobs
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_cache(cache: Optional[ResultCache]) -> Optional[ResultCache]:
    return cache if cache is not None else _DEFAULTS.cache


def resolve_trace(trace: Optional[TraceHook]) -> Optional[TraceHook]:
    return trace if trace is not None else _DEFAULTS.trace


def resolve_metrics(metrics: Optional[MetricsRegistry]) -> Optional[MetricsRegistry]:
    return metrics if metrics is not None else _DEFAULTS.metrics


def resolve_retry(retry: Optional[RetryPolicy]) -> RetryPolicy:
    if retry is not None:
        return retry
    if _DEFAULTS.retry is not None:
        return _DEFAULTS.retry
    return RetryPolicy()


def resolve_sanitize() -> bool:
    return _DEFAULTS.sanitize


def resolve_profile(profile: Optional[SpanProfiler]) -> Optional[SpanProfiler]:
    return profile if profile is not None else _DEFAULTS.profile


_LAST_STATS = SweepStats()

_SESSION_FAILURES: list[CellFailure] = []


def last_stats() -> SweepStats:
    """Counters of the most recent :func:`execute_cells` call."""
    return _LAST_STATS


def take_failures() -> list[CellFailure]:
    """Drain the failure records accumulated since the last call.

    Entry points (the CLI's ``--report``) call this once per experiment
    to collect failures across all the sweeps the experiment ran.
    """
    global _SESSION_FAILURES
    drained, _SESSION_FAILURES = _SESSION_FAILURES, []
    return drained


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

#: A cell of a timed-out group, to run alone next round (uncharged).
_SPLIT = object()


class _SweepRunner:
    """Round-based execution of one sweep's pending (uncached) cells.

    Each round groups the unresolved cells by workload — ``(config,
    seed)`` — and runs one task per group: :func:`run_cell` over the
    group's labels, in a process pool or in-process.  The runner walks
    the round's cells in cell-key order, waiting for (or, serially,
    running) a cell's task when it first needs it.  It files the task's
    outcomes by cell as they arrive — each valid cell is stored in the
    cache then and keeps only its :class:`RunStats` — and merges each
    cell on its own: successes *in cell-key order*, failures recorded
    per cell.  Cells with attempts left go to the next round (after
    backoff), regrouped.  Grouping, merge order, the surviving-cell set,
    and the retry schedule are the same at any ``jobs`` count.  So the
    parent holds the records of the task it is filing and, pooled, of
    tasks that finished ahead of their turn, never of a filed task.

    The parent waits ``timeout`` per cell of a task.  It cannot see
    inside a task that overran that, so a timed-out task of several
    cells is split without charging them: each of its cells runs alone
    in the next round at the same attempt, where a timeout is the
    cell's own.
    """

    def __init__(
        self,
        pending: Sequence[SweepCell],
        jobs: int,
        cache: Optional[ResultCache],
        trace: Optional[TraceHook],
        metrics: Optional[MetricsRegistry],
        retry: RetryPolicy,
        stats: SweepStats,
        profile: Optional[SpanProfiler] = None,
        keys: Optional[Mapping[CellKey, str]] = None,
    ) -> None:
        self.pending = list(pending)
        self.jobs = jobs
        self.cache = cache
        self.trace = trace
        self.metrics = metrics
        self.retry = retry
        self.stats = stats
        self.profile = profile
        self.options = CellOptions(
            max_wall_s=retry.timeout,
            max_memory_mb=retry.memory_mb,
            observe=metrics is not None,
            profile=profile is not None,
        )
        self.keys = keys if keys is not None else {}
        """Cell key -> cache key, computed once at lookup."""
        self.results: dict[CellKey, RunStats] = {}
        self.attempts: dict[CellKey, int] = {cell.key: 0 for cell in pending}
        self.failures: dict[CellKey, CellFailure] = {}
        self.terminal: dict[CellKey, CellFailure] = {}
        self.alone: set[CellKey] = set()
        """Cells split out of a timed-out task; they run in tasks of one."""
        self.use_pool = jobs > 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_tainted = False

    # -- lifecycle ---------------------------------------------------------

    def run(self) -> None:
        unresolved = self.pending
        round_index = 0
        try:
            while unresolved:
                if round_index > 0:
                    delay = self.retry.backoff(round_index)
                    if delay > 0:
                        time.sleep(delay)
                unresolved = self._round(unresolved)
                round_index += 1
        finally:
            self._teardown_pool(cancel=True)
        if self.terminal:
            self.stats.cells_skipped = len(self.terminal)
            if self.retry.on_error != "skip":
                raise SweepError(sorted(self.terminal.values(), key=lambda f: f.key))

    # -- rounds ------------------------------------------------------------

    def _groups(self, cells: Sequence[SweepCell]) -> list[list[SweepCell]]:
        """The round's tasks: cells sharing a workload, in key order,
        ordered by their first cell.  Configs group by their canonical
        JSON (what the cache keys them by), so equal-but-distinct config
        objects share a task."""
        groups: dict[tuple, list[SweepCell]] = {}
        for cell in cells:
            task = (
                cell.key
                if cell.key in self.alone
                else (cell.config.canonical_json, cell.seed)
            )
            groups.setdefault(task, []).append(cell)
        return list(groups.values())

    def _task(self, group: Sequence[SweepCell]) -> tuple:
        """``run_cell`` arguments for one group."""
        return (
            group[0].config,
            group[0].seed,
            [cell.policy for cell in group],
            self.options,
            [self.attempts[cell.key] for cell in group],
        )

    def _round(self, cells: Sequence[SweepCell]) -> list[SweepCell]:
        for cell in cells:
            self.attempts[cell.key] += 1
        groups = self._groups(cells)
        futures: dict[int, Any] = {}
        if self.use_pool and len(groups) > 1:
            from concurrent.futures.process import BrokenProcessPool

            pool = self._ensure_pool(len(groups))
            for index, group in enumerate(groups):
                try:
                    futures[index] = pool.submit(run_cell, *self._task(group))
                except BrokenProcessPool as exc:
                    self._pool_tainted = True
                    futures[index] = exc
        group_of = {cell.key: index for index, group in enumerate(groups) for cell in group}
        outcomes: dict[CellKey, Any] = {}
        processed: set[CellKey] = set()
        retry_next: list[SweepCell] = []
        try:
            for cell in cells:
                if cell.key not in outcomes:
                    index = group_of[cell.key]
                    self._collect(groups[index], futures.get(index), outcomes)
                    futures.pop(index, None)
                processed.add(cell.key)
                outcome = outcomes.pop(cell.key)
                if outcome is _SPLIT:
                    retry_next.append(cell)
                elif isinstance(outcome, BaseException):
                    self._attempt_failed(cell, outcome, retry_next)
                else:
                    self._complete(cell, outcome)
        except BaseException:
            # Abort (KeyboardInterrupt, SweepError under on_error=fail):
            # checkpoint whatever already finished, then cancel the rest.
            self._flush_done(cells, groups, futures, outcomes, processed)
            self._teardown_pool(cancel=True)
            raise
        if self._pool_tainted:
            self._teardown_pool(cancel=True)
            self._pool_tainted = False
            self.stats.pool_rebuilds += 1
            if self.trace is not None:
                self.trace("sweep_pool_rebuild", rebuilds=self.stats.pool_rebuilds)
            if self.stats.pool_rebuilds > self.retry.max_pool_rebuilds:
                # The pool keeps dying: degrade to serial execution.
                self.use_pool = False
        return retry_next

    def _collect(
        self,
        group: Sequence[SweepCell],
        future: Any,
        outcomes: dict[CellKey, Any],
    ) -> None:
        """Run (serially) or await (pooled) one group's task and file
        its outcomes by cell; a failure of the task itself becomes each
        of its cells' error.  Re-raises an interrupt a label caught."""
        if future is None:
            try:
                payload = run_cell(*self._task(group))
            except Exception as exc:
                payload = [CellOutcome(error=exc) for _ in group]
        else:
            payload = self._await(group, future)
            if payload is _SPLIT:
                for cell in group:
                    self.attempts[cell.key] -= 1
                    self.alone.add(cell.key)
                    outcomes[cell.key] = _SPLIT
                return
        self._file(group, payload, outcomes)
        for outcome in payload if isinstance(payload, list) else ():
            if isinstance(outcome, CellOutcome) and isinstance(
                outcome.error, KeyboardInterrupt
            ):
                raise outcome.error

    def _file(
        self, group: Sequence[SweepCell], payload: Any, outcomes: dict[CellKey, Any]
    ) -> None:
        """File a task's payload — one :class:`CellOutcome` per cell, in
        order — by cell key, validating each cell and storing each valid
        one in the cache now.

        A cell the payload does not cover (a corrupt payload, or one cut
        short by an interrupt) fails as corrupt.  A filed cell may wait
        for its merge turn (a task's later policies merge after other
        seeds' cells), so from here on a valid outcome holds only its
        :class:`RunStats` and an invalid one is filed as the exception
        that rejected it.  An interrupted label stays as it is, for
        :meth:`_collect` to re-raise.
        """
        if not isinstance(payload, list):
            payload = []
        for index, cell in enumerate(group):
            outcome = outcomes[cell.key] = (
                payload[index]
                if index < len(payload)
                else CellOutcome(
                    error=CorruptResultError(f"cell {cell.key}: task returned no outcome")
                )
            )
            if isinstance(outcome, CellOutcome) and isinstance(
                outcome.error, KeyboardInterrupt
            ):
                continue
            try:
                _validate_outcome(cell, outcome)
            except Exception as exc:
                outcomes[cell.key] = exc
                continue
            self._store(cell, outcome.result)
            # In place: the payload list, and a pooled task's future,
            # hold this same object.
            outcome.result = RunStats.of(outcome.result)

    def _await(self, group: Sequence[SweepCell], future: Any) -> Any:
        """A pooled task's payload, or :data:`_SPLIT` when a task of
        several cells timed out; the pool's failures become each cell's
        error."""
        from concurrent.futures import CancelledError
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        try:
            if isinstance(future, BaseException):
                raise future  # the submit itself failed
            timeout = self.retry.timeout
            return future.result(
                timeout=None if timeout is None else timeout * len(group)
            )
        except (FuturesTimeout, TimeoutError) as exc:
            # The hung worker keeps its slot until it finishes; taint
            # the pool so the next round starts fresh.
            self._pool_tainted = True
            self.stats.timeouts += 1
            if len(group) > 1:
                return _SPLIT
            return [CellOutcome(error=CellTimeoutError(
                f"cell {group[0].key} exceeded timeout="
                f"{self.retry.timeout:g}s ({type(exc).__name__})"
            ))]
        except (BrokenProcessPool, CancelledError) as exc:
            self._pool_tainted = True
            return [CellOutcome(error=exc) for _ in group]
        except Exception as exc:
            return [CellOutcome(error=exc) for _ in group]

    # -- per-cell outcomes -------------------------------------------------

    def _complete(self, cell: SweepCell, outcome: CellOutcome) -> None:
        """Merge a filed, valid cell: its metrics, its profile and its
        :class:`RunStats` (``outcome.result``)."""
        prof = self.profile
        if outcome.deltas is not None and self.metrics is not None:
            from repro.obs.prof import observe_stage

            t0 = time.perf_counter()
            self.metrics.merge_snapshot(outcome.deltas)
            self.metrics.histogram("sweep.cell_wall_ms").observe(outcome.wall_ms)
            merge_s = time.perf_counter() - t0
            observe_stage(self.metrics, "merge", merge_s * 1000.0)
            if prof is not None:
                prof.timer("sweep.merge", "stage").add(merge_s)
        if prof is not None and outcome.prof_state is not None:
            # Called in cell-key order within each round, so the merged
            # recording's structure is worker-count-independent.
            prof.extend(outcome.prof_state)
        self.results[cell.key] = outcome.result
        self.stats.cells_run += 1
        if cell.key in self.failures:
            self.failures[cell.key] = dataclasses.replace(
                self.failures[cell.key], recovered=True
            )

    def _store(self, cell: SweepCell, result: SimulationResult) -> None:
        """Store a valid cell's full result in the cache, if any."""
        if self.cache is None:
            return
        # Incremental checkpoint: flush the cell *now*, so a killed
        # sweep resumes from here.  Cache write errors degrade to a
        # counter (the cache disables itself after the first one).
        prof = self.profile
        before = self.cache.counters.put_errors
        key = self.keys.get(cell.key)
        if self.metrics is None and prof is None:
            self.cache.safe_put(cell.config, cell.seed, cell.policy, result, key)
        else:
            t0 = time.perf_counter()
            self.cache.safe_put(cell.config, cell.seed, cell.policy, result, key)
            put_s = time.perf_counter() - t0
            if self.metrics is not None:
                from repro.obs.prof import observe_stage

                observe_stage(self.metrics, "cache_put", put_s * 1000.0)
            if prof is not None:
                prof.timer("sweep.cache_put", "stage").add(put_s)
        self.stats.cache_put_errors += self.cache.counters.put_errors - before

    def _attempt_failed(
        self, cell: SweepCell, exc: BaseException, retry_next: list[SweepCell]
    ) -> None:
        attempt = self.attempts[cell.key]
        self.stats.failed_attempts += 1
        progress = getattr(exc, "progress", None)
        failure = CellFailure(
            key=cell.key,
            attempts=attempt,
            exception=type(exc).__name__,
            message=str(exc)[:300],
            progress=dict(progress) if progress else None,
        )
        self.failures[cell.key] = failure
        if self.trace is not None:
            self.trace(
                "sweep_cell_failed",
                x=cell.x,
                policy=cell.policy,
                seed=cell.seed,
                attempt=attempt,
                error=type(exc).__name__,
            )
        if self.retry.on_error == "fail":
            raise SweepError([failure]) from exc
        if attempt < self.retry.attempts_per_cell:
            retry_next.append(cell)
            self.stats.retries += 1
        else:
            self.terminal[cell.key] = failure

    def _flush_done(
        self,
        cells: Sequence[SweepCell],
        groups: Sequence[Sequence[SweepCell]],
        futures: Mapping[int, Any],
        outcomes: dict[CellKey, Any],
        processed: set[CellKey],
    ) -> None:
        """Merge finished-but-unprocessed cells (checkpoint on abort)."""
        for index, future in futures.items():
            if (
                not isinstance(future, BaseException)
                and future.done()
                and not future.cancelled()
                and future.exception() is None
                and groups[index][0].key not in outcomes
            ):
                self._file(groups[index], future.result(), outcomes)
        for cell in cells:
            outcome = outcomes.get(cell.key)
            if (
                cell.key in processed
                or not isinstance(outcome, CellOutcome)
                or outcome.error is not None
            ):
                continue
            processed.add(cell.key)
            self._complete(cell, outcome)

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=min(self.jobs, width))
        return self._pool

    def _teardown_pool(self, cancel: bool = False) -> None:
        if self._pool is not None:
            # wait=False: never block on a hung worker; its process exits
            # on its own once the task finishes or the engine's wall-clock
            # guard fires.
            self._pool.shutdown(wait=False, cancel_futures=cancel)
            self._pool = None


def execute_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    trace: Optional[TraceHook] = None,
    metrics: Optional[MetricsRegistry] = None,
    retry: Optional[RetryPolicy] = None,
    profile: Optional[SpanProfiler] = None,
) -> dict[CellKey, RunStats]:
    """Run every cell, in parallel where possible; each cell's
    :class:`~repro.metrics.summary.RunStats`, keyed and ordered by
    :data:`CellKey`.

    Cached cells are served from ``cache`` without simulating; the
    pending ones run one task per ``(config, seed)`` (see
    :class:`_SweepRunner`), and each computed cell is stored back as its
    task's outcomes arrive (the sweep's checkpoint).  With ``jobs > 1``
    the tasks go to a process pool, but the returned mapping (and the
    trace stream) is sorted by cell key, so output never depends on
    completion order.

    No per-transaction record outlives its task's filing: a computed
    cell's full result is dropped once it is cached, and a cache hit is
    reduced to its stats at lookup.  A caller that needs a cell's
    records reads its cache entry or runs :func:`simulate_cell`.

    ``retry`` (or the configured default) chooses the failure policy:
    see :class:`RetryPolicy`.  Under ``on_error="skip"`` the returned
    mapping simply omits dropped cells — identically at any ``jobs``.
    On abort (``on_error="fail"``, exhausted retries, or
    ``KeyboardInterrupt``) completed cells are already in the cache and
    :func:`last_stats` / :func:`take_failures` still report the partial
    sweep.

    With ``metrics`` set (directly or via :func:`configure`), each
    computed cell runs with a private registry and ships its counter
    deltas back; the parent merges them **in cell-key order** (within
    each retry round), so the merged counters are identical for serial
    and parallel runs of the same cells (wall-time histograms aside).
    Cached cells contribute no simulator counters — they were never
    simulated — but are tallied in ``sweep.cache_hits``.

    With ``profile`` set (directly or via :func:`configure`), workers
    additionally record span profiles (engine phases, kernel aggregate
    timers, stage spans) and ship them back for the parent to fold in —
    again in cell-key order — alongside the parent's own sweep-stage
    spans.  Export with :meth:`SpanProfiler.chrome_trace` (the ``repro
    profile`` command wires this up).  Results are bit-identical with
    profiling on or off.
    """
    global _LAST_STATS
    jobs = resolve_jobs(jobs)
    cache = resolve_cache(cache)
    trace = resolve_trace(trace)
    metrics = resolve_metrics(metrics)
    retry = resolve_retry(retry)
    profile = resolve_profile(profile)

    if resolve_sanitize():
        # Sanitized cells carry config.sanitize=True, which flows to the
        # workers (the simulator attaches RTSan) *and* into the cache
        # key — so a sanitized pass re-validates every simulation
        # instead of replaying unsanitized cache entries, while its
        # (identical) results never shadow the normal namespace.
        cells = [
            dataclasses.replace(cell, config=cell.config.replace(sanitize=True))
            for cell in cells
        ]

    ordered = sorted(cells, key=lambda cell: cell.key)
    if len({cell.key for cell in ordered}) != len(ordered):
        raise ValueError("duplicate sweep cells (same x, policy, seed)")

    stats = SweepStats(cells_total=len(ordered), jobs=jobs)
    started = time.perf_counter()
    if trace is not None:
        trace("sweep_begin", cells=len(ordered), jobs=jobs, on_error=retry.on_error)

    results: dict[CellKey, RunStats] = {}
    pending: list[SweepCell] = []
    keys: dict[CellKey, str] = {}
    lookup_t0 = time.perf_counter()
    for cell in ordered:
        hit = None
        if cache is not None:
            # Computed once: the store after the cell runs reuses it.
            key = keys[cell.key] = cache_key(cell.config, cell.seed, cell.policy)
            hit = cache.get(cell.config, cell.seed, cell.policy, key)
        if hit is not None:
            results[cell.key] = RunStats.of(hit)
            stats.cache_hits += 1
        else:
            pending.append(cell)
    if cache is not None:
        lookup_t1 = time.perf_counter()
        if metrics is not None:
            from repro.obs.prof import observe_stage

            observe_stage(metrics, "cache_lookup", (lookup_t1 - lookup_t0) * 1000.0)
        if profile is not None:
            profile.add_span(
                "sweep.cache_lookup",
                "stage",
                lookup_t0,
                lookup_t1,
                {"cells": len(ordered), "hits": stats.cache_hits},
            )

    runner: Optional[_SweepRunner] = None
    try:
        if pending:
            runner = _SweepRunner(
                pending,
                jobs=jobs,
                cache=cache,
                trace=trace,
                metrics=metrics,
                retry=retry,
                stats=stats,
                profile=profile,
                keys=keys,
            )
            runner.run()
            results.update(runner.results)
    finally:
        # Even on abort, record what happened: the partial stats and the
        # failure records survive for `last_stats` / `take_failures`.
        stats.elapsed = time.perf_counter() - started
        if runner is not None:
            results.update(runner.results)
            stats.failures = sorted(
                runner.failures.values(), key=lambda failure: failure.key
            )
            _SESSION_FAILURES.extend(stats.failures)
        _LAST_STATS = stats

    if metrics is not None:
        metrics.counter("sweep.cells").inc(stats.cells_total)
        metrics.counter("sweep.cells_run").inc(stats.cells_run)
        metrics.counter("sweep.cache_hits").inc(stats.cache_hits)
        metrics.gauge("sweep.jobs").set(jobs)
        for name, value in (
            ("sweep.failures", stats.failed_attempts),
            ("sweep.retries", stats.retries),
            ("sweep.timeouts", stats.timeouts),
            ("sweep.pool_rebuilds", stats.pool_rebuilds),
            ("sweep.cells_skipped", stats.cells_skipped),
            ("sweep.cache_put_errors", stats.cache_put_errors),
        ):
            if value:
                metrics.counter(name).inc(value)
    merged = {
        cell.key: results[cell.key] for cell in ordered if cell.key in results
    }
    if profile is not None:
        profile.add_span(
            "sweep.execute_cells",
            "stage",
            started,
            time.perf_counter(),
            {
                "cells": stats.cells_total,
                "run": stats.cells_run,
                "cache_hits": stats.cache_hits,
                "jobs": jobs,
            },
        )
    if trace is not None:
        pending_keys = {cell.key for cell in pending}
        for cell in ordered:
            trace(
                "sweep_cell",
                x=cell.x,
                policy=cell.policy,
                seed=cell.seed,
                cached=cell.key not in pending_keys,
                skipped=cell.key not in merged,
            )
        trace(
            "sweep_end",
            cells=stats.cells_total,
            cells_run=stats.cells_run,
            cache_hits=stats.cache_hits,
            elapsed=stats.elapsed,
            sims_per_sec=stats.sims_per_sec,
            failures=stats.failed_attempts,
            retries=stats.retries,
            skipped=stats.cells_skipped,
            pool_rebuilds=stats.pool_rebuilds,
        )
    return merged


def cells_for_sweep(
    configs: Mapping[float, SimulationConfig],
    seeds: Sequence[int],
    policies: Sequence[str],
) -> list[SweepCell]:
    """The cross product (x, policy, seed) as cells, in caller order."""
    return [
        SweepCell(x=x, policy=policy, seed=seed, config=config)
        for x, config in configs.items()
        for policy in policies
        for seed in seeds
    ]
