"""Parallel, fault-tolerant execution of sweep cells with deterministic
merging.

A *cell* is the atomic unit of every paper experiment: simulate one
configuration for one seed under one policy.  Cells are independent —
workloads are regenerated deterministically from ``(config, seed)`` in
each worker, so replaying the same seed under several policies in
different processes still compares *paired* workloads, exactly as the
serial runner does.

:func:`execute_cells` fans cells out over a ``ProcessPoolExecutor``
(``jobs`` workers), consults an optional
:class:`~repro.experiments.cache.ResultCache` first, and merges results
**ordered by cell key, never by completion order** — so for the same
seeds, ``jobs=N`` output is identical to serial output, and the trace
event stream is deterministic too.  The parity tests in
``tests/experiments/test_parallel.py`` hold this as an invariant.

Failure isolation (see docs/ROBUSTNESS.md): a worker exception becomes
a structured :class:`CellFailure` instead of aborting the sweep.  The
:class:`RetryPolicy` chooses what happens next — ``fail`` (abort with a
:class:`SweepError`, completed cells already flushed to the cache),
``retry`` (bounded re-attempts with exponential backoff), or ``skip``
(drop the cell after its attempts are exhausted, identically at any
``jobs``).  Per-cell timeouts, worker payload validation, automatic
pool rebuilds on ``BrokenProcessPool`` (degrading to serial execution
when the pool keeps breaking), and incremental checkpointing — each
completed cell is flushed to the cache the moment it finishes, even if
the sweep is later interrupted — make long sweeps restartable: re-run
the same command and only missing cells are recomputed.

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
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import SimulationResult
from repro.experiments import faults
from repro.experiments.cache import ResultCache, cache_key
from repro.experiments.quarantine import CellEnvelope, FallbackPolicy, run_cell_guarded
from repro.mp.simulator import MultiprocessorSimulator
from repro.obs.prof import SpanProfiler, observe_stage
from repro.obs.registry import MetricsRegistry
from repro.occ.simulator import OCCSimulator
from repro.rtdb.transaction import TransactionSpec
from repro.workload.generator import generate_workload

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
    waits at most ``timeout`` seconds per pool future, and workers run
    their simulation engine with ``max_wall_s=timeout`` so a livelocked
    cell kills itself even in serial mode.  ``memory_mb`` bounds each
    worker's resident memory via the engine's in-process guard
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
    engine_fallbacks: list[dict] = dataclasses.field(default_factory=list)
    """Kernel→reference fallback records (manifest ``engine_fallbacks``
    section, schema v5), in cell-key order."""

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
    profiler and kernel introspection, and only it can heal onto the
    reference engine under a :class:`FallbackPolicy`.
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


def simulate_cell(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> SimulationResult:
    """Run one cell from scratch — the worker-process entry point.

    Deterministic in its arguments: the workload is generated from
    ``(config, seed)`` and the simulator draws no further randomness,
    so the same cell yields the same result in any process.
    ``policy_name`` is the cell label, which picks the engine
    (:func:`cell_engine`).  ``max_wall_s`` (when set) bounds the
    simulation's real run time via the engine's wall-clock guard;
    ``max_memory_mb`` bounds resident memory the same way.
    """
    workload = generate_workload(config, seed)
    return cell_engine(policy_name).build(
        config,
        workload,
        policy_name,
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
    ).run()


def simulate_cell_traced(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
    sink: Optional[TraceHook] = None,
):
    """Run one cell with a full :class:`~repro.tracing.EventLog` attached.

    Returns ``(result, log, workload)`` — everything offline analyses
    (``repro trace``, ``repro certify``) need: the aggregate outcome,
    the complete event stream, and the exact specs it was generated
    from.  Same determinism contract as :func:`simulate_cell`.

    ``sink`` substitutes a streaming trace sink (a
    :class:`~repro.sim.stream.JsonlSink` spilling to disk, a bounded
    :class:`~repro.sim.stream.RingSink`) for the in-memory log; the
    returned middle element is then that sink.  Whatever was attached
    is closed before returning, so a spilled stream is complete and
    flushed when the caller iterates it.
    """
    from repro.tracing import EventLog

    workload = generate_workload(config, seed)
    log = sink if sink is not None else EventLog()
    try:
        result = cell_engine(policy_name).build(
            config,
            workload,
            policy_name,
            trace=log,
            max_wall_s=max_wall_s,
            max_memory_mb=max_memory_mb,
        ).run()
    finally:
        close = getattr(log, "close", None)
        if close is not None:
            close()
    return result, log, workload


def simulate_cell_observed(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
    profile: Optional[SpanProfiler] = None,
) -> tuple[SimulationResult, float, dict]:
    """Run one cell with a private metrics registry attached.

    Returns ``(result, wall_ms, counter_deltas)`` where
    ``counter_deltas`` is the cell's registry snapshot — the per-cell
    delta a worker process ships back for the parent to merge.  Apart
    from wall time (the ``prof.stage_ms`` stage histograms and the
    cell's own wall clock) the deltas are deterministic in the cell
    (simulated time only), which is what makes parallel manifest
    counters equal serial ones.

    Observed cells run with kernel introspection on (``kernel.*``
    counters — fusion spans, penalty-scan modes, CCA prunes; see
    docs/OBSERVABILITY.md) and tally which engine actually ran under
    ``sweep.engine{engine=...}``.  Both are deterministic.  OCC and
    multiprocessor cells take no registry: they ship the engine tally
    and stage timings only.

    ``profile`` optionally attaches a :class:`SpanProfiler`: the stage
    intervals become spans and the engine records its internal phases
    into the same recording (:func:`simulate_cell_profiled` is the
    worker-facing wrapper that ships the recording back).
    """
    registry = MetricsRegistry()
    engine = cell_engine(policy_name)
    started = time.perf_counter()
    workload = generate_workload(config, seed)
    generated = time.perf_counter()
    observe_stage(registry, "workload_gen", (generated - started) * 1000.0)
    options: dict = {"max_wall_s": max_wall_s, "max_memory_mb": max_memory_mb}
    if engine.locking:
        options.update(metrics=registry, profile=profile, introspect=True)
    simulator = engine.build(config, workload, policy_name, **options)
    built = time.perf_counter()
    observe_stage(registry, "build", (built - generated) * 1000.0)
    ran = engine.family
    if engine.locking:
        ran = "kernel" if isinstance(simulator, KernelSimulator) else "reference"
    registry.counter("sweep.engine", engine=ran).inc()
    result = simulator.run()
    finished = time.perf_counter()
    observe_stage(registry, "event_loop", (finished - built) * 1000.0)
    if profile is not None:
        cell_args = {"policy": policy_name, "seed": seed, "engine": ran}
        profile.add_span(
            "cell.workload_gen", "stage", started, generated, {"n": len(workload)}
        )
        profile.add_span("cell.build", "stage", generated, built, cell_args)
        profile.add_span("cell.event_loop", "stage", built, finished, cell_args)
    return result, (finished - started) * 1000.0, registry.snapshot()


def simulate_cell_profiled(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    *,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
) -> tuple[SimulationResult, float, dict, dict]:
    """Run one cell observed *and* span-profiled.

    Returns ``(result, wall_ms, counter_deltas, prof_state)`` — the
    observed payload plus this worker's profiler recording
    (:meth:`SpanProfiler.export_state`), which the parent folds into
    its own profiler in cell-key order.
    """
    prof = SpanProfiler()
    result, wall_ms, deltas = simulate_cell_observed(
        config,
        seed,
        policy_name,
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
        profile=prof,
    )
    return result, wall_ms, deltas, prof.export_state()


def _worker_entry(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    attempt: int,
    observed: bool,
    profiled: bool,
    max_wall_s: Optional[float],
    max_memory_mb: Optional[float] = None,
    fallback: Optional[FallbackPolicy] = None,
):
    """Pool/serial worker entry: fault injection, then the simulation.

    With ``fallback`` set, locking cells run through the guarded runner
    (kernel failures heal onto the reference engine, wrapped in a
    :class:`CellEnvelope`); OCC and multiprocessor cells have no second
    engine to heal onto, so they run unguarded.  The default path is
    untouched — one ``is not None`` check.
    """
    if fallback is not None and cell_engine(policy_name).locking:
        return run_cell_guarded(
            config,
            seed,
            policy_name,
            attempt,
            observed=observed,
            profiled=profiled,
            max_wall_s=max_wall_s,
            max_memory_mb=max_memory_mb,
            fallback=fallback,
        )
    if faults.active_plan() is not None:
        injected = faults.maybe_inject(cache_key(config, seed, policy_name), attempt)
        if injected is not None:
            return injected  # CORRUPT_PAYLOAD passes through as-is
    if profiled:
        return simulate_cell_profiled(
            config, seed, policy_name,
            max_wall_s=max_wall_s, max_memory_mb=max_memory_mb,
        )
    if observed:
        return simulate_cell_observed(
            config, seed, policy_name,
            max_wall_s=max_wall_s, max_memory_mb=max_memory_mb,
        )
    return simulate_cell(
        config, seed, policy_name,
        max_wall_s=max_wall_s, max_memory_mb=max_memory_mb,
    )


def _unwrap(raw) -> tuple[object, Optional[dict]]:
    """Split a worker payload into (outcome, fallback record).

    Guarded workers ship :class:`CellEnvelope`; plain workers ship the
    bare outcome.  Anything else — including a corrupt payload inside
    an envelope — flows on to ``_validate_outcome`` unchanged.
    """
    if isinstance(raw, CellEnvelope):
        return raw.outcome, raw.fallback
    return raw, None


def _validate_outcome(cell: SweepCell, outcome, observed: bool, profiled: bool):
    """Reject corrupt worker payloads (wrong shape, wrong cell).

    Raises :class:`CorruptResultError`, which the retry machinery treats
    like any other per-cell failure.
    """
    if observed or profiled:
        width = 4 if profiled else 3
        if (
            not isinstance(outcome, tuple)
            or len(outcome) != width
            or not isinstance(outcome[0], SimulationResult)
            or not isinstance(outcome[1], (int, float))
            or not isinstance(outcome[2], dict)
            or (profiled and not isinstance(outcome[3], dict))
        ):
            raise CorruptResultError(
                f"cell {cell.key}: malformed "
                f"{'profiled' if profiled else 'observed'} payload "
                f"({type(outcome).__name__})"
            )
        result = outcome[0]
    else:
        if not isinstance(outcome, SimulationResult):
            raise CorruptResultError(
                f"cell {cell.key}: payload is {type(outcome).__name__}, "
                f"not a SimulationResult"
            )
        result = outcome
    expected = cell_engine(cell.policy).result_name(cell.policy)
    if result.policy_name != expected:
        raise CorruptResultError(
            f"cell {cell.key}: result claims policy "
            f"{result.policy_name!r}, expected {expected!r}"
        )
    return outcome


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
    fallback: Optional[FallbackPolicy] = None
    """Engine self-healing policy: kernel-cell failures quarantine and
    re-run on the sanitized reference engine (see
    :mod:`repro.experiments.quarantine`).  ``None`` (the default) binds
    no fallback hooks on the worker path."""


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
    fallback: object = UNSET,
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
    if fallback is not UNSET:
        _DEFAULTS.fallback = fallback  # type: ignore[assignment]


@contextlib.contextmanager
def execution(
    jobs: object = UNSET,
    cache: object = UNSET,
    trace: object = UNSET,
    metrics: object = UNSET,
    retry: object = UNSET,
    sanitize: object = UNSET,
    profile: object = UNSET,
    fallback: object = UNSET,
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
            fallback=fallback,
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
            fallback=saved.fallback,
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


def resolve_fallback(
    fallback: Optional[FallbackPolicy],
) -> Optional[FallbackPolicy]:
    return fallback if fallback is not None else _DEFAULTS.fallback


_LAST_STATS = SweepStats()

_SESSION_FAILURES: list[CellFailure] = []

_SESSION_FALLBACKS: list[dict] = []


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


def take_fallbacks() -> list[dict]:
    """Drain the engine-fallback records accumulated since the last
    call — same per-experiment collection contract as
    :func:`take_failures`."""
    global _SESSION_FALLBACKS
    drained, _SESSION_FALLBACKS = _SESSION_FALLBACKS, []
    return drained


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class _SweepRunner:
    """Round-based execution of one sweep's pending (uncached) cells.

    Each round runs every unresolved cell once — in a process pool or
    serially — merging successes *in cell-key order within the round*
    and recording failures.  Cells with attempts left go to the next
    round (after backoff); the round structure is identical at any
    ``jobs`` count, so metric merge order, the surviving-cell set, and
    the retry schedule are all process-count-independent.
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
        fallback: Optional[FallbackPolicy] = None,
    ) -> None:
        self.pending = list(pending)
        self.jobs = jobs
        self.cache = cache
        self.trace = trace
        self.metrics = metrics
        self.retry = retry
        self.stats = stats
        self.profile = profile
        self.fallback = fallback
        self.profiled = profile is not None
        self.observed = metrics is not None
        self.results: dict[CellKey, SimulationResult] = {}
        self.attempts: dict[CellKey, int] = {cell.key: 0 for cell in pending}
        self.failures: dict[CellKey, CellFailure] = {}
        self.terminal: dict[CellKey, CellFailure] = {}
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
                if self.use_pool and len(unresolved) > 1:
                    unresolved = self._pool_round(unresolved)
                else:
                    unresolved = self._serial_round(unresolved)
                round_index += 1
        finally:
            self._teardown_pool(cancel=True)
        if self.terminal:
            self.stats.cells_skipped = len(self.terminal)
            if self.retry.on_error != "skip":
                raise SweepError(sorted(self.terminal.values(), key=lambda f: f.key))

    # -- rounds ------------------------------------------------------------

    def _serial_round(self, cells: Sequence[SweepCell]) -> list[SweepCell]:
        retry_next: list[SweepCell] = []
        for cell in cells:
            self.attempts[cell.key] += 1
            try:
                raw = _worker_entry(
                    cell.config,
                    cell.seed,
                    cell.policy,
                    self.attempts[cell.key],
                    self.observed,
                    self.profiled,
                    self.retry.timeout,
                    self.retry.memory_mb,
                    self.fallback,
                )
                outcome, fb_record = _unwrap(raw)
                outcome = _validate_outcome(
                    cell, outcome, self.observed, self.profiled
                )
            except Exception as exc:
                self._attempt_failed(cell, exc, retry_next)
            else:
                self._complete(cell, outcome, fb_record)
        return retry_next

    def _pool_round(self, cells: Sequence[SweepCell]) -> list[SweepCell]:
        pool = self._ensure_pool(len(cells))
        retry_next: list[SweepCell] = []
        futures: dict[CellKey, object] = {}
        submit_errors: dict[CellKey, BaseException] = {}
        for cell in cells:
            self.attempts[cell.key] += 1
            try:
                futures[cell.key] = pool.submit(
                    _worker_entry,
                    cell.config,
                    cell.seed,
                    cell.policy,
                    self.attempts[cell.key],
                    self.observed,
                    self.profiled,
                    self.retry.timeout,
                    self.retry.memory_mb,
                    self.fallback,
                )
            except BrokenProcessPool as exc:
                self._pool_tainted = True
                submit_errors[cell.key] = exc
        processed: set[CellKey] = set()
        try:
            # Wait in cell-key order: earlier waits overlap later cells'
            # execution, and merge order stays deterministic.
            for cell in cells:
                if cell.key in submit_errors:
                    self._attempt_failed(cell, submit_errors[cell.key], retry_next)
                    continue
                future = futures[cell.key]
                try:
                    outcome, fb_record = _unwrap(
                        future.result(timeout=self.retry.timeout)
                    )
                    outcome = _validate_outcome(
                        cell, outcome, self.observed, self.profiled
                    )
                except (_FuturesTimeout, TimeoutError) as exc:
                    # The hung worker keeps its slot until it finishes;
                    # taint the pool so the next round starts fresh.
                    self._pool_tainted = True
                    self.stats.timeouts += 1
                    timeout_exc: Exception = CellTimeoutError(
                        f"cell {cell.key} exceeded timeout="
                        f"{self.retry.timeout:g}s ({type(exc).__name__})"
                    )
                    self._attempt_failed(cell, timeout_exc, retry_next)
                except (BrokenProcessPool, CancelledError) as exc:
                    self._pool_tainted = True
                    self._attempt_failed(cell, exc, retry_next)
                except Exception as exc:
                    self._attempt_failed(cell, exc, retry_next)
                else:
                    processed.add(cell.key)
                    self._complete(cell, outcome, fb_record)
        except BaseException:
            # Abort (KeyboardInterrupt, SweepError under on_error=fail):
            # checkpoint whatever already finished, then cancel the rest.
            self._flush_done(cells, futures, processed)
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

    # -- per-cell outcomes -------------------------------------------------

    def _complete(
        self, cell: SweepCell, outcome, fb_record: Optional[dict] = None
    ) -> None:
        if fb_record is not None:
            record = {
                "cell": {"x": cell.x, "policy": cell.policy, "seed": cell.seed},
                **fb_record,
            }
            self.stats.engine_fallbacks.append(record)
            if self.trace is not None:
                self.trace(
                    "sweep_engine_fallback",
                    x=cell.x,
                    policy=cell.policy,
                    seed=cell.seed,
                    error=fb_record.get("exception"),
                )
        prof = self.profile
        prof_state: Optional[dict] = None
        if self.profiled:
            result, wall_ms, deltas, prof_state = outcome
        elif self.observed:
            result, wall_ms, deltas = outcome
        else:
            result, wall_ms, deltas = outcome, 0.0, None
        if deltas is not None and self.metrics is not None:
            t0 = time.perf_counter()
            self.metrics.merge_snapshot(deltas)
            self.metrics.histogram("sweep.cell_wall_ms").observe(wall_ms)
            merge_s = time.perf_counter() - t0
            observe_stage(self.metrics, "merge", merge_s * 1000.0)
            if prof is not None:
                prof.timer("sweep.merge", "stage").add(merge_s)
        if prof is not None and prof_state is not None:
            # Called in cell-key order within each round, so the merged
            # recording's structure is worker-count-independent.
            prof.extend(prof_state)
        self.results[cell.key] = result
        self.stats.cells_run += 1
        if cell.key in self.failures:
            self.failures[cell.key] = dataclasses.replace(
                self.failures[cell.key], recovered=True
            )
        if self.cache is not None:
            # Incremental checkpoint: flush the cell *now*, so a killed
            # sweep resumes from here.  Cache write errors degrade to a
            # counter (the cache disables itself after the first one).
            before = self.cache.counters.put_errors
            if self.metrics is None and prof is None:
                self.cache.safe_put(cell.config, cell.seed, cell.policy, result)
            else:
                t0 = time.perf_counter()
                self.cache.safe_put(cell.config, cell.seed, cell.policy, result)
                put_s = time.perf_counter() - t0
                if self.metrics is not None:
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
        futures: Mapping[CellKey, object],
        processed: set[CellKey],
    ) -> None:
        """Merge finished-but-unprocessed futures (checkpoint on abort)."""
        for cell in cells:
            future = futures.get(cell.key)
            if (
                future is None
                or cell.key in processed
                or not future.done()
                or future.cancelled()
                or future.exception() is not None
            ):
                continue
            try:
                outcome, fb_record = _unwrap(future.result())
                outcome = _validate_outcome(
                    cell, outcome, self.observed, self.profiled
                )
            except Exception:
                continue
            processed.add(cell.key)
            self._complete(cell, outcome, fb_record)

    # -- pool management ---------------------------------------------------

    def _ensure_pool(self, width: int) -> ProcessPoolExecutor:
        if self._pool is None:
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
    fallback: Optional[FallbackPolicy] = None,
) -> dict[CellKey, SimulationResult]:
    """Run every cell, in parallel where possible; results keyed and
    ordered by :data:`CellKey`.

    Cached cells are served from ``cache`` without simulating; computed
    cells are stored back the moment they complete (the sweep's
    checkpoint).  With ``jobs > 1`` the pending cells go to a process
    pool, but the returned mapping (and the trace stream) is sorted by
    cell key, so output never depends on completion order.

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
    fallback = resolve_fallback(fallback)

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

    results: dict[CellKey, SimulationResult] = {}
    pending: list[SweepCell] = []
    lookup_t0 = time.perf_counter()
    for cell in ordered:
        hit = (
            cache.get(cell.config, cell.seed, cell.policy)
            if cache is not None
            else None
        )
        if hit is not None:
            results[cell.key] = hit
            stats.cache_hits += 1
        else:
            pending.append(cell)
    if cache is not None:
        lookup_t1 = time.perf_counter()
        if metrics is not None:
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
                fallback=fallback,
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
            _SESSION_FALLBACKS.extend(stats.engine_fallbacks)
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
            ("sweep.engine_fallbacks", len(stats.engine_fallbacks)),
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
