"""Engine selection: reference object-graph engine vs array kernel.

Every entry point that used to construct :class:`RTDBSimulator` directly
(the cell function ``run_cell``, the experiment runner) now goes through
:func:`make_simulator`, which honours ``SimulationConfig.engine``:

* ``"auto"`` (default) — use the array-oriented
  :class:`~repro.core.kernel.KernelSimulator` whenever this
  configuration has a kernel encoding, otherwise silently fall back to
  the reference engine.  Unsupported today: sanitized runs (RTSan
  introspects the reference engine's objects) and custom
  policy/oracle/recovery classes with no integer encoding.  Trace
  hooks, including the time-series sampler, keep the kernel.
* ``"kernel"`` — require the kernel; :class:`UnsupportedKernelFeature`
  propagates if the configuration has no encoding.  Used by the bench
  and parity suites so a silent fallback can never masquerade as a
  speedup or a passing differential test.
* ``"reference"`` — always the reference engine.

Both engines are bit-identical — same results, same trace streams, same
metric counters — which ``tests/sim/test_kernel_parity.py`` establishes
differentially, so this choice only affects wall-clock speed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator, UnsupportedKernelFeature
from repro.core.oracle import ConflictOracle
from repro.core.policy import PriorityPolicy
from repro.core.simulator import RTDBSimulator, TraceHook
from repro.rtdb.recovery import RecoveryModel
from repro.rtdb.transaction import TransactionSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import SpanProfiler
    from repro.obs.registry import MetricsRegistry

Simulator = Union[RTDBSimulator, KernelSimulator]


def make_simulator(
    config: SimulationConfig,
    workload: Sequence[TransactionSpec],
    policy: PriorityPolicy,
    oracle: Optional[ConflictOracle] = None,
    recovery: Optional[RecoveryModel] = None,
    include_rollback_in_penalty: bool = True,
    eager_wounds: bool = True,
    trace: Optional[TraceHook] = None,
    max_events: Optional[int] = None,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
    metrics: Optional["MetricsRegistry"] = None,
    sanitize: Optional[bool] = None,
    profile: Optional["SpanProfiler"] = None,
    introspect: bool = False,
) -> Simulator:
    """Build the engine ``config.engine`` selects (see module docstring).

    Accepts exactly the :class:`RTDBSimulator` constructor arguments and
    returns an object with the same ``run() -> SimulationResult``
    surface.  ``trace``, ``profile`` and ``introspect`` are supported
    by *both* engines (the kernel does not fall back for them: trace
    hooks see the same event stream from either engine, profiling
    observes wall time and introspection observes kernel machinery, and
    none perturbs results), so attaching a time-series sampler or a
    profiler under ``engine="auto"`` keeps the kernel selected — unlike
    ``sanitize``, which needs the reference engine's objects.
    """
    kwargs = dict(
        oracle=oracle,
        recovery=recovery,
        include_rollback_in_penalty=include_rollback_in_penalty,
        eager_wounds=eager_wounds,
        trace=trace,
        max_events=max_events,
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
        metrics=metrics,
        sanitize=sanitize,
        profile=profile,
        introspect=introspect,
    )
    if config.engine != "reference":
        try:
            return KernelSimulator(config, workload, policy, **kwargs)
        except UnsupportedKernelFeature:
            if config.engine == "kernel":
                raise
    return RTDBSimulator(config, workload, policy, **kwargs)
