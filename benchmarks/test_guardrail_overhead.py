"""Engine guardrails: structurally free when off, bounded when on.

Two promises under test:

* **Off is free.**  With no memory budget, no guardrail state is bound
  anywhere — the off path is the old code
  (same structural guarantee as ``test_prof_overhead.py``), and the
  budget-guard branch costs one ``is not None`` check per 512 events.
* **On is bounded.**  A JSONL-spilled trace holds O(1) events in
  memory where the in-memory log holds O(n): there is a real memory
  ceiling (measured here with ``tracemalloc``) that the spill path fits
  under and the in-memory path exceeds — with bit-identical results.

Run with ``pytest benchmarks/test_guardrail_overhead.py -s``.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator
from repro.experiments.parallel import RetryPolicy, simulate_cell
from repro.sim.stream import JsonlSink
from repro.tracing import EventLog
from repro.workload.generator import generate_workload

#: Same loose-multiple rationale as the profiler gate.
ASSERT_THRESHOLD = 0.25

CONFIG = SimulationConfig(n_transactions=400, arrival_rate=10.0)

SEEDS = (1, 2, 3)


def run_all(engine, **kwargs) -> float:
    started = time.perf_counter()
    for seed in SEEDS:
        workload = generate_workload(CONFIG, seed)
        policy = make_policy("CCA", penalty_weight=CONFIG.penalty_weight)
        engine(CONFIG, workload, policy, **kwargs).run()
    return time.perf_counter() - started


def test_memory_guard_overhead_within_budget():
    """An active (never-firing) memory budget rides the existing
    512-event guard cadence: one RSS probe per 512 events."""
    run_all(KernelSimulator)  # warm-up
    bare = run_all(KernelSimulator)
    guarded = float("inf")
    for _ in range(3):
        bare = min(bare, run_all(KernelSimulator))
        guarded = min(
            guarded, run_all(KernelSimulator, max_memory_mb=1024 * 1024)
        )
    overhead = guarded / bare - 1.0
    print(
        f"\nkernel bare={bare * 1000:.1f}ms guarded={guarded * 1000:.1f}ms "
        f"overhead={overhead * 100:+.1f}%"
    )
    assert overhead < ASSERT_THRESHOLD


def test_disabled_guardrails_bind_nothing():
    """With guardrails off, nothing is bound anywhere: no memory limit
    on either engine, no envelope wrapping on the bare cell path —
    structural, not statistical."""
    workload = generate_workload(CONFIG, 1)
    policy = make_policy("CCA", penalty_weight=CONFIG.penalty_weight)
    assert KernelSimulator(CONFIG, workload, policy).max_memory_mb is None
    assert RTDBSimulator(CONFIG, workload, policy).max_memory_mb is None
    assert RetryPolicy().memory_mb is None
    # The plain cell path returns the result itself — no envelope
    # indirection.
    outcome = simulate_cell(CONFIG.replace(n_transactions=30), 1, "CCA")
    assert type(outcome).__name__ == "SimulationResult"


def traced_peak(sink_factory):
    """(peak tracemalloc bytes, result) of one traced big-cell run."""
    config = CONFIG.replace(n_transactions=1200)
    workload = generate_workload(config, 1)
    policy = make_policy("CCA", penalty_weight=config.penalty_weight)
    sink = sink_factory()
    tracemalloc.start()
    try:
        result = RTDBSimulator(config, workload, policy, trace=sink).run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        close = getattr(sink, "close", None)
        if close is not None:
            close()
    return peak, result


def test_spill_fits_under_a_ceiling_the_log_exceeds(tmp_path):
    """The acceptance ceiling: pick the midpoint between the spill
    path's peak and the in-memory path's peak — the spill run fits
    under it, the in-memory run does not, and both produce the same
    simulation result."""
    log_peak, log_result = traced_peak(EventLog)
    sink_peak, sink_result = traced_peak(
        lambda: JsonlSink(tmp_path / "spill.jsonl")
    )
    print(
        f"\ntraced peaks: in-memory={log_peak / 1e6:.1f}MB "
        f"spilled={sink_peak / 1e6:.1f}MB "
        f"(ratio {log_peak / sink_peak:.1f}x)"
    )
    assert sink_result == log_result  # identical simulation output
    ceiling = (sink_peak + log_peak) // 2
    assert sink_peak < ceiling < log_peak
    # The gap must be structural (O(1) vs O(n)), not noise.
    assert log_peak > 2 * sink_peak
