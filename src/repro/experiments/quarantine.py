"""Kernel→reference self-healing fallback and quarantine bundles.

The array kernel (``core/kernel.py``) is the sweep's fast path — and
its single point of failure: a mask-encoding or indexing bug kills
the cell with nothing but a traceback.  This module makes the fast
path safe to *trust*: with a :class:`FallbackPolicy` active, a kernel
cell that dies on an unexpected exception is

1. **quarantined** — a deterministic bundle (config + seed + scenario
   hash + traceback + the tail of a traced capture re-run) is written
   under the results directory, enough to reproduce the failure
   offline with ``repro replay <bundle>``;
2. **healed** — the cell re-runs on the reference engine with
   ``sanitize=True`` (RTSan validates the paper invariants over the
   recovery run), and the sweep records an ``engine_fallback`` entry
   (manifest schema v5) instead of a failure.

Both engines are bit-identical, so a healed cell's result is *the*
result — figures from a sweep with fallbacks match an all-reference
run exactly.  The healing scope itself wraps each locking label of
:func:`repro.experiments.parallel.run_cell`; this module quarantines
(:func:`quarantine_failure`) and replays.

Budget exceptions (:class:`~repro.sim.engine.BudgetExceeded`) never
trigger fallback: blowing a wall-clock/event/memory budget on the
kernel means blowing it worse on the (slower) reference engine, so
those stay ordinary per-cell failures with partial-progress records.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import traceback as _traceback
from pathlib import Path
from typing import Any, Optional

from repro.config import SimulationConfig
from repro.experiments import faults
from repro.experiments.cache import cache_key
from repro.sim.stream import RingSink

#: Identifies a quarantine bundle document.
BUNDLE_KIND = "repro-quarantine-bundle"

#: Bundle document schema version.
BUNDLE_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class FallbackPolicy:
    """How sweeps self-heal kernel-cell failures.

    Picklable (it travels to worker processes with each cell).
    ``quarantine_dir`` is where bundles land; ``capture_tail`` bounds
    the partial trace a bundle retains (a :class:`RingSink`, so capture
    memory is O(capture_tail) no matter how long the cell ran).
    """

    quarantine_dir: str = "results/quarantine"
    capture_tail: int = 256

    def __post_init__(self) -> None:
        if self.capture_tail < 1:
            raise ValueError(
                f"capture_tail must be >= 1, got {self.capture_tail}"
            )


@dataclasses.dataclass
class CellEnvelope:
    """What :func:`run_cell_guarded` returns: the cell's result plus
    fallback metadata.

    ``fallback`` is ``None`` for cells that ran clean; otherwise the
    ``engine_fallback`` record destined for sweep stats and the run
    manifest (minus the ``cell`` coordinates, which the executor adds).
    """

    outcome: Any
    fallback: Optional[dict] = None


def kernel_eligible(config: SimulationConfig) -> bool:
    """Whether this cell *could* have run on the kernel engine.

    Cheap pre-filter for the healing path: reference-engine and
    sanitized cells already run the engine fallback would retry on, so
    re-running them buys nothing — their exceptions propagate as
    ordinary cell failures.
    """
    return config.engine != "reference" and not config.sanitize


def replay_kernel(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    attempt: int,
    *,
    trace: Any = None,
    max_wall_s: Optional[float] = None,
    max_memory_mb: Optional[float] = None,
):
    """Re-run one cell exactly as the failing worker attempt did.

    Fires the cell's scheduled ``kernel`` fault (and only that kind —
    crash/hang/die belong to the worker process layer, not the engine
    defect being reproduced), then simulates.  Deterministic in
    ``(config, seed, policy, attempt, active fault plan)``, which is
    what makes quarantine capture and ``repro replay`` agree
    bit-for-bit.
    """
    from repro.core.factory import make_simulator
    from repro.core.policy import make_policy
    from repro.workload.generator import generate_workload

    plan = faults.active_plan()
    if plan is not None:
        key = cache_key(config, seed, policy_name)
        if plan.decide(key, attempt) == "kernel":
            faults.inject_kernel_fault(key, attempt)
    workload = generate_workload(config, seed)
    policy = make_policy(policy_name, penalty_weight=config.penalty_weight)
    return make_simulator(
        config,
        workload,
        policy,
        trace=trace,
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
    ).run()


def run_cell_guarded(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    attempt: int,
    *,
    observed: bool,
    profiled: bool,
    max_wall_s: Optional[float],
    max_memory_mb: Optional[float],
    fallback: FallbackPolicy,
) -> CellEnvelope:
    """One guarded cell attempt, as an envelope.

    Runs the cell through :func:`~repro.experiments.parallel.run_cell`
    with ``fallback`` active at ``attempt``, so the attempt's scheduled
    fault fires and a kernel failure heals onto the reference engine
    (``observed``/``profiled`` attach the sweep's observers; their data
    stays in the :class:`~repro.experiments.parallel.CellOutcome`).
    Raises what the cell raised; an injected corrupt payload passes
    through as the envelope's outcome.
    """
    from repro.experiments.parallel import CellOptions, run_cell

    options = CellOptions(
        max_wall_s=max_wall_s,
        max_memory_mb=max_memory_mb,
        observe=observed,
        profile=profiled,
        fallback=fallback,
    )
    outcome = run_cell(config, seed, (policy_name,), options, (attempt,))[0]
    outcome.checked()
    return CellEnvelope(outcome.result, outcome.fallback)


def quarantine_failure(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    attempt: Optional[int],
    exc: Exception,
    *,
    max_wall_s: Optional[float],
    max_memory_mb: Optional[float],
    fallback: FallbackPolicy,
) -> dict:
    """Quarantine a kernel failure ahead of its reference re-run.

    Writes the cell's bundle (best effort: an unwritable results dir
    must never turn a healable cell into a failed one) and returns the
    ``engine_fallback`` record of the re-run.
    """
    bundle_path: Optional[str] = None
    reproduced = False
    try:
        bundle_path, reproduced = write_bundle(
            config,
            seed,
            policy_name,
            attempt,
            exc,
            max_wall_s=max_wall_s,
            max_memory_mb=max_memory_mb,
            fallback=fallback,
        )
    except Exception:
        bundle_path = None
    return {
        "exception": type(exc).__name__,
        "message": str(exc)[:300],
        "engine": "reference",
        "sanitized": True,
        "attempt": attempt,
        "bundle": bundle_path,
        "reproduced": reproduced,
    }


# ---------------------------------------------------------------------------
# Bundles: write, load, replay
# ---------------------------------------------------------------------------

def bundle_dir_for(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    fallback: FallbackPolicy,
) -> Path:
    """Deterministic bundle location for one cell."""
    key = cache_key(config, seed, policy_name)
    return Path(fallback.quarantine_dir) / f"{policy_name}-s{seed}-{key[:12]}"


def write_bundle(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    attempt: int,
    exc: Exception,
    *,
    max_wall_s: Optional[float],
    max_memory_mb: Optional[float],
    fallback: FallbackPolicy,
) -> tuple[str, bool]:
    """Capture the failure into a quarantine bundle on disk.

    Re-runs the cell once with a bounded :class:`RingSink` attached to
    capture the trace tail leading up to the failure; ``reproduced``
    reports whether that capture re-raised the same exception (a traced
    run takes a different fused path through the kernel, so a genuine
    heisenbug may not reproduce — the flag is honest about it).
    Returns ``(bundle_dir, reproduced)``.
    """
    ring = RingSink(fallback.capture_tail)
    captured: Optional[BaseException] = None
    try:
        replay_kernel(
            config,
            seed,
            policy_name,
            attempt,
            trace=ring,
            max_wall_s=max_wall_s,
            max_memory_mb=max_memory_mb,
        )
    except Exception as capture_exc:
        captured = capture_exc
    reproduced = (
        captured is not None
        and type(captured).__name__ == type(exc).__name__
        and str(captured) == str(exc)
    )
    plan = faults.active_plan()
    doc = {
        "kind": BUNDLE_KIND,
        "schema": BUNDLE_SCHEMA,
        "cell": {"seed": seed, "policy": policy_name},
        "config": config.canonical_dict(),
        "scenario_hash": cache_key(config, seed, policy_name),
        "attempt": attempt,
        "exception": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
        "fault_spec": plan.to_spec() if plan is not None else None,
        "budgets": {
            "max_wall_s": max_wall_s,
            "max_memory_mb": max_memory_mb,
        },
        "reproduced": reproduced,
        # The capture run's own outcome is the replay reference point:
        # replay repeats the *traced capture*, which is deterministic,
        # even when the original (untraced) failure was not.
        "capture_exception": (
            type(captured).__name__ if captured is not None else None
        ),
        "capture_message": str(captured) if captured is not None else None,
        "tail_capacity": fallback.capture_tail,
        "events_seen": ring.total_seen,
        "tail_events": ring.tail(),
    }
    bundle_dir = bundle_dir_for(config, seed, policy_name, fallback)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write_json(bundle_dir / "bundle.json", doc)
    with open(bundle_dir / "trace.jsonl", "w") as handle:
        for event in ring.tail():
            handle.write(json.dumps(event) + "\n")
    return str(bundle_dir), reproduced


def _atomic_write_json(path: Path, doc: dict) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_bundle(path: str | Path) -> dict:
    """Read and validate a bundle (directory or ``bundle.json`` path)."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.json"
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("kind") != BUNDLE_KIND:
        raise ValueError(f"{path}: not a quarantine bundle")
    if doc.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"{path}: bundle schema {doc.get('schema')!r}, "
            f"expected {BUNDLE_SCHEMA}"
        )
    return doc


def config_from_dict(fields: dict) -> SimulationConfig:
    """Rebuild a config from its ``canonical_dict`` form (JSON lists
    become the tuples the frozen dataclass carries)."""
    restored = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()
    }
    return SimulationConfig(**restored)


def replay_bundle(path: str | Path) -> dict:
    """Reproduce a quarantined failure bit-for-bit from its bundle.

    Rebuilds the config, verifies the scenario hash, installs the
    bundle's recorded fault plan (restoring the caller's afterwards),
    re-runs the traced capture, and compares exception type, message,
    and the trace tail against what the bundle recorded.  Returns a
    report dict; ``report["matched"]`` is the verdict ``repro replay``
    exit-codes on.
    """
    doc = load_bundle(path)
    config = config_from_dict(doc["config"])
    seed = doc["cell"]["seed"]
    policy_name = doc["cell"]["policy"]
    scenario_hash = cache_key(config, seed, policy_name)
    if scenario_hash != doc["scenario_hash"]:
        raise ValueError(
            f"bundle scenario hash mismatch: config rebuilds to "
            f"{scenario_hash[:12]}, bundle recorded "
            f"{doc['scenario_hash'][:12]} — bundle or config code drifted"
        )
    budgets = doc.get("budgets", {})
    spec = doc.get("fault_spec")
    saved = faults.active_plan()
    ring = RingSink(doc.get("tail_capacity", 256))
    replayed: Optional[BaseException] = None
    try:
        faults.install(faults.parse_spec(spec) if spec else None)
        try:
            replay_kernel(
                config,
                seed,
                policy_name,
                doc["attempt"],
                trace=ring,
                max_wall_s=budgets.get("max_wall_s"),
                max_memory_mb=budgets.get("max_memory_mb"),
            )
        except Exception as exc:
            replayed = exc
    finally:
        faults.install(saved)
    exception = type(replayed).__name__ if replayed is not None else None
    message = str(replayed) if replayed is not None else None
    expected_exception = doc["capture_exception"]
    expected_message = doc["capture_message"]
    tail_matched = ring.tail() == doc["tail_events"]
    matched = (
        exception == expected_exception
        and message == expected_message
        and tail_matched
    )
    return {
        "bundle": str(path),
        "matched": matched,
        "tail_matched": tail_matched,
        "reproduced_at_capture": doc["reproduced"],
        "expected": {
            "exception": expected_exception,
            "message": expected_message,
            "tail_events": len(doc["tail_events"]),
        },
        "actual": {
            "exception": exception,
            "message": message,
            "tail_events": len(ring.tail()),
        },
    }
