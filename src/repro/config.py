"""Simulation configuration shared by workload generation and the system.

The defaults mirror Table 1 (main memory) of the paper; Table 2 (disk
resident) is the same with ``disk_resident=True``, ``abort_cost=5`` and
the disk parameters.  All times are in **milliseconds** of simulated time,
matching the paper's units.

The database-size default is the tables' literal 30 items — a
deliberately tiny hot set (transactions update ~20 of 30 items, so
essentially every pair conflicts).  Calibration against the paper's
reported improvement magnitudes confirms this reading; Figures 4f and 5e
then sweep the size up to 1000/600 to relax contention (DESIGN.md §6).
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Optional, Sequence


@dataclasses.dataclass(frozen=True)
class SimulationConfig:
    """All parameters of one simulated RTDBS configuration."""

    # --- workload (Table 1 / Table 2) ---
    n_transaction_types: int = 50
    updates_mean: float = 20.0
    updates_std: float = 10.0
    db_size: int = 30
    min_slack: float = 0.2
    """Lower bound of slack as a fraction of resource time (paper: 20 %)."""
    max_slack: float = 8.0
    """Upper bound of slack as a fraction of resource time (paper: 800 %)."""
    compute_per_update: float = 4.0
    """CPU time per item update, ms (Table 1)."""
    update_time_classes: Optional[Sequence[float]] = None
    """If set, transaction types are split into equal classes with these
    per-update compute times (paper §4.2 uses (0.4, 4, 40)); overrides
    ``compute_per_update``."""
    read_fraction: float = 0.0
    """Fraction of each transaction type's accesses that are reads
    (shared locks).  0 reproduces the paper's write-only analysis; > 0
    enables the shared-lock extension (paper future work)."""

    # --- scheduling ---
    abort_cost: float = 4.0
    """CPU time to roll back one transaction, ms (Table 1: 4; Table 2: 5)."""
    penalty_weight: float = 1.0
    """w in Pr(T) = -(deadline + w * penalty-of-conflict)."""

    # --- disk (Table 2; ignored when disk_resident is False) ---
    disk_resident: bool = False
    disk_access_time: float = 25.0
    disk_access_prob: float = 0.1
    disk_scheduling: str = "fcfs"
    """IO queue discipline: "fcfs" (Table 2) or "priority" (real-time IO
    scheduling — the disk serves the highest-priority waiter next)."""

    # --- criticalness (paper future work: "multiple criticalness") ---
    criticalness_levels: int = 1
    """Number of criticalness classes.  1 reproduces the paper's
    same-criticalness workloads; with k > 1 each transaction draws a
    uniform class in 0..k-1 (higher = more critical), which the
    ``CriticalnessCCAPolicy`` orders lexicographically above deadlines."""

    # --- engine selection ---
    engine: str = "auto"
    """Which simulation engine runs the cell: "auto" (default) picks the
    array-oriented kernel engine (:mod:`repro.core.kernel`) whenever the
    configuration supports it and silently falls back to the reference
    engine otherwise (sanitized runs, custom components; trace hooks,
    the time-series sampler among them, keep the kernel);
    "kernel" requires the kernel engine and raises if unsupported;
    "reference" forces the original object-graph engine.  The two
    engines are bit-identical (tests/sim/test_kernel_parity.py), so this
    choice affects wall-clock speed only."""

    # --- validation (repro.checks) ---
    sanitize: bool = False
    """Attach the RTSan invariant sanitizer to every simulation run:
    after each event the lock table, the §3.3.4 theorems (no lock wait
    under CCA, no mutual wound pair), priority total-order consistency,
    calendar monotonicity and IOwait-schedule compatibility are
    validated, raising :class:`repro.checks.InvariantViolation` on the
    first breach.  Results are bit-identical with or without it; off by
    default and zero-cost when off (docs/CHECKS.md)."""

    # --- deadline semantics ---
    firm_deadlines: bool = False
    """Soft deadlines (paper default: late transactions keep running and
    count as misses) vs firm deadlines ([Har91]: a transaction that
    reaches its deadline uncommitted is aborted and discarded)."""

    # --- run shape ---
    n_transactions: int = 1000
    arrival_rate: float = 5.0
    """Mean transaction arrivals per second (lambda of the Poisson process)."""
    arrival_model: str = "poisson"
    """"poisson" (the paper) or "bursty" (interrupted Poisson: ON/OFF
    phases with the same long-run rate — see workload.arrivals)."""
    burst_factor: float = 4.0
    """Bursty model: arrival-rate multiplier during ON phases."""
    burst_fraction: float = 0.2
    """Bursty model: long-run fraction of time spent in ON phases."""
    mean_burst_ms: float = 2000.0
    """Bursty model: mean ON-phase duration."""

    def __post_init__(self) -> None:
        if self.n_transaction_types < 1:
            raise ValueError("need at least one transaction type")
        if self.db_size < 1:
            raise ValueError("database must contain at least one item")
        if self.min_slack < 0 or self.max_slack < self.min_slack:
            raise ValueError(
                f"invalid slack range [{self.min_slack}, {self.max_slack}]"
            )
        if self.arrival_rate <= 0:
            raise ValueError("arrival rate must be positive")
        if self.abort_cost < 0:
            raise ValueError("abort cost must be non-negative")
        if not 0.0 <= self.disk_access_prob <= 1.0:
            raise ValueError("disk access probability must be in [0, 1]")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        if self.disk_scheduling not in ("fcfs", "priority"):
            raise ValueError(
                f"disk scheduling must be 'fcfs' or 'priority', "
                f"got {self.disk_scheduling!r}"
            )
        if self.arrival_model not in ("poisson", "bursty"):
            raise ValueError(
                f"arrival model must be 'poisson' or 'bursty', "
                f"got {self.arrival_model!r}"
            )
        if self.criticalness_levels < 1:
            raise ValueError("need at least one criticalness level")
        if self.engine not in ("auto", "kernel", "reference"):
            raise ValueError(
                f"engine must be 'auto', 'kernel' or 'reference', "
                f"got {self.engine!r}"
            )
        if self.update_time_classes is not None and not self.update_time_classes:
            raise ValueError("update_time_classes must be non-empty when given")

    @property
    def mean_interarrival(self) -> float:
        """Mean time between arrivals in ms (the clock unit)."""
        return 1000.0 / self.arrival_rate

    def compute_time_for_type(self, type_id: int) -> float:
        """Per-update CPU time for a transaction type.

        With ``update_time_classes`` set, the types are partitioned into
        ``len(update_time_classes)`` contiguous, near-equal classes
        (paper §4.2: 50 types into 3 classes of 0.4 / 4 / 40 ms).
        """
        if not 0 <= type_id < self.n_transaction_types:
            raise ValueError(f"type id {type_id} out of range")
        if self.update_time_classes is None:
            return self.compute_per_update
        n_classes = len(self.update_time_classes)
        class_index = type_id * n_classes // self.n_transaction_types
        return self.update_time_classes[class_index]

    def replace(self, **changes: object) -> "SimulationConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def canonical_dict(self) -> dict:
        """All fields as a stable, JSON-ready mapping.

        Field names are sorted and sequence values converted to lists, so
        the result serializes identically across processes and sessions.
        The experiment result cache hashes this to fingerprint a
        configuration; every field participates, so changing *any*
        parameter changes the fingerprint.
        """
        raw = dataclasses.asdict(self)
        return {
            name: list(value) if isinstance(value, (tuple, list)) else value
            for name, value in sorted(raw.items())
        }

    @functools.cached_property
    def canonical_json(self) -> str:
        """:meth:`canonical_dict` as compact, key-sorted JSON.

        Computed once per config object (the config is frozen), so the
        result cache fingerprints a sweep's shared config once rather
        than once per cell.  Memoized per object, never on equality:
        ``0.0 == -0.0``, but the two serialize differently.
        """
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
