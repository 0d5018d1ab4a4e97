"""The array-oriented kernel engine: the hot path of the simulator, flat.

:class:`KernelSimulator` produces **bit-identical** results to the
reference :class:`~repro.core.simulator.RTDBSimulator` — same
:class:`~repro.core.simulator.SimulationResult` floats, same trace event
stream, same metric counters — while running several times faster.  The
two engines are selectable via ``SimulationConfig.engine`` and run
differentially in ``tests/sim/test_kernel_parity.py``.

Where the time goes, and what this engine does about it:

* **Object churn** — the reference engine builds ``Event`` objects with
  callback closures for every scheduling step and re-materializes
  ``frozenset`` access sets on every oracle call.  Here a transaction is
  a *slot index* into preallocated parallel arrays, an event is a plain
  ``(time, seq, code, slot, token)`` tuple on a ``heapq``, and dispatch
  is an integer ``if``-chain — no allocation on the steady-state path.
* **The penalty-of-conflict scan** — CCA's O(partially-executed) scan
  per priority evaluation is the dominant cost of a sweep cell.  Access
  sets live as integer bitmasks (one ``&`` per safety question, see
  :mod:`repro.core.masks`, at any database size), and the float
  accumulation runs in P-list order with scalar adds, so the sum is
  bit-identical to the reference at any P-list size.
* **Conflict lookups** — ``IOwait-schedule`` compatibility collapses to
  one ``&`` against a precomputed per-slot conflict bitmask (flat
  programs) or two array reads (tree programs via
  :class:`~repro.core.masks.StateTable`).
* **Priority assignment** — policies are integer-coded at construction
  (EDF / FCFS / LSF / CCA(w) / criticalness / static / wait-promote
  flags); evaluating a priority is arithmetic on array cells, not a
  virtual call through policy and transaction objects.

Bit-identity discipline: every floating-point accumulation mirrors the
reference engine's operation order exactly — preemption residues,
penalty sums (service then rollback per victim, P-list order), LSF's
remaining-service loop, CPU/disk busy-time and P-list area accounting.
Deviating "equivalent" math (e.g. suffix-sum caching for LSF) is
deliberately avoided where it would change summation order.

Unsupported features raise :class:`UnsupportedKernelFeature` at
construction; :func:`repro.core.factory.make_simulator` then falls back
to the reference engine (custom policies/oracles/recovery models and
RTSan — the sanitizer validates the reference engine, whose
equivalence to this kernel the differential suite establishes).  Trace
hooks, the time-series sampler among them, run on the kernel.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heapify, heappop, heappush
from operator import add as _add
from operator import is_ as _is
from typing import TYPE_CHECKING, Optional, Sequence

from repro.config import SimulationConfig
from repro.core.masks import SpecMasks, StateTable, mask_items
from repro.core.oracle import (
    ConflictOracle,
    OptimisticConflictOracle,
    SetOracle,
    TreeOracle,
)
from repro.core.policy import (
    CCAPolicy,
    CriticalnessCCAPolicy,
    EDFPolicy,
    EDFWaitPolicy,
    EDFWPPolicy,
    FCFSPolicy,
    LSFPolicy,
    PriorityPolicy,
    StaticEvaluationPolicy,
)
from repro.core.simulator import (
    DEADLINE_EPSILON,
    SimulationResult,
    TraceHook,
    TransactionRecord,
    bind_hook,
)
from repro.rtdb.recovery import FixedRecovery, ProportionalRecovery, RecoveryModel
from repro.rtdb.transaction import TransactionSpec
from repro.sim import engine as _engine
from repro.sim.engine import (
    BudgetExceeded,
    EventBudgetExceeded,
    MemoryBudgetExceeded,
    SimulationError,
    WallClockExceeded,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hooks import KernelIntrospection, SimulatorMetrics
    from repro.obs.prof import AggregateTimer, SpanProfiler
    from repro.obs.registry import MetricsRegistry

_EPS = 1e-9

# -- integer-coded transaction states (mirror TxState) ----------------------
S_READY, S_RUNNING, S_IO_WAIT, S_LOCK_BLOCKED, S_COMMITTED, S_DROPPED = range(6)

# -- integer-coded event kinds ----------------------------------------------
EV_ARRIVAL, EV_FIRM, EV_PHASE, EV_DISK = range(4)

# -- integer-coded policies --------------------------------------------------
P_EDF, P_FCFS, P_LSF, P_CCA = range(4)

# -- phase codes -------------------------------------------------------------
PH_COMPUTE, PH_ROLLBACK = 0, 1

#: Events between wall-clock guard checks (mirrors the reference engine).
_WALL_CHECK_INTERVAL = 512

#: Events between profiler counter-track samples (sim time, live set,
#: P-list size).  Coarse on purpose: sampling is for trace-viewer
#: context, not statistics, and must stay far inside the <=5 % overhead
#: budget.
_PROF_SAMPLE_INTERVAL = 256


class UnsupportedKernelFeature(RuntimeError):
    """The kernel cannot (bit-faithfully) run this configuration.

    Raised at construction; the engine factory treats it as "use the
    reference engine instead".
    """


class _SlotView:
    """Lightweight stand-in for a :class:`Transaction` in trace events.

    Exposes only ``tid`` — exactly what :class:`repro.tracing.EventLog`
    flattens trace payloads down to — so kernel trace streams are
    record-for-record identical to reference ones.
    """

    __slots__ = ("tid",)

    def __init__(self, tid: int) -> None:
        self.tid = tid

    def __repr__(self) -> str:
        return f"_SlotView(tid={self.tid})"


class _EncodedPolicy:
    """A :class:`PriorityPolicy` compiled to integer codes and flags."""

    __slots__ = (
        "code",
        "weight",
        "weight_is_inf",
        "criticalness",
        "static",
        "wait_promote",
        "uses_pre_analysis",
        "arity",
    )

    def __init__(self, policy: PriorityPolicy) -> None:
        self.static = False
        inner = policy
        # Exact-type checks throughout: a user subclass overriding
        # ``priority()`` must fall back to the reference engine, not be
        # silently encoded as its base class.
        if type(policy) is StaticEvaluationPolicy:
            self.static = True
            inner = policy.inner
            if isinstance(inner, StaticEvaluationPolicy):
                raise UnsupportedKernelFeature("nested static policy wrappers")
        self.weight = 0.0
        self.weight_is_inf = False
        self.criticalness = False
        if type(inner) is CriticalnessCCAPolicy:
            self.code = P_CCA
            self.criticalness = True
            self.weight = inner.penalty_weight
        elif type(inner) in (CCAPolicy, EDFWaitPolicy):
            self.code = P_CCA
            self.weight = inner.penalty_weight
        elif type(inner) in (EDFPolicy, EDFWPPolicy):
            self.code = P_EDF
        elif type(inner) is LSFPolicy:
            self.code = P_LSF
        elif type(inner) is FCFSPolicy:
            self.code = P_FCFS
        else:
            raise UnsupportedKernelFeature(
                f"policy {type(policy).__name__} has no kernel encoding"
            )
        self.weight_is_inf = math.isinf(self.weight)
        # Behavioural flags come from the *outer* policy object, exactly
        # as the reference simulator reads them (the static wrapper
        # intentionally does not forward wait_promote).
        self.wait_promote = policy.wait_promote
        self.uses_pre_analysis = policy.uses_pre_analysis
        base_arity = 2 if self.code == P_CCA else 1
        self.arity = base_arity + (1 if self.criticalness else 0)


class _EncodedOracle:
    """A reference oracle compiled to mask/table form."""

    __slots__ = ("flat", "table", "downgrade_conditional")

    def __init__(self, oracle: ConflictOracle) -> None:
        self.downgrade_conditional = False
        while isinstance(oracle, OptimisticConflictOracle):
            self.downgrade_conditional = True
            oracle = oracle.inner
        self.table: Optional[StateTable] = None
        if isinstance(oracle, TreeOracle):
            self.flat = False
            self.table = StateTable(oracle.table)
        elif type(oracle) is SetOracle:
            self.flat = True
        else:
            raise UnsupportedKernelFeature(
                f"oracle {type(oracle).__name__} has no kernel encoding"
            )


class _WorkloadTables:
    """The per-workload part of a kernel: spec arrays, op table, masks.

    Every array is indexed by slot (workload order) and depends only on
    the specs and the database size, never on the policy, so kernels
    replaying one workload under several policies share one build (see
    :func:`_workload_tables`).  Kernels only read these arrays.

    The flat operation table has one segment per distinct operations
    tuple (per type off disk: the generator shares them); slot i's ops
    live at ``[op_off[i], op_off[i] + n_ops[i])``.  A segment's item
    check, resource time (``TransactionSpec.resource_time``'s additions,
    in order) and masks (as ``SpecMasks.from_specs``) are built once,
    keyed by tuple identity: ``workload`` keeps the tuples alive, and a
    content hash would cost more than the build it saves.
    """

    __slots__ = (
        "workload", "db_size", "tid", "slot_of_tid", "arrival", "deadline",
        "type_id", "crit", "node_schedule", "program", "op_item",
        "op_compute", "op_io", "op_write", "op_off", "n_ops",
        "resource_time", "masks",
    )

    def __init__(self, workload: tuple[TransactionSpec, ...], db_size: int) -> None:
        self.workload = workload
        self.db_size = db_size
        self.tid = [spec.tid for spec in workload]
        self.slot_of_tid = {spec.tid: slot for slot, spec in enumerate(workload)}
        self.arrival = [spec.arrival_time for spec in workload]
        self.deadline = [spec.deadline for spec in workload]
        self.type_id = [spec.type_id for spec in workload]
        self.crit = [float(spec.criticalness) for spec in workload]
        self.node_schedule = [spec.node_schedule for spec in workload]
        self.program = [spec.program_name for spec in workload]
        op_item: list[int] = []
        op_compute: list[float] = []
        op_io: list[float] = []
        op_write: list[bool] = []
        segments: dict[int, tuple[int, int, float, int, int]] = {}
        rows = []
        for spec in workload:
            key = id(spec.operations)  # repro: allow[DET004] -- lookup-only memo, never iterated
            row = segments.get(key)
            if row is None:
                off = len(op_item)
                data_mask = write_mask = 0
                for op in spec.operations:
                    if not 0 <= op.item < db_size:
                        raise KeyError(
                            f"transaction {spec.tid} updates item {op.item}, "
                            f"outside the database of size {db_size}"
                        )
                    bit = 1 << op.item
                    data_mask |= bit
                    if op.is_write:
                        write_mask |= bit
                    op_item.append(op.item)
                    op_compute.append(op.compute_time)
                    op_io.append(op.io_time)
                    op_write.append(op.is_write)
                resource_time = sum(map(_add, op_compute[off:], op_io[off:]))
                row = segments[key] = (
                    off, len(op_item) - off, resource_time, data_mask, write_mask
                )
            rows.append(row)
        self.op_item, self.op_compute, self.op_io, self.op_write = (
            op_item, op_compute, op_io, op_write
        )
        self.op_off, self.n_ops, self.resource_time, data_masks, write_masks = map(
            list, zip(*rows)
        )
        self.masks = SpecMasks(data_masks, write_masks, max(1, (db_size + 63) // 64))

    def serves(self, workload: tuple[TransactionSpec, ...], db_size: int) -> bool:
        """Whether these tables were built from exactly these specs
        (the same objects; specs are frozen) at this database size."""
        return (
            db_size == self.db_size
            and len(workload) == len(self.workload)
            and all(map(_is, workload, self.workload))
        )


#: The most recent build: a sweep task replays one workload under each
#: of its policies in turn, so one entry is all the reuse there is.
_last_tables: Optional[_WorkloadTables] = None


def _workload_tables(
    workload: tuple[TransactionSpec, ...], db_size: int
) -> _WorkloadTables:
    """The :class:`_WorkloadTables` of ``workload``, built at most once
    for consecutive kernels on the same specs."""
    global _last_tables
    tables = _last_tables
    if tables is None or not tables.serves(workload, db_size):
        tables = _last_tables = _WorkloadTables(workload, db_size)
    return tables


class KernelSimulator:
    """Array-oriented drop-in for :class:`RTDBSimulator`.

    Accepts the same constructor arguments and returns the same
    :class:`SimulationResult`.  See the module docstring for what is
    flattened and why; see :class:`UnsupportedKernelFeature` for what
    falls back to the reference engine.
    """

    def __init__(
        self,
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
    ) -> None:
        if sanitize if sanitize is not None else config.sanitize:
            raise UnsupportedKernelFeature(
                "RTSan validates the reference engine (see docs/KERNEL.md)"
            )
        if not workload:
            raise ValueError("workload must contain at least one transaction")
        tids = [spec.tid for spec in workload]
        if len(set(tids)) != len(tids):
            raise ValueError("workload contains duplicate transaction ids")

        self.config = config
        self.workload = tuple(workload)
        self.policy = policy
        self._p = _EncodedPolicy(policy)
        self._o = _EncodedOracle(oracle if oracle is not None else SetOracle())
        recovery = recovery if recovery is not None else FixedRecovery(config.abort_cost)
        if type(recovery) is FixedRecovery:
            self._recovery_fixed: Optional[float] = recovery.cost
            self._recovery_floor = 0.0
            self._recovery_factor = 0.0
        elif type(recovery) is ProportionalRecovery:
            self._recovery_fixed = None
            self._recovery_floor = recovery.floor
            self._recovery_factor = recovery.factor
        else:
            raise UnsupportedKernelFeature(
                f"recovery model {type(recovery).__name__} has no kernel encoding"
            )
        self.recovery = recovery
        self.include_rollback_in_penalty = include_rollback_in_penalty
        self.eager_wounds = eager_wounds
        self.trace = bind_hook(trace)
        self.metrics = metrics
        if metrics is not None:
            from repro.obs.hooks import SimulatorMetrics

            self._m: Optional["SimulatorMetrics"] = SimulatorMetrics(
                metrics, policy.name
            )
        else:
            self._m = None
        # Span profiler and introspection bundle.  Both are observers
        # only: profiling attributes wall time (results stay
        # bit-identical), introspection adds the kernel.* counter family
        # to the registry.  The kernel.* series have no reference-engine
        # counterpart, so they are opt-in — a plain metrics run keeps
        # kernel and reference snapshots identical for the differential
        # parity suite.
        self._prof = profile
        if introspect and metrics is not None:
            from repro.obs.hooks import KernelIntrospection

            self._ik: Optional["KernelIntrospection"] = KernelIntrospection(
                metrics, policy.name
            )
        else:
            self._ik = None
        if profile is not None:
            # Pre-bound aggregate timers, indexed by event code
            # (EV_ARRIVAL, EV_FIRM, EV_PHASE, EV_DISK): per-event timing
            # is two clock reads through a bound handle.  Penalty scans
            # are counted but not timed — at sub-microsecond per scan
            # the clock reads themselves would blow the overhead budget.
            self._ev_timers: Optional[tuple["AggregateTimer", ...]] = (
                profile.timer("kernel.ev_arrival"),
                profile.timer("kernel.ev_firm"),
                profile.timer("kernel.ev_phase"),
                profile.timer("kernel.ev_disk"),
            )
        else:
            self._ev_timers = None
        self.max_events = (
            max_events if max_events is not None else 5000 * len(workload)
        )
        self.max_wall_s = max_wall_s
        self.max_memory_mb = max_memory_mb

        n = len(self.workload)
        self._n = n
        # -- immutable per-workload tables (shared, see _WorkloadTables) ----
        tables = _workload_tables(self.workload, config.db_size)
        self._tid = tables.tid
        self._slot_of_tid = tables.slot_of_tid
        self._arrival = tables.arrival
        self._deadline = tables.deadline
        self._type_id = tables.type_id
        self._crit = tables.crit
        self._node_schedule = tables.node_schedule
        self._program = tables.program
        self._op_item = tables.op_item
        self._op_compute = tables.op_compute
        self._op_io = tables.op_io
        self._op_write = tables.op_write
        self._op_off = tables.op_off
        self._n_ops = tables.n_ops
        self._resource_time = tables.resource_time
        self._masks = tables.masks
        # Observe the lazy conflict-slot materialization without changing
        # when it happens.  The masks are shared, so the hook belongs to
        # the most recently built kernel (None clears a previous one's).
        self._masks.on_build = (
            self._on_mask_build
            if profile is not None or (introspect and metrics is not None)
            else None
        )

        # -- tree-oracle state ids ------------------------------------------
        if self._o.table is not None:
            table = self._o.table
            self._init_state = [
                table.state_index.get((spec.program_name, spec.program_name), -1)
                for spec in self.workload
            ]
        else:
            self._init_state = [0] * n
        self._node_state = list(self._init_state)
        self._node_label = [spec.program_name for spec in self.workload]

        # -- mutable per-slot runtime state ---------------------------------
        self._state = [S_READY] * n
        self._op_index = [0] * n
        self._remaining = [0.0] * n
        self._pending_rollback = [0.0] * n
        self._io_pending = [False] * n
        self._service = [0.0] * n
        self._restarts = [0] * n
        self._epoch = [0] * n
        self._blocked_on = [-1] * n
        self._first_dispatch: list[Optional[float]] = [None] * n
        self._acc_mask = [0] * n
        self._aw_mask = [0] * n

        # -- lock table ------------------------------------------------------
        db = config.db_size
        self._holders: list[dict[int, None]] = [dict() for _ in range(db)]
        self._excl = bytearray(db)
        self._held_mask = [0] * n
        self._waiters: list[list[int]] = [[] for _ in range(db)]
        self._n_waiting = 0

        # -- scheduler state -------------------------------------------------
        self.live: dict[int, None] = {}
        self.running: Optional[int] = None
        self._plist: dict[int, None] = {}
        self._plist_slotmask = 0
        self._dispatching = False
        self._redispatch = False
        self._phase = PH_COMPUTE
        self._phase_start = 0.0
        self._phase_duration = 0.0
        self._service_active = False
        self._service_token = 0
        self._frozen: dict[tuple[int, int], tuple] = {}
        # EDF and FCFS priorities depend only on immutable spec fields,
        # so their full selection / wound keys can be precomputed per
        # slot: (not-running key, running key, wound key).  Restarts do
        # not change them, and the static-evaluation wrapper freezes
        # values that are already frozen, so both are covered.
        if self._p.code in (P_EDF, P_FCFS) and not self._p.wait_promote:
            vals = self._deadline if self._p.code == P_EDF else self._arrival
            self._fast_keys: Optional[list[tuple[tuple, tuple, tuple]]] = [
                (
                    (-vals[s], 0, -self._tid[s]),
                    (-vals[s], 1, -self._tid[s]),
                    (-vals[s], -self._tid[s]),
                )
                for s in range(n)
            ]
        else:
            self._fast_keys = None
        # Dynamic policies with neither static-evaluation caching nor
        # wait-promote inheritance can skip the _policy_priority /
        # _raw_priority indirection entirely.
        self._direct_prio = not self._p.wait_promote and not self._p.static
        # Plain finite-weight CCA keys are bounded above by the
        # zero-penalty key: key[0] = -(deadline + w * penalty) with
        # w >= 0 and penalty >= 0 (services and recovery costs are
        # non-negative), so -deadline is a sound upper bound on key[0].
        # Comparisons against a key that beats the bound strictly can
        # then skip the exact penalty scan; prune sites still credit
        # penalty_evals so the metric equals the reference count.
        self._cca_bound = (
            self._direct_prio
            and self._p.code == P_CCA
            and not self._p.weight_is_inf
            and not self._p.criticalness
            and self._p.weight >= 0
            and self._recovery_factor >= 0
            and self._recovery_floor >= 0
            and (self._recovery_fixed is None or self._recovery_fixed >= 0)
        )

        # -- event heap ------------------------------------------------------
        self.now = 0.0
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = 0
        self._live_events = 0
        self._events_fired = 0
        self._fired = 0
        # Operation fusion is observable only through the trace stream
        # (it changes which instants get their own events), so a
        # traced run falls back to strict per-boundary execution.
        self._fuse = trace is None
        self._fused_ops = 0
        # With static keys (EDF/FCFS), an arrival whose not-running key
        # is below the runner's running key provably leaves the dispatch
        # choice unchanged (every other live slot already lost against
        # static keys, and arrivals mutate nothing else a span reads),
        # so spans may extend straight through it: the arrival event
        # fires mid-span as a no-op dispatch.  Requires that arrivals
        # and stale phase events are the only things the heap can
        # deliver mid-span — no firm-deadline or disk events.
        self._cross = (
            self._fuse
            and self._fast_keys is not None
            and not config.firm_deadlines
            and not config.disk_resident
        )
        self._arr_order: list[int] = (
            sorted(range(n), key=lambda s: (self._arrival[s], s))
            if self._cross
            else []
        )
        self._arr_ptr = 0

        # -- resources -------------------------------------------------------
        self._cpu_busy = 0.0
        self._cpu_busy_since: Optional[float] = None
        self._disk_resident = config.disk_resident
        self._disk_priority = config.disk_scheduling == "priority"
        self._disk_queue: list[tuple[int, int, float]] = []
        self._disk_active: Optional[tuple[int, int, float]] = None
        self._disk_busy = 0.0
        self._disk_served = 0

        # -- aggregates ------------------------------------------------------
        self.total_restarts = 0
        self.n_dropped = 0
        self._records: list[tuple[int, int, float, float, float, int]] = []
        self._plist_area = 0.0
        self._plist_changed_at = 0.0
        self._finished = False

        self._views: list[_SlotView] = (
            [_SlotView(tid) for tid in self._tid] if trace is not None else []
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the whole workload and return aggregate results."""
        if self._finished:
            raise RuntimeError("a simulator instance runs exactly once")
        # Prime the heap in one pass: same entries, same seq numbers as
        # per-event _push calls, heapified once.
        firm = self.config.firm_deadlines
        heap = self._heap
        seq = self._seq
        for slot in range(self._n):
            heap.append((self._arrival[slot], seq, EV_ARRIVAL, slot, 0))
            seq += 1
            if firm:
                heap.append(
                    (self._deadline[slot] + DEADLINE_EPSILON, seq, EV_FIRM, slot, 0)
                )
                seq += 1
        self._seq = seq
        self._live_events += len(heap)
        heapify(heap)
        prof = self._prof
        try:
            if prof is None:
                self._event_loop()
            else:
                t0 = prof.begin()
                try:
                    self._event_loop()
                finally:
                    prof.end(
                        "kernel.event_loop",
                        "engine",
                        t0,
                        args={"policy": self.policy.name, "events": self._fired},
                    )
        except BudgetExceeded as exc:
            # Partial-progress accounting, mirroring the reference
            # engine: sweep failure records report how far the cell got.
            exc.progress.update(
                committed=len(self._records),
                restarts=self.total_restarts,
                dropped=self.n_dropped,
                live=len(self.live),
            )
            raise
        self._finished = True
        if self._ik is not None:
            self._ik.events_fired.inc(self._fired)
        if self.live:
            stuck = sorted(self._tid[slot] for slot in self.live)
            raise RuntimeError(
                f"simulation ended with {len(stuck)} uncommitted transactions "
                f"(first few: {stuck[:5]}); scheduler liveness bug"
            )
        self._assert_locks_clean()
        self._account_plist()
        makespan = self.now
        records = tuple(
            TransactionRecord(
                tid=tid,
                type_id=type_id,
                arrival_time=arrival,
                deadline=deadline,
                commit_time=commit,
                restarts=restarts,
            )
            for tid, type_id, arrival, deadline, commit, restarts in self._records
        )
        n_missed = sum(1 for r in records if r.missed)
        return SimulationResult(
            policy_name=self.policy.name,
            n_committed=len(records),
            n_missed=n_missed,
            total_restarts=self.total_restarts,
            makespan=makespan,
            cpu_utilization=self._cpu_utilization(makespan),
            disk_utilization=self._disk_utilization(makespan),
            mean_plist_size=(self._plist_area / makespan if makespan > 0 else 0.0),
            records=records,
            n_dropped=self.n_dropped,
        )

    # ------------------------------------------------------------------
    # Event heap (mirrors Simulator + EventCalendar semantics)
    # ------------------------------------------------------------------

    def _push(self, time: float, code: int, slot: int, token: int) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        heappush(self._heap, (time, self._seq, code, slot, token))
        self._seq += 1
        self._live_events += 1

    def _event_loop(self) -> None:
        heap = self._heap
        timers = self._ev_timers
        max_events = self.max_events
        deadline: Optional[float] = None
        if self.max_wall_s is not None:
            # Wall-clock guard only raises; mirrors the reference engine.
            deadline = _time.perf_counter() + self.max_wall_s  # repro: allow[DET001] -- guard only raises
        mem_limit: Optional[int] = None
        if self.max_memory_mb is not None:
            mem_limit = int(self.max_memory_mb * 1024 * 1024)
        loops = 0
        while self._live_events > 0:
            # Lazily drop cancelled service-phase events (stale tokens),
            # exactly as the calendar's pop skips cancelled entries.
            head = heap[0]
            if head[2] == EV_PHASE and not (
                self._service_active and head[4] == self._service_token
            ):
                heappop(heap)
                continue
            # _fired counts logical event boundaries: fused spans credit
            # one per absorbed boundary, so the budget trips at exactly
            # the same point as strict per-boundary execution.
            if max_events is not None and self._fired >= max_events:
                raise EventBudgetExceeded(
                    f"exceeded max_events={max_events}; likely a runaway loop",
                    {"events": self._fired, "sim_time": self.now},
                )
            if (
                deadline is not None
                and loops % _WALL_CHECK_INTERVAL == 0
                and _time.perf_counter() > deadline  # repro: allow[DET001] -- guard only raises
            ):
                raise WallClockExceeded(
                    f"simulation exceeded max_wall_s={self.max_wall_s} "
                    f"after {self._fired} events (sim time {self.now:g})",
                    {"events": self._fired, "sim_time": self.now},
                )
            if mem_limit is not None and loops % _WALL_CHECK_INTERVAL == 0:
                # Module-qualified so tests can monkeypatch the probe.
                rss = _engine.rss_bytes()
                if rss is not None and rss > mem_limit:
                    raise MemoryBudgetExceeded(
                        f"simulation exceeded max_memory_mb="
                        f"{self.max_memory_mb:g} (rss {rss / 1048576.0:.1f} MB "
                        f"after {self._fired} events, sim time {self.now:g})",
                        {
                            "events": self._fired,
                            "sim_time": self.now,
                            "rss_bytes": rss,
                        },
                    )
            time, _seq, code, slot, token = heappop(heap)
            self._live_events -= 1
            self.now = time
            if timers is None:
                if code == EV_PHASE:
                    self._on_phase_complete(slot)
                elif code == EV_ARRIVAL:
                    self._on_arrival(slot)
                elif code == EV_DISK:
                    self._on_disk_complete()
                else:
                    self._on_firm_deadline(slot)
            else:
                # Profiled twin of the dispatch chain: attribute the
                # handler's wall time to its event-kind aggregate, and
                # drop a coarse counter sample (sim time, live set,
                # P-list size) every few hundred events for the trace
                # viewer's counter tracks.
                timer = timers[code]
                t0 = timer.start()
                if code == EV_PHASE:
                    self._on_phase_complete(slot)
                elif code == EV_ARRIVAL:
                    self._on_arrival(slot)
                elif code == EV_DISK:
                    self._on_disk_complete()
                else:
                    self._on_firm_deadline(slot)
                timer.stop(t0)
                if loops % _PROF_SAMPLE_INTERVAL == 0:
                    self._prof_sample()
            self._fired += 1
            loops += 1
        self._events_fired = self._fired

    def _prof_sample(self) -> None:
        """One counter-track sample (sim time, live set, P-list size)."""
        prof = self._prof
        if prof is not None:
            prof.counter("kernel.sim_time", self.now)
            prof.counter("kernel.live", float(len(self.live)))
            prof.counter("kernel.plist", float(len(self._plist)))

    # ------------------------------------------------------------------
    # Priority keys (integer-coded policy dispatch)
    # ------------------------------------------------------------------

    def _raw_priority(self, slot: int) -> tuple:
        """The policy's priority tuple (static caching included)."""
        if self._p.static:
            key = (self._tid[slot], self._epoch[slot])
            cached = self._frozen.get(key)
            if cached is None:
                cached = self._compute_priority(slot)
                self._frozen[key] = cached
            return cached
        return self._compute_priority(slot)

    def _compute_priority(self, slot: int) -> tuple:
        code = self._p.code
        if code == P_EDF:
            return (-self._deadline[slot],)
        if code == P_FCFS:
            return (-self._arrival[slot],)
        if code == P_LSF:
            return (-self._slack(slot),)
        # CCA family
        penalty = self._penalty_of_conflict(slot)
        deadline = self._deadline[slot]
        if self._p.weight_is_inf:
            base = (0.0 if penalty == 0 else -1.0, -deadline)
        else:
            base = (-(deadline + self._p.weight * penalty), -deadline)
        if self._p.criticalness:
            return (self._crit[slot],) + base
        return base

    def _policy_priority(self, slot: int) -> tuple:
        """Raw priority, with Wait-Promote inheritance when active."""
        priority = self._raw_priority(slot)
        if self._p.wait_promote:
            held = self._held_mask[slot]
            while held:
                low = held & -held
                item = low.bit_length() - 1
                held ^= low
                for waiter in self._waiters[item]:
                    inherited = self._raw_priority(waiter)
                    if inherited > priority:
                        priority = inherited
        return priority

    def _priority_key(self, slot: int) -> tuple:
        fast = self._fast_keys
        if fast is not None:
            return fast[slot][2]
        if self._direct_prio:
            return self._compute_priority(slot) + (-self._tid[slot],)
        return self._policy_priority(slot) + (-self._tid[slot],)

    def _selection_key(self, slot: int) -> tuple:
        fast = self._fast_keys
        if fast is not None:
            entry = fast[slot]
            return entry[1] if slot == self.running else entry[0]
        if self._direct_prio:
            return self._compute_priority(slot) + (
                1 if slot == self.running else 0,
                -self._tid[slot],
            )
        return self._policy_priority(slot) + (
            1 if slot == self.running else 0,
            -self._tid[slot],
        )

    def _slack(self, slot: int) -> float:
        """LSF slack; remaining service accumulated in reference order."""
        remaining = self._remaining[slot] + self._pending_rollback[slot]
        first_unstarted = (
            self._op_index[slot] + 1
            if self._remaining[slot] > 0
            else self._op_index[slot]
        )
        base = self._op_off[slot]
        compute = self._op_compute
        for index in range(base + first_unstarted, base + self._n_ops[slot]):
            remaining += compute[index]
        return self._deadline[slot] - self.now - remaining

    # ------------------------------------------------------------------
    # Oracle queries (bitmask / state-table form)
    # ------------------------------------------------------------------

    def _needs_rollback(self, subject: int, runner: int) -> bool:
        """``Safety.needs_rollback`` of subject wrt runner."""
        if self._o.flat:
            return bool(
                self._aw_mask[subject] & self._masks.data[runner]
                or self._acc_mask[subject] & self._masks.write[runner]
            )
        return self._table_safety(subject, runner) != 0

    def _is_unsafe(self, subject: int, runner: int) -> bool:
        """``safety is Safety.UNSAFE`` of subject wrt runner."""
        if self._o.flat:
            return bool(
                self._aw_mask[subject] & self._masks.data[runner]
                or self._acc_mask[subject] & self._masks.write[runner]
            )
        return self._table_safety(subject, runner) == 2

    def _table_safety(self, subject: int, runner: int) -> int:
        table = self._o.table
        assert table is not None
        s, r = self._node_state[subject], self._node_state[runner]
        if s < 0 or r < 0:
            raise KeyError(
                f"unanalyzed program state for transaction "
                f"{self._tid[subject if s < 0 else runner]}"
            )
        return table.safety_code(s, r)

    def _conflict_possible(self, a: int, b: int) -> bool:
        if self._o.flat:
            return bool(self._masks.conflict_slots[a] >> b & 1)
        table = self._o.table
        assert table is not None
        sa, sb = self._node_state[a], self._node_state[b]
        if sa < 0 or sb < 0:
            raise KeyError(
                f"unanalyzed program state for transaction "
                f"{self._tid[a if sa < 0 else b]}"
            )
        code = table.conflict_code(sa, sb)
        if code == 1 and self._o.downgrade_conditional:
            return False
        return code != 0

    # ------------------------------------------------------------------
    # Penalty of conflict (bitmask loop / state-table loop)
    # ------------------------------------------------------------------

    def _penalty_of_conflict(self, slot: int) -> float:
        if self._m is not None:
            self._m.penalty_evals.inc()
        plist = self._plist
        if not plist:
            return 0.0
        include_rollback = self.include_rollback_in_penalty
        fixed = self._recovery_fixed
        total = 0.0
        ik = self._ik
        if self._o.flat:
            # Scalar bitmask membership, with _needs_rollback and
            # _effective_service inlined (same tests, same float order).
            if ik is not None:
                ik.scan_scalar.inc()
            acc_mask = self._acc_mask
            aw_mask = self._aw_mask
            service = self._service
            slot_data = self._masks.data[slot]
            slot_write = self._masks.write[slot]
            running = (
                self.running
                if self._service_active and self._phase == PH_COMPUTE
                else -1
            )
            for victim in plist:
                if victim == slot:
                    continue
                if aw_mask[victim] & slot_data or acc_mask[victim] & slot_write:
                    effective = service[victim]
                    if victim == running:
                        effective += self.now - self._phase_start
                    total += effective  # repro: allow[DET005] -- plist insertion order is deterministic
                    if include_rollback:
                        total += (  # repro: allow[DET005] -- plist insertion order is deterministic
                            fixed
                            if fixed is not None
                            else self._recovery_floor
                            + self._recovery_factor * service[victim]
                        )
            return total
        if ik is not None:
            ik.scan_table.inc()
        for victim in plist:
            if victim == slot:
                continue
            if self._needs_rollback(victim, slot):
                total += self._effective_service(victim)  # repro: allow[DET005] -- plist insertion order is deterministic
                if include_rollback:
                    total += (  # repro: allow[DET005] -- plist insertion order is deterministic
                        fixed
                        if fixed is not None
                        else self._recovery_floor
                        + self._recovery_factor * self._service[victim]
                    )
        return total

    def _effective_service(self, slot: int) -> float:
        service = self._service[slot]
        if (
            slot == self.running
            and self._service_active
            and self._phase == PH_COMPUTE
        ):
            service += self.now - self._phase_start
        return service

    def _rollback_time(self, slot: int) -> float:
        fixed = self._recovery_fixed
        if fixed is not None:
            return fixed
        return self._recovery_floor + self._recovery_factor * self._service[slot]

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, slot: int) -> None:
        self.live[slot] = None
        self._arr_ptr += 1
        if self.trace is not None:
            self._trace1("arrival", slot)
        self._dispatch()

    def _on_phase_complete(self, slot: int) -> None:
        if slot != self.running:
            raise RuntimeError("service completion for a non-running transaction")
        self._service_active = False
        if self._fused_ops:
            # Credit the boundaries this span absorbed (event-count and
            # budget parity with per-boundary execution).
            self._fired += self._fused_ops
            self._fused_ops = 0
        if self._phase == PH_ROLLBACK:
            self._pending_rollback[slot] = 0.0
        else:
            self._service[slot] += self._phase_duration
            self._remaining[slot] = 0.0
            self._op_index[slot] += 1
        self._run_tx(slot)

    def _on_firm_deadline(self, slot: int) -> None:
        if slot not in self.live:
            return  # already committed
        if slot == self.running:
            self._preempt(slot)
        elif self._state[slot] == S_IO_WAIT and self._disk_resident:
            self._disk_remove_queued(slot)
        elif self._state[slot] == S_LOCK_BLOCKED and self._blocked_on[slot] >= 0:
            self._remove_waiter(slot, self._blocked_on[slot])
        self._trace_release(slot, "drop")
        woken = self._release_all(slot)
        self._state[slot] = S_DROPPED
        self._epoch[slot] += 1  # invalidate any in-flight disk completion
        del self.live[slot]
        self._plist_discard(slot)
        self.n_dropped += 1
        self._trace1("drop", slot)
        if self._m is not None:
            self._m.drops.inc()
            self._m.noncontributing_ms.observe(self._service[slot])
        for waiter in woken:
            self._wake_waiter(waiter)
        self._dispatch()

    def _on_disk_complete(self) -> None:
        request = self._disk_active
        if request is None:
            raise RuntimeError("disk completion for a request that is not active")
        slot, epoch, duration = request
        self._disk_active = None
        self._disk_busy += duration
        self._disk_served += 1
        # Start the next access before delivering the completion, so the
        # completion logic sees an already-advanced disk.
        self._disk_start_next()
        if self._epoch[slot] != epoch or self._state[slot] != S_IO_WAIT:
            self._trace1("io_stale", slot)
            return
        self._io_pending[slot] = False
        self._state[slot] = S_READY
        self._trace1("io_complete", slot)
        self._dispatch()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        if self._dispatching:
            self._redispatch = True
            return
        self._dispatching = True
        try:
            while True:
                self._redispatch = False
                self._dispatch_once()
                if not self._redispatch:
                    break
        finally:
            self._dispatching = False

    def _dispatch_once(self) -> None:
        desired = self._choose()
        if desired == self.running or (desired is None and self.running is None):
            return
        if self.running is not None:
            self._preempt(self.running)
        if desired is None:
            return
        self.running = desired
        self._state[desired] = S_RUNNING
        if self._first_dispatch[desired] is None:
            self._first_dispatch[desired] = self.now
        self._cpu_start()
        if self.trace is not None:
            self._trace1("dispatch", desired)
        if self._m is not None:
            self._m.dispatches.inc()
        if self.eager_wounds and not self._p.wait_promote:
            self._resolve_conflicts_at_dispatch(desired)
        self._run_tx(desired)

    def _resolve_conflicts_at_dispatch(self, slot: int) -> None:
        tx_key = self._priority_key(slot)
        if self._cca_bound:
            metrics = self._m
            ik = self._ik
            deadline = self._deadline
            victims = []
            for other in self._plist:
                if other == slot or not self._is_unsafe(other, slot):
                    continue
                if -deadline[other] < tx_key[0]:
                    # Bounded below tx_key without the penalty scan.
                    if metrics is not None:
                        metrics.penalty_evals.inc()
                    if ik is not None:
                        ik.prune_dispatch.inc()
                    victims.append(other)
                elif self._priority_key(other) < tx_key:
                    victims.append(other)
        else:
            victims = [
                other
                for other in self._plist
                if other != slot
                and self._is_unsafe(other, slot)
                and self._priority_key(other) < tx_key
            ]
        for victim in victims:
            cost = self._rollback_time(victim)
            self._abort(victim, wounded_by=slot, cause="dispatch")
            self._pending_rollback[slot] += cost

    def _choose(self) -> Optional[int]:
        state = self._state
        if not (self._p.uses_pre_analysis and self._disk_resident):
            # Hot path: single fused scan, no runnable list.
            selection_key = self._selection_key
            cca_bound = self._cca_bound
            deadline = self._deadline
            metrics = self._m
            ik = self._ik
            best: Optional[int] = None
            best_key: Optional[tuple] = None
            for slot in self.live:
                if state[slot] <= S_RUNNING:
                    if (
                        cca_bound
                        and best_key is not None
                        and -deadline[slot] < best_key[0]
                    ):
                        # Even the zero-penalty key loses; skip the scan
                        # (still one logical penalty evaluation).
                        if metrics is not None:
                            metrics.penalty_evals.inc()
                        if ik is not None:
                            ik.prune_choose.inc()
                        continue
                    key = selection_key(slot)
                    if best_key is None or key > best_key:
                        best = slot
                        best_key = key
            return best
        runnable = [
            slot for slot in self.live if state[slot] <= S_RUNNING
        ]
        if not runnable:
            return None
        if self._p.uses_pre_analysis and self._disk_resident:
            primary = self._argmax_selection(self.live)
            if primary is not None and state[primary] <= S_RUNNING:
                return primary
            secondary = self._choose_secondary(runnable)
            if self._m is not None:
                self._m.iowait_decisions.inc()
                if secondary is None:
                    self._m.iowait_idle.inc()
            return secondary
        return self._argmax_selection(runnable)

    def _argmax_selection(self, candidates) -> Optional[int]:
        best: Optional[int] = None
        best_key: Optional[tuple] = None
        selection_key = self._selection_key
        for slot in candidates:
            key = selection_key(slot)
            if best_key is None or key > best_key:
                best = slot
                best_key = key
        return best

    def _choose_secondary(self, runnable: list[int]) -> Optional[int]:
        """``IOwait-schedule``: highest-priority compatible ready slot."""
        best: Optional[int] = None
        best_key: Optional[tuple] = None
        if self._o.flat:
            plist_mask = self._plist_slotmask
            conflict_slots = self._masks.conflict_slots
            for slot in runnable:
                if conflict_slots[slot] & plist_mask:
                    continue
                key = self._selection_key(slot)
                if best_key is None or key > best_key:
                    best = slot
                    best_key = key
            return best
        for slot in runnable:
            if not all(
                other == slot or not self._conflict_possible(slot, other)
                for other in self._plist
            ):
                continue
            key = self._selection_key(slot)
            if best_key is None or key > best_key:
                best = slot
                best_key = key
        return best

    def _preempt(self, slot: int) -> None:
        if self._service_active:
            elapsed = self.now - self._phase_start
            self._service_active = False
            self._live_events -= 1  # the in-flight phase event is now stale
            if self._phase == PH_ROLLBACK:
                self._pending_rollback[slot] = max(
                    0.0, self._pending_rollback[slot] - elapsed
                )
            else:
                self._service[slot] += elapsed
                self._remaining[slot] -= elapsed
                if self._remaining[slot] <= _EPS:
                    # The phase had in fact finished at this very instant.
                    self._remaining[slot] = 0.0
                    self._op_index[slot] += 1
        self._cpu_stop()
        self.running = None
        self._state[slot] = S_READY
        if self.trace is not None:
            self._trace1("preempt", slot)
        if self._m is not None:
            self._m.preempts.inc()

    def _release_cpu(self, slot: int) -> None:
        if slot != self.running:
            raise RuntimeError("only the running transaction can release the CPU")
        if self._service_active:
            raise RuntimeError("CPU released with a service phase in flight")
        self._cpu_stop()
        self.running = None

    # ------------------------------------------------------------------
    # Running-transaction progression
    # ------------------------------------------------------------------

    def _run_tx(self, slot: int) -> None:
        while True:
            if self._pending_rollback[slot] > _EPS:
                self._start_phase(slot, PH_ROLLBACK, self._pending_rollback[slot])
                return
            if self._io_pending[slot]:
                self._state[slot] = S_IO_WAIT
                self._release_cpu(slot)
                self._trace1("io_start", slot)
                op_flat = self._op_off[slot] + self._op_index[slot]
                self._disk_request(slot, self._op_io[op_flat])
                self._dispatch()
                return
            if self._remaining[slot] > _EPS:
                if self._fuse:
                    self._start_fused(slot)
                else:
                    self._start_phase(slot, PH_COMPUTE, self._remaining[slot])
                return
            if self._op_index[slot] >= self._n_ops[slot]:
                self._commit(slot)
                return
            if not self._start_operation(slot):
                return  # blocked on a lock; CPU already handed over

    def _start_phase(self, slot: int, phase: int, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"cannot schedule with negative delay {duration}")
        self._phase = phase
        self._phase_start = self.now
        self._phase_duration = duration
        self._service_token += 1
        self._service_active = True
        self._push(self.now + duration, EV_PHASE, slot, self._service_token)

    def _start_fused(self, slot: int) -> None:
        """Schedule the current compute phase, fusing operations into it.

        While the CPU computes, the event heap is frozen: handlers are
        the only event source, and the handler that starts a compute
        phase performs no further scheduling actions (the io,
        lock-blocked, and commit paths of :meth:`_run_tx` all yield the
        CPU instead of starting one, so the dispatch loop's redispatch
        flag is always clear by then).  Any chain of operations whose
        boundaries fall strictly before the earliest pending event
        therefore completes unobserved, and its per-boundary work —
        lock acquisition, access recording, node advancement, service
        accounting — can be done eagerly now, with the whole span
        scheduled as one phase event.  Floats accumulate exactly as the
        per-boundary path would: successive boundary times by repeated
        addition, service by per-operation adds in boundary order.

        A span stops at the last operation, an operation needing disk
        io, a lock conflict, a boundary at or past the heap horizon, or
        the event budget's reach.  The budget cap keeps
        :class:`EventBudgetExceeded` parity exact: a span never crosses
        the boundary at which the per-boundary engine would have
        raised, and a completed span credits one fired event per fused
        boundary (see :meth:`_on_phase_complete`).
        """
        remaining = self._remaining[slot]
        heap = self._heap
        cross = self._cross
        if cross:
            # Heap can only hold arrivals and stale phase events here
            # (both harmless mid-span), so the real horizon is the first
            # future arrival that can actually preempt the runner.  It
            # is found lazily below: the cursor advances only as far as
            # span boundaries actually reach, so the scan work stays
            # proportional to the arrivals genuinely crossed.
            fast = self._fast_keys
            assert fast is not None
            run_key = fast[slot][1]
            arr_order = self._arr_order
            arrival_t = self._arrival
            n_all = self._n
            aidx = aidx0 = self._arr_ptr
            next_arr = arrival_t[arr_order[aidx]] if aidx < n_all else math.inf
            horizon = math.inf
        else:
            aidx = aidx0 = 0
            horizon = heap[0][0] if heap else math.inf
        start = self.now
        end = start + remaining
        fused = 0
        free = False
        if end < horizon:
            # At the span's completion the loop will have counted
            # self._fired + 1 events; the unfused engine fires boundary
            # i (1-based) only while that count + (i - 1) stays below
            # the budget, so at most budget - fired - 2 extra
            # boundaries may be absorbed into this span.
            budget_room = self.max_events - self._fired - 2
            op_index = self._op_index[slot]
            n_ops = self._n_ops[slot]
            op_off = self._op_off[slot]
            op_item = self._op_item
            op_write = self._op_write
            op_compute = self._op_compute
            op_io = self._op_io
            disk = self._disk_resident
            service = self._service
            holders = self._holders
            excl = self._excl
            acc_mask = self._acc_mask
            aw_mask = self._aw_mask
            held_mask = self._held_mask
            node_sched = self._node_schedule[slot]
            svc = service[slot]
            held = held_mask[slot]
            acc = acc_mask[slot]
            aw = aw_mask[slot]
            # Conflict-free span: if no other live transaction holds any
            # lock on this transaction's data set, no op in the rest of
            # the transaction can conflict, so the loop needs no lock
            # work at all.  Mid-span the lock table is unobservable
            # (nothing fires inside a span except, under crossing,
            # arrivals whose dispatch never reads locks), so acquisition
            # is deferred: if the span reaches the final operation it
            # commits in the very next handler and the holds are never
            # materialized — release then has nothing extra to walk —
            # and a truncated span materializes them before its phase
            # event fires, in the same op order as eager acquisition.
            free = (
                not node_sched
                and not disk
                and 0 < n_ops - op_index - 1 <= budget_room
            )
            if free:
                others_held = 0
                for other in self.live:
                    if other != slot:
                        others_held |= held_mask[other]
                free = not (others_held & self._masks.data[slot])
            if free:
                first = op_index + 1
                while True:
                    nxt = op_index + 1
                    if nxt >= n_ops:
                        break
                    compute = op_compute[op_off + nxt]
                    boundary = end + compute
                    if cross:
                        # An op fuses only after every arrival at or
                        # before its boundary is verified skippable, so
                        # a fused span always ends strictly before the
                        # first arrival that can change the dispatch
                        # decision.
                        blocked = False
                        while boundary >= next_arr:
                            if fast[arr_order[aidx]][0] > run_key:
                                blocked = True
                                break
                            aidx += 1
                            next_arr = (
                                arrival_t[arr_order[aidx]]
                                if aidx < n_all
                                else math.inf
                            )
                        if blocked:
                            break
                    elif boundary >= horizon:
                        break
                    svc += remaining
                    op_index = nxt
                    start = end
                    remaining = compute
                    end = boundary
                    fused += 1
                self._op_index[slot] = op_index
                if fused:
                    service[slot] = svc
                    if op_index + 1 < n_ops:
                        # Truncated: materialize the deferred holds.
                        for k in range(op_off + first, op_off + op_index + 1):
                            item = op_item[k]
                            bit = 1 << item
                            holders[item][slot] = None
                            held |= bit
                            acc |= bit
                            if op_write[k]:
                                excl[item] = 1
                                aw |= bit
                        held_mask[slot] = held
                        acc_mask[slot] = acc
                        aw_mask[slot] = aw
            else:
                while fused < budget_room:
                    nxt = op_index + 1
                    if nxt >= n_ops:
                        break
                    op_flat = op_off + nxt
                    if disk and op_io[op_flat] > 0:
                        break
                    item = op_item[op_flat]
                    is_write = op_write[op_flat]
                    current = holders[item]
                    if (
                        current
                        and (is_write or excl[item])
                        and not (len(current) == 1 and slot in current)
                    ):
                        break  # a conflicting holder ends the span
                    compute = op_compute[op_flat]
                    boundary = end + compute
                    if cross:
                        # See the free-span crossing note above.
                        blocked = False
                        while boundary >= next_arr:
                            if fast[arr_order[aidx]][0] > run_key:
                                blocked = True
                                break
                            aidx += 1
                            next_arr = (
                                arrival_t[arr_order[aidx]]
                                if aidx < n_all
                                else math.inf
                            )
                        if blocked:
                            break
                    elif boundary >= horizon:
                        break
                    # Complete the current operation and start the next,
                    # mirroring _on_phase_complete + _start_operation
                    # with the lock acquisition and access recording
                    # inlined.  (The plist insertion of
                    # _note_partially_executed is a no-op past an
                    # operation 0, which always goes through
                    # _start_operation.)
                    svc += remaining
                    op_index = nxt
                    bit = 1 << item
                    current[slot] = None
                    held |= bit
                    acc |= bit
                    if is_write:
                        excl[item] = 1
                        aw |= bit
                    if node_sched:
                        self._op_index[slot] = nxt
                        self._advance_node(slot)
                    start = end
                    remaining = compute
                    end = boundary
                    fused += 1
                self._op_index[slot] = op_index
                if fused:
                    service[slot] = svc
                    held_mask[slot] = held
                    acc_mask[slot] = acc
                    aw_mask[slot] = aw
        ik = self._ik
        if ik is not None and fused:
            # One introspection record per span actually taken: its
            # kind (conflict-free vs locked), length in absorbed
            # boundaries, whether it stopped short of the final
            # operation, and how many arrivals the cursor crossed.
            (ik.span_free if free else ik.span_locked).inc()
            ik.fused_ops.inc(fused)
            ik.span_len.observe(float(fused))
            if self._op_index[slot] + 1 < self._n_ops[slot]:
                ik.fusion_truncated.inc()
            if aidx > aidx0:
                ik.fusion_crossings.inc(aidx - aidx0)
        self._remaining[slot] = remaining
        self._phase = PH_COMPUTE
        self._phase_start = start
        self._phase_duration = remaining
        self._service_token += 1
        self._service_active = True
        self._fused_ops = fused
        self._push(end, EV_PHASE, slot, self._service_token)

    def _start_operation(self, slot: int) -> bool:
        op_flat = self._op_off[slot] + self._op_index[slot]
        item = self._op_item[op_flat]
        is_write = self._op_write[op_flat]
        blockers = self._conflicting_holders(slot, item, is_write)
        if blockers:
            if all(self._should_wound(slot, holder) for holder in blockers):
                for holder in blockers:
                    cost = self._rollback_time(holder)
                    self._abort(holder, wounded_by=slot, cause="lock")
                    self._pending_rollback[slot] += cost
            else:
                self._state[slot] = S_LOCK_BLOCKED
                self._blocked_on[slot] = item
                self._enqueue_waiter(slot, item)
                if self.trace is not None:
                    self.trace(
                        "lock_wait",
                        time=self.now,
                        tx=self._views[slot],
                        item=item,
                        holders=tuple(self._views[h] for h in blockers),
                    )
                if self._m is not None:
                    self._m.lock_waits.inc()
                self._release_cpu(slot)
                self._dispatch()
                return False
        # Grantable by construction here: blockers was empty or every
        # blocker was wounded and _release_all'ed its holds above.
        self._holders[item][slot] = None
        bit = 1 << item
        self._held_mask[slot] |= bit
        self._acc_mask[slot] |= bit
        if is_write:
            self._excl[item] = 1
            self._aw_mask[slot] |= bit
        if self.trace is not None:
            self.trace(
                "lock_acquire",
                time=self.now,
                tx=self._views[slot],
                item=item,
                exclusive=is_write,
            )
        self._advance_node(slot)
        self._note_partially_executed(slot)
        self._remaining[slot] = self._op_compute[op_flat]
        self._io_pending[slot] = self._disk_resident and self._op_io[op_flat] > 0
        return True

    def _should_wound(self, slot: int, holder: int) -> bool:
        if self._p.wait_promote:
            if self._would_deadlock(slot, holder):
                if self.trace is not None:
                    self.trace(
                        "deadlock_break",
                        time=self.now,
                        tx=self._views[holder],
                        by=self._views[slot],
                    )
                if self._m is not None:
                    self._m.deadlock_breaks.inc()
                return True
            return False
        if self._p.uses_pre_analysis:
            return True
        key = self._priority_key(slot)
        if self._cca_bound and -self._deadline[holder] < key[0]:
            # Holder's key is below even at zero penalty: wound without
            # the exact scan (still one logical penalty evaluation).
            if self._m is not None:
                self._m.penalty_evals.inc()
            if self._ik is not None:
                self._ik.prune_wound.inc()
            return True
        if key > self._priority_key(holder):
            return True
        return self._would_deadlock(slot, holder)

    def _would_deadlock(self, slot: int, holder: int) -> bool:
        seen: set[int] = set()
        frontier = [holder]
        while frontier:
            current = frontier.pop()
            if current == slot:
                return True
            if current in seen:
                continue
            seen.add(current)
            if (
                self._state[current] == S_LOCK_BLOCKED
                and self._blocked_on[current] >= 0
            ):
                frontier.extend(self._holders[self._blocked_on[current]])
            if len(seen) > len(self.live):
                raise RuntimeError("wait-for walk exceeded the live set")
        return False

    def _advance_node(self, slot: int) -> None:
        for op_index, label in self._node_schedule[slot]:
            if op_index == self._op_index[slot]:
                self._node_label[slot] = label
                if self._o.table is not None:
                    self._node_state[slot] = self._o.table.state_index.get(
                        (self._program[slot], label), -1
                    )
                if self.trace is not None:
                    self.trace(
                        "decision", time=self.now, tx=self._views[slot], node=label
                    )

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def _commit(self, slot: int) -> None:
        self._release_cpu(slot)
        self._state[slot] = S_COMMITTED
        if self.trace is not None:
            self._trace_release(slot, "commit")
        woken = self._release_all(slot)
        del self.live[slot]
        self._plist_discard(slot)
        self._records.append(
            (
                self._tid[slot],
                self._type_id[slot],
                self._arrival[slot],
                self._deadline[slot],
                self.now,
                self._restarts[slot],
            )
        )
        if self.trace is not None:
            self._trace1("commit", slot)
        if self._m is not None:
            self._m.commits.inc()
            self._m.restart_counts.observe(self._restarts[slot])
            if self.now > self._deadline[slot] + DEADLINE_EPSILON:
                self._m.deadline_miss(
                    self._arrival[slot],
                    self._deadline[slot],
                    self._resource_time[slot],
                )
        for waiter in woken:
            self._wake_waiter(waiter)
        self._dispatch()

    def _abort(self, victim: int, wounded_by: int, cause: str) -> None:
        if victim == self.running:
            raise RuntimeError("the running transaction cannot be wounded")
        if self._state[victim] == S_IO_WAIT and self._disk_resident:
            self._disk_remove_queued(victim)
        elif self._state[victim] == S_LOCK_BLOCKED and self._blocked_on[victim] >= 0:
            self._remove_waiter(victim, self._blocked_on[victim])
        self._trace_release(victim, "abort")
        woken = self._release_all(victim)
        if self._m is not None:
            self._m.aborts[cause].inc()
            self._m.noncontributing_ms.observe(self._service[victim])
        self._restart(victim)
        self.total_restarts += 1
        self._plist_discard(victim)
        if self.trace is not None:
            self.trace(
                "abort",
                time=self.now,
                tx=self._views[victim],
                by=self._views[wounded_by],
                cause=cause,
            )
        for waiter in woken:
            if waiter != wounded_by:
                self._wake_waiter(waiter)

    def _restart(self, slot: int) -> None:
        if self._state[slot] == S_COMMITTED:
            raise RuntimeError(
                f"cannot restart committed transaction {self._tid[slot]}"
            )
        self._state[slot] = S_READY
        self._op_index[slot] = 0
        self._remaining[slot] = 0.0
        self._pending_rollback[slot] = 0.0
        self._io_pending[slot] = False
        self._service[slot] = 0.0
        self._acc_mask[slot] = 0
        self._aw_mask[slot] = 0
        self._node_label[slot] = self._program[slot]
        self._node_state[slot] = self._init_state[slot]
        self._blocked_on[slot] = -1
        self._restarts[slot] += 1
        self._epoch[slot] += 1

    def _wake_waiter(self, slot: int) -> None:
        if self._state[slot] == S_LOCK_BLOCKED:
            self._state[slot] = S_READY
            self._blocked_on[slot] = -1
            self._trace1("lock_wake", slot)

    def _on_mask_build(self, seconds: float) -> None:
        """``conflict_slots`` build hook: count it, attribute its time."""
        ik = self._ik
        if ik is not None:
            ik.mask_builds.inc()
        prof = self._prof
        if prof is not None:
            prof.timer("kernel.mask_build.conflict_slots").add(seconds)

    # ------------------------------------------------------------------
    # P-list bookkeeping
    # ------------------------------------------------------------------

    def _note_partially_executed(self, slot: int) -> None:
        if slot not in self._plist:
            self._account_plist()
            self._plist[slot] = None
            self._plist_slotmask |= 1 << slot

    def _plist_discard(self, slot: int) -> None:
        if slot in self._plist:
            self._account_plist()
            del self._plist[slot]
            self._plist_slotmask &= ~(1 << slot)

    def _account_plist(self) -> None:
        now = self.now
        self._plist_area += len(self._plist) * (now - self._plist_changed_at)
        self._plist_changed_at = now

    # ------------------------------------------------------------------
    # Lock table (flat: holder dicts + held bitmasks + FIFO waiter lists)
    # ------------------------------------------------------------------

    def _conflicting_holders(
        self, slot: int, item: int, exclusive: bool
    ) -> tuple[int, ...]:
        current = self._holders[item]
        if not current or (len(current) == 1 and slot in current):
            return ()
        others = [holder for holder in current if holder != slot]
        if not others:
            return ()
        if self._excl[item]:
            return tuple(others)
        if exclusive:
            return tuple(others)
        return ()

    def _enqueue_waiter(self, slot: int, item: int) -> None:
        queue = self._waiters[item]
        if slot in queue:
            raise ValueError(
                f"transaction {self._tid[slot]} already waiting for item {item}"
            )
        queue.append(slot)
        self._n_waiting += 1

    def _remove_waiter(self, slot: int, item: int) -> None:
        queue = self._waiters[item]
        if queue:
            kept = [w for w in queue if w != slot]
            self._n_waiting -= len(queue) - len(kept)
            self._waiters[item] = kept

    def _release_all(self, slot: int) -> list[int]:
        mask = self._held_mask[slot]
        self._held_mask[slot] = 0
        holders = self._holders
        excl = self._excl
        woken: list[int] = []
        if not self._n_waiting:
            # Nobody is waiting on any lock: plain release, no wake scan.
            while mask:
                low = mask & -mask
                item = low.bit_length() - 1
                mask ^= low
                current = holders[item]
                del current[slot]
                if not current:
                    excl[item] = 0
            return woken
        waiters = self._waiters
        seen: set[int] = set()
        while mask:
            low = mask & -mask
            item = low.bit_length() - 1
            mask ^= low
            current = holders[item]
            del current[slot]
            if not current:
                excl[item] = 0
            queue = waiters[item]
            if queue:
                for waiter in queue:
                    if waiter not in seen:
                        seen.add(waiter)
                        woken.append(waiter)
                self._n_waiting -= len(queue)
                waiters[item] = []
        return woken

    def _assert_locks_clean(self) -> None:
        for item, current in enumerate(self._holders):
            if current:
                raise RuntimeError(
                    "locks left held after all transactions committed"
                )
            if self._excl[item]:
                raise AssertionError(f"free item {item} still flagged exclusive")

    # ------------------------------------------------------------------
    # CPU / disk resources
    # ------------------------------------------------------------------

    def _cpu_start(self) -> None:
        if self._cpu_busy_since is not None:
            raise RuntimeError("CPU already busy")
        self._cpu_busy_since = self.now

    def _cpu_stop(self) -> None:
        if self._cpu_busy_since is None:
            raise RuntimeError("CPU already idle")
        self._cpu_busy += self.now - self._cpu_busy_since
        self._cpu_busy_since = None

    def _cpu_utilization(self, total_time: float) -> float:
        if total_time <= 0:
            return 0.0
        busy = self._cpu_busy
        if self._cpu_busy_since is not None:
            busy += total_time - self._cpu_busy_since
        return min(1.0, busy / total_time)

    def _disk_request(self, slot: int, duration: float) -> None:
        if duration <= 0:
            raise ValueError(
                f"disk access duration must be positive, got {duration}"
            )
        self._disk_queue.append((slot, self._epoch[slot], duration))
        if self._disk_active is None:
            self._disk_start_next()

    def _disk_remove_queued(self, slot: int) -> bool:
        queue = self._disk_queue
        before = len(queue)
        self._disk_queue = [req for req in queue if req[0] != slot]
        return len(self._disk_queue) != before

    def _disk_start_next(self) -> None:
        queue = self._disk_queue
        if not queue:
            return
        if not self._disk_priority:
            request = queue.pop(0)
        else:
            # Priority service: first maximum wins, mirroring max() over
            # the reference deque with re-evaluated dynamic keys.
            best_index = 0
            best_key = self._priority_key(queue[0][0])
            for index in range(1, len(queue)):
                key = self._priority_key(queue[index][0])
                if key > best_key:
                    best_index = index
                    best_key = key
            request = queue.pop(best_index)
        self._disk_active = request
        self._push(self.now + request[2], EV_DISK, request[0], 0)

    def _disk_utilization(self, total_time: float) -> float:
        if not self._disk_resident or total_time <= 0:
            return 0.0
        return min(1.0, self._disk_busy / total_time)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def _trace1(self, name: str, slot: int) -> None:
        if self.trace is not None:
            self.trace(name, time=self.now, tx=self._views[slot])

    def _trace_release(self, slot: int, reason: str) -> None:
        if self.trace is None:
            return
        held = mask_items(self._held_mask[slot])
        if held:
            self.trace(
                "lock_release",
                time=self.now,
                tx=self._views[slot],
                items=held,
                reason=reason,
            )
