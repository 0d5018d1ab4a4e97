"""The event-driven RTDBS simulator.

One class simulates both configurations of the paper: the main-memory
database of Section 4 (``config.disk_resident = False``) and the
disk-resident database of Section 5 (single disk, FCFS IO scheduling).

Model
-----

A single CPU executes one transaction at a time.  A transaction is a
sequence of update operations; each operation (1) acquires the item's
exclusive write lock, (2) optionally performs a disk access (disk
configuration only — the CPU is released for the duration), and
(3) computes for the operation's CPU time.

Scheduling points are: transaction arrival, transaction completion,
transaction abort, IO wait start, IO completion, and lock block/release.
At every scheduling point priorities are (re)assigned via the configured
:class:`~repro.core.policy.PriorityPolicy` (the paper's "dynamic priority
assignment with continuous evaluation") and the dispatcher decides who
owns the CPU:

* **Primary selection** (``tr-arrival-schedule`` / ``tr-finish-schedule``)
  — the highest-priority live transaction runs if it is runnable.
* **Secondary selection** (``IOwait-schedule``, pre-analysis policies on
  the disk configuration only) — while the primary waits for IO, only a
  transaction *compatible* with every partially executed transaction may
  use the CPU; otherwise the CPU idles rather than perform a
  noncontributing execution.
* Policies without pre-analysis (EDF-HP, LSF-HP) simply run the
  highest-priority ready transaction.

Conflict resolution is High Priority (wound-wait) and, by default,
**eager**: the moment a transaction is dispatched, every lower-priority
partially executed transaction that is *unsafe* with respect to it (has
accessed an item it might access) is rolled back.  This mirrors the
paper's model — a transaction "accesses its data items when it begins and
immediately after its decision points", so a data conflict with an unsafe
transaction manifests at schedule time, and a noncontributing execution
"must be rolled back when Ti unblocks" (i.e. at the primary's
resume-dispatch, not at some later lock collision).  Under pre-analysis
policies the running transaction always outranks the P-list (Theorem 1's
"no lock wait in CCA").

``eager_wounds=False`` switches to a finer, more optimistic item-level
discipline in which wounds happen only when the running transaction
actually requests a lock an unsafe holder owns — a lower-priority
noncontributing execution can then slip past its wound by committing
first.  The difference is ablated in ``benchmarks/test_ablation.py``.

In both modes a requester that finds a *higher*-priority holder waits on
the item lock; waiting can only arise for non-pre-analysis policies on
the disk configuration (the holder is off doing IO).  Wait-for cycles
are broken at creation time by wounding (they cannot arise under
deadline-static priorities; the check protects the LSF baseline).

Rolling back a wounded transaction costs CPU time (the recovery model's
``rollback_time``), charged to the wounding transaction's schedule before
its operation proceeds — this is the "dynamic cost" the paper's priority
assignment accounts for.

Aborted transactions restart from scratch with their original deadline
(soft deadlines: transactions are never dropped).
"""

from __future__ import annotations

import dataclasses
from types import FunctionType
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.relations import Safety
from repro.config import SimulationConfig
from repro.core.oracle import ConflictOracle, SetOracle
from repro.core.penalty import penalty_of_conflict
from repro.core.policy import PriorityPolicy
from repro.core.scheduler import choose_primary, choose_secondary
from repro.rtdb.cpu import Cpu
from repro.rtdb.database import Database
from repro.rtdb.disk import Disk
from repro.rtdb.locks import LockManager
from repro.rtdb.recovery import FixedRecovery, RecoveryModel
from repro.rtdb.transaction import Transaction, TransactionSpec, TxState
from repro.sim.engine import BudgetExceeded, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import SpanProfiler
    from repro.obs.registry import MetricsRegistry

TraceHook = Callable[..., None]
"""Optional callable(event_name, **fields) invoked on simulator events;
used by tests to check schedule-level invariants."""


def bind_hook(trace: Optional[TraceHook]) -> Optional[TraceHook]:
    """``trace`` as the engines call it: a hook object's Python
    ``__call__`` bound once, so no event pays the interpreter's generic
    callable-object path (an args tuple and kwargs dict per call)."""
    call = getattr(type(trace), "__call__", None)
    return call.__get__(trace) if isinstance(call, FunctionType) else trace

_EPS = 1e-9

#: Tolerance around deadlines: a commit within this of the deadline is on
#: time.  Summation-order float noise (a zero-slack transaction's commit
#: time accumulates op by op; its deadline was computed from the op sum)
#: must never flip a met deadline into a miss.  The firm-deadline kill is
#: scheduled this far after the deadline for the same reason.
DEADLINE_EPSILON = 1e-9


@dataclasses.dataclass(frozen=True)
class TransactionRecord:
    """Per-transaction outcome, kept for committed transactions.

    Not ``slots=True``: a slotted frozen dataclass pickles about 3x
    slower (1,000 records: dumps 1.26 -> 3.60 ms, loads 1.38 ->
    4.25 ms), and every pooled sweep cell ships its records back from a
    worker.  The field order is the cache's row order
    (``experiments/cache.py`` builds records positionally).
    """

    tid: int
    type_id: int
    arrival_time: float
    deadline: float
    commit_time: float
    restarts: int

    @property
    def lateness(self) -> float:
        """Signed lateness (negative = early)."""
        return self.commit_time - self.deadline

    @property
    def tardiness(self) -> float:
        """max(0, lateness) — the paper's "lateness"."""
        return max(0.0, self.lateness)

    @property
    def missed(self) -> bool:
        return self.commit_time > self.deadline + DEADLINE_EPSILON


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one simulated run."""

    policy_name: str
    n_committed: int
    n_missed: int
    total_restarts: int
    makespan: float
    cpu_utilization: float
    disk_utilization: float
    mean_plist_size: float
    records: tuple[TransactionRecord, ...]
    n_dropped: int = 0
    """Transactions killed at their deadline (firm-deadline runs only)."""

    @property
    def miss_percent(self) -> float:
        """Percent of committed transactions that finished late."""
        if self.n_committed == 0:
            return 0.0
        return 100.0 * self.n_missed / self.n_committed

    @property
    def n_total(self) -> int:
        return self.n_committed + self.n_dropped

    @property
    def drop_percent(self) -> float:
        """Percent of transactions killed at their deadline (firm runs)."""
        if self.n_total == 0:
            return 0.0
        return 100.0 * self.n_dropped / self.n_total

    @property
    def miss_or_drop_percent(self) -> float:
        """Deadline failures under either semantics: late commits plus
        firm-deadline kills, over all transactions."""
        if self.n_total == 0:
            return 0.0
        return 100.0 * (self.n_missed + self.n_dropped) / self.n_total

    @property
    def mean_lateness(self) -> float:
        """Mean tardiness over all committed transactions (paper metric)."""
        if not self.records:
            return 0.0
        return sum(r.tardiness for r in self.records) / len(self.records)

    @property
    def mean_signed_lateness(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.lateness for r in self.records) / len(self.records)

    @property
    def restarts_per_transaction(self) -> float:
        if self.n_committed == 0:
            return 0.0
        return self.total_restarts / self.n_committed


class RTDBSimulator:
    """Simulate one workload under one policy.

    Parameters
    ----------
    config:
        The system configuration (disk or main memory, abort cost, ...).
    workload:
        Immutable transaction specs, in any order; arrivals are scheduled
        from their ``arrival_time``.
    policy:
        The priority assignment policy.
    oracle:
        Conflict/safety oracle; defaults to the exact
        :class:`~repro.core.oracle.SetOracle` for flat programs.
    recovery:
        Rollback cost model; defaults to the paper's fixed cost
        (``config.abort_cost``).
    include_rollback_in_penalty:
        Whether the penalty of conflict adds each victim's rollback time
        on top of its effective service time (paper prose: yes;
        pseudo-code: no).  Ablated in the benchmarks.
    eager_wounds:
        Resolve data conflicts at dispatch time (the paper's model,
        default) or lazily at individual lock requests (see the module
        docstring).
    trace:
        Optional hook for schedule-level tests.
    max_events:
        Event-budget guard; defaults to ``5000 * len(workload)``.  A run
        exceeding it raises
        :class:`~repro.sim.engine.EventBudgetExceeded`.
    max_wall_s:
        Real-time budget for ``run()``; ``None`` (default) means
        unbounded.  A livelocked simulation exceeding it raises
        :class:`~repro.sim.engine.WallClockExceeded`, which the sweep
        executor turns into a per-cell timeout failure.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when set,
        the simulator feeds per-policy scheduler counters (preemptions,
        aborts by cause, deadline misses by slack band, penalty-of-
        conflict evaluations, noncontributing CPU time, IO-wait
        scheduling decisions) directly into it.  ``None`` (the default)
        costs nothing on the hot path.
    sanitize:
        Attach the RTSan invariant sanitizer
        (:class:`repro.checks.sanitizer.Sanitizer`): after every event
        the lock table and the paper's schedule theorems are validated,
        raising :class:`repro.checks.InvariantViolation` on the first
        breach.  ``None`` (default) defers to ``config.sanitize``.
        Sanitized runs produce bit-identical results; when off, the
        only cost is the trace hook's existing ``is not None`` check.
    profile:
        Optional :class:`~repro.obs.prof.SpanProfiler`; when set,
        ``run()`` records wall-time spans for its phases
        (``engine.schedule_arrivals``, ``engine.event_loop``) and the
        event loop drops periodic sim-time counter samples.  Profiling
        observes only — results are bit-identical with it attached.
    introspect:
        Accepted for constructor parity with
        :class:`~repro.core.kernel.KernelSimulator` (the engine factory
        passes one kwargs dict to either engine); the ``kernel.*``
        introspection counters it enables describe kernel machinery
        this engine does not have, so it is a no-op here.
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
        if not workload:
            raise ValueError("workload must contain at least one transaction")
        self.config = config
        self.workload = tuple(workload)
        self.database = Database(config.db_size)
        tids = [spec.tid for spec in self.workload]
        if len(set(tids)) != len(tids):
            raise ValueError("workload contains duplicate transaction ids")
        for spec in self.workload:
            for op in spec.operations:
                if op.item not in self.database:
                    raise KeyError(
                        f"transaction {spec.tid} updates item {op.item}, "
                        f"outside the database of size {config.db_size}"
                    )
        self.policy = policy
        self.oracle = oracle if oracle is not None else SetOracle()
        self.recovery = (
            recovery if recovery is not None else FixedRecovery(config.abort_cost)
        )
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
        # Wall-time span profiler; phases recorded in run().  The
        # ``introspect`` flag is accepted for constructor parity with
        # the kernel (the factory passes one kwargs dict to whichever
        # engine it selects) but names kernel-machinery counters this
        # engine does not have, so it is a no-op here.
        self._prof = profile
        self.max_events = (
            max_events if max_events is not None else 5000 * len(workload)
        )
        self.max_wall_s = max_wall_s
        self.max_memory_mb = max_memory_mb

        self.sim = Simulator()
        self.lockmgr = LockManager()
        self.sanitizer = None
        if sanitize if sanitize is not None else config.sanitize:
            from repro.checks.sanitizer import attach

            self.sanitizer = attach(self)
            if self.trace is None:
                self.trace = self.sanitizer.on_trace
            else:
                from repro.obs.hooks import fanout

                # User hook first: a violation's report then includes
                # the offending event in the user's log/trail.
                self.trace = fanout(trace, self.sanitizer.on_trace)
        self.cpu = Cpu()
        self.disk: Optional[Disk] = (
            self._make_disk() if config.disk_resident else None
        )

        self.live: dict[int, Transaction] = {}
        self.running: Optional[Transaction] = None
        self._plist: dict[int, Transaction] = {}
        self._service_event = None
        self._phase = ""
        self._phase_start = 0.0
        self._phase_duration = 0.0
        self._dispatching = False
        self._redispatch = False

        self.total_restarts = 0
        self.n_dropped = 0
        self.records: list[TransactionRecord] = []
        self._plist_area = 0.0
        self._plist_changed_at = 0.0
        self._finished = False

    def _make_disk(self) -> Disk:
        """Build the single disk of the disk-resident configuration.

        A seam for controlled variants (the model checker's engine
        overrides it to install a queue-tie chooser); the default wires
        the configured service discipline exactly as before.
        """
        return Disk(
            self.sim,
            self._on_io_complete,
            order_key=(
                self._priority_key
                if self.config.disk_scheduling == "priority"
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the whole workload and return aggregate results."""
        if self._finished:
            raise RuntimeError("a simulator instance runs exactly once")
        prof = self._prof
        t0 = prof.begin() if prof is not None else 0.0
        for spec in self.workload:
            self.sim.schedule_at(
                spec.arrival_time, self._on_arrival, kind="arrival", payload=spec
            )
            if self.config.firm_deadlines:
                # A hair after the deadline so a commit landing exactly
                # on it (lateness 0, not a miss) survives.
                self.sim.schedule_at(
                    spec.deadline + DEADLINE_EPSILON,
                    self._on_firm_deadline,
                    kind="firm_deadline",
                    payload=spec.tid,
                )
        if prof is not None:
            prof.end(
                "engine.schedule_arrivals",
                "engine",
                t0,
                args={"n": len(self.workload)},
            )
            t0 = prof.begin()
        try:
            self.sim.run(
                max_events=self.max_events,
                max_wall_s=self.max_wall_s,
                max_memory_mb=self.max_memory_mb,
                profile=prof,
            )
        except BudgetExceeded as exc:
            # Partial-progress accounting: how far the cell got before
            # the budget tripped, attached to the exception so sweep
            # failure records (and ``repro validate``) can report it.
            exc.progress.update(
                committed=len(self.records),
                restarts=self.total_restarts,
                dropped=self.n_dropped,
                live=len(self.live),
            )
            raise
        finally:
            if prof is not None:
                prof.end(
                    "engine.event_loop",
                    "engine",
                    t0,
                    args={
                        "policy": self.policy.name,
                        "events": self.sim.events_processed,
                    },
                )
        self._finished = True
        if self.live:
            stuck = sorted(self.live)
            raise RuntimeError(
                f"simulation ended with {len(stuck)} uncommitted transactions "
                f"(first few: {stuck[:5]}); scheduler liveness bug"
            )
        self.lockmgr.assert_consistent()
        if self.lockmgr.locked_items():
            raise RuntimeError("locks left held after all transactions committed")
        self._account_plist()
        makespan = self.sim.now
        n_missed = sum(1 for r in self.records if r.missed)
        return SimulationResult(
            policy_name=self.policy.name,
            n_committed=len(self.records),
            n_missed=n_missed,
            total_restarts=self.total_restarts,
            makespan=makespan,
            cpu_utilization=self.cpu.utilization(makespan),
            disk_utilization=(
                self.disk.utilization(makespan) if self.disk is not None else 0.0
            ),
            mean_plist_size=(self._plist_area / makespan if makespan > 0 else 0.0),
            records=tuple(self.records),
            n_dropped=self.n_dropped,
        )

    def penalty_of_conflict(self, tx: Transaction) -> float:
        """Penalty of conflict for ``tx`` against the current P-list.

        This is the :class:`~repro.core.policy.SystemView` hook the CCA
        policy calls during priority assignment.
        """
        if self._m is not None:
            self._m.penalty_evals.inc()
        return penalty_of_conflict(
            tx,
            self._plist.values(),
            self.oracle,
            recovery=self.recovery,
            include_rollback=self.include_rollback_in_penalty,
            effective_service=self._effective_service,
        )

    def _effective_service(self, tx: Transaction) -> float:
        """Service received, counting the in-flight compute phase."""
        service = tx.service_received
        if (
            tx is self.running
            and self._service_event is not None
            and self._phase == "compute"
        ):
            service += self.sim.now - self._phase_start
        return service

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Priority keys
    # ------------------------------------------------------------------

    def _policy_priority(self, tx: Transaction) -> tuple[float, ...]:
        """Policy priority, with Wait-Promote inheritance when active.

        Under EDF-WP a lock holder is promoted to its highest waiter's
        priority (single-level — sufficient for deadline-static
        priorities) so urgent work queued behind it pulls it through the
        CPU instead of being inverted away.
        """
        priority = self.policy.priority(tx, self)
        if self.policy.wait_promote:
            # Max over all waiters' priorities: order-insensitive, so
            # the set's iteration order cannot leak into the result.
            for item in self.lockmgr.held_items(tx):  # repro: allow[DET003] -- max() is order-insensitive
                for waiter in self.lockmgr.waiters(item):
                    inherited = self.policy.priority(waiter, self)
                    if inherited > priority:
                        priority = inherited
        return priority

    def _priority_key(self, tx: Transaction) -> tuple:
        """Policy priority with a deterministic tid tie-break."""
        return (self._policy_priority(tx), -tx.tid)

    def _selection_key(self, tx: Transaction) -> tuple:
        """Dispatch order: policy priority, sticky to the running
        transaction on ties, then tid."""
        return (
            self._policy_priority(tx),
            1 if tx is self.running else 0,
            -tx.tid,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, event) -> None:
        spec: TransactionSpec = event.payload
        tx = Transaction(spec)
        self.live[tx.tid] = tx
        self._trace("arrival", tx)
        self._dispatch()

    def _on_io_complete(self, tx: Transaction, epoch: int) -> None:
        if tx.epoch != epoch or tx.state is not TxState.IO_WAIT:
            # Stale completion: the transaction was wounded while its
            # access was in progress (paper: it keeps the disk until the
            # transfer ends, but the result is discarded).
            self._trace("io_stale", tx)
            return
        tx.io_pending = False
        tx.state = TxState.READY
        self._trace("io_complete", tx)
        self._dispatch()

    def _on_firm_deadline(self, event) -> None:
        """Firm semantics ([Har91]): kill the transaction at its deadline."""
        tx = self.live.get(event.payload)
        if tx is None:
            return  # already committed
        if tx is self.running:
            self._preempt(tx)
        elif tx.state is TxState.IO_WAIT and self.disk is not None:
            self.disk.remove_queued(tx)
        elif tx.state is TxState.LOCK_BLOCKED and tx.blocked_on is not None:
            self.lockmgr.remove_waiter(tx, tx.blocked_on)
        self._trace_release(tx, reason="drop")
        woken = self.lockmgr.release_all(tx)
        tx.state = TxState.DROPPED
        tx.epoch += 1  # invalidate any in-flight disk completion
        del self.live[tx.tid]
        self._plist_discard(tx)
        self.n_dropped += 1
        self._trace("drop", tx)
        if self._m is not None:
            self._m.drops.inc()
            self._m.noncontributing_ms.observe(tx.service_received)
        for waiter in woken:
            self._wake_waiter(waiter)
        self._dispatch()

    def _on_phase_complete(self, event) -> None:
        tx: Transaction = event.payload
        if tx is not self.running or event is not self._service_event:
            raise RuntimeError("service completion for a non-running transaction")
        self._service_event = None
        if self._phase == "rollback":
            tx.pending_rollback_work = 0.0
        else:
            tx.service_received += self._phase_duration
            tx.remaining_compute = 0.0
            tx.op_index += 1
        self._run(tx)

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Re-evaluate who should own the CPU (a scheduling point).

        Re-entrant calls (a dispatch decision blocking a transaction and
        triggering another decision) are flattened into a loop.
        """
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
        if desired is self.running:
            return
        if self.running is not None:
            self._preempt(self.running)
        if desired is None:
            return
        self.running = desired
        desired.state = TxState.RUNNING
        if desired.first_dispatch_time is None:
            desired.first_dispatch_time = self.sim.now
        self.cpu.start(self.sim.now)
        self._trace("dispatch", desired)
        if self._m is not None:
            self._m.dispatches.inc()
        if self.eager_wounds and not self.policy.wait_promote:
            self._resolve_conflicts_at_dispatch(desired)
        self._run(desired)

    def _resolve_conflicts_at_dispatch(self, tx: Transaction) -> None:
        """Eager High Priority resolution (the paper's model).

        Every lower-priority partially executed transaction that is
        unsafe with respect to the newly dispatched ``tx`` is rolled back
        now — exactly the set the penalty of conflict priced in.  Higher
        priority unsafe transactions (a primary off doing IO, under
        EDF-HP) are left alone; ``tx``'s execution then runs into their
        item locks and waits, and the wound lands on ``tx`` instead when
        they resume (the paper's noncontributing execution).
        """
        tx_key = self._priority_key(tx)
        victims = [
            other
            for other in self._plist.values()  # repro: allow[DET008] -- same-instant wounds; P-list order is admission order, stable in (config, seed, policy)
            if other.tid != tx.tid
            and self.oracle.safety(other, tx) is Safety.UNSAFE
            and self._priority_key(other) < tx_key
        ]
        for victim in victims:
            cost = self.recovery.rollback_time(victim)
            self._abort(victim, wounded_by=tx, cause="dispatch")
            tx.pending_rollback_work += cost

    def _choose(self) -> Optional[Transaction]:
        runnable = [
            tx
            for tx in self.live.values()  # repro: allow[DET008] -- order-insensitive: choose_* reduce by the total selection key (priority, tid)
            if tx.state in (TxState.READY, TxState.RUNNING)
        ]
        if not runnable:
            return None
        key = self._selection_key
        if self.policy.uses_pre_analysis and self.disk is not None:
            # The primary transaction is the highest-priority live
            # transaction (lock waits cannot exist under pre-analysis
            # policies, so everyone but IO waiters is runnable).
            primary = choose_primary(self.live.values(), key)  # repro: allow[DET008] -- order-insensitive: choose_primary reduces by the total selection key
            if primary is not None and primary.state in (
                TxState.READY,
                TxState.RUNNING,
            ):
                return primary
            # Primary is waiting for IO: IOwait-schedule.
            secondary = choose_secondary(
                runnable, list(self._plist.values()), self.oracle, key  # repro: allow[DET008] -- order-insensitive: the P-list is only probed for compatibility
            )
            if self._m is not None:
                self._m.iowait_decisions.inc()
                if secondary is None:
                    self._m.iowait_idle.inc()
            return secondary
        return choose_primary(runnable, key)

    def _preempt(self, tx: Transaction) -> None:
        """Take the CPU away from ``tx`` mid-phase; it stays READY."""
        if self._service_event is not None:
            elapsed = self.sim.now - self._phase_start
            self.sim.cancel(self._service_event)
            self._service_event = None
            if self._phase == "rollback":
                tx.pending_rollback_work = max(0.0, tx.pending_rollback_work - elapsed)
            else:
                tx.service_received += elapsed
                tx.remaining_compute -= elapsed
                if tx.remaining_compute <= _EPS:
                    # The phase had in fact finished at this very instant.
                    tx.remaining_compute = 0.0
                    tx.op_index += 1
        self.cpu.stop(self.sim.now)
        self.running = None
        tx.state = TxState.READY
        self._trace("preempt", tx)
        if self._m is not None:
            self._m.preempts.inc()

    def _release_cpu(self, tx: Transaction) -> None:
        """The running transaction leaves the CPU voluntarily (IO, lock
        wait, or commit); no phase is in flight."""
        if tx is not self.running:
            raise RuntimeError("only the running transaction can release the CPU")
        if self._service_event is not None:
            raise RuntimeError("CPU released with a service phase in flight")
        self.cpu.stop(self.sim.now)
        self.running = None

    # ------------------------------------------------------------------
    # Running-transaction progression
    # ------------------------------------------------------------------

    def _run(self, tx: Transaction) -> None:
        """Drive the running transaction to its next suspension point."""
        while True:
            if tx.pending_rollback_work > _EPS:
                self._start_phase(tx, "rollback", tx.pending_rollback_work)
                return
            if tx.io_pending:
                tx.state = TxState.IO_WAIT
                self._release_cpu(tx)
                assert self.disk is not None
                self._trace("io_start", tx)
                self.disk.request(tx, tx.current_operation.io_time)
                self._dispatch()
                return
            if tx.remaining_compute > _EPS:
                self._start_phase(tx, "compute", tx.remaining_compute)
                return
            if tx.is_done:
                self._commit(tx)
                return
            if not self._start_operation(tx):
                return  # blocked on a lock; CPU already handed over

    def _start_phase(self, tx: Transaction, phase: str, duration: float) -> None:
        self._phase = phase
        self._phase_start = self.sim.now
        self._phase_duration = duration
        self._service_event = self.sim.schedule(
            duration, self._on_phase_complete, kind=f"{phase}_done", payload=tx
        )

    def _start_operation(self, tx: Transaction) -> bool:
        """Lock acquisition for the next operation.

        Returns True when the operation may proceed (possibly after
        wounding conflicting holders); False when ``tx`` blocked.  With
        shared locks an item may have several conflicting holders (a
        writer arriving at a read-shared item): all lower-priority
        holders are wounded; if any holder outranks ``tx``, it waits.
        """
        op = tx.current_operation
        blockers = self.lockmgr.conflicting_holders(tx, op.item, op.is_write)
        if blockers:
            if all(self._should_wound(tx, holder) for holder in blockers):
                for holder in blockers:
                    cost = self.recovery.rollback_time(holder)
                    self._abort(holder, wounded_by=tx, cause="lock")
                    tx.pending_rollback_work += cost
            else:
                tx.state = TxState.LOCK_BLOCKED
                tx.blocked_on = op.item
                self.lockmgr.enqueue_waiter(tx, op.item)
                if self.trace is not None:
                    self.trace(
                        "lock_wait", time=self.sim.now, tx=tx, item=op.item, holders=blockers
                    )
                if self._m is not None:
                    self._m.lock_waits.inc()
                self._release_cpu(tx)
                self._dispatch()
                return False
        if not self.lockmgr.acquire(tx, op.item, exclusive=op.is_write):
            raise RuntimeError(f"lock {op.item} not grantable after resolution")
        tx.record_access(op.item, write=op.is_write)
        if self.trace is not None:
            self.trace("lock_acquire", time=self.sim.now, tx=tx, item=op.item, exclusive=op.is_write)
        self._advance_node(tx)
        self._note_partially_executed(tx)
        tx.remaining_compute = op.compute_time
        tx.io_pending = self.disk is not None and op.needs_io
        return True

    def _should_wound(self, tx: Transaction, holder: Transaction) -> bool:
        """High Priority resolution: wound or wait?

        Pre-analysis policies always wound — the running transaction is
        the primary and outranks every partially executed transaction
        (paper Section 3.3.2), and secondaries never reach a held lock.
        Wait-Promote policies never wound except to break a wait-for
        cycle (the deadlocks the paper holds against EDF-WP).  Other
        policies wound when the requester outranks the holder, and
        additionally when waiting would close a cycle (possible only
        under continuously re-evaluated priorities such as LSF).
        """
        if self.policy.wait_promote:
            if self._would_deadlock(tx, holder):
                if self.trace is not None:
                    self.trace("deadlock_break", time=self.sim.now, tx=holder, by=tx)
                if self._m is not None:
                    self._m.deadlock_breaks.inc()
                return True
            return False
        if self.policy.uses_pre_analysis:
            return True
        if self._priority_key(tx) > self._priority_key(holder):
            return True
        return self._would_deadlock(tx, holder)

    def _would_deadlock(self, tx: Transaction, holder: Transaction) -> bool:
        """Would ``tx`` waiting on ``holder`` create a wait-for cycle?

        With shared locks the wait-for relation is a DAG walk: a blocked
        transaction waits on *every* holder of its blocking item.
        """
        seen: set[int] = set()
        frontier = [holder]
        while frontier:
            current = frontier.pop()
            if current.tid == tx.tid:
                return True
            if current.tid in seen:
                continue
            seen.add(current.tid)
            if current.state is TxState.LOCK_BLOCKED and current.blocked_on is not None:
                frontier.extend(self.lockmgr.holders(current.blocked_on))
            if len(seen) > len(self.live):
                raise RuntimeError("wait-for walk exceeded the live set")
        return False

    def _advance_node(self, tx: Transaction) -> None:
        """Resolve decision points scheduled at this operation index."""
        for op_index, label in tx.spec.node_schedule:
            if op_index == tx.op_index:
                tx.node_label = label
                if self.trace is not None:
                    self.trace("decision", time=self.sim.now, tx=tx, node=label)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def _commit(self, tx: Transaction) -> None:
        self._release_cpu(tx)
        tx.commit(self.sim.now)
        self._trace_release(tx, reason="commit")
        woken = self.lockmgr.release_all(tx)
        del self.live[tx.tid]
        self._plist_discard(tx)
        self.records.append(
            TransactionRecord(
                tid=tx.tid,
                type_id=tx.spec.type_id,
                arrival_time=tx.arrival_time,
                deadline=tx.deadline,
                commit_time=self.sim.now,
                restarts=tx.restarts,
            )
        )
        self._trace("commit", tx)
        if self._m is not None:
            self._m.commits.inc()
            self._m.restart_counts.observe(tx.restarts)
            if self.sim.now > tx.deadline + DEADLINE_EPSILON:
                self._m.deadline_miss(
                    tx.arrival_time, tx.deadline, tx.spec.resource_time
                )
        for waiter in woken:
            self._wake_waiter(waiter)
        self._dispatch()

    def _abort(
        self, victim: Transaction, wounded_by: Transaction, cause: str = "lock"
    ) -> None:
        """Wound ``victim``: roll it back and restart it from scratch.

        ``cause`` labels where the wound landed: ``"dispatch"`` for the
        eager High Priority resolution at dispatch time, ``"lock"`` for
        a conflict discovered at an individual lock request (including
        deadlock breaks).
        """
        if victim is self.running:
            raise RuntimeError("the running transaction cannot be wounded")
        if victim.state is TxState.IO_WAIT and self.disk is not None:
            # Aborted while queued: leave the queue now.  Aborted while
            # being served: the transfer completes and is discarded
            # (stale epoch).
            self.disk.remove_queued(victim)
        elif victim.state is TxState.LOCK_BLOCKED and victim.blocked_on is not None:
            self.lockmgr.remove_waiter(victim, victim.blocked_on)
        self._trace_release(victim, reason="abort")
        woken = self.lockmgr.release_all(victim)
        if self._m is not None:
            # CPU the victim consumed and must redo — the paper's
            # noncontributing execution cost (recorded before restart()
            # zeroes the service counter).
            self._m.aborts[cause].inc()
            self._m.noncontributing_ms.observe(victim.service_received)
        victim.restart()
        self.total_restarts += 1
        self._plist_discard(victim)
        if self.trace is not None:
            self.trace("abort", time=self.sim.now, tx=victim, by=wounded_by, cause=cause)
        for waiter in woken:
            if waiter.tid != wounded_by.tid:
                self._wake_waiter(waiter)

    def _wake_waiter(self, tx: Transaction) -> None:
        if tx.state is TxState.LOCK_BLOCKED:
            tx.state = TxState.READY
            tx.blocked_on = None
            self._trace("lock_wake", tx)

    # ------------------------------------------------------------------
    # P-list bookkeeping
    # ------------------------------------------------------------------

    def _note_partially_executed(self, tx: Transaction) -> None:
        if tx.tid not in self._plist:
            self._account_plist()
            self._plist[tx.tid] = tx

    def _plist_discard(self, tx: Transaction) -> None:
        if tx.tid in self._plist:
            self._account_plist()
            del self._plist[tx.tid]

    def _account_plist(self) -> None:
        now = self.sim.now
        self._plist_area += len(self._plist) * (now - self._plist_changed_at)
        self._plist_changed_at = now

    # ------------------------------------------------------------------

    def _trace(self, name: str, tx: Transaction) -> None:
        if self.trace is not None:
            self.trace(name, time=self.sim.now, tx=tx)

    def _trace_release(self, tx: Transaction, reason: str) -> None:
        """Emit ``lock_release`` for every lock ``tx`` still holds.

        Called immediately *before* ``release_all`` at each of its three
        call sites (commit, abort, firm-deadline drop), so offline
        analyses see the release on rollback paths too — strict 2PL's
        "locks held to commit/abort" is checkable from the stream alone.
        Emitted only when locks are actually held (a transaction dropped
        before its first operation holds none).
        """
        if self.trace is None:
            return
        held = sorted(self.lockmgr.held_items(tx))
        if held:
            self.trace(
                "lock_release",
                time=self.sim.now,
                tx=tx,
                items=held,
                reason=reason,
            )
