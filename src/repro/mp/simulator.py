"""Event-driven multiprocessor RTDBS simulator (main memory).

Shares the substrate of the single-CPU simulator — transactions, the
lock manager, policies, the penalty of conflict, conflict oracles — but
generalizes the dispatcher to ``n_cpus`` processors:

* At every scheduling point the dispatcher computes the *desired* set of
  up to ``n_cpus`` transactions:

  - policies without pre-analysis (EDF-HP, LSF-HP, FCFS) take the top-k
    runnable transactions by priority;
  - pre-analysis policies (CCA family) admit the globally
    highest-priority runnable transaction unconditionally (the primary),
    then greedily admit only transactions *compatible* — no conflict or
    conditional conflict — with every already-admitted and every
    partially executed transaction.  Spare CPUs idle rather than run a
    noncontributing execution, mirroring ``IOwait-schedule``.

* Running transactions outside the desired set are preempted; eager
  High Priority wounds fire when a transaction is placed on a CPU, as in
  the single-CPU model.  Unlike there, a wound victim may be *running*
  on another CPU (EDF-HP co-runners can conflict): the victim is
  preempted off its CPU and then rolled back.

* Lock requests between co-runners resolve by wound-wait: lower-priority
  holders are wounded, a higher-priority holder makes the requester wait
  (its CPU is freed and refilled).

The disk-resident configuration is intentionally out of scope here (the
paper's announced extension is for shared-memory multiprocessors; disk
contention is orthogonal to CPU parallelism).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.analysis.relations import Safety
from repro.config import SimulationConfig
from repro.core.oracle import ConflictOracle, SetOracle
from repro.core.penalty import penalty_of_conflict
from repro.core.policy import PriorityPolicy
from repro.core.scheduler import is_compatible
from repro.core.simulator import SimulationResult, TraceHook, TransactionRecord
from repro.rtdb.database import Database
from repro.rtdb.locks import LockManager
from repro.rtdb.recovery import FixedRecovery, RecoveryModel
from repro.rtdb.transaction import Transaction, TransactionSpec, TxState
from repro.sim.engine import BudgetExceeded, Simulator

_EPS = 1e-9


@dataclasses.dataclass
class _CpuContext:
    """What one CPU is doing right now."""

    tx: Transaction
    phase: str  # "rollback" or "compute"
    start: float
    duration: float
    event: object


class MultiprocessorSimulator:
    """Simulate one main-memory workload on ``n_cpus`` processors."""

    def __init__(
        self,
        config: SimulationConfig,
        workload: Sequence[TransactionSpec],
        policy: PriorityPolicy,
        n_cpus: int = 2,
        oracle: Optional[ConflictOracle] = None,
        recovery: Optional[RecoveryModel] = None,
        include_rollback_in_penalty: bool = True,
        trace: Optional[TraceHook] = None,
        max_events: Optional[int] = None,
        max_wall_s: Optional[float] = None,
        max_memory_mb: Optional[float] = None,
    ) -> None:
        if not workload:
            raise ValueError("workload must contain at least one transaction")
        if n_cpus < 1:
            raise ValueError(f"need at least one CPU, got {n_cpus}")
        if config.disk_resident:
            raise ValueError(
                "the multiprocessor simulator models the main-memory "
                "configuration only"
            )
        if policy.wait_promote:
            raise ValueError(
                "wait-promote policies (EDF-WP) are not supported on the "
                "multiprocessor simulator (priority inheritance across "
                "CPUs is out of scope)"
            )
        self.config = config
        self.workload = tuple(workload)
        self.policy = policy
        self.n_cpus = n_cpus
        self.oracle = oracle if oracle is not None else SetOracle()
        self.recovery = (
            recovery if recovery is not None else FixedRecovery(config.abort_cost)
        )
        self.include_rollback_in_penalty = include_rollback_in_penalty
        self.trace = trace
        self.max_events = (
            max_events if max_events is not None else 5000 * len(workload)
        )
        self.max_wall_s = max_wall_s
        self.max_memory_mb = max_memory_mb
        self.database = Database(config.db_size)
        tids = [spec.tid for spec in self.workload]
        if len(set(tids)) != len(tids):
            raise ValueError("workload contains duplicate transaction ids")
        for spec in self.workload:
            for op in spec.operations:
                self.database.validate_item(op.item)

        self.sim = Simulator()
        self.lockmgr = LockManager()
        self.live: dict[int, Transaction] = {}
        self._plist: dict[int, Transaction] = {}
        self._contexts: dict[int, _CpuContext] = {}  # keyed by tx.tid
        self._busy_time = 0.0
        self._dispatching = False
        self._redispatch = False

        self.total_restarts = 0
        self.records: list[TransactionRecord] = []
        self._plist_area = 0.0
        self._plist_changed_at = 0.0
        self._finished = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the whole workload and return aggregate results."""
        if self._finished:
            raise RuntimeError("a simulator instance runs exactly once")
        for spec in self.workload:
            self.sim.schedule_at(
                spec.arrival_time, self._on_arrival, kind="arrival", payload=spec
            )
        try:
            self.sim.run(
                max_events=self.max_events,
                max_wall_s=self.max_wall_s,
                max_memory_mb=self.max_memory_mb,
            )
        except BudgetExceeded as exc:
            # Partial progress for the sweep's failure record, as the
            # single-CPU locking engines report it.
            exc.progress.update(
                committed=len(self.records),
                restarts=self.total_restarts,
                live=len(self.live),
            )
            raise
        self._finished = True
        if self.live:
            raise RuntimeError(
                f"simulation ended with {len(self.live)} uncommitted "
                "transactions; scheduler liveness bug"
            )
        self.lockmgr.assert_consistent()
        if self.lockmgr.locked_items():
            raise RuntimeError("locks left held after all transactions committed")
        self._account_plist()
        makespan = self.sim.now
        n_missed = sum(1 for r in self.records if r.missed)
        capacity = makespan * self.n_cpus
        return SimulationResult(
            policy_name=f"{self.policy.name}x{self.n_cpus}",
            n_committed=len(self.records),
            n_missed=n_missed,
            total_restarts=self.total_restarts,
            makespan=makespan,
            cpu_utilization=(self._busy_time / capacity if capacity > 0 else 0.0),
            disk_utilization=0.0,
            mean_plist_size=(self._plist_area / makespan if makespan > 0 else 0.0),
            records=tuple(self.records),
        )

    def penalty_of_conflict(self, tx: Transaction) -> float:
        """SystemView hook for the CCA policy."""
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
        context = self._contexts.get(tx.tid)
        if context is not None and context.phase == "compute":
            service += self.sim.now - context.start
        return service

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def running(self) -> tuple[Transaction, ...]:
        return tuple(context.tx for context in self._contexts.values())

    # ------------------------------------------------------------------
    # Priority keys
    # ------------------------------------------------------------------

    def _priority_key(self, tx: Transaction) -> tuple:
        return (self.policy.priority(tx, self), -tx.tid)

    def _selection_key(self, tx: Transaction) -> tuple:
        return (
            self.policy.priority(tx, self),
            1 if tx.tid in self._contexts else 0,
            -tx.tid,
        )

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _on_arrival(self, event) -> None:
        spec: TransactionSpec = event.payload
        tx = Transaction(spec)
        self.live[tx.tid] = tx
        self._trace("arrival", tx=tx)
        self._dispatch()

    def _on_phase_complete(self, event) -> None:
        tx: Transaction = event.payload
        context = self._contexts.get(tx.tid)
        if context is None or context.event is not event:
            raise RuntimeError("phase completion for a transaction not on a CPU")
        self._busy_time += context.duration
        if context.phase == "rollback":
            tx.pending_rollback_work = 0.0
        else:
            tx.service_received += context.duration
            tx.remaining_compute = 0.0
            tx.op_index += 1
        del self._contexts[tx.tid]
        self._continue(tx)
        # Progressing this transaction may have freed a CPU (a wound
        # preempted a co-runner) or blocked it; refill.
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
        desired = self._choose_set()
        desired_tids = {tx.tid for tx in desired}
        # Preempt running transactions that fell out of the desired set.
        for tid in [t for t in self._contexts if t not in desired_tids]:
            self._preempt(self._contexts[tid].tx)
        # Place the newly admitted ones.
        for tx in desired:
            if tx.tid in self._contexts or tx.state is TxState.RUNNING:
                continue
            self._place(tx)
            if self._redispatch:
                # State changed under us (a block or commit inside
                # _place's progression); restart the dispatch pass.
                return

    def _choose_set(self) -> list[Transaction]:
        """The up-to-``n_cpus`` transactions that should be running."""
        runnable = [
            tx
            for tx in self.live.values()  # repro: allow[DET008] -- order-insensitive: sorted by the full selection key two lines down
            if tx.state in (TxState.READY, TxState.RUNNING)
        ]
        if not runnable:
            return []
        ordered = sorted(runnable, key=self._selection_key, reverse=True)
        if not self.policy.uses_pre_analysis:
            return ordered[: self.n_cpus]
        # CCA-MP: the primary unconditionally, then compatible fill.
        chosen: list[Transaction] = [ordered[0]]
        for tx in ordered[1:]:
            if len(chosen) >= self.n_cpus:
                break
            others = [t for t in self._plist.values() if t.tid != tx.tid]  # repro: allow[DET008] -- order-insensitive: the P-list is only probed for compatibility
            others.extend(t for t in chosen if t.tid != tx.tid)
            if is_compatible(tx, others, self.oracle):
                chosen.append(tx)
        return chosen

    def _place(self, tx: Transaction) -> None:
        """Put ``tx`` on a free CPU and progress it."""
        if len(self._contexts) >= self.n_cpus:
            raise RuntimeError("no free CPU to place a transaction on")
        tx.state = TxState.RUNNING
        if tx.first_dispatch_time is None:
            tx.first_dispatch_time = self.sim.now
        self._trace("dispatch", tx=tx)
        self._resolve_conflicts_at_dispatch(tx)
        self._continue(tx)

    def _resolve_conflicts_at_dispatch(self, tx: Transaction) -> None:
        """Eager High Priority wounds, as in the single-CPU model.

        A victim may be running on another CPU (EDF-HP-MP co-runners can
        conflict); it is preempted off that CPU first.
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
            if victim.tid in self._contexts:
                self._preempt(victim)
            cost = self.recovery.rollback_time(victim)
            self._abort(victim, wounded_by=tx)
            tx.pending_rollback_work += cost

    def _preempt(self, tx: Transaction) -> None:
        """Take ``tx`` off its CPU mid-phase; it returns to READY."""
        context = self._contexts.pop(tx.tid)
        elapsed = self.sim.now - context.start
        self.sim.cancel(context.event)
        self._busy_time += elapsed
        if context.phase == "rollback":
            tx.pending_rollback_work = max(0.0, tx.pending_rollback_work - elapsed)
        else:
            tx.service_received += elapsed
            tx.remaining_compute -= elapsed
            if tx.remaining_compute <= _EPS:
                tx.remaining_compute = 0.0
                tx.op_index += 1
        tx.state = TxState.READY
        self._trace("preempt", tx=tx)
        # A preemption outside a dispatch pass (a wound against a
        # co-runner) frees a CPU; make sure the next dispatch refills it.
        self._redispatch = True

    # ------------------------------------------------------------------
    # Per-transaction progression
    # ------------------------------------------------------------------

    def _continue(self, tx: Transaction) -> None:
        """Drive ``tx`` (RUNNING, not mid-phase) to its next suspension."""
        while True:
            if tx.pending_rollback_work > _EPS:
                self._start_phase(tx, "rollback", tx.pending_rollback_work)
                return
            if tx.remaining_compute > _EPS:
                self._start_phase(tx, "compute", tx.remaining_compute)
                return
            if tx.is_done:
                self._commit(tx)
                return
            if not self._start_operation(tx):
                return

    def _start_phase(self, tx: Transaction, phase: str, duration: float) -> None:
        event = self.sim.schedule(
            duration, self._on_phase_complete, kind=f"{phase}_done", payload=tx
        )
        self._contexts[tx.tid] = _CpuContext(
            tx=tx, phase=phase, start=self.sim.now, duration=duration, event=event
        )

    def _start_operation(self, tx: Transaction) -> bool:
        op = tx.current_operation
        blockers = self.lockmgr.conflicting_holders(tx, op.item, op.is_write)
        if blockers:
            if all(self._should_wound(tx, holder) for holder in blockers):
                for holder in blockers:
                    if holder.tid in self._contexts:
                        self._preempt(holder)
                    cost = self.recovery.rollback_time(holder)
                    self._abort(holder, wounded_by=tx)
                    tx.pending_rollback_work += cost
            else:
                tx.state = TxState.LOCK_BLOCKED
                tx.blocked_on = op.item
                self.lockmgr.enqueue_waiter(tx, op.item)
                self._trace("lock_wait", tx=tx, item=op.item, holders=blockers)
                self._dispatch()
                return False
        if not self.lockmgr.acquire(tx, op.item, exclusive=op.is_write):
            raise RuntimeError(f"lock {op.item} not grantable after resolution")
        tx.record_access(op.item, write=op.is_write)
        self._advance_node(tx)
        self._note_partially_executed(tx)
        tx.remaining_compute = op.compute_time
        return True

    def _should_wound(self, tx: Transaction, holder: Transaction) -> bool:
        # Pre-analysis policies never co-schedule conflicting
        # transactions, so a held lock can only belong to a partially
        # executed transaction the dispatch already outranked: wound
        # (mirrors the single-CPU doctrine and Theorem 1).
        if self.policy.uses_pre_analysis:
            return True
        if self._priority_key(tx) > self._priority_key(holder):
            return True
        return self._would_deadlock(tx, holder)

    def _would_deadlock(self, tx: Transaction, holder: Transaction) -> bool:
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
        for op_index, label in tx.spec.node_schedule:
            if op_index == tx.op_index:
                tx.node_label = label
                self._trace("decision", tx=tx, node=label)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def _commit(self, tx: Transaction) -> None:
        tx.commit(self.sim.now)
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
        self._trace("commit", tx=tx)
        for waiter in woken:
            self._wake_waiter(waiter)
        self._dispatch()

    def _abort(self, victim: Transaction, wounded_by: Transaction) -> None:
        if victim.tid in self._contexts:
            raise RuntimeError("preempt a running victim before aborting it")
        if victim.state is TxState.LOCK_BLOCKED and victim.blocked_on is not None:
            self.lockmgr.remove_waiter(victim, victim.blocked_on)
        woken = self.lockmgr.release_all(victim)
        victim.restart()
        self.total_restarts += 1
        self._plist_discard(victim)
        self._trace("abort", tx=victim, by=wounded_by)
        for waiter in woken:
            if waiter.tid != wounded_by.tid:
                self._wake_waiter(waiter)

    def _wake_waiter(self, tx: Transaction) -> None:
        if tx.state is TxState.LOCK_BLOCKED:
            tx.state = TxState.READY
            tx.blocked_on = None
            self._trace("lock_wake", tx=tx)

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

    def _trace(self, name: str, **fields) -> None:
        if self.trace is not None:
            self.trace(name, time=self.sim.now, **fields)
