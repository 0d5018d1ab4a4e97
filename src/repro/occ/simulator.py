"""Broadcast-commit optimistic concurrency control (OPT-BC style).

Transactions execute without any locks; writes go to a private
workspace.  When a transaction commits, it *validates by broadcast*:
every live transaction that has accessed an item in the committer's
write set has read (or will overwrite) a stale value and is restarted on
the spot.  The committer always wins — there is no wait and no wound
during execution, and a restart needs no undo work (nothing was
published), so aborts carry no CPU cost.

CPU scheduling is priority-preemptive like the locking simulators; EDF
gives Haritsa's OPT-BC.  A CCA-family policy also works — the penalty of
conflict then prices the execution a candidate's *commit* would destroy,
an optimistic variant of cost-consciousness.

The disk-resident configuration is supported: with no locks there are no
noncontributing executions, so during an IO wait the highest-priority
ready transaction simply runs.

Compute phases use the array kernel's operation-fusion span rule,
without the locks (``docs/KERNEL.md``): every operation boundary that
falls strictly before the next pending event is completed eagerly inside
one compute span, so only the span's last boundary costs an event.
Results, ``sim.events_processed`` and event-budget aborts are identical
to per-boundary execution, which a trace hook, ``sim.on_event`` or
``sim.tie_breaker`` selects.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.config import SimulationConfig
from repro.core.oracle import ConflictOracle, SetOracle
from repro.core.penalty import penalty_of_conflict
from repro.core.policy import PriorityPolicy
from repro.core.scheduler import choose_primary
from repro.core.simulator import (
    DEADLINE_EPSILON,
    SimulationResult,
    TraceHook,
    TransactionRecord,
)
from repro.rtdb.cpu import Cpu
from repro.rtdb.database import Database
from repro.rtdb.disk import Disk
from repro.rtdb.transaction import Transaction, TransactionSpec, TxState
from repro.sim.engine import BudgetExceeded, Simulator

_EPS = 1e-9


class OCCSimulator:
    """Simulate one workload under broadcast-commit OCC."""

    def __init__(
        self,
        config: SimulationConfig,
        workload: Sequence[TransactionSpec],
        policy: PriorityPolicy,
        oracle: Optional[ConflictOracle] = None,
        trace: Optional[TraceHook] = None,
        max_events: Optional[int] = None,
        max_wall_s: Optional[float] = None,
        max_memory_mb: Optional[float] = None,
    ) -> None:
        if not workload:
            raise ValueError("workload must contain at least one transaction")
        self.config = config
        self.workload = tuple(workload)
        self.policy = policy
        self.oracle = oracle if oracle is not None else SetOracle()
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
        self.cpu = Cpu()
        self.disk: Optional[Disk] = (
            Disk(self.sim, self._on_io_complete) if config.disk_resident else None
        )
        self.live: dict[int, Transaction] = {}
        self._plist: dict[int, Transaction] = {}
        self.running: Optional[Transaction] = None
        self._service_event = None
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

    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the whole workload and return aggregate results."""
        if self._finished:
            raise RuntimeError("a simulator instance runs exactly once")
        for spec in self.workload:
            self.sim.schedule_at(
                spec.arrival_time, self._on_arrival, kind="arrival", payload=spec
            )
            if self.config.firm_deadlines:
                self.sim.schedule_at(
                    spec.deadline + DEADLINE_EPSILON,
                    self._on_firm_deadline,
                    kind="firm_deadline",
                    payload=spec.tid,
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
                dropped=self.n_dropped,
                live=len(self.live),
            )
            raise
        self._finished = True
        if self.live:
            raise RuntimeError(
                f"simulation ended with {len(self.live)} uncommitted "
                "transactions; scheduler liveness bug"
            )
        self._account_plist()
        makespan = self.sim.now
        return SimulationResult(
            policy_name=f"OCC-{self.policy.name}",
            n_committed=len(self.records),
            n_missed=sum(1 for r in self.records if r.missed),
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
        """SystemView hook (CCA-family policies)."""
        return penalty_of_conflict(
            tx,
            self._plist.values(),
            self.oracle,
            effective_service=self._effective_service,
        )

    def _effective_service(self, tx: Transaction) -> float:
        """Service received, counting the in-flight compute phase."""
        service = tx.service_received
        if tx is self.running and self._service_event is not None:
            service += self.sim.now - self._phase_start
        return service

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------

    def _selection_key(self, tx: Transaction) -> tuple:
        return (
            self.policy.priority(tx, self),
            1 if tx is self.running else 0,
            -tx.tid,
        )

    def _on_arrival(self, event) -> None:
        spec: TransactionSpec = event.payload
        tx = Transaction(spec)
        self.live[tx.tid] = tx
        self._trace("arrival", tx=tx)
        self._dispatch()

    def _on_io_complete(self, tx: Transaction, epoch: int) -> None:
        if tx.epoch != epoch or tx.state is not TxState.IO_WAIT:
            self._trace("io_stale", tx=tx)
            return
        tx.io_pending = False
        tx.state = TxState.READY
        self._trace("io_complete", tx=tx)
        self._dispatch()

    def _on_firm_deadline(self, event) -> None:
        tx = self.live.get(event.payload)
        if tx is None:
            return
        if tx is self.running:
            self._preempt(tx)
        elif tx.state is TxState.IO_WAIT and self.disk is not None:
            self.disk.remove_queued(tx)
        tx.state = TxState.DROPPED
        tx.epoch += 1
        del self.live[tx.tid]
        self._plist_discard(tx)
        self.n_dropped += 1
        self._trace("drop", tx=tx)
        self._dispatch()

    def _on_phase_complete(self, event) -> None:
        tx: Transaction = event.payload
        if tx is not self.running or event is not self._service_event:
            raise RuntimeError("service completion for a non-running transaction")
        self._service_event = None
        tx.service_received += self._phase_duration
        tx.remaining_compute = 0.0
        tx.op_index += 1
        self._run(tx)

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
        runnable = [
            tx
            for tx in self.live.values()  # repro: allow[DET008] -- order-insensitive: choose_primary reduces by the total selection key (priority, tid)
            if tx.state in (TxState.READY, TxState.RUNNING)
        ]
        desired = choose_primary(runnable, self._selection_key)
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
        self._trace("dispatch", tx=desired)
        self._run(desired)

    def _preempt(self, tx: Transaction) -> None:
        if self._service_event is not None:
            elapsed = self.sim.now - self._phase_start
            self.sim.cancel(self._service_event)
            self._service_event = None
            tx.service_received += elapsed
            tx.remaining_compute -= elapsed
            if tx.remaining_compute <= _EPS:
                tx.remaining_compute = 0.0
                tx.op_index += 1
        self.cpu.stop(self.sim.now)
        self.running = None
        tx.state = TxState.READY
        self._trace("preempt", tx=tx)

    # ------------------------------------------------------------------

    def _run(self, tx: Transaction) -> None:
        while True:
            if tx.io_pending:
                tx.state = TxState.IO_WAIT
                self.cpu.stop(self.sim.now)
                self.running = None
                assert self.disk is not None
                self._trace("io_start", tx=tx)
                self.disk.request(tx, tx.current_operation.io_time)
                self._dispatch()
                return
            if tx.remaining_compute > _EPS:
                self._start_compute(tx)
                return
            if tx.is_done:
                self._commit(tx)
                return
            # Next operation: no locks — just note the access and go.
            op = tx.current_operation
            tx.record_access(op.item, write=op.is_write)
            self._advance_node(tx)
            self._note_partially_executed(tx)
            tx.remaining_compute = op.compute_time
            tx.io_pending = self.disk is not None and op.needs_io

    def _start_compute(self, tx: Transaction) -> None:
        """Schedule the current compute phase, fusing operations into it.

        This is the array kernel's span rule without the locks.  While
        the CPU computes, the calendar is frozen: events are the only
        source of change, and the handler that starts a compute phase
        schedules nothing after it (the io and commit paths of
        :meth:`_run` hand the CPU over instead).  Every operation
        boundary strictly before the earliest pending event therefore
        completes unobserved, so its per-boundary work — service
        accounting, ``op_index``, access recording, node advancement —
        is done eagerly now, in boundary order, and only the span's
        last boundary gets a phase event.  Boundary times accumulate
        by repeated addition, as per-boundary scheduling computes them.
        (Past operation 0 the P-list insertion of
        :meth:`_note_partially_executed` is a no-op, so it is skipped.)

        A span stops at the last operation, at an operation needing
        disk io, at a boundary at or past the calendar horizon, or at
        the event budget's reach: it never crosses the boundary at
        which per-boundary execution would raise
        :class:`~repro.sim.engine.EventBudgetExceeded`.  Each fused
        boundary is credited to ``sim.events_processed`` as one fired
        event.  ``_phase_start``/``_phase_duration`` describe the last
        operation only, so a preemption at the horizon — and CCA's
        :meth:`_effective_service` — sees exactly the per-boundary
        state.  Fusion changes which instants fire their own events, so
        it is off whenever a trace hook, ``sim.on_event`` or
        ``sim.tie_breaker`` is attached.
        """
        sim = self.sim
        start = sim.now
        remaining = tx.remaining_compute
        end = start + remaining
        if self.trace is None and sim.on_event is None and sim.tie_breaker is None:
            horizon = sim.calendar.peek_time()
            if horizon is None:
                horizon = math.inf
            operations = tx.spec.operations
            node_schedule = tx.spec.node_schedule
            disk = self.disk is not None
            accessed = tx.accessed
            accessed_writes = tx.accessed_writes
            service = tx.service_received
            op_index = first = tx.op_index
            # Inside this callback events_processed already counts it;
            # boundary k of the span fires as event events_processed + k
            # only while events_processed + k - 1 < max_events, so at
            # most max_events - events_processed - 1 boundaries fuse
            # and the phase event still passes the budget check.
            room = self.max_events - sim.events_processed - 1
            stop = min(len(operations) - 1, first + room)
            while end < horizon and op_index < stop:
                op = operations[op_index + 1]
                if disk and op.needs_io:
                    break
                # Complete the current operation and start the next, as
                # _on_phase_complete + _run would, with record_access
                # inlined.
                service += remaining
                op_index += 1
                accessed.add(op.item)
                if op.is_write:
                    accessed_writes.add(op.item)
                if node_schedule:
                    tx.op_index = op_index
                    self._advance_node(tx)
                start = end
                remaining = op.compute_time
                end = start + remaining
            fused = op_index - first
            if fused:
                tx.op_index = op_index
                tx.service_received = service
                tx.remaining_compute = remaining
                sim._events_processed += fused
        self._phase_start = start
        self._phase_duration = remaining
        self._service_event = sim.schedule_at(
            end, self._on_phase_complete, kind="compute_done", payload=tx
        )

    def _advance_node(self, tx: Transaction) -> None:
        for op_index, label in tx.spec.node_schedule:
            if op_index == tx.op_index:
                tx.node_label = label

    # ------------------------------------------------------------------

    def _commit(self, tx: Transaction) -> None:
        """Validate by broadcast, then commit."""
        self.cpu.stop(self.sim.now)
        self.running = None
        write_set = tx.write_set
        victims = [
            other
            for other in self.live.values()
            if other is not tx and other.accessed & write_set
        ]
        for victim in victims:
            self._restart(victim, invalidated_by=tx)
        tx.commit(self.sim.now)
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
        self._trace("commit", tx=tx, invalidated=victims)
        self._dispatch()

    def _restart(self, victim: Transaction, invalidated_by: Transaction) -> None:
        if victim.state is TxState.IO_WAIT and self.disk is not None:
            self.disk.remove_queued(victim)
        victim.restart()
        self.total_restarts += 1
        self._plist_discard(victim)
        self._trace("abort", tx=victim, by=invalidated_by)

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
