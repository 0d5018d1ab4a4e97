"""Runtime transaction state.

A :class:`TransactionSpec` is the immutable description produced by the
workload generator: type, arrival time, deadline and the operation list.
A :class:`Transaction` is the live object the simulator schedules; it
tracks execution progress, locks, received service, restarts and an
*epoch* counter used to invalidate in-flight events after an abort.

State machine::

    READY ----------------------> RUNNING
      ^   (dispatched)              |  |
      |                             |  +--> IO_QUEUED --> IO_ACTIVE --+
      |  (preempted / woken /       |           (disk FCFS queue)     |
      |   IO done / lock freed)     v                                 |
      +---------------------- LOCK_BLOCKED <--------------------------+
      |                             (EDF-HP only; CCA never waits)
      |
      +--- abort: back to READY with fresh state (same deadline)
    RUNNING --(last op done)--> COMMITTED
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional, Sequence


class TxState(enum.Enum):
    """Lifecycle states of a live transaction.

    ``IO_WAIT`` covers both waiting in the disk queue and being served;
    the :class:`~repro.rtdb.disk.Disk` knows which (``is_serving``), and
    the distinction only matters when an aborted transaction must be
    removed from the queue.
    """

    READY = "ready"
    RUNNING = "running"
    IO_WAIT = "io_wait"
    LOCK_BLOCKED = "lock_blocked"
    COMMITTED = "committed"
    DROPPED = "dropped"
    """Killed at its deadline under firm-deadline semantics ([Har91])."""


@dataclasses.dataclass(frozen=True)
class Operation:
    """One access step: lock ``item`` (exclusively when ``is_write``,
    shared otherwise), optionally fetch it from disk (``io_time`` > 0),
    then compute for ``compute_time`` ms.

    The paper's analysis allows only write locks; ``is_write=False``
    enables the shared-lock extension its conclusion calls for.
    """

    item: int
    compute_time: float
    io_time: float = 0.0
    is_write: bool = True

    def __post_init__(self) -> None:
        # Strictly positive: the simulator detects operation boundaries by
        # the current operation's compute countdown reaching zero.
        if self.compute_time <= 0:
            raise ValueError(f"compute time must be > 0, got {self.compute_time}")
        if self.io_time < 0:
            raise ValueError(f"io time must be >= 0, got {self.io_time}")

    @property
    def needs_io(self) -> bool:
        return self.io_time > 0


@dataclasses.dataclass(frozen=True)
class TransactionSpec:
    """Immutable workload-level description of one transaction."""

    tid: int
    type_id: int
    arrival_time: float
    deadline: float
    operations: tuple[Operation, ...]
    """The accesses in execution order.  The workload generator shares
    one tuple among instances of the same type (and, on disk, the same
    disk legs); sharing is safe because the tuple and its operations are
    immutable."""
    program_name: str = ""
    """Name of the pre-analyzed program this transaction runs (defaults to
    the type id as a string)."""
    criticalness: int = 0
    """Higher is more critical; 0 for the paper's single-class workloads."""
    node_schedule: tuple[tuple[int, str], ...] = ()
    """For tree programs: (op_index, node_label) pairs meaning "upon
    starting operation op_index, the transaction's knowledge state becomes
    node_label" — i.e. the decision point before that operation resolved.
    Empty for flat programs (the state stays at the root)."""

    def __post_init__(self) -> None:
        if not self.operations:
            raise ValueError("a transaction must have at least one operation")
        if self.deadline < self.arrival_time:
            raise ValueError(
                f"deadline {self.deadline} precedes arrival {self.arrival_time}"
            )
        if not self.program_name:
            object.__setattr__(self, "program_name", f"type{self.type_id}")

    @property
    def resource_time(self) -> float:
        """Isolated execution time: all compute plus all disk legs.

        This is the "resource time" that scales the paper's deadline
        formula ``deadline = arrival + resource_time * (1 + slack%)``.
        """
        return sum(op.compute_time + op.io_time for op in self.operations)

    @property
    def cpu_time(self) -> float:
        """Isolated CPU demand only (excludes disk legs)."""
        return sum(op.compute_time for op in self.operations)

    @property
    def write_set(self) -> frozenset[int]:
        """Every item this transaction updates (write-locks)."""
        return frozenset(op.item for op in self.operations if op.is_write)

    @property
    def read_set(self) -> frozenset[int]:
        """Every item this transaction only reads (shared locks)."""
        return frozenset(
            op.item for op in self.operations if not op.is_write
        ) - self.write_set

    @property
    def data_set(self) -> frozenset[int]:
        """Every item this transaction accesses in any mode."""
        return frozenset(op.item for op in self.operations)


class Transaction:
    """Live execution state for one :class:`TransactionSpec`."""

    __slots__ = (
        "spec",
        "state",
        "op_index",
        "remaining_compute",
        "pending_rollback_work",
        "io_pending",
        "service_received",
        "restarts",
        "epoch",
        "accessed",
        "accessed_writes",
        "commit_time",
        "node_label",
        "first_dispatch_time",
        "blocked_on",
    )

    def __init__(self, spec: TransactionSpec) -> None:
        self.spec = spec
        self.state = TxState.READY
        self.op_index = 0
        self.remaining_compute = 0.0
        self.pending_rollback_work = 0.0
        self.io_pending = False
        self.service_received = 0.0
        self.restarts = 0
        self.epoch = 0
        self.accessed: set[int] = set()
        self.accessed_writes: set[int] = set()
        self.commit_time: Optional[float] = None
        self.node_label: str = spec.program_name
        self.first_dispatch_time: Optional[float] = None
        self.blocked_on: Optional[int] = None

    # -- identity & workload passthroughs ------------------------------

    @property
    def tid(self) -> int:
        return self.spec.tid

    @property
    def deadline(self) -> float:
        return self.spec.deadline

    @property
    def arrival_time(self) -> float:
        return self.spec.arrival_time

    @property
    def operations(self) -> Sequence[Operation]:
        return self.spec.operations

    @property
    def write_set(self) -> frozenset[int]:
        return self.spec.write_set

    @property
    def read_set(self) -> frozenset[int]:
        return self.spec.read_set

    @property
    def data_set(self) -> frozenset[int]:
        return self.spec.data_set

    # -- execution progress ---------------------------------------------

    @property
    def current_operation(self) -> Operation:
        return self.spec.operations[self.op_index]

    @property
    def is_done(self) -> bool:
        """All operations completed (ready to commit)."""
        return self.op_index >= len(self.spec.operations)

    @property
    def committed(self) -> bool:
        return self.state is TxState.COMMITTED

    @property
    def partially_executed(self) -> bool:
        """In the paper's P-list: has made progress but not committed.

        A transaction that has accessed at least one item (and hence
        holds locks) is partially executed; a freshly arrived or freshly
        restarted one is not.
        """
        return bool(self.accessed) and not self.committed

    @property
    def remaining_service(self) -> float:
        """CPU time still needed, assuming no further aborts.

        ``remaining_compute > 0`` means the current operation has started
        (its full compute was charged to ``remaining_compute`` at op
        start), so later operations begin at ``op_index + 1``; otherwise
        the current operation has not started and counts in full.
        """
        remaining = self.remaining_compute + self.pending_rollback_work
        first_unstarted = self.op_index + 1 if self.remaining_compute > 0 else self.op_index
        for op in self.spec.operations[first_unstarted:]:
            remaining += op.compute_time
        return remaining

    def slack(self, now: float) -> float:
        """Least-slack value used by the LSF policy."""
        return self.deadline - now - self.remaining_service

    def lateness(self) -> float:
        """Signed lateness; only valid after commit."""
        if self.commit_time is None:
            raise RuntimeError(f"transaction {self.tid} has not committed")
        return self.commit_time - self.deadline

    def tardiness(self) -> float:
        """max(0, lateness); the paper's "lateness" metric."""
        return max(0.0, self.lateness())

    @property
    def missed_deadline(self) -> bool:
        if self.commit_time is None:
            raise RuntimeError(f"transaction {self.tid} has not committed")
        return self.commit_time > self.deadline

    # -- transitions ----------------------------------------------------

    @property
    def accessed_reads(self) -> set[int]:
        """Items accessed in shared mode only."""
        return self.accessed - self.accessed_writes

    def record_access(self, item: int, write: bool = True) -> None:
        """Note that the transaction has accessed ``item``."""
        self.accessed.add(item)
        if write:
            self.accessed_writes.add(item)

    def restart(self) -> None:
        """Abort: discard all progress, keep identity and deadline.

        The epoch counter invalidates any in-flight events referring to
        the old incarnation.
        """
        if self.committed:
            raise RuntimeError(f"cannot restart committed transaction {self.tid}")
        self.state = TxState.READY
        self.op_index = 0
        self.remaining_compute = 0.0
        self.pending_rollback_work = 0.0
        self.io_pending = False
        self.service_received = 0.0
        self.accessed.clear()
        self.accessed_writes.clear()
        self.node_label = self.spec.program_name
        self.blocked_on = None
        self.restarts += 1
        self.epoch += 1

    def commit(self, now: float) -> None:
        if self.committed:
            raise RuntimeError(f"transaction {self.tid} committed twice")
        if not self.is_done:
            raise RuntimeError(
                f"transaction {self.tid} committing with operations outstanding"
            )
        self.state = TxState.COMMITTED
        self.commit_time = now

    def __repr__(self) -> str:
        return (
            f"Transaction(tid={self.tid}, type={self.spec.type_id}, "
            f"state={self.state.value}, op={self.op_index}/"
            f"{len(self.spec.operations)}, restarts={self.restarts})"
        )
