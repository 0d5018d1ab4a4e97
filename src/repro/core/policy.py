"""Priority assignment policies (paper Sections 2, 3.2, 3.3.1).

A policy maps a live transaction to a **priority tuple**; tuples compare
lexicographically and *higher is better*.  Ties between distinct
transactions are broken deterministically by the simulator (sticky to the
running transaction, then by transaction id), so policies only encode the
paper-level ordering.

Policies carry two behavioural flags the simulator consults:

* ``continuous`` — re-evaluate priorities at every scheduling point
  (CCA, LSF) rather than once per transaction (EDF, FCFS);
* ``uses_pre_analysis`` — schedule with the CCA machinery: the running
  transaction always wounds lock holders (no lock waits), and during the
  primary transaction's IO waits only *compatible* transactions run
  (``IOwait-schedule``).  EDF-HP and LSF-HP leave this off: they run the
  highest-priority ready transaction regardless of conflicts, producing
  the paper's *noncontributing executions*.

The system object passed to :meth:`PriorityPolicy.priority` must expose
``now`` (the clock) and ``penalty_of_conflict(tx)``; the simulator does.
"""

from __future__ import annotations

import abc
import math
from typing import Protocol

from repro.rtdb.transaction import Transaction


class SystemView(Protocol):
    """What a policy may observe about the system."""

    now: float

    def penalty_of_conflict(self, tx: Transaction) -> float: ...


class PriorityPolicy(abc.ABC):
    """Base class for priority assignment policies."""

    name: str = "abstract"
    continuous: bool = False
    uses_pre_analysis: bool = False
    wait_promote: bool = False
    """Resolve data conflicts by *waiting with priority inheritance*
    (the EDF-WP scheme of [AG89]) instead of wounding.  The simulator
    then blocks a requester behind any holder, promotes holders to their
    highest waiter's priority, and wounds only to break wait-for cycles
    — the deadlocks the paper holds against EDF-WP."""

    @abc.abstractmethod
    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        """Priority tuple for ``tx``; higher compares as more urgent."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class EDFPolicy(PriorityPolicy):
    """Earliest Deadline First with High Priority conflict resolution.

    The paper's baseline (EDF-HP, [Abbott & Garcia-Molina 88]).  Priority
    is the (negated) absolute deadline, assigned once; conflicts resolve
    by wounding the lower-priority transaction.
    """

    name = "EDF-HP"
    continuous = False
    uses_pre_analysis = False

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        return (-tx.deadline,)


class FCFSPolicy(PriorityPolicy):
    """First-come-first-served: priority by arrival time (non-real-time
    baseline for context)."""

    name = "FCFS"
    continuous = False
    uses_pre_analysis = False

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        return (-tx.arrival_time,)


class LSFPolicy(PriorityPolicy):
    """Least Slack First with continuous evaluation.

    ``slack = deadline - now - remaining service``.  The paper argues LSF
    is problematic for RTDBS (execution time estimates are unreliable and
    continuous evaluation risks priority reversal); it is included as a
    baseline.  In the simulator the remaining service time is known
    exactly, which is the most favourable case for LSF.
    """

    name = "LSF-HP"
    continuous = True
    uses_pre_analysis = False

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        return (-tx.slack(system.now),)


class EDFWPPolicy(EDFPolicy):
    """EDF with Wait Promote conflict resolution ([AG89], paper §3.2).

    Same priorities as EDF-HP, but a data conflict blocks the requester
    instead of wounding the holder; the holder is *promoted* to its
    highest waiter's priority so it cannot be starved of the CPU while
    urgent work queues behind it.  The paper's critique — "EDF-WP causes
    too much waiting ... furthermore EDF-WP has deadlock problems" — is
    reproduced by ``repro ext-wp`` and checked by ``repro validate``
    (``validate_ext_wp``); wait-for cycles
    are broken by wounding one participant (traced as
    ``deadlock_break``).
    """

    name = "EDF-WP"
    wait_promote = True


class CCAPolicy(PriorityPolicy):
    """The paper's Cost Conscious Approach.

    ``Pr(T) = -(deadline + w * penalty_of_conflict(T))`` with continuous
    evaluation and the pre-analysis machinery enabled.  ``w = 0``
    degenerates to EDF-HP priorities (but keeps IOwait-schedule on disk);
    ``w = math.inf`` is EDF-Wait: any transaction whose execution would
    force rollbacks sorts strictly below every conflict-free one, with
    EDF order inside each band.
    """

    name = "CCA"
    continuous = True
    uses_pre_analysis = True

    def __init__(self, penalty_weight: float = 1.0) -> None:
        if penalty_weight < 0:
            raise ValueError(f"penalty weight must be >= 0, got {penalty_weight}")
        self.penalty_weight = penalty_weight

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        penalty = system.penalty_of_conflict(tx)
        if math.isinf(self.penalty_weight):
            return (0.0 if penalty == 0 else -1.0, -tx.deadline)
        return (-(tx.deadline + self.penalty_weight * penalty), -tx.deadline)

    def __repr__(self) -> str:
        return f"CCAPolicy(penalty_weight={self.penalty_weight})"


class EDFWaitPolicy(CCAPolicy):
    """EDF-Wait: the ``w -> infinity`` limit of CCA (paper Section 3.3.3).

    A transaction with any penalty of conflict is deferred behind every
    conflict-free transaction, so aborts (almost) never happen; the cost
    is extra waiting.
    """

    name = "EDF-Wait"

    def __init__(self) -> None:
        super().__init__(penalty_weight=math.inf)

    def __repr__(self) -> str:
        return "EDFWaitPolicy()"


class CriticalnessCCAPolicy(CCAPolicy):
    """CCA with multiple criticalness classes (paper future work).

    Transactions carry an integer ``criticalness``; higher classes
    strictly dominate lower ones, and CCA orders within a class.
    """

    name = "Criticalness-CCA"

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        return (float(tx.spec.criticalness),) + super().priority(tx, system)


class StaticEvaluationPolicy(PriorityPolicy):
    """Freeze another policy's priorities at first evaluation.

    The ablation counterpart of CCA's *continuous* evaluation: each
    transaction's priority is computed once (at its first scheduling
    point after arrival or restart) and reused until it restarts.  The
    paper argues continuous evaluation is what lets CCA adapt to load;
    ``benchmarks/test_ablation.py`` measures the difference.
    """

    uses_pre_analysis = True
    continuous = False

    def __init__(self, inner: PriorityPolicy) -> None:
        self.inner = inner
        self.name = f"{inner.name}-static"
        self.uses_pre_analysis = inner.uses_pre_analysis
        self._frozen: dict[tuple[int, int], tuple[float, ...]] = {}

    def priority(self, tx: Transaction, system: SystemView) -> tuple[float, ...]:
        key = (tx.tid, tx.epoch)  # a restart re-evaluates
        cached = self._frozen.get(key)
        if cached is None:
            cached = self.inner.priority(tx, system)
            self._frozen[key] = cached
        return cached

    def __repr__(self) -> str:
        return f"StaticEvaluationPolicy({self.inner!r})"


def make_policy(name: str, penalty_weight: float = 1.0) -> PriorityPolicy:
    """Build a policy from its paper name (case-insensitive).

    Recognized: ``edf-hp``, ``edf``, ``cca``, ``edf-wait``, ``lsf``,
    ``lsf-hp``, ``fcfs``, ``criticalness-cca``.
    """
    key = name.strip().lower()
    if key in ("edf", "edf-hp"):
        return EDFPolicy()
    if key == "edf-wp":
        return EDFWPPolicy()
    if key == "cca":
        return CCAPolicy(penalty_weight)
    if key == "edf-wait":
        return EDFWaitPolicy()
    if key in ("lsf", "lsf-hp"):
        return LSFPolicy()
    if key == "fcfs":
        return FCFSPolicy()
    if key == "criticalness-cca":
        return CriticalnessCCAPolicy(penalty_weight)
    if key == "cca-static":
        return StaticEvaluationPolicy(CCAPolicy(penalty_weight))
    raise ValueError(f"unknown policy {name!r}")
