"""The offline schedule certifier.

:func:`certify_events` replays a completed run's trace event stream
against three families of whole-history properties the paper asserts
but the simulator only spot-checks at runtime:

* **CERT001** — the history is conflict-serializable: the precedence
  graph over committed transactions is acyclic, and a topological
  serialization order exists;
* **CERT002/003/004** — locking follows strict 2PL, every observed
  conflict is resolved by lock order or a wound, and (for statically
  recomputable policies) wounds respect High Priority order;
* **CERT005/006** — the pre-analysis relations (Section 3.2.2) soundly
  over-approximate the run: every runtime conflict was predicted
  possible by ``conflict``, and every rollback corresponds to an
  unsafe/conditionally-unsafe ``safety`` pair.

The certifier never touches the simulator: its only inputs are the
flattened event dictionaries (:class:`~repro.tracing.EventLog`), the
workload specs, and the policy name.  By default relations are judged
by the same :class:`~repro.core.oracle.SetOracle` the simulator used —
which makes CERT005/006 a true differential check of ``analysis/`` +
``core/oracle.py`` against ground truth.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.core.oracle import ConflictOracle, SetOracle, replay_transaction
from repro.core.policy import make_policy
from repro.certify.graph import EdgeWitness, PrecedenceGraph
from repro.certify.history import (
    History,
    Incarnation,
    parse_history,
)
from repro.checks.rules import all_rules
from repro.rtdb.transaction import TransactionSpec

_EPS = 1e-9

#: Terminal event kind -> the release reason it must carry.
_RELEASE_REASON = {"commit": "commit", "abort": "abort", "drop": "drop"}


@dataclasses.dataclass(frozen=True)
class Violation:
    """One certified-property breach, anchored to a time and tids."""

    code: str
    message: str
    time: Optional[float] = None
    tids: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "time": self.time,
            "tids": list(self.tids),
        }


@dataclasses.dataclass
class CertificationResult:
    """The full verdict for one run."""

    policy_name: str
    n_events: int
    n_incarnations: int
    n_committed: int
    n_wounds: int
    checked: tuple[str, ...]
    skipped: dict[str, str]
    violations: list[Violation]
    serialization_order: Optional[tuple[int, ...]]
    cycle: Optional[tuple[int, ...]]
    n_graph_edges: int

    @property
    def certified(self) -> bool:
        return not self.violations

    def violations_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "policy": self.policy_name,
            "certified": self.certified,
            "events": self.n_events,
            "incarnations": self.n_incarnations,
            "committed": self.n_committed,
            "wounds": self.n_wounds,
            "graph_edges": self.n_graph_edges,
            "rules_checked": list(self.checked),
            "rules_skipped": dict(self.skipped),
            "violations": [v.to_dict() for v in self.violations],
            "serialization_order": (
                list(self.serialization_order)
                if self.serialization_order is not None
                else None
            ),
            "cycle": list(self.cycle) if self.cycle is not None else None,
        }


@dataclasses.dataclass(frozen=True)
class _Hold:
    """One reconstructed lock-holding interval on one item."""

    item: int
    start: float
    end: float
    exclusive: bool
    incarnation: Incarnation

    @property
    def tid(self) -> int:
        return self.incarnation.tid


class _StaticSystem:
    """A minimal SystemView for recomputing static policy priorities
    offline (EDF-HP, FCFS read neither field)."""

    def __init__(self, now: float) -> None:
        self.now = now

    def penalty_of_conflict(self, tx) -> float:  # pragma: no cover - unused
        return 0.0


def certify_events(
    events: Iterable[dict],
    workload: Union[Sequence[TransactionSpec], Mapping[int, TransactionSpec]],
    policy_name: str,
    *,
    oracle: Optional[ConflictOracle] = None,
    penalty_weight: float = 1.0,
) -> CertificationResult:
    """Certify one completed run from its trace stream.

    ``events`` are flattened trace records (an :class:`EventLog`, its
    ``events`` list, or dictionaries read back from JSONL); ``workload``
    the specs the run executed.  Violations never raise — they are
    collected into the result so a report can show all of them.
    """
    history = parse_history(events)
    specs = _spec_index(workload)
    oracle = oracle if oracle is not None else SetOracle()
    policy = make_policy(policy_name, penalty_weight=penalty_weight)

    violations: list[Violation] = []
    skipped: dict[str, str] = {}

    holds = _reconstruct_holds(history)

    order, cycle, n_edges = _check_serializability(history, violations)
    _check_strict_2pl(history, holds, violations)
    _check_conflict_resolution(history, holds, policy, violations)
    if policy.continuous or policy.wait_promote or policy.uses_pre_analysis:
        skipped["CERT004"] = (
            f"policy {policy.name} priorities are not statically "
            "recomputable offline"
        )
    else:
        _check_wound_order(history, specs, policy, violations)
    _check_conflict_soundness(history, specs, oracle, violations)
    _check_safety_soundness(history, specs, oracle, violations)

    checked = tuple(
        rule.code for rule in all_rules("CERT") if rule.code not in skipped
    )
    violations.sort(key=lambda v: (v.time if v.time is not None else -1.0, v.code, v.tids))
    return CertificationResult(
        policy_name=policy.name,
        n_events=history.n_events,
        n_incarnations=len(history.incarnations),
        n_committed=len(history.committed()),
        n_wounds=len(history.wounds),
        checked=checked,
        skipped=skipped,
        violations=violations,
        serialization_order=order,
        cycle=cycle,
        n_graph_edges=n_edges,
    )


def _spec_index(
    workload: Union[Sequence[TransactionSpec], Mapping[int, TransactionSpec]],
) -> dict[int, TransactionSpec]:
    if isinstance(workload, Mapping):
        return dict(workload)
    return {spec.tid: spec for spec in workload}


def _reconstruct_holds(history: History) -> dict[int, list[_Hold]]:
    """Item -> holding intervals, each spanning first acquire to the
    incarnation's release (or the end of the trace when never released;
    CERT002 reports the missing release separately)."""
    holds: dict[int, list[_Hold]] = {}
    for inc in history.incarnations:
        if inc.releases:
            end = inc.releases[-1].time
        elif inc.end_time is not None:
            end = inc.end_time
        else:
            end = history.last_time
        for item, acq in sorted(inc.held_items().items()):
            holds.setdefault(item, []).append(
                _Hold(item, acq.time, end, acq.exclusive, inc)
            )
    return holds


# ----------------------------------------------------------------------
# CERT001 — serializability
# ----------------------------------------------------------------------


def _check_serializability(
    history: History, violations: list[Violation]
) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]], int]:
    committed = history.committed()
    graph = PrecedenceGraph()
    for tid in committed:
        graph.add_node(tid)
    for item, accesses in _committed_accesses(committed).items():
        # Every ordered conflicting pair precedes — not just adjacent
        # ones: with shared locks r1 r2 w3 needs both r1->w3 and r2->w3.
        for i, first in enumerate(accesses):
            for second in accesses[i + 1 :]:
                if not (first.exclusive or second.exclusive):
                    continue
                if second.start <= first.start + _EPS:
                    continue  # simultaneous: no order to certify
                graph.add_edge(
                    first.tid,
                    second.tid,
                    EdgeWitness(item, first.start, second.start),
                )
    order = graph.topological_order()
    cycle = None
    if order is None:
        found = graph.find_cycle()
        cycle = tuple(found) if found is not None else None
        shown = (
            " -> ".join(f"tx{tid}" for tid in cycle)
            if cycle
            else "unknown"
        )
        violations.append(
            Violation(
                code="CERT001",
                message=(
                    "history is not conflict-serializable: "
                    f"precedence cycle {shown}"
                ),
                tids=tuple(sorted(set(cycle or ()))),
            )
        )
        return None, cycle, graph.n_edges
    return tuple(order), None, graph.n_edges


def _committed_accesses(
    committed: Mapping[int, Incarnation],
) -> dict[int, list[_Hold]]:
    accesses: dict[int, list[_Hold]] = {}
    for tid in sorted(committed):
        inc = committed[tid]
        end = inc.releases[-1].time if inc.releases else (inc.end_time or 0.0)
        for item, acq in sorted(inc.held_items().items()):
            accesses.setdefault(item, []).append(
                _Hold(item, acq.time, end, acq.exclusive, inc)
            )
    for item in accesses:
        accesses[item].sort(key=lambda hold: (hold.start, hold.tid))
    return accesses


# ----------------------------------------------------------------------
# CERT002 — strict two-phase locking
# ----------------------------------------------------------------------


def _check_strict_2pl(
    history: History,
    holds: Mapping[int, list[_Hold]],
    violations: list[Violation],
) -> None:
    for inc in history.incarnations:
        label = f"tx{inc.tid}" + (f"#{inc.index}" if inc.index else "")
        if len(inc.releases) > 1:
            violations.append(
                Violation(
                    "CERT002",
                    f"{label} released locks {len(inc.releases)} times; "
                    "strict 2PL releases exactly once, at the end",
                    time=inc.releases[1].time,
                    tids=(inc.tid,),
                )
            )
        if inc.releases:
            release = inc.releases[0]
            late = [a for a in inc.acquires if a.seq > release.seq]
            if late:
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} acquired item {late[0].item} after "
                        "releasing locks (two-phase rule broken)",
                        time=late[0].time,
                        tids=(inc.tid,),
                    )
                )
            acquired = set(inc.held_items())
            released = set(release.items)
            for item in sorted(released - acquired):
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} released item {item} it never acquired",
                        time=release.time,
                        tids=(inc.tid,),
                    )
                )
            for item in sorted(acquired - released):
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} never released item {item} at its "
                        f"{inc.end_kind or 'end'}",
                        time=release.time,
                        tids=(inc.tid,),
                    )
                )
            expected = _RELEASE_REASON.get(inc.end_kind or "")
            if expected is not None and release.reason != expected:
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} release reason {release.reason!r} does "
                        f"not match its terminal event {inc.end_kind!r}",
                        time=release.time,
                        tids=(inc.tid,),
                    )
                )
        elif inc.acquires:
            if inc.end_kind is not None:
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} reached {inc.end_kind} still holding "
                        f"{len(inc.held_items())} locks with no release "
                        "event",
                        time=inc.end_time,
                        tids=(inc.tid,),
                    )
                )
            else:
                violations.append(
                    Violation(
                        "CERT002",
                        f"{label} holds locks at the end of the trace "
                        "(truncated or non-strict history)",
                        time=history.last_time,
                        tids=(inc.tid,),
                    )
                )
    _check_exclusion(holds, violations)


def _check_exclusion(
    holds: Mapping[int, list[_Hold]], violations: list[Violation]
) -> None:
    """No two conflicting holds of one item may overlap in time."""
    for item in sorted(holds):
        intervals = sorted(holds[item], key=lambda h: (h.start, h.tid))
        for i, a in enumerate(intervals):
            for b in intervals[i + 1 :]:
                if b.start >= a.end - _EPS:
                    break  # sorted by start: nothing later overlaps a
                if a.tid == b.tid:
                    continue
                if a.exclusive or b.exclusive:
                    violations.append(
                        Violation(
                            "CERT002",
                            f"item {item} held in conflicting modes by "
                            f"tx{a.tid} and tx{b.tid} at the same time",
                            time=b.start,
                            tids=tuple(sorted((a.tid, b.tid))),
                        )
                    )


# ----------------------------------------------------------------------
# CERT003 — every conflict resolved by lock order or a wound
# ----------------------------------------------------------------------


def _check_conflict_resolution(
    history: History,
    holds: Mapping[int, list[_Hold]],
    policy,
    violations: list[Violation],
) -> None:
    any_wait = False
    for inc in history.incarnations:
        for wait in inc.waits:
            any_wait = True
            for holder in wait.holders:
                if not _held_by_at(holds, wait.item, holder, wait.time):
                    violations.append(
                        Violation(
                            "CERT003",
                            f"tx{inc.tid} waited on item {wait.item} "
                            f"behind tx{holder}, which did not hold it",
                            time=wait.time,
                            tids=tuple(sorted((inc.tid, holder))),
                        )
                    )
        # Every wait must resolve: a wake for each, except the last one
        # when the waiter died waiting (wound or firm drop).
        unresolved = len(inc.waits) - len(inc.wakes)
        if unresolved > 0 and not (
            unresolved == 1 and inc.end_kind in ("abort", "drop")
        ):
            violations.append(
                Violation(
                    "CERT003",
                    f"tx{inc.tid} has {unresolved} lock wait(s) never "
                    f"resolved by a wake or death "
                    f"(end: {inc.end_kind or 'none'})",
                    time=inc.waits[-1].time,
                    tids=(inc.tid,),
                )
            )
    if any_wait and policy.uses_pre_analysis:
        first = min(
            (w.time for inc in history.incarnations for w in inc.waits),
            default=None,
        )
        violations.append(
            Violation(
                "CERT003",
                f"policy {policy.name} uses pre-analysis but the run "
                "contains lock waits (Theorem 1: no lock wait in CCA)",
                time=first,
            )
        )


def _held_by_at(
    holds: Mapping[int, list[_Hold]], item: int, tid: int, time: float
) -> bool:
    for hold in holds.get(item, ()):
        if (
            hold.tid == tid
            and hold.start <= time + _EPS
            and hold.end >= time - _EPS
        ):
            return True
    return False


# ----------------------------------------------------------------------
# CERT004 — wounds respect High Priority order
# ----------------------------------------------------------------------


def _check_wound_order(
    history: History,
    specs: Mapping[int, TransactionSpec],
    policy,
    violations: list[Violation],
) -> None:
    """Recompute static priorities offline and check every wound flows
    downhill.  Only reached for policies whose priority is a pure
    function of the spec (EDF-HP, FCFS): continuous, wait-promote and
    pre-analysis policies read runtime state the trace cannot replay."""
    for wound in history.wounds:
        if wound.deadlock_break:
            continue  # sanctioned inversion: breaking a wait-for cycle
        if wound.by not in specs or wound.victim not in specs:
            continue  # reported by CERT005's spec check
        system = _StaticSystem(wound.time)
        key_by = (
            policy.priority(replay_transaction(specs[wound.by]), system),
            -wound.by,
        )
        key_victim = (
            policy.priority(replay_transaction(specs[wound.victim]), system),
            -wound.victim,
        )
        if key_by <= key_victim:
            violations.append(
                Violation(
                    "CERT004",
                    f"tx{wound.by} wounded higher-priority "
                    f"tx{wound.victim} (cause: {wound.cause}) — High "
                    "Priority resolution inverted",
                    time=wound.time,
                    tids=tuple(sorted((wound.by, wound.victim))),
                )
            )


# ----------------------------------------------------------------------
# CERT005 — conflict-prediction soundness
# ----------------------------------------------------------------------


def _check_conflict_soundness(
    history: History,
    specs: Mapping[int, TransactionSpec],
    oracle: ConflictOracle,
    violations: list[Violation],
) -> None:
    # Accesses must stay inside the declared sets the analysis was
    # built from — otherwise its predictions are vacuous.
    known: set[int] = set()
    for inc in history.incarnations:
        if inc.tid not in specs:
            if inc.tid not in known:
                violations.append(
                    Violation(
                        "CERT005",
                        f"tx{inc.tid} appears in the trace but not in "
                        "the workload",
                        tids=(inc.tid,),
                    )
                )
            known.add(inc.tid)
            continue
        spec = specs[inc.tid]
        for acq in inc.acquires:
            if acq.item not in spec.data_set:
                violations.append(
                    Violation(
                        "CERT005",
                        f"tx{inc.tid} accessed item {acq.item} outside "
                        "its declared data set",
                        time=acq.time,
                        tids=(inc.tid,),
                    )
                )
            elif acq.exclusive and acq.item not in spec.write_set:
                violations.append(
                    Violation(
                        "CERT005",
                        f"tx{inc.tid} write-locked item {acq.item} "
                        "outside its declared write set",
                        time=acq.time,
                        tids=(inc.tid,),
                    )
                )
    # Every conflict the run actually exhibited must have been
    # predicted possible by the static conflict relation.
    for pair, (time, via) in sorted(_runtime_conflicts(history).items()):
        a, b = pair
        if a not in specs or b not in specs:
            continue
        relation = oracle.conflict(
            replay_transaction(specs[a]), replay_transaction(specs[b])
        )
        if not relation.possible:
            violations.append(
                Violation(
                    "CERT005",
                    f"tx{a} and tx{b} conflicted at runtime ({via}) but "
                    "the conflict relation predicted "
                    f"{relation.value!r}",
                    time=time,
                    tids=pair,
                )
            )


def _runtime_conflicts(
    history: History,
) -> dict[tuple[int, int], tuple[float, str]]:
    """Unordered tid pairs that demonstrably conflicted at runtime,
    with the earliest witness time and how the conflict manifested."""
    conflicts: dict[tuple[int, int], tuple[float, str]] = {}

    def note(a: int, b: int, time: float, via: str) -> None:
        if a == b:
            return
        pair = (min(a, b), max(a, b))
        prior = conflicts.get(pair)
        if prior is None or time < prior[0]:
            conflicts[pair] = (time, via)

    for inc in history.incarnations:
        for wait in inc.waits:
            for holder in wait.holders:
                note(inc.tid, holder, wait.time, "lock wait")
    for wound in history.wounds:
        note(wound.victim, wound.by, wound.time, "wound")
    for item, intervals in history_item_accesses(history).items():
        for i, a in enumerate(intervals):
            for b in intervals[i + 1 :]:
                if a.tid != b.tid and (a.exclusive or b.exclusive):
                    note(
                        a.tid,
                        b.tid,
                        max(a.start, b.start),
                        f"co-access of item {item}",
                    )
    return conflicts


def history_item_accesses(history: History) -> dict[int, list[_Hold]]:
    """Item -> every access by every incarnation (committed or not)."""
    accesses: dict[int, list[_Hold]] = {}
    for inc in history.incarnations:
        for item, acq in sorted(inc.held_items().items()):
            accesses.setdefault(item, []).append(
                _Hold(item, acq.time, acq.time, acq.exclusive, inc)
            )
    return accesses


# ----------------------------------------------------------------------
# CERT006 — safety-prediction soundness
# ----------------------------------------------------------------------


def _check_safety_soundness(
    history: History,
    specs: Mapping[int, TransactionSpec],
    oracle: ConflictOracle,
    violations: list[Violation],
) -> None:
    """Every rollback must land on a pair the safety relation flagged:
    replay the victim's access state at the wound and ask the oracle
    the exact question the scheduler faced."""
    for wound in history.wounds:
        if wound.deadlock_break:
            continue  # not a safety wound: sanctioned cycle break
        if wound.by not in specs or wound.victim not in specs:
            continue  # reported by CERT005's spec check
        acquired = wound.incarnation.acquires_until(wound.time)
        victim = replay_transaction(
            specs[wound.victim],
            accessed=[a.item for a in acquired],
            accessed_writes=[a.item for a in acquired if a.exclusive],
        )
        runner = replay_transaction(specs[wound.by])
        verdict = oracle.safety(victim, runner)
        if not verdict.needs_rollback:
            violations.append(
                Violation(
                    "CERT006",
                    f"tx{wound.victim} was rolled back by tx{wound.by} "
                    f"(cause: {wound.cause}) but the safety relation "
                    f"says {verdict.value!r} — blocking would have "
                    "sufficed",
                    time=wound.time,
                    tids=tuple(sorted((wound.victim, wound.by))),
                )
            )
