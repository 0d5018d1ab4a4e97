"""The model checker's invariant catalog: codes MC001-MC006.

Each rule is a *universally quantified* claim: the bounded explorer
checks it on every reachable schedule of a workload, not just the
engine's default one.  MC001/MC002 are the paper's §3.3.4 theorems;
MC003/MC004 are the structural safety/liveness invariants any correct
locking scheduler must keep; MC005 re-certifies every terminal history
with the offline certifier (CERT001-003 and friends); MC006 covers the
dispatch-rule conformance checks (wound order, priority total order,
``IOwait-schedule`` compatibility).

Runtime findings arrive as RTSan :class:`InvariantViolation` codes or
the controlled engine's own state checks; :data:`RTS_TO_MC` maps the
former onto this catalog so one report vocabulary covers both.
"""

from __future__ import annotations

from repro.checks.rules import Rule, register

MC001 = register(
    Rule(
        code="MC001",
        name="theorem1-no-lock-wait",
        summary="Theorem 1: no lock wait under a pre-analysis policy, "
        "on any reachable schedule",
        rationale=(
            "The paper proves CCA-family schedules never block on a "
            "lock.  A single trace shows one schedule obeyed it; the "
            "explorer checks every admissible resolution of ties, "
            "simultaneous events and IO orderings."
        ),
    )
)

MC002 = register(
    Rule(
        code="MC002",
        name="theorem2-no-mutual-wound",
        summary="Theorem 2: no two transactions wound each other at one "
        "scheduling instant, on any reachable schedule",
        rationale=(
            "A mutual wound pair is a circular abort that destroys "
            "progress; High Priority resolution must make every wound "
            "one-directional no matter how ties are broken."
        ),
    )
)

MC003 = register(
    Rule(
        code="MC003",
        name="lock-table-consistency",
        summary="the lock table stays consistent after every event of "
        "every explored schedule",
        rationale=(
            "Holders must be live, waiter queues must agree with "
            "transaction states, and a blocked transaction must still "
            "be queued on its item — a lost wake-up otherwise strands "
            "it forever."
        ),
    )
)

MC004 = register(
    Rule(
        code="MC004",
        name="deadlock-freedom",
        summary="no explored schedule reaches a wait-for cycle or ends "
        "with live transactions",
        rationale=(
            "The engine breaks wait-for cycles at creation time; a "
            "reachable cycle (or a drained calendar with uncommitted "
            "transactions) is a scheduler liveness bug the paper's "
            "model excludes."
        ),
    )
)

MC005 = register(
    Rule(
        code="MC005",
        name="endstate-serializability",
        summary="every terminal history passes the offline certifier "
        "(conflict serializability, strict 2PL, resolved conflicts)",
        rationale=(
            "Each explored schedule's full event trace is re-certified "
            "with the CERT001-003 machinery (plus the soundness "
            "checks), so end-state correctness is proven per schedule, "
            "not sampled."
        ),
    )
)

MC006 = register(
    Rule(
        code="MC006",
        name="dispatch-rule-conformance",
        summary="wound order, priority total order, and IOwait-schedule "
        "compatibility hold on every explored schedule",
        rationale=(
            "High Priority wounds must go from higher to lower "
            "priority, dispatch keys must form a strict total order, "
            "and a secondary may run only while a primary IO-waits and "
            "only if compatible with every partially executed "
            "transaction."
        ),
    )
)


#: RTSan runtime codes -> model-check rules (one report vocabulary).
RTS_TO_MC: dict[str, str] = {
    "RTS001": "MC003",
    "RTS002": "MC001",
    "RTS003": "MC002",
    "RTS004": "MC006",
    "RTS005": "MC003",
    "RTS006": "MC006",
}
