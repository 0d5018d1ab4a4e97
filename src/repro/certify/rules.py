"""The certifier rule catalog (CERT001-CERT006).

Each rule certifies one whole-history property a correct run of the
simulator must satisfy.  ``repro certify --list-rules`` prints this
catalog; ``docs/CERTIFY.md`` documents each rule with its
counterexample format.
"""

from __future__ import annotations

from repro.checks.rules import Rule, register

for _rule in (
    Rule(
        "CERT001",
        "serializable",
        "The conflict graph over committed transactions is acyclic; "
        "the history has an equivalent serial order.",
    ),
    Rule(
        "CERT002",
        "strict-2pl",
        "Every incarnation acquires all locks before its single "
        "all-at-end release, holds them to commit/abort/drop, and "
        "conflicting holds never overlap.",
    ),
    Rule(
        "CERT003",
        "conflicts-resolved",
        "Every lock wait names actual holders and is resolved (wake or "
        "victim death); pre-analysis policies never wait (Theorem 1).",
    ),
    Rule(
        "CERT004",
        "wound-priority-order",
        "Under statically recomputable policies every wound flows from "
        "a higher-priority transaction to a lower one (High Priority), "
        "except explicit deadlock breaks.",
    ),
    Rule(
        "CERT005",
        "conflict-prediction-sound",
        "Accesses stay inside declared read/write sets, and every "
        "runtime conflict (wait, wound, conflicting co-access) was "
        "predicted possible by the conflict relation.",
    ),
    Rule(
        "CERT006",
        "safety-prediction-sound",
        "Every rollback (except deadlock breaks) lands on a victim the "
        "safety relation called unsafe/conditionally unsafe wrt its "
        "wounder — rollbacks never surprise the pre-analysis.",
    ),
):
    register(_rule)
