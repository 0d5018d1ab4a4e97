"""The static-analysis rules: ``ANAnnn`` codes and rationale.

Every verdict ``repro analyze`` can emit is declared here with a stable
code and registered in the one rule catalog
(:mod:`repro.checks.rules`), which feeds ``--list-rules``, the JSON
reporter and ``docs/ANALYZE.md``.
"""

from __future__ import annotations

from repro.checks.rules import Rule, register

ANA001 = register(
    Rule(
        code="ANA001",
        name="conflict-mask-equivalence",
        summary="SpecMasks conflict tables match the reference SetOracle",
        rationale=(
            "The kernel engine answers conflict questions from per-slot "
            "bitmasks (SpecMasks.data/write/conflict_slots) instead of "
            "the reference set algebra.  This pass recomputes every "
            "slot's masks from its spec, checks flat_conflict against "
            "SetOracle.conflict for every transaction pair (by "
            "equivalence class, exhaustively), verifies symmetry, and "
            "expands every conflict_slots row against the class "
            "adjacency — so kernel-table drift is caught statically, "
            "with a minimal (pair, state, relation) counterexample, "
            "instead of hoping a differential simulation covers it."
        ),
    )
)

ANA002 = register(
    Rule(
        code="ANA002",
        name="safety-mask-equivalence",
        summary="flat_safety matches SetOracle.safety in every access state",
        rationale=(
            "Safety is asymmetric and depends on the subject's *current* "
            "access state, not just its declared sets.  This pass "
            "replays every reachable access state (each operation-list "
            "prefix) of every subject class against every runner class "
            "and checks the mask-form answer against the reference "
            "oracle — the exhaustive version of the randomized property "
            "test in tests/core/test_masks.py."
        ),
    )
)

ANA003 = register(
    Rule(
        code="ANA003",
        name="state-table-equivalence",
        summary="StateTable matrices match freshly recomputed tree relations",
        rationale=(
            "StateTable flattens the pre-analysis RelationTable into "
            "dense code rows indexed by (program, node) state ids.  "
            "This pass rebuilds every program tree from scratch and "
            "recomputes conflict_between/safety_of for every state "
            "pair, comparing against the flattened codes and the "
            "state-id index — any encoding or indexing drift surfaces "
            "as a named state-pair counterexample."
        ),
    )
)

ANA004 = register(
    Rule(
        code="ANA004",
        name="relation-laws",
        summary="conflict is symmetric; no conflict implies safe",
        rationale=(
            "Section 3.2.2's relations obey laws the scheduler relies "
            "on: conflict is symmetric, and two transactions that "
            "cannot conflict can never make each other unsafe.  This "
            "pass checks both over every class pair (flat masks) and "
            "every state pair (tree tables); a violation means the "
            "relations themselves — not just an encoding — are broken."
        ),
    )
)

ANA005 = register(
    Rule(
        code="ANA005",
        name="static-feasibility",
        summary="every deadline covers the transaction's isolated run time",
        rationale=(
            "deadline = arrival + resource_time * (1 + slack) with "
            "slack >= min_slack >= 0, so no transaction should be "
            "impossible to meet even on an idle system.  A statically "
            "infeasible transaction marks a workload-generator or "
            "config regression and puts a hard floor under the miss "
            "rate before any simulation runs."
        ),
    )
)

ANA006 = register(
    Rule(
        code="ANA006",
        name="graph-metric-consistency",
        summary="conflict-graph metrics are internally consistent",
        rationale=(
            "The contention metrics feed sweep-cell predictions and the "
            "ROADMAP's batch-scheduling work, so they are cross-checked "
            "against their own definitions: degree sums equal twice the "
            "certain-pair count, pair fractions partition [0, 1], the "
            "reported compatible set is pairwise compatible, and the "
            "greedy bound never exceeds the exact optimum when both "
            "are computed."
        ),
    )
)
