"""The equivalence prover: kernel flat tables vs reference relations.

The kernel engine (:mod:`repro.core.kernel`) never consults the
reference oracles at runtime — it answers every conflict/safety
question from precomputed integer tables
(:class:`~repro.core.masks.SpecMasks` for flat workloads,
:class:`~repro.core.masks.StateTable` for tree programs).  The
differential simulation battery exercises those tables only along the
schedules its cells happen to produce; this module instead checks them
*exhaustively and statically*:

* every slot's ``data``/``write`` mask is recomputed from its spec;
* ``flat_conflict``/``flat_safety`` are compared against
  :class:`~repro.core.oracle.SetOracle` for every pair of transaction
  equivalence classes — for safety, in **every reachable access
  state** (each operation-list prefix) of the subject;
* every ``conflict_slots`` row is expanded from the class adjacency
  and compared bit for bit;
* every :class:`~repro.core.masks.StateTable` entry is compared
  against freshly recomputed ``conflict_between``/``safety_of`` over
  rebuilt program trees.

Two specs are mask-equivalent iff they declare the same (item,
is_write) operation sequence — the workload generator reuses one type
table across ~5–20× more instances, so class-level enumeration keeps
the proof exhaustive *and* tractable (50 classes × all prefix states
instead of 1000² instance pairs).

On mismatch the prover emits a minimal :class:`Counterexample` — the
pair, the access state, and the disagreeing relation — and
:func:`mutate_spec_masks`/:func:`mutate_state_table` let tests and the
CLI prove the prover: a single flipped bit must surface as exactly
such a counterexample.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.analysis.relations import (
    Conflict,
    Safety,
    conflict_between,
    safety_of,
)
from repro.analysis.table import RelationTable
from repro.analysis.tree import TransactionTree
from repro.core.masks import (
    CONFLICT_FROM_CODE,
    CONFLICT_NONE,
    SAFETY_FROM_CODE,
    SAFETY_SAFE,
    SpecMasks,
    StateTable,
    flat_conflict,
    flat_safety,
    items_mask,
    mask_items,
)
from repro.core.oracle import SetOracle, replay_transaction
from repro.rtdb.transaction import Transaction, TransactionSpec

#: Enum -> kernel code, the inverse of the ``*_FROM_CODE`` tuples.
_CONFLICT_CODE = {relation: code for code, relation in enumerate(CONFLICT_FROM_CODE)}
_SAFETY_CODE = {relation: code for code, relation in enumerate(SAFETY_FROM_CODE)}

#: Stop collecting after this many counterexamples — one is enough to
#: fail the verdict, a handful is enough to debug, thousands is noise.
DEFAULT_LIMIT = 25


@dataclasses.dataclass(frozen=True)
class Counterexample:
    """One minimal disagreement between a kernel table and the reference.

    ``pair`` names the two parties (slot/program labels), ``state`` the
    access state the disagreement occurs in, ``relation`` which table
    disagreed.
    """

    rule: str
    relation: str
    pair: tuple[str, str]
    state: str
    expected: str
    actual: str

    def describe(self) -> str:
        a, b = self.pair
        return (
            f"{self.relation}({a}, {b}) in state [{self.state}]: "
            f"expected {self.expected}, got {self.actual}"
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "relation": self.relation,
            "pair": list(self.pair),
            "state": self.state,
            "expected": self.expected,
            "actual": self.actual,
        }


# ---------------------------------------------------------------------------
# Equivalence classes
# ---------------------------------------------------------------------------

def _class_key(spec: TransactionSpec) -> tuple[tuple[int, bool], ...]:
    """Two specs with equal keys have identical masks and relations."""
    return tuple((op.item, op.is_write) for op in spec.operations)


def spec_classes(
    specs: Sequence[TransactionSpec],
) -> list[list[int]]:
    """Slot indices grouped by mask-equivalence class, first-seen order."""
    by_key: dict[tuple[tuple[int, bool], ...], list[int]] = {}
    for slot, spec in enumerate(specs):
        by_key.setdefault(_class_key(spec), []).append(slot)
    return list(by_key.values())


def _slot_label(specs: Sequence[TransactionSpec], slot: int) -> str:
    return f"slot {slot} ({specs[slot].program_name})"


def _prefix_state(spec: TransactionSpec, n_ops: int) -> tuple[set[int], set[int]]:
    """(accessed, accessed_writes) after the first ``n_ops`` operations."""
    accessed = {op.item for op in spec.operations[:n_ops]}
    writes = {op.item for op in spec.operations[:n_ops] if op.is_write}
    return accessed, writes


# ---------------------------------------------------------------------------
# SpecMasks prover (ANA001 / ANA002 / ANA004)
# ---------------------------------------------------------------------------

def prove_spec_masks(
    specs: Sequence[TransactionSpec],
    db_size: int,
    masks: Optional[SpecMasks] = None,
    limit: int = DEFAULT_LIMIT,
) -> list[Counterexample]:
    """Exhaustively check ``masks`` against the reference ``SetOracle``.

    Covers every transaction pair (via mask-equivalence classes) and,
    for safety, every reachable access state of the subject.  Returns
    at most ``limit`` counterexamples; an empty list is the proof.
    """
    if masks is None:
        masks = SpecMasks.from_specs(specs, db_size)
    out: list[Counterexample] = []

    def emit(ce: Counterexample) -> bool:
        out.append(ce)
        return len(out) >= limit

    n_words = max(1, (db_size + 63) // 64)
    if len(masks.data) != len(specs) or len(masks.write) != len(specs):
        out.append(
            Counterexample(
                rule="ANA001",
                relation="shape",
                pair=("workload", "masks"),
                state="construction",
                expected=f"{len(specs)} slots",
                actual=f"{len(masks.data)} data / {len(masks.write)} write",
            )
        )
        return out
    if masks.n_words != n_words:
        emit(
            Counterexample(
                rule="ANA001",
                relation="n_words",
                pair=("workload", "masks"),
                state=f"db_size={db_size}",
                expected=str(n_words),
                actual=str(masks.n_words),
            )
        )

    # Pass 1 — every slot's masks recomputed from its declared sets.
    for slot, spec in enumerate(specs):
        expected_data = 0
        expected_write = 0
        for op in spec.operations:
            expected_data |= 1 << op.item
            if op.is_write:
                expected_write |= 1 << op.item
        for relation, expected, actual in (
            ("data-mask", expected_data, masks.data[slot]),
            ("write-mask", expected_write, masks.write[slot]),
        ):
            if expected != actual and emit(
                Counterexample(
                    rule="ANA001",
                    relation=relation,
                    pair=(_slot_label(specs, slot), "declared sets"),
                    state="static",
                    expected=str(mask_items(expected)),
                    actual=str(mask_items(actual)),
                )
            ):
                return out

    classes = spec_classes(specs)
    reps = [members[0] for members in classes]
    oracle = SetOracle()
    live = {rep: Transaction(specs[rep]) for rep in reps}

    # Pass 2 — conflict over every class pair, plus symmetry (ANA004).
    conflict_codes: dict[tuple[int, int], int] = {}
    for i, rep_a in enumerate(reps):
        for rep_b in reps[i:]:
            expected = _CONFLICT_CODE[oracle.conflict(live[rep_a], live[rep_b])]
            conflict_codes[(rep_a, rep_b)] = expected
            conflict_codes[(rep_b, rep_a)] = expected
            actual = flat_conflict(
                masks.data[rep_a],
                masks.write[rep_a],
                masks.data[rep_b],
                masks.write[rep_b],
            )
            mirrored = flat_conflict(
                masks.data[rep_b],
                masks.write[rep_b],
                masks.data[rep_a],
                masks.write[rep_a],
            )
            pair = (_slot_label(specs, rep_a), _slot_label(specs, rep_b))
            if actual != expected and emit(
                Counterexample(
                    rule="ANA001",
                    relation="conflict",
                    pair=pair,
                    state="declared sets",
                    expected=CONFLICT_FROM_CODE[expected].value,
                    actual=CONFLICT_FROM_CODE[actual].value,
                )
            ):
                return out
            if mirrored != actual and emit(
                Counterexample(
                    rule="ANA004",
                    relation="conflict-symmetry",
                    pair=pair,
                    state="declared sets",
                    actual=CONFLICT_FROM_CODE[mirrored].value,
                    expected=CONFLICT_FROM_CODE[actual].value,
                )
            ):
                return out

    # Pass 3 — every conflict_slots row expanded from the class
    # adjacency (the quadratic table, checked in O(n * classes)).
    class_of: dict[int, int] = {}
    class_bits: list[int] = []
    for index, members in enumerate(classes):
        bits = 0
        for slot in members:
            class_of[slot] = index
            bits |= 1 << slot
        class_bits.append(bits)
    rows = masks.conflict_slots
    if len(rows) != len(specs):
        emit(
            Counterexample(
                rule="ANA001",
                relation="conflict_slots-shape",
                pair=("workload", "masks"),
                state="construction",
                expected=f"{len(specs)} rows",
                actual=f"{len(rows)} rows",
            )
        )
        return out
    certain_with: list[int] = []  # class index -> OR of conflicting classes' bits
    for index, rep_a in enumerate(reps):
        bits = 0
        for other, rep_b in enumerate(reps):
            if conflict_codes[(rep_a, rep_b)] == _CONFLICT_CODE[Conflict.CERTAIN]:
                bits |= class_bits[other]
        certain_with.append(bits)
    for slot in range(len(specs)):
        expected_row = certain_with[class_of[slot]] & ~(1 << slot)
        if rows[slot] != expected_row:
            diff = rows[slot] ^ expected_row
            other = mask_items(diff)[0]
            if emit(
                Counterexample(
                    rule="ANA001",
                    relation="conflict_slots",
                    pair=(_slot_label(specs, slot), _slot_label(specs, other)),
                    state=f"row bit {other}",
                    expected=(
                        "set" if expected_row >> other & 1 else "clear"
                    ),
                    actual="set" if rows[slot] >> other & 1 else "clear",
                )
            ):
                return out

    # Pass 4 — safety over every ordered class pair in every reachable
    # access state of the subject, plus the no-conflict ⇒ safe law.
    for rep_subject in reps:
        spec_subject = specs[rep_subject]
        for n_ops in range(len(spec_subject.operations) + 1):
            accessed, writes = _prefix_state(spec_subject, n_ops)
            accessed_mask = items_mask(accessed)
            writes_mask = items_mask(writes)
            subject = replay_transaction(spec_subject, accessed, writes)
            state = (
                f"after {n_ops}/{len(spec_subject.operations)} ops, "
                f"accessed={sorted(accessed)}"
            )
            for rep_runner in reps:
                expected = _SAFETY_CODE[oracle.safety(subject, live[rep_runner])]
                actual = flat_safety(
                    accessed_mask,
                    writes_mask,
                    masks.data[rep_runner],
                    masks.write[rep_runner],
                )
                pair = (
                    _slot_label(specs, rep_subject),
                    _slot_label(specs, rep_runner),
                )
                if actual != expected and emit(
                    Counterexample(
                        rule="ANA002",
                        relation="safety",
                        pair=pair,
                        state=state,
                        expected=SAFETY_FROM_CODE[expected].value,
                        actual=SAFETY_FROM_CODE[actual].value,
                    )
                ):
                    return out
                if (
                    conflict_codes[(rep_subject, rep_runner)] == CONFLICT_NONE
                    and actual != SAFETY_SAFE
                    and emit(
                        Counterexample(
                            rule="ANA004",
                            relation="no-conflict-implies-safe",
                            pair=pair,
                            state=state,
                            expected=Safety.SAFE.value,
                            actual=SAFETY_FROM_CODE[actual].value,
                        )
                    )
                ):
                    return out
    return out


# ---------------------------------------------------------------------------
# StateTable prover (ANA003 / ANA004)
# ---------------------------------------------------------------------------

def prove_state_table(
    table: RelationTable,
    state_table: Optional[StateTable] = None,
    limit: int = DEFAULT_LIMIT,
) -> list[Counterexample]:
    """Check every ``StateTable`` entry against freshly rebuilt trees.

    The trees are re-analyzed from their programs (no cached sets are
    trusted) and ``conflict_between``/``safety_of`` recomputed for
    every (program, node) state pair, alongside the relation laws the
    scheduler relies on.
    """
    if state_table is None:
        state_table = StateTable(table)
    out: list[Counterexample] = []
    fresh = {
        name: TransactionTree(table.tree(name).program)
        for name in table.programs
    }

    for index, state in enumerate(state_table.states):
        if state_table.index_of(*state) != index:
            out.append(
                Counterexample(
                    rule="ANA003",
                    relation="state-index",
                    pair=(f"{state[0]}@{state[1]}", "state ids"),
                    state="construction",
                    expected=str(index),
                    actual=str(state_table.index_of(*state)),
                )
            )
            if len(out) >= limit:
                return out

    for i, (name_a, label_a) in enumerate(state_table.states):
        for j, (name_b, label_b) in enumerate(state_table.states):
            pair = (f"{name_a}@{label_a}", f"{name_b}@{label_b}")
            expected_conflict = _CONFLICT_CODE[
                conflict_between(fresh[name_a], label_a, fresh[name_b], label_b)
            ]
            actual_conflict = state_table.conflict_code(i, j)
            if actual_conflict != expected_conflict:
                out.append(
                    Counterexample(
                        rule="ANA003",
                        relation="conflict",
                        pair=pair,
                        state="(program, node) states",
                        expected=CONFLICT_FROM_CODE[expected_conflict].value,
                        actual=CONFLICT_FROM_CODE[actual_conflict].value,
                    )
                )
            expected_safety = _SAFETY_CODE[
                safety_of(fresh[name_a], label_a, fresh[name_b], label_b)
            ]
            actual_safety = state_table.safety_code(i, j)
            if actual_safety != expected_safety:
                out.append(
                    Counterexample(
                        rule="ANA003",
                        relation="safety",
                        pair=pair,
                        state="(program, node) states",
                        expected=SAFETY_FROM_CODE[expected_safety].value,
                        actual=SAFETY_FROM_CODE[actual_safety].value,
                    )
                )
            if state_table.conflict_code(i, j) != state_table.conflict_code(j, i):
                out.append(
                    Counterexample(
                        rule="ANA004",
                        relation="conflict-symmetry",
                        pair=pair,
                        state="(program, node) states",
                        expected=CONFLICT_FROM_CODE[
                            state_table.conflict_code(i, j)
                        ].value,
                        actual=CONFLICT_FROM_CODE[
                            state_table.conflict_code(j, i)
                        ].value,
                    )
                )
            if (
                actual_conflict == CONFLICT_NONE
                and actual_safety != SAFETY_SAFE
            ):
                out.append(
                    Counterexample(
                        rule="ANA004",
                        relation="no-conflict-implies-safe",
                        pair=pair,
                        state="(program, node) states",
                        expected=Safety.SAFE.value,
                        actual=SAFETY_FROM_CODE[actual_safety].value,
                    )
                )
            if len(out) >= limit:
                return out
    return out


# ---------------------------------------------------------------------------
# Mutations — proving the prover
# ---------------------------------------------------------------------------

#: Mutable tables, for ``--mutate KIND:ROW:BIT``.
MUTATION_KINDS = ("data", "write", "conflict", "state-safety", "state-conflict")


@dataclasses.dataclass(frozen=True)
class MaskMutation:
    """One deliberate single-bit (or single-entry) table corruption."""

    kind: str
    row: int
    bit: int
    """Bit index for mask kinds; column index for ``state-*`` kinds."""


def parse_mutation(text: str) -> MaskMutation:
    """Parse ``KIND:ROW:BIT`` (e.g. ``data:3:7``, ``state-safety:0:1``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"mutation must be KIND:ROW:BIT, got {text!r} "
            f"(kinds: {', '.join(MUTATION_KINDS)})"
        )
    kind = parts[0].strip()
    if kind not in MUTATION_KINDS:
        raise ValueError(
            f"unknown mutation kind {kind!r}; "
            f"kinds: {', '.join(MUTATION_KINDS)}"
        )
    try:
        row, bit = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"mutation ROW and BIT must be integers, got {text!r}"
        ) from None
    if row < 0 or bit < 0:
        raise ValueError(f"mutation ROW and BIT must be >= 0, got {text!r}")
    return MaskMutation(kind=kind, row=row, bit=bit)


def mutate_spec_masks(masks: SpecMasks, mutation: MaskMutation) -> SpecMasks:
    """A copy of ``masks`` with one bit flipped per ``mutation``.

    ``data``/``write`` flip a bit of one slot's static mask;
    ``conflict`` flips one bit of one (otherwise correctly computed)
    ``conflict_slots`` row.  The original is never modified.
    """
    if mutation.kind not in ("data", "write", "conflict"):
        raise ValueError(
            f"mutation kind {mutation.kind!r} does not apply to SpecMasks"
        )
    if not 0 <= mutation.row < len(masks.data):
        raise ValueError(
            f"mutation row {mutation.row} out of range "
            f"(workload has {len(masks.data)} slots)"
        )
    data = list(masks.data)
    write = list(masks.write)
    if mutation.kind == "data":
        data[mutation.row] ^= 1 << mutation.bit
    elif mutation.kind == "write":
        write[mutation.row] ^= 1 << mutation.bit
    mutated = SpecMasks(data, write, masks.n_words)
    if mutation.kind == "conflict":
        if not 0 <= mutation.bit < len(masks.data):
            raise ValueError(
                f"conflict mutation bit {mutation.bit} out of range "
                f"(rows have {len(masks.data)} slot bits)"
            )
        rows = list(masks.conflict_slots)
        rows[mutation.row] ^= 1 << mutation.bit
        # Pre-seed the cached_property so the flipped rows are what the
        # prover (and any consumer) observes.
        mutated.__dict__["conflict_slots"] = rows
    return mutated


def mutate_state_table(
    state_table: StateTable, mutation: MaskMutation
) -> StateTable:
    """Corrupt one ``StateTable`` entry in place (and return it).

    ``row``/``bit`` index the (subject, runner) state pair; the stored
    code is bumped to the next relation value — the smallest possible
    corruption of a table entry.
    """
    if mutation.kind == "state-safety":
        matrix = state_table.safety
    elif mutation.kind == "state-conflict":
        matrix = state_table.conflict
    else:
        raise ValueError(
            f"mutation kind {mutation.kind!r} does not apply to StateTable"
        )
    n = len(state_table.states)
    if not (0 <= mutation.row < n and 0 <= mutation.bit < n):
        raise ValueError(
            f"state mutation ({mutation.row}, {mutation.bit}) out of "
            f"range (table has {n} states)"
        )
    row = matrix[mutation.row]
    row[mutation.bit] = (row[mutation.bit] + 1) % 3
    return state_table
