"""Flat bitmask conflict/safety tables — the kernel engine's oracle.

The reference oracles (:mod:`repro.core.oracle`) answer safety/conflict
questions with set algebra over freshly built ``frozenset`` objects:
every call to ``SetOracle.safety`` materializes up to four sets from the
transaction specs.  On the CCA hot path that work dominates the whole
simulation — the penalty-of-conflict scan asks the question once per
P-list member per candidate per scheduling point.

This module replaces the sets with integers:

* an **item mask** packs a set of item ids into one Python int
  (bit ``i`` set ⇔ item ``i`` in the set), so every intersection test
  is a single ``&``;
* :class:`SpecMasks` precomputes the static ``data``/``write`` masks of
  a workload once, plus a per-slot **conflict slot mask** (bit ``j``
  set ⇔ slot ``j``'s declared sets conflict with slot ``i``'s), making
  ``IOwait-schedule`` compatibility one ``&`` against the P-list mask;
* :class:`StateTable` flattens a pre-analysis
  :class:`~repro.analysis.table.RelationTable` into dense ``bytearray``
  rows of relation codes indexed by (program, node)-state ids, so the
  tree-program oracle becomes two index lookups.

Python ints are arbitrary-width, so one representation serves every
database size: a 1000-item mask is still one int and one ``&``.

Equality with the reference oracles over randomized access sets —
including shared locks and tree programs — is property-tested in
``tests/core/test_masks.py``.
"""

from __future__ import annotations

import functools
import time as _time
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.relations import Conflict, Safety
from repro.analysis.table import RelationTable
from repro.rtdb.transaction import TransactionSpec

#: Integer codes for the ternary relations, ordered by "badness" so the
#: kernel can compare with plain ``>``/``==``.
SAFETY_SAFE, SAFETY_CONDITIONAL, SAFETY_UNSAFE = 0, 1, 2
CONFLICT_NONE, CONFLICT_CONDITIONAL, CONFLICT_CERTAIN = 0, 1, 2

SAFETY_FROM_CODE = (Safety.SAFE, Safety.CONDITIONALLY_UNSAFE, Safety.UNSAFE)
CONFLICT_FROM_CODE = (Conflict.NONE, Conflict.CONDITIONAL, Conflict.CERTAIN)

_SAFETY_TO_CODE = {
    Safety.SAFE: SAFETY_SAFE,
    Safety.CONDITIONALLY_UNSAFE: SAFETY_CONDITIONAL,
    Safety.UNSAFE: SAFETY_UNSAFE,
}
_CONFLICT_TO_CODE = {
    Conflict.NONE: CONFLICT_NONE,
    Conflict.CONDITIONAL: CONFLICT_CONDITIONAL,
    Conflict.CERTAIN: CONFLICT_CERTAIN,
}


def items_mask(items: Iterable[int]) -> int:
    """Pack item ids into a bitmask (bit ``i`` ⇔ item ``i``)."""
    mask = 0
    for item in items:
        mask |= 1 << item
    return mask


def mask_items(mask: int) -> list[int]:
    """Unpack a bitmask back into its (ascending) item ids."""
    items = []
    while mask:
        low = mask & -mask
        items.append(low.bit_length() - 1)
        mask ^= low
    return items


def flat_safety(
    subject_accessed: int,
    subject_accessed_writes: int,
    runner_data: int,
    runner_write: int,
) -> int:
    """Mask form of :meth:`repro.core.oracle.SetOracle.safety`.

    The subject must be rolled back iff the runner's execution would
    invalidate one of its locks: the subject *wrote* something in the
    runner's data set, or *accessed* (read or wrote) something the
    runner will write.
    """
    if subject_accessed_writes & runner_data:
        return SAFETY_UNSAFE
    if subject_accessed & runner_write:
        return SAFETY_UNSAFE
    return SAFETY_SAFE


def flat_conflict(a_data: int, a_write: int, b_data: int, b_write: int) -> int:
    """Mask form of :meth:`repro.core.oracle.SetOracle.conflict`."""
    if a_write & b_data or a_data & b_write:
        return CONFLICT_CERTAIN
    return CONFLICT_NONE


def _conflict_rows(data: list[int], write: list[int]) -> list[int]:
    """Slot-mask rows of the certain-conflict relation.

    Bit ``j`` of row ``i`` is set iff slots ``i`` and ``j`` (``i != j``)
    certainly conflict: either one's write mask intersects the other's
    data mask.  Built through per-item slot masks — ``touchers[k]``
    (slots whose data mask holds item ``k``) and ``writers[k]`` (slots
    whose write mask holds it) — so the cost is linear in the number of
    mask bits rather than quadratic in the slot count.  Slots with equal
    ``(data, write)`` masks (same transaction type) share one row
    computation.
    """
    groups: dict[tuple[int, int], int] = {}
    for slot, key in enumerate(zip(data, write)):
        groups[key] = groups.get(key, 0) | 1 << slot
    bits: dict[int, list[int]] = {}
    for key in groups:
        for mask in key:
            if mask not in bits:
                bits[mask] = mask_items(mask)
    width = max((mask.bit_length() for mask in bits), default=0)
    touchers = [0] * width
    writers = [0] * width
    for (data_mask, write_mask), slots in groups.items():
        for item in bits[data_mask]:
            touchers[item] |= slots
        for item in bits[write_mask]:
            writers[item] |= slots
    row_of = {}
    for data_mask, write_mask in groups:
        row = 0
        for item in bits[write_mask]:
            row |= touchers[item]
        for item in bits[data_mask]:
            row |= writers[item]
        row_of[data_mask, write_mask] = row
    return [
        row_of[key] & ~(1 << slot) for slot, key in enumerate(zip(data, write))
    ]


class SpecMasks:
    """Static per-slot masks for one workload, in workload (slot) order.

    ``data``/``write`` are item masks of each spec's declared sets;
    ``conflict_slots[i]`` has bit ``j`` set iff slots ``i`` and ``j``
    certainly conflict under the flat (SetOracle) relations, and is a
    function of ``data``/``write`` alone.  ``n_words`` is the mask
    width in 64-bit words, kept as a size measure for reports.

    ``conflict_slots`` (quadratic in the workload size) is built lazily
    on first access: only the IOwait scheduler consumes it, so
    plain-policy simulations never pay for it.

    ``on_build`` is an optional observer ``(seconds)`` called when
    ``conflict_slots`` materializes — the kernel wires it to its
    introspection counters and span profiler so "how often and how
    expensively does the conflict matrix materialize" is visible.  It
    observes; it never changes what gets built or when.
    """

    #: Materialization observer; ``None`` (the default) costs one
    #: attribute check per *build*, i.e. at most one per workload.
    on_build: Optional[Callable[[float], None]] = None

    def __init__(self, data: list[int], write: list[int], n_words: int) -> None:
        self.data = data
        self.write = write
        self.n_words = n_words

    @classmethod
    def from_specs(
        cls, specs: Sequence[TransactionSpec], db_size: int
    ) -> "SpecMasks":
        data: list[int] = []
        write: list[int] = []
        for spec in specs:
            data_mask = 0
            write_mask = 0
            for op in spec.operations:
                bit = 1 << op.item
                data_mask |= bit
                if op.is_write:
                    write_mask |= bit
            data.append(data_mask)
            write.append(write_mask)
        return cls(data, write, max(1, (db_size + 63) // 64))

    @functools.cached_property
    def conflict_slots(self) -> list[int]:
        hook = self.on_build
        if hook is None:
            return _conflict_rows(self.data, self.write)
        t0 = _time.perf_counter()  # repro: allow[DET001] -- build timing feeds observability only, never simulation state
        rows = _conflict_rows(self.data, self.write)
        hook(_time.perf_counter() - t0)  # repro: allow[DET001] -- build timing feeds observability only, never simulation state
        return rows


class StateTable:
    """A :class:`~repro.analysis.table.RelationTable` flattened to arrays.

    Every (program, node) pair a transaction can be in becomes one
    integer *state id*; ``safety[s][r]`` / ``conflict[a][b]`` are dense
    ``bytearray`` rows of the relation codes.  Building the table forces
    the full precompute the paper prescribes — all analysis cost moves
    to start-up and the scheduler does two index reads per question.
    """

    def __init__(self, table: RelationTable) -> None:
        self.table = table
        states: list[tuple[str, str]] = []
        for name in table.programs:
            tree = table.tree(name)
            for node in tree.program.root.walk():
                states.append((name, node.label))
        self.states = tuple(states)
        self.state_index: dict[tuple[str, str], int] = {
            state: index for index, state in enumerate(states)
        }
        self.safety = [
            bytearray(
                _SAFETY_TO_CODE[table.safety(name_a, label_a, name_b, label_b)]
                for name_b, label_b in states
            )
            for name_a, label_a in states
        ]
        self.conflict = [
            bytearray(
                _CONFLICT_TO_CODE[
                    table.conflict(name_a, label_a, name_b, label_b)
                ]
                for name_b, label_b in states
            )
            for name_a, label_a in states
        ]

    def index_of(self, program: str, label: str) -> int:
        """State id of (program, node label); KeyError if unanalyzed."""
        try:
            return self.state_index[(program, label)]
        except KeyError:
            raise KeyError(
                f"no analyzed state ({program!r}, {label!r})"
            ) from None

    def safety_code(self, subject_state: int, runner_state: int) -> int:
        return self.safety[subject_state][runner_state]

    def conflict_code(self, state_a: int, state_b: int) -> int:
        return self.conflict[state_a][state_b]
