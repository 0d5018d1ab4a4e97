"""Property tests: the flat bitmask tables equal the reference oracles.

:mod:`repro.core.masks` re-expresses the reference set-algebra oracles
(:class:`SetOracle`, :class:`RelationTable`) as integer bitmasks and
dense arrays for the kernel engine's hot path.  These tests establish
the equivalences the kernel relies on, over randomized access sets:

* ``flat_safety``/``flat_conflict`` == ``SetOracle.safety``/``conflict``
  for every partial access state, including shared (read) locks;
* ``SpecMasks`` packs exactly the declared sets and its precomputed
  ``conflict_slots`` matrix equals pairwise ``SetOracle.conflict``;
* ``StateTable`` reproduces ``RelationTable`` over every (program, node)
  state pair of randomized tree programs.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.relations import Conflict
from repro.core.masks import (
    CONFLICT_FROM_CODE,
    SAFETY_FROM_CODE,
    SpecMasks,
    StateTable,
    flat_conflict,
    flat_safety,
    items_mask,
    mask_items,
)
from repro.core.oracle import SetOracle, TreeOracle, replay_transaction
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.workload.programs import TreeWorkloadGenerator
from repro.config import SimulationConfig

DB_SIZE = 130  # masks wider than two 64-bit words

COMMON_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

item_sets = st.frozensets(st.integers(0, DB_SIZE - 1), max_size=12)


def spec_from_sets(tid, reads, writes):
    """A spec whose declared data/write sets are exactly reads|writes."""
    operations = tuple(
        Operation(item=item, compute_time=1.0, is_write=item in writes)
        for item in sorted(reads | writes)
    ) or (Operation(item=0, compute_time=1.0),)
    return TransactionSpec(
        tid=tid,
        type_id=0,
        arrival_time=0.0,
        deadline=100.0,
        operations=operations,
    )


@st.composite
def access_states(draw):
    """A spec plus a consistent partial access state over it."""
    reads = draw(item_sets)
    writes = draw(item_sets)
    spec = spec_from_sets(0, reads - writes, writes)
    progress = draw(st.integers(0, len(spec.operations)))
    done = spec.operations[:progress]
    accessed = frozenset(op.item for op in done)
    accessed_writes = frozenset(op.item for op in done if op.is_write)
    return spec, accessed, accessed_writes


class TestMaskPrimitives:
    @given(items=item_sets)
    @COMMON_SETTINGS
    def test_items_mask_roundtrip(self, items):
        assert mask_items(items_mask(items)) == sorted(items)


class TestFlatVsSetOracle:
    @given(subject=access_states(), runner=access_states())
    @COMMON_SETTINGS
    def test_safety_matches(self, subject, runner):
        subject_spec, accessed, accessed_writes = subject
        runner_spec, _, _ = runner
        runner_spec = spec_from_sets(
            1,
            {op.item for op in runner_spec.operations if not op.is_write},
            {op.item for op in runner_spec.operations if op.is_write},
        )
        subject_tx = replay_transaction(subject_spec, accessed, accessed_writes)
        runner_tx = replay_transaction(runner_spec)
        expected = SetOracle().safety(subject_tx, runner_tx)
        code = flat_safety(
            items_mask(accessed),
            items_mask(accessed_writes),
            items_mask(runner_tx.data_set),
            items_mask(runner_tx.write_set),
        )
        assert SAFETY_FROM_CODE[code] is expected

    @given(a=access_states(), b=access_states())
    @COMMON_SETTINGS
    def test_conflict_matches(self, a, b):
        a_spec, _, _ = a
        b_spec, _, _ = b
        b_spec = spec_from_sets(
            1,
            {op.item for op in b_spec.operations if not op.is_write},
            {op.item for op in b_spec.operations if op.is_write},
        )
        a_tx, b_tx = replay_transaction(a_spec), replay_transaction(b_spec)
        expected = SetOracle().conflict(a_tx, b_tx)
        code = flat_conflict(
            items_mask(a_tx.data_set),
            items_mask(a_tx.write_set),
            items_mask(b_tx.data_set),
            items_mask(b_tx.write_set),
        )
        assert CONFLICT_FROM_CODE[code] is expected


@st.composite
def workloads(draw):
    """2..8 specs with mixed read/write sets on DB_SIZE items."""
    n = draw(st.integers(2, 8))
    specs = []
    for tid in range(n):
        reads = draw(item_sets)
        writes = draw(item_sets)
        specs.append(spec_from_sets(tid, reads - writes, writes))
    return specs


class TestSpecMasks:
    @given(specs=workloads())
    @COMMON_SETTINGS
    def test_declared_sets_pack_exactly(self, specs):
        masks = SpecMasks.from_specs(specs, DB_SIZE)
        for slot, spec in enumerate(specs):
            tx = replay_transaction(spec)
            assert frozenset(mask_items(masks.data[slot])) == tx.data_set
            assert frozenset(mask_items(masks.write[slot])) == tx.write_set

    @given(specs=workloads())
    @COMMON_SETTINGS
    def test_conflict_slots_equal_pairwise_set_oracle(self, specs):
        masks = SpecMasks.from_specs(specs, DB_SIZE)
        oracle = SetOracle()
        txs = [replay_transaction(spec) for spec in specs]
        for i in range(len(specs)):
            for j in range(len(specs)):
                expected = (
                    i != j
                    and oracle.conflict(txs[i], txs[j]) is Conflict.CERTAIN
                )
                assert bool(masks.conflict_slots[i] >> j & 1) == expected


class TestStateTable:
    @given(
        seed=st.integers(0, 2**20),
        branches=st.integers(2, 3),
        types=st.integers(2, 5),
    )
    @settings(
        max_examples=50, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_equals_relation_table_everywhere(self, seed, branches, types):
        config = SimulationConfig(
            n_transaction_types=types,
            updates_mean=3.0,
            updates_std=1.0,
            db_size=12,
            n_transactions=2,
        )
        table, _ = TreeWorkloadGenerator(
            config, seed, n_branches=branches
        ).generate()
        flat = StateTable(table)
        for name_a, label_a in flat.states:
            i = flat.index_of(name_a, label_a)
            for name_b, label_b in flat.states:
                j = flat.index_of(name_b, label_b)
                assert SAFETY_FROM_CODE[flat.safety_code(i, j)] is table.safety(
                    name_a, label_a, name_b, label_b
                )
                assert CONFLICT_FROM_CODE[
                    flat.conflict_code(i, j)
                ] is table.conflict(name_a, label_a, name_b, label_b)

    @given(seed=st.integers(0, 2**20))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tree_oracle_codes_match_live_transactions(self, seed):
        """StateTable answers == TreeOracle answers for live instances."""
        config = SimulationConfig(
            n_transaction_types=3,
            updates_mean=3.0,
            updates_std=1.0,
            db_size=12,
            n_transactions=6,
        )
        table, specs = TreeWorkloadGenerator(config, seed).generate()
        oracle = TreeOracle(table)
        flat = StateTable(table)
        txs = [replay_transaction(spec) for spec in specs]
        for a in txs:
            ia = flat.index_of(a.spec.program_name, a.node_label)
            for b in txs:
                ib = flat.index_of(b.spec.program_name, b.node_label)
                assert SAFETY_FROM_CODE[
                    flat.safety_code(ia, ib)
                ] is oracle.safety(a, b)
                assert CONFLICT_FROM_CODE[
                    flat.conflict_code(ia, ib)
                ] is oracle.conflict(a, b)
