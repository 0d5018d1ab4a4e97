"""Shared operations tuples: the kernel's per-tuple op table changes nothing.

The generator shares one operations tuple among instances with the same
type and disk legs, and the kernel builds one op-table segment, one
item-range check and one mask pair per distinct tuple.  Results must not
depend on that sharing: a workload with every tuple and operation
rebuilt, so nothing is shared, runs to an equal result, and both equal
the reference engine's.  Kernels built one after another on the same
specs share one build of the per-workload tables, again without moving
a result.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator
from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE
from repro.obs.registry import MetricsRegistry
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.workload.generator import generate_workload

CONFIGS = {
    "main-memory": MAIN_MEMORY_BASE.replace(n_transactions=150, db_size=100),
    "disk": DISK_BASE.replace(n_transactions=80),
}


def unshared(workload):
    """``workload`` with a fresh operations tuple of fresh operations per spec."""
    return [
        dataclasses.replace(
            spec,
            operations=tuple(dataclasses.replace(op) for op in spec.operations),
        )
        for spec in workload
    ]


def run(engine, config, workload, policy_name):
    return engine(config, workload, make_policy(policy_name, penalty_weight=1.0)).run()


@pytest.mark.parametrize("policy_name", ["EDF-HP", "CCA"])
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [1, 2])
def test_sharing_leaves_results_unchanged(config_name, policy_name, seed):
    config = CONFIGS[config_name]
    shared = generate_workload(config, seed)
    rebuilt = unshared(shared)
    assert rebuilt == shared
    assert len({id(spec.operations) for spec in rebuilt}) == len(rebuilt)
    assert len({id(spec.operations) for spec in shared}) < len(shared)
    result = run(KernelSimulator, config, shared, policy_name)
    assert result == run(KernelSimulator, config, rebuilt, policy_name)
    assert result == run(RTDBSimulator, config, rebuilt, policy_name)


def test_shared_out_of_range_tuple_names_first_offender_in_workload_order():
    config = MAIN_MEMORY_BASE.replace(db_size=10)
    good = (Operation(item=1, compute_time=4.0),)
    bad = (Operation(item=2, compute_time=4.0), Operation(item=12, compute_time=4.0))
    workload = [
        TransactionSpec(tid=5, type_id=0, arrival_time=0.0, deadline=50.0, operations=good),
        TransactionSpec(tid=7, type_id=1, arrival_time=1.0, deadline=50.0, operations=bad),
        TransactionSpec(tid=3, type_id=1, arrival_time=2.0, deadline=50.0, operations=bad),
        TransactionSpec(tid=6, type_id=0, arrival_time=3.0, deadline=50.0, operations=good),
    ]
    with pytest.raises(KeyError, match="transaction 7 updates item 12"):
        KernelSimulator(config, workload, make_policy("EDF-HP"))


def test_generated_workload_out_of_range_names_first_offender():
    workload = generate_workload(MAIN_MEMORY_BASE.replace(db_size=100, n_transactions=60), 1)
    config = MAIN_MEMORY_BASE.replace(db_size=50)
    first = next(
        spec for spec in workload if any(op.item >= 50 for op in spec.operations)
    )
    item = next(op.item for op in first.operations if op.item >= 50)
    with pytest.raises(KeyError, match=f"transaction {first.tid} updates item {item},"):
        KernelSimulator(config, workload, make_policy("CCA", penalty_weight=1.0))


def test_kernels_on_one_workload_share_its_tables():
    """A sweep task replays one workload under each policy: consecutive
    kernels on the same specs reuse one build of the per-workload
    tables, and results equal those of a fresh build."""
    config = CONFIGS["disk"]
    workload = generate_workload(config, 1)
    first = KernelSimulator(config, workload, make_policy("CCA", penalty_weight=1.0))
    second = KernelSimulator(config, workload, make_policy("EDF-HP"))
    assert second._masks is first._masks
    assert second._op_item is first._op_item and second._arrival is first._arrival
    shared = second.run()

    fresh = KernelSimulator(config, unshared(workload), make_policy("EDF-HP"))
    assert fresh._masks is not first._masks
    assert fresh.run() == shared
    resized = config.replace(db_size=config.db_size + 1)
    assert KernelSimulator(resized, workload, make_policy("EDF-HP"))._masks is not first._masks


def test_shared_conflict_matrix_materializes_once_per_workload():
    config = CONFIGS["disk"]
    workload = generate_workload(config, 2)
    builds = []
    for _ in range(2):
        registry = MetricsRegistry()
        KernelSimulator(
            config, workload, make_policy("CCA", penalty_weight=1.0),
            metrics=registry, introspect=True,
        ).run()
        builds.append(
            registry.snapshot()["counters"].get(
                "kernel.mask_builds{kind=conflict_slots,policy=CCA}", 0
            )
        )
    assert builds == [1, 0]
