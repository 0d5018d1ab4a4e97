"""Differential test of OCC operation fusion.

OCC fuses every operation boundary that falls strictly before the next
pending event into one compute span (``OCCSimulator._start_compute``).
A trace hook turns fusion off, so each workload here runs twice — fused,
and per-boundary with a no-op trace hook — and the two runs must agree
on the full :class:`~repro.core.simulator.SimulationResult`, on
``sim.events_processed``, and, under tight event budgets, on the exact
:class:`~repro.sim.engine.EventBudgetExceeded` message and progress.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.oracle import TreeOracle
from repro.core.policy import CCAPolicy, EDFPolicy
from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE
from repro.occ.simulator import OCCSimulator
from repro.sim.engine import EventBudgetExceeded
from repro.workload.generator import generate_workload
from repro.workload.programs import TreeWorkloadGenerator

from tests.conftest import make_spec

_MM = MAIN_MEMORY_BASE.replace(arrival_rate=9.0, n_transactions=80)
_DISK = DISK_BASE.replace(arrival_rate=5.0, n_transactions=60)
CONFIGS = {
    "mm-soft": _MM,
    "mm-firm": _MM.replace(firm_deadlines=True),
    "mm-large-db": _MM.replace(db_size=300, arrival_rate=12.0),
    "disk-soft": _DISK,
    "disk-firm": _DISK.replace(firm_deadlines=True),
}
POLICIES = {"EDF-HP": EDFPolicy, "CCA": lambda: CCAPolicy(1.0)}
CASES = [
    (name, policy, seed)
    for name in CONFIGS
    for policy in POLICIES
    for seed in (1, 2, 3)
]


def _noop_trace(name, **fields) -> None:
    pass


def _pair(config, workload, policy_factory, oracle_factory=None, **kwargs):
    """(fused, per-boundary) simulators over the same inputs."""

    def build(trace):
        return OCCSimulator(
            config,
            workload,
            policy_factory(),
            oracle=oracle_factory() if oracle_factory is not None else None,
            trace=trace,
            **kwargs,
        )

    return build(None), build(_noop_trace)


def _assert_same_run(config, workload, policy_factory, oracle_factory=None):
    fused, strict = _pair(config, workload, policy_factory, oracle_factory)
    assert fused.run() == strict.run()
    assert fused.sim.events_processed == strict.sim.events_processed
    return fused, strict


def _budget_abort(simulator) -> EventBudgetExceeded:
    with pytest.raises(EventBudgetExceeded) as info:
        simulator.run()
    return info.value


@pytest.mark.parametrize("name, policy, seed", CASES)
def test_fused_matches_per_boundary(name, policy, seed):
    config = CONFIGS[name]
    workload = generate_workload(config, seed)
    fused, strict = _assert_same_run(config, workload, POLICIES[policy])
    if not config.disk_resident:
        # Fusion really happened: the fused run scheduled fewer events.
        assert fused.sim.calendar._sequence < strict.sim.calendar._sequence


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_budget_abort_matches_per_boundary(name):
    config = CONFIGS[name]
    workload = generate_workload(config, 1)
    _, reference = _pair(config, workload, EDFPolicy)
    reference.run()
    total = reference.sim.events_processed
    for max_events in (7, total // 3, total // 2, total - 1):
        fused, strict = _pair(config, workload, EDFPolicy, max_events=max_events)
        fused_exc = _budget_abort(fused)
        strict_exc = _budget_abort(strict)
        assert str(fused_exc) == str(strict_exc)
        assert fused_exc.progress == strict_exc.progress
        assert fused_exc.progress["events"] == max_events


def test_full_budget_is_enough():
    """A budget of exactly the per-boundary event count completes."""
    config = CONFIGS["mm-soft"]
    workload = generate_workload(config, 1)
    _, reference = _pair(config, workload, EDFPolicy)
    expected = reference.run()
    total = reference.sim.events_processed
    fused, strict = _pair(config, workload, EDFPolicy, max_events=total)
    assert fused.run() == strict.run() == expected


class _RecordingTreeOracle(TreeOracle):
    """A TreeOracle that logs the transaction state every query reads."""

    def __init__(self, table) -> None:
        super().__init__(table)
        self.log: list[tuple] = []

    def safety(self, subject, runner):
        self.log.append(
            (
                subject.tid,
                subject.node_label,
                subject.op_index,
                sorted(subject.accessed),
                subject.service_received,
                runner.tid,
                runner.node_label,
            )
        )
        return super().safety(subject, runner)


def test_tree_programs_advance_nodes_inside_spans():
    """Node labels, accesses and service advanced mid-span are exactly
    what the per-boundary run shows CCA's penalty scan."""
    config = SimulationConfig(
        n_transaction_types=6,
        db_size=40,
        n_transactions=60,
        arrival_rate=10.0,
        compute_per_update=4.0,
    )
    table, workload = TreeWorkloadGenerator(config, seed=3).generate()
    fused, strict = _assert_same_run(
        config,
        workload,
        lambda: CCAPolicy(1.0),
        lambda: _RecordingTreeOracle(table),
    )
    assert fused.oracle.log
    assert fused.oracle.log == strict.oracle.log


def _tie_config(**overrides) -> SimulationConfig:
    return SimulationConfig(
        n_transaction_types=2, db_size=20, n_transactions=2, **overrides
    )


def test_boundary_equal_to_arrival_is_not_fused():
    """An arrival at exactly an operation boundary fires first (it was
    scheduled first), preempting before the next operation starts: the
    slow transaction has accessed only items 1 and 2 when the urgent one
    commits its write of item 3, so it survives validation.  Fusing
    through that boundary would record item 3 early and restart it."""
    slow = make_spec(1, [1, 2, 3], arrival=0.0, deadline=1000.0, compute=10.0)
    urgent = make_spec(2, [3], arrival=20.0, deadline=40.0, compute=10.0)
    fused, strict = _assert_same_run(_tie_config(), [slow, urgent], EDFPolicy)
    assert fused.total_restarts == 0


def test_io_operation_ends_the_span():
    config = _tie_config(disk_resident=True, disk_access_time=25.0)
    tx = make_spec(
        1, [1, 2, 3, 4], deadline=500.0, compute=10.0, io_items=frozenset({3})
    )
    fused, _ = _assert_same_run(config, [tx], EDFPolicy)
    assert fused.records[0].commit_time == pytest.approx(65.0)


@pytest.mark.parametrize("hook", ["on_event", "tie_breaker"])
def test_engine_hooks_turn_fusion_off(hook):
    config = CONFIGS["mm-soft"]
    workload = generate_workload(config, 1)
    fused, strict = _pair(config, workload, EDFPolicy)
    if hook == "on_event":
        fused.sim.on_event = lambda event: None
    else:
        fused.sim.tie_breaker = lambda ties: ties[0]
    fused.run()
    strict.run()
    assert fused.sim.calendar._sequence == strict.sim.calendar._sequence
