"""Differential battery: the array kernel is bit-identical to the reference.

Every test here runs the same workload through the reference
object-graph engine (:class:`~repro.core.simulator.RTDBSimulator`) and
the array-oriented kernel (:class:`~repro.core.kernel.KernelSimulator`)
and requires *exact* equality of

* the full :class:`SimulationResult` (every float bit-identical),
* the flattened trace event stream (every event, field and ordering),
* the metrics-registry snapshot (every counter and histogram), and
* the offline certifier's verdict on the traced schedule.

Hypothesis drives both hand-rolled adversarial workloads (contention,
ties, shared locks, firm deadlines, disk) and the paper's own workload
generator across its configuration space, for well over 200 differential
cases per policy per run.  Any divergence prints the first differing
trace event, which localizes the bug to a single scheduling decision.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator, UnsupportedKernelFeature
from repro.core.oracle import OptimisticConflictOracle, SetOracle, TreeOracle
from repro.core.policy import (
    CCAPolicy,
    CriticalnessCCAPolicy,
    EDFPolicy,
    EDFWaitPolicy,
    EDFWPPolicy,
    FCFSPolicy,
    LSFPolicy,
    StaticEvaluationPolicy,
    make_policy,
)
from repro.core.simulator import RTDBSimulator
from repro.obs.registry import MetricsRegistry
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.tracing import EventLog
from repro.workload.generator import generate_workload
from repro.workload.programs import TreeWorkloadGenerator

#: Policy factories — fresh objects per engine run, because
#: StaticEvaluationPolicy caches priorities per (tid, epoch) on the
#: policy object and sharing one instance across runs would leak state.
POLICIES = {
    "EDF-HP": lambda: EDFPolicy(),
    "EDF-WP": lambda: EDFWPPolicy(),
    "LSF-HP": lambda: LSFPolicy(),
    "FCFS": lambda: FCFSPolicy(),
    "CCA": lambda: CCAPolicy(1.0),
    "CCA-w0": lambda: CCAPolicy(0.0),
    "EDF-Wait": lambda: EDFWaitPolicy(),
    "CCA-static": lambda: StaticEvaluationPolicy(CCAPolicy(1.0)),
    "Crit-CCA": lambda: CriticalnessCCAPolicy(1.0),
}

POLICY_IDS = sorted(POLICIES)

COMMON_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_both(config, workload, policy_factory, oracle_factory=None, **kwargs):
    """Run reference and kernel engines; assert bit-identical outcomes.

    Returns ``(result, events)`` of the (equal) runs so callers can
    assert further properties.  Either both engines complete, or both
    raise the same exception type and message after identical traces.
    """
    outcomes = []
    for engine_cls in (RTDBSimulator, KernelSimulator):
        log = EventLog()
        registry = MetricsRegistry()
        oracle = oracle_factory() if oracle_factory is not None else None
        try:
            result = engine_cls(
                config,
                workload,
                policy_factory(),
                oracle=oracle,
                trace=log,
                metrics=registry,
                **kwargs,
            ).run()
            error = None
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            result, error = None, (type(exc).__name__, str(exc))
        outcomes.append((result, log, registry, error))

    (ref, ref_log, ref_reg, ref_err), (ker, ker_log, ker_reg, ker_err) = outcomes
    assert ref_err == ker_err, (
        f"engines disagree on failure: reference={ref_err}, kernel={ker_err}"
    )
    _assert_same_events(ref_log.events, ker_log.events)
    assert ref == ker, _result_diff(ref, ker)
    assert ref_reg.snapshot() == ker_reg.snapshot()
    return ref, ref_log.events


def _assert_same_events(ref_events, ker_events):
    for index, (a, b) in enumerate(zip(ref_events, ker_events)):
        assert a == b, (
            f"trace diverges at event {index}:\n"
            f"  reference: {a}\n  kernel:    {b}"
        )
    assert len(ref_events) == len(ker_events), (
        f"trace lengths differ: reference={len(ref_events)} "
        f"kernel={len(ker_events)}; first extra event: "
        f"{(ref_events if len(ref_events) > len(ker_events) else ker_events)[min(len(ref_events), len(ker_events))]}"
    )


def _result_diff(ref, ker):
    if ref is None or ker is None:
        return f"one engine returned no result: {ref!r} vs {ker!r}"
    lines = ["results differ:"]
    for field in dataclasses.fields(ref):
        a, b = getattr(ref, field.name), getattr(ker, field.name)
        if a != b:
            lines.append(f"  {field.name}: reference={a!r} kernel={b!r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Hand-rolled adversarial workloads
# ---------------------------------------------------------------------------

@st.composite
def handrolled(draw, disk=False, shared=False, criticalness=False):
    """1..10 transactions on 8 items: ties, contention, tight slack."""
    n = draw(st.integers(1, 10))
    specs = []
    for tid in range(n):
        # Arrival ties (several transactions at t=0 or equal instants)
        # exercise the event calendar's seq tiebreaker in both engines.
        arrival = draw(
            st.one_of(st.just(0.0), st.floats(0.0, 60.0).map(lambda x: round(x, 1)))
        )
        n_ops = draw(st.integers(1, 5))
        items = draw(
            st.lists(st.integers(0, 7), min_size=n_ops, max_size=n_ops, unique=True)
        )
        compute = draw(st.floats(0.5, 12.0).map(lambda x: round(x, 2)))
        operations = tuple(
            Operation(
                item=item,
                compute_time=compute,
                io_time=20.0 if disk and draw(st.booleans()) else 0.0,
                is_write=not shared or draw(st.booleans()),
            )
            for item in items
        )
        resource = sum(op.compute_time + op.io_time for op in operations)
        slack = draw(st.floats(0.0, 6.0))
        specs.append(
            TransactionSpec(
                tid=tid,
                type_id=tid % 5,
                arrival_time=arrival,
                deadline=arrival + resource * (1.0 + slack),
                operations=operations,
                criticalness=draw(st.integers(0, 2)) if criticalness else 0,
            )
        )
    return specs


BASE = SimulationConfig(
    n_transaction_types=5,
    updates_mean=3.0,
    updates_std=1.0,
    db_size=8,
    n_transactions=10,
    arrival_rate=10.0,
)
DISK = BASE.replace(disk_resident=True, disk_access_time=20.0, disk_access_prob=0.3)


class TestHandRolledParity:
    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_main_memory(self, policy, data):
        workload = data.draw(handrolled(criticalness=policy == "Crit-CCA"))
        run_both(BASE, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_disk(self, policy, data):
        workload = data.draw(handrolled(disk=True))
        scheduling = data.draw(st.sampled_from(["fcfs", "priority"]))
        config = DISK.replace(disk_scheduling=scheduling)
        run_both(config, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_firm_deadlines(self, policy, data):
        workload = data.draw(handrolled())
        run_both(BASE.replace(firm_deadlines=True), workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_shared_locks(self, policy, data):
        workload = data.draw(handrolled(shared=True))
        run_both(BASE, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_optimistic_oracle(self, policy, data):
        workload = data.draw(handrolled(shared=True))
        run_both(
            BASE,
            workload,
            POLICIES[policy],
            oracle_factory=lambda: OptimisticConflictOracle(SetOracle()),
        )

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_lazy_wounds(self, policy, data):
        workload = data.draw(handrolled())
        run_both(BASE, workload, POLICIES[policy], eager_wounds=False)

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_rollback_free_penalty(self, policy, data):
        workload = data.draw(handrolled())
        run_both(
            BASE, workload, POLICIES[policy], include_rollback_in_penalty=False
        )


# ---------------------------------------------------------------------------
# Paper workload generator across its configuration space
# ---------------------------------------------------------------------------

@st.composite
def generated_cells(draw):
    """A (config, seed) cell from the paper generator's space."""
    config = SimulationConfig(
        n_transaction_types=draw(st.integers(2, 12)),
        updates_mean=draw(st.floats(2.0, 6.0)),
        updates_std=draw(st.floats(0.5, 3.0)),
        # 65+ items gives masks of 2-16 64-bit words, the widths the
        # large-DB figures (fig4f/fig5e) run at.
        db_size=draw(st.one_of(st.integers(8, 40), st.integers(65, 1000))),
        n_transactions=draw(st.integers(5, 25)),
        arrival_rate=draw(st.floats(2.0, 12.0)),
        disk_resident=draw(st.booleans()),
        disk_access_prob=draw(st.floats(0.0, 0.4)),
        firm_deadlines=draw(st.booleans()),
        read_fraction=draw(st.sampled_from([0.0, 0.0, 0.3])),
        penalty_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 4.0])),
        criticalness_levels=draw(st.integers(1, 3)),
        arrival_model=draw(st.sampled_from(["poisson", "bursty"])),
    )
    seed = draw(st.integers(0, 2**20))
    return config, seed


class TestGeneratedParity:
    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(cell=generated_cells())
    @COMMON_SETTINGS
    def test_generator_workloads(self, policy, cell):
        config, seed = cell
        workload = generate_workload(config, seed)
        run_both(config, workload, POLICIES[policy])


# ---------------------------------------------------------------------------
# Tree programs (conditional conflict/safety through the TreeOracle)
# ---------------------------------------------------------------------------

class TestTreeProgramParity:
    @pytest.mark.parametrize("policy", ["EDF-HP", "CCA", "EDF-Wait", "LSF-HP"])
    @given(seed=st.integers(0, 2**20), branches=st.integers(2, 3))
    @COMMON_SETTINGS
    def test_tree_workloads(self, policy, seed, branches):
        config = BASE.replace(n_transaction_types=4, n_transactions=8)
        table, workload = TreeWorkloadGenerator(
            config, seed, n_branches=branches
        ).generate()
        run_both(
            config,
            workload,
            POLICIES[policy],
            oracle_factory=lambda: TreeOracle(table),
        )


# ---------------------------------------------------------------------------
# Certifier verdicts agree on both engines' traces
# ---------------------------------------------------------------------------

class TestCertifyParity:
    @pytest.mark.parametrize("policy", ["EDF-HP", "CCA", "EDF-Wait"])
    @given(data=st.data())
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_certified_identically(self, policy, data):
        from repro.certify.certifier import certify_events

        workload = data.draw(handrolled())
        _, events = run_both(BASE, workload, POLICIES[policy])
        # The traces are equal, so one certification covers both; it must
        # also *pass* — the kernel cannot hide behind a broken schedule.
        verdict = certify_events(
            events, workload, policy, penalty_weight=BASE.penalty_weight
        )
        assert verdict.certified, verdict


# ---------------------------------------------------------------------------
# Fused execution (no trace attached)
# ---------------------------------------------------------------------------
#
# Attaching a trace hook forces the kernel onto strict per-boundary
# execution, so everything above exercises the kernel's *unfused* path.
# Production sweeps run without a trace, where the kernel fuses
# conflict-free operation runs into single phase events — including
# arrival-crossing spans under static-key policies and deferred lock
# acquisition on conflict-free spans.  These tests pin that fast path:
# no trace on either engine, exact equality of the SimulationResult and
# the metrics snapshot (events_fired, penalty_evals, preempts, ... all
# equal even though the kernel fires far fewer physical events).


def run_both_untraced(config, workload, policy_factory, **kwargs):
    """Run both engines without a trace; assert identical outcomes.

    On :class:`EventBudgetExceeded` runs, parity is the exception type
    and message: the kernel's span cap guarantees both engines give up
    at the same logical event count even though their internal states
    mid-span differ.
    """
    outcomes = []
    for engine_cls in (RTDBSimulator, KernelSimulator):
        registry = MetricsRegistry()
        try:
            result = engine_cls(
                config, workload, policy_factory(), metrics=registry, **kwargs
            ).run()
            error = None
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            result, error = None, (type(exc).__name__, str(exc))
        outcomes.append((result, registry, error))
    (ref, ref_reg, ref_err), (ker, ker_reg, ker_err) = outcomes
    assert ref_err == ker_err, (
        f"engines disagree on failure: reference={ref_err}, kernel={ker_err}"
    )
    assert ref == ker, _result_diff(ref, ker)
    if ref_err is None:
        assert ref_reg.snapshot() == ker_reg.snapshot()
    return ref


class TestFusedParity:
    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_main_memory(self, policy, data):
        workload = data.draw(handrolled(criticalness=policy == "Crit-CCA"))
        run_both_untraced(BASE, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_disk(self, policy, data):
        workload = data.draw(handrolled(disk=True))
        run_both_untraced(DISK, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_firm_deadlines(self, policy, data):
        workload = data.draw(handrolled())
        run_both_untraced(
            BASE.replace(firm_deadlines=True), workload, POLICIES[policy]
        )

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(data=st.data())
    @COMMON_SETTINGS
    def test_shared_locks(self, policy, data):
        workload = data.draw(handrolled(shared=True))
        run_both_untraced(BASE, workload, POLICIES[policy])

    @pytest.mark.parametrize("policy", POLICY_IDS)
    @given(cell=generated_cells())
    @COMMON_SETTINGS
    def test_generator_workloads(self, policy, cell):
        config, seed = cell
        workload = generate_workload(config, seed)
        run_both_untraced(config, workload, POLICIES[policy])

    def test_event_budget_exhaustion_parity(self):
        # The span budget cap: the kernel must raise the same
        # EventBudgetExceeded (type and message) as the reference even
        # though the budget boundary falls inside a fusable span.
        config = BASE.replace(n_transactions=20)
        workload = generate_workload(config, 7)
        run_both_untraced(config, workload, POLICIES["EDF-HP"], max_events=50)


# ---------------------------------------------------------------------------
# Deterministic regression cases the battery once surfaced, and engine
# selection semantics
# ---------------------------------------------------------------------------

class TestRegressions:
    def test_empty_workload(self):
        for policy in POLICY_IDS:
            run_both(BASE, [], POLICIES[policy])

    def test_simultaneous_arrivals_tiebreak_by_seq(self):
        ops = (Operation(item=0, compute_time=2.0),)
        workload = [
            TransactionSpec(
                tid=tid, type_id=0, arrival_time=0.0, deadline=10.0,
                operations=ops,
            )
            for tid in range(4)
        ]
        run_both(BASE, workload, POLICIES["EDF-HP"])

    def test_deadline_equal_to_arrival_firm(self):
        workload = [
            TransactionSpec(
                tid=0, type_id=0, arrival_time=1.0, deadline=1.0,
                operations=(Operation(item=0, compute_time=2.0),),
            )
        ]
        run_both(
            BASE.replace(firm_deadlines=True), workload, POLICIES["EDF-HP"]
        )

    def test_event_budget_exhaustion_is_identical(self):
        # Both engines must stop at the same event with the same error.
        workload = generate_workload(BASE.replace(n_transactions=20), 7)
        run_both(
            BASE.replace(n_transactions=20),
            workload,
            POLICIES["EDF-HP"],
            max_events=50,
        )


class TestEngineSelection:
    def test_kernel_engine_rejects_sanitize(self):
        config = BASE.replace(engine="kernel", sanitize=True)
        workload = generate_workload(config, 1)
        with pytest.raises(UnsupportedKernelFeature):
            make_simulator(config, workload, make_policy("CCA"))

    def test_auto_falls_back_for_sanitize(self):
        config = BASE.replace(sanitize=True)
        workload = generate_workload(config, 1)
        sim = make_simulator(config, workload, make_policy("CCA"))
        assert isinstance(sim, RTDBSimulator)

    def test_auto_picks_kernel_when_supported(self):
        workload = generate_workload(BASE, 1)
        sim = make_simulator(BASE, workload, make_policy("CCA"))
        assert isinstance(sim, KernelSimulator)

    def test_reference_engine_forced(self):
        config = BASE.replace(engine="reference")
        workload = generate_workload(config, 1)
        sim = make_simulator(config, workload, make_policy("CCA"))
        assert isinstance(sim, RTDBSimulator)

    def test_unknown_policy_falls_back(self):
        class WeirdPolicy(EDFPolicy):
            name = "weird"

            def priority(self, tx, now, system):
                return (-tx.deadline,)

        workload = generate_workload(BASE, 1)
        sim = make_simulator(BASE, workload, WeirdPolicy())
        assert isinstance(sim, RTDBSimulator)
        config = BASE.replace(engine="kernel")
        with pytest.raises(UnsupportedKernelFeature):
            make_simulator(config, workload, WeirdPolicy())
