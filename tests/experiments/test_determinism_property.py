"""Property test: simulation is a pure function of (config, seed, policy).

The whole parallel/caching subsystem rests on one invariant: a sweep
cell's result depends only on its inputs — no hidden global RNG state,
no import-order effects, no per-process drift.  Hypothesis drives random
small configurations through :func:`repro.experiments.parallel.simulate_cell`
and requires bit-identical full results, per-transaction records
included,

* across two invocations in the same process, and
* across a subprocess boundary (a fresh worker in a process pool),

which is exactly the contract the parity tests rely on at fixed seeds.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.experiments.parallel import simulate_cell

_POOL: Optional[ProcessPoolExecutor] = None


def _pool() -> ProcessPoolExecutor:
    """One long-lived single worker, shared by all examples (forking per
    example would dominate the test's runtime)."""
    global _POOL
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=1)
        atexit.register(_POOL.shutdown)
    return _POOL


configs = st.builds(
    SimulationConfig,
    n_transaction_types=st.integers(min_value=2, max_value=8),
    updates_mean=st.floats(min_value=2.0, max_value=6.0),
    updates_std=st.floats(min_value=0.0, max_value=3.0),
    db_size=st.integers(min_value=5, max_value=60),
    arrival_rate=st.floats(min_value=1.0, max_value=20.0),
    n_transactions=st.integers(min_value=5, max_value=25),
    abort_cost=st.floats(min_value=0.0, max_value=8.0),
    penalty_weight=st.floats(min_value=0.0, max_value=10.0),
    disk_resident=st.booleans(),
    firm_deadlines=st.booleans(),
)

policies = st.sampled_from(("EDF-HP", "CCA", "EDF-Wait", "LSF-HP"))

seeds = st.integers(min_value=0, max_value=10_000)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs, policy=policies, seed=seeds)
def test_simulate_cell_deterministic_in_process(config, policy, seed):
    first = simulate_cell(config, seed, policy)
    second = simulate_cell(config, seed, policy)
    assert first.records == second.records
    assert first == second


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs, policy=policies, seed=seeds)
def test_simulate_cell_deterministic_across_subprocess(config, policy, seed):
    local = simulate_cell(config, seed, policy)
    remote = _pool().submit(simulate_cell, config, seed, policy).result()
    assert local == remote
