"""The package runs with no third-party modules: numpy is not needed.

A fresh interpreter poisons ``sys.modules["numpy"]`` (so any attempt
to load numpy raises ``ImportError``) and then drives every path that
once used it: a disk-resident CCA kernel cell wide enough for
multi-word masks (``conflict_slots`` plus the bitmask penalty scan), a
tree-program kernel cell (``StateTable``), the ANA001–ANA004 provers
and ``host_provenance()``.  Each kernel cell must equal the reference
engine's result.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys

sys.modules["numpy"] = None

from repro.analyze.equivalence import parse_mutation
from repro.analyze.runner import analyze_workload
from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator
from repro.core.oracle import TreeOracle
from repro.core.policy import CCAPolicy
from repro.core.simulator import RTDBSimulator
from repro.obs.prof import host_provenance
from repro.obs.registry import MetricsRegistry
from repro.workload.generator import generate_workload
from repro.workload.programs import TreeWorkloadGenerator


def kernel_vs_reference(config, workload, oracle_factory=lambda: None):
    registry = MetricsRegistry()
    kernel = KernelSimulator(
        config, workload, CCAPolicy(1.0), oracle=oracle_factory(),
        metrics=registry, introspect=True,
    ).run()
    reference = RTDBSimulator(
        config, workload, CCAPolicy(1.0), oracle=oracle_factory()
    ).run()
    return kernel == reference, registry.snapshot()["counters"]


out = {}
disk = SimulationConfig(
    n_transaction_types=10, updates_mean=6.0, updates_std=3.0,
    db_size=200, n_transactions=60, arrival_rate=8.0,
    disk_resident=True, disk_access_prob=0.3,
)
specs = generate_workload(disk, 7)
out["disk_equal"], counters = kernel_vs_reference(disk, specs)
out["disk_counters"] = counters

tree = SimulationConfig(
    n_transaction_types=4, db_size=12, n_transactions=8, arrival_rate=8.0
)
table, tree_specs = TreeWorkloadGenerator(tree, 3, n_branches=2).generate()
out["tree_equal"], counters = kernel_vs_reference(
    tree, tree_specs, lambda: TreeOracle(table)
)
out["tree_counters"] = counters

verdicts, _, _ = analyze_workload(specs, disk.db_size)
out["verdicts"] = {v.code: v.passed for v in verdicts}
mutated, _, _ = analyze_workload(
    specs, disk.db_size, mutation=parse_mutation("state-conflict:0:1")
)
out["mutated"] = {v.code: v.passed for v in mutated}
out["host"] = host_provenance()
out["numpy_poisoned"] = sys.modules["numpy"] is None
print(json.dumps(out))
"""


def test_runs_without_numpy():
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    assert out["disk_equal"]
    disk = out["disk_counters"]
    assert disk["kernel.mask_builds{kind=conflict_slots,policy=CCA}"] == 1
    assert disk["kernel.penalty_scans{mode=scalar,policy=CCA}"] > 0

    assert out["tree_equal"]
    tree = out["tree_counters"]
    assert tree["kernel.penalty_scans{mode=table,policy=CCA}"] > 0

    for code in ("ANA001", "ANA002", "ANA003", "ANA004"):
        assert out["verdicts"][code], code
    assert not out["mutated"]["ANA003"]

    assert "numpy" not in out["host"]
    assert out["numpy_poisoned"]
