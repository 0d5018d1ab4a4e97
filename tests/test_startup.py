"""Start-up loads only what a sweep runs.

``import repro`` and the sweep entry points leave out the process pool,
the multiprocessor engine, the profiler, the tracing and manifest
modules and the checker packages; a ``jobs=1`` sweep, failing cells
included, loads none of them either.  ``import repro.cli`` leaves out
the manifest, which only ``--report`` writes.  The package re-exports
that make this possible resolve on first use to their defining
modules' own objects.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Modules a ``jobs=1`` sweep never calls into.
NEVER_LOADED = (
    "concurrent.futures",
    "multiprocessing",
    "repro.mp",
    "repro.tracing",
    "repro.obs.manifest",
    "repro.obs.prof",
    "repro.obs.sampler",
    "repro.workload.programs",
    "repro.checks",
    "repro.certify",
    "repro.analyze",
    "repro.modelcheck",
)

SCRIPT = r"""
import json
import sys
import tempfile

never = json.loads(sys.argv[1])


def loaded():
    return sorted(name for name in never if name in sys.modules)


import repro
import repro.experiments.cache
import repro.experiments.extensions
import repro.experiments.figures
import repro.experiments.parallel
import repro.experiments.runner

out = {"at_import": loaded()}

from repro.config import SimulationConfig
from repro.experiments import faults
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    RetryPolicy, cells_for_sweep, execute_cells, last_stats,
)

config = SimulationConfig(
    n_transaction_types=10, updates_mean=6.0, updates_std=3.0,
    db_size=60, n_transactions=20, arrival_rate=8.0,
)
cells = cells_for_sweep({4.0: config, 8.0: config.replace(arrival_rate=12.0)},
                        (1, 2), ("EDF-HP", "CCA"))
with tempfile.TemporaryDirectory() as root:
    serial = execute_cells(cells, jobs=1, cache=ResultCache(root))
out["after_sweep"] = loaded()

# Every first attempt fails, half of them as a worker death, which a
# process that is not a pool worker turns into a crash.
faults.install(faults.FaultPlan(seed=3, crash=0.5, die=0.5))
retried = execute_cells(cells, jobs=1, retry=RetryPolicy(on_error="retry"))
faults.install(None)
out["after_failures"] = loaded()
out["retries"] = last_stats().retries

pooled = execute_cells(cells, jobs=2)
out["pool_loaded"] = "concurrent.futures" in sys.modules
out["cells"] = len(cells)
out["equal"] = serial == retried == pooled and len(serial) == len(cells)
print(json.dumps(out))
"""


def _run_fresh(script: str, *args: str) -> str:
    """``script``'s last stdout line, run in a fresh interpreter."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_a_jobs_1_sweep_loads_no_pool_fallback_or_checker_module():
    out = json.loads(_run_fresh(SCRIPT, json.dumps(NEVER_LOADED)))
    assert out["at_import"] == []
    assert out["after_sweep"] == []
    assert out["after_failures"] == []
    assert out["retries"] == out["cells"]
    assert out["pool_loaded"]
    assert out["equal"]


def test_importing_the_cli_loads_no_manifest_module():
    script = (
        "import sys, repro.cli; "
        "print(sorted(m for m in ('repro.obs.manifest', 'repro.obs.prof', 'platform') "
        "if m in sys.modules))"
    )
    assert _run_fresh(script) == "[]"


LAZY_PACKAGES = ("repro", "repro.obs", "repro.experiments", "repro.workload")


def _declared_exports(package: str) -> dict[str, str]:
    """Name -> defining module, read from the package's
    ``if TYPE_CHECKING:`` imports (what static checkers see)."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    declared: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for stmt in node.body:
                assert isinstance(stmt, ast.ImportFrom), ast.unparse(stmt)
                for alias in stmt.names:
                    declared[alias.asname or alias.name] = stmt.module
    return declared


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_is_its_defining_modules_object(package):
    module = importlib.import_module(package)
    declared = _declared_exports(package)
    assert set(declared) == set(module.__all__) - {"__version__"}
    for name, home in declared.items():
        assert getattr(module, name) is getattr(importlib.import_module(home), name), name
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_name  # noqa: B018


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_export(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name
