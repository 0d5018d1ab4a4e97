"""Simulated results pinned by recorded sha256 digests.

Each case runs one engine built on the generic event calendar — the
broadcast-commit OCC simulator, or the reference ``RTDBSimulator`` — and
hashes its :func:`~repro.experiments.cache.result_to_dict` (floats as
exact shortest-repr JSON).  The digests in ``data/result_digests.json``
pin every committed record, restart count and utilization bit for bit,
so any change to the calendar's event order or to OCC's compute-phase
handling that moves a result fails here.  Regenerate them only for an
intentional behaviour change::

    PYTHONPATH=src python -m tests.occ.test_result_digests --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator
from repro.experiments.cache import result_to_dict
from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE, ExperimentScale
from repro.experiments.figures import DISK_RATE_SWEEP, MM_RATE_SWEEP
from repro.occ.simulator import OCCSimulator
from repro.workload.generator import generate_workload

DIGEST_PATH = Path(__file__).parent / "data" / "result_digests.json"

_MM = MAIN_MEMORY_BASE.replace(arrival_rate=9.0, n_transactions=120)
_DISK = DISK_BASE.replace(arrival_rate=5.0, n_transactions=80)
OCC_CONFIGS = {
    "mm-soft": _MM,
    "mm-firm": _MM.replace(firm_deadlines=True),
    "disk-soft": _DISK,
    "disk-firm": _DISK.replace(firm_deadlines=True),
}
OCC_CASES = [
    (name, policy, seed)
    for name in OCC_CONFIGS
    for policy in ("EDF-HP", "CCA")
    for seed in (1, 2)
]

_QUICK = ExperimentScale.quick()
#: One paper-figure cell per residency: fig4a at 8 tr/s, fig5b at 5 tr/s.
REFERENCE_CONFIGS = {
    "fig4a@8": MM_RATE_SWEEP.configs(_QUICK)[8.0],
    "fig5b@5": DISK_RATE_SWEEP.configs(_QUICK)[5.0],
}
REFERENCE_CASES = [
    (name, policy, 1) for name in REFERENCE_CONFIGS for policy in ("EDF-HP", "CCA")
]


def result_digest(result) -> str:
    text = json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def occ_digest(name: str, policy: str, seed: int) -> str:
    config = OCC_CONFIGS[name]
    workload = generate_workload(config, seed)
    simulator = OCCSimulator(
        config, workload, make_policy(policy, config.penalty_weight)
    )
    return result_digest(simulator.run())


def reference_digest(name: str, policy: str, seed: int) -> str:
    config = REFERENCE_CONFIGS[name]
    workload = generate_workload(config, seed)
    simulator = RTDBSimulator(
        config, workload, make_policy(policy, config.penalty_weight)
    )
    return result_digest(simulator.run())


def _key(engine: str, name: str, policy: str, seed: int) -> str:
    return f"{engine}/{name}/{policy}/seed={seed}"


def _recorded() -> dict:
    return json.loads(DIGEST_PATH.read_text())


@pytest.mark.parametrize("name, policy, seed", OCC_CASES)
def test_occ_matches_recorded_digest(name, policy, seed):
    assert occ_digest(name, policy, seed) == _recorded()[
        _key("occ", name, policy, seed)
    ], f"OCC {name} {policy} seed {seed}: simulated result changed"


@pytest.mark.parametrize("name, policy, seed", REFERENCE_CASES)
def test_reference_matches_recorded_digest(name, policy, seed):
    assert reference_digest(name, policy, seed) == _recorded()[
        _key("reference", name, policy, seed)
    ], f"reference {name} {policy} seed {seed}: simulated result changed"


def regenerate() -> None:
    digests = {
        _key("occ", *case): occ_digest(*case) for case in OCC_CASES
    }
    digests.update(
        {_key("reference", *case): reference_digest(*case) for case in REFERENCE_CASES}
    )
    DIGEST_PATH.parent.mkdir(parents=True, exist_ok=True)
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
