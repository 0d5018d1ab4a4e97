"""Workload digests and the operation-sharing contract.

``generate_workload`` output is pinned by sha256 digests committed
under ``tests/workload/data/``.  A digest covers every field of every
spec and of every operation, with floats at full precision, so any
change to what the generator draws or in what order (type table,
arrivals, type choices, slack, disk coins, criticalness) shows here.

The generator shares one operations tuple among instances whose
operations are equal by construction: every instance of a type off
disk, and instances with the same type and disk legs on disk.  The
sharing tests pin that contract.

To regenerate after an intentional workload change::

    PYTHONPATH=src python tests/workload/test_workload_digest.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import DISK_BASE, MAIN_MEMORY_BASE
from repro.workload.generator import generate_workload

DIGEST_PATH = Path(__file__).parent / "data" / "workload_digests.json"

#: The configurations the figures run, plus the generator's optional paths.
CONFIGS = {
    "fig4a": MAIN_MEMORY_BASE,
    "fig4f-db1000": MAIN_MEMORY_BASE.replace(arrival_rate=10.0, db_size=1000),
    "fig5b": DISK_BASE,
    "shared-locks": MAIN_MEMORY_BASE.replace(read_fraction=0.5),
    "bursty": MAIN_MEMORY_BASE.replace(arrival_model="bursty", criticalness_levels=3),
}
SEEDS = (1, 2)
CASES = [(name, seed) for name in CONFIGS for seed in SEEDS]


def _canonical(value):
    """``value`` as plain JSON: dataclasses field by field, floats as hex."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            [field.name, _canonical(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    return value


def workload_digest(name: str, seed: int) -> str:
    specs = generate_workload(CONFIGS[name], seed)
    text = json.dumps(_canonical(specs), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _key(name: str, seed: int) -> str:
    return f"{name}/seed={seed}"


@pytest.mark.parametrize("name, seed", CASES)
def test_workload_matches_recorded_digest(name, seed):
    recorded = json.loads(DIGEST_PATH.read_text())
    assert workload_digest(name, seed) == recorded[_key(name, seed)], (
        f"{name} seed {seed}: generate_workload output changed; if "
        f"intentional, regenerate the digests"
    )


def _legs(spec) -> tuple[bool, ...]:
    return tuple(op.io_time > 0 for op in spec.operations)


@pytest.mark.parametrize("name, seed", CASES)
def test_instances_share_operations(name, seed):
    config = CONFIGS[name]
    shared: dict = {}
    for spec in generate_workload(config, seed):
        key = (spec.type_id, _legs(spec)) if config.disk_resident else spec.type_id
        assert shared.setdefault(key, spec.operations) is spec.operations, (
            f"transaction {spec.tid} does not share its operations tuple"
        )


@pytest.mark.parametrize("name, seed", CASES)
def test_equal_operations_are_one_object(name, seed):
    distinct = {
        id(op): op for spec in generate_workload(CONFIGS[name], seed)
        for op in spec.operations
    }
    fields = {dataclasses.astuple(op) for op in distinct.values()}
    assert len(fields) == len(distinct)


def regenerate() -> None:
    DIGEST_PATH.parent.mkdir(parents=True, exist_ok=True)
    digests = {_key(name, seed): workload_digest(name, seed) for name, seed in CASES}
    DIGEST_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
