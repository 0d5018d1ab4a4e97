"""Replayable counterexample bundles for model-check violations.

A violating schedule is fully named by ``(config, workload, policy,
mutant, choice vector)``; the bundle directory records all five plus
the violation verdict and a digest of the full event trace:

* ``bundle.json`` — the document (kind ``repro-mc-bundle``);
* ``workload.jsonl`` — the exact transaction specs;
* ``trace.jsonl`` — the counterexample schedule's flattened events,
  directly consumable by ``repro certify --events``.

``repro replay <bundle>`` re-executes the schedule from the recorded
choices and verifies the same rule fires with a bit-identical trace.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.config import SimulationConfig
from repro.modelcheck.explorer import Exploration, run_schedule
from repro.modelcheck.mutants import get_mutant
from repro.workload.serialization import load_workload, save_workload

#: Identifies a model-check counterexample bundle document.
MC_BUNDLE_KIND = "repro-mc-bundle"

#: Bundle document schema version.
MC_BUNDLE_SCHEMA = 1


def trace_digest(events: list[dict]) -> str:
    """Canonical sha256 of a flattened event stream."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(event, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def config_from_dict(fields: dict) -> SimulationConfig:
    """Rebuild a config from its ``canonical_dict`` form (JSON lists
    become the tuples the frozen dataclass carries)."""
    restored = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in fields.items()
    }
    return SimulationConfig(**restored)


def _atomic_write_json(path: Path, doc: dict) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_mc_bundle(
    directory: str | Path, exploration: Exploration, config, specs
) -> Path:
    """Persist an exploration's counterexample; returns the bundle dir."""
    counterexample = exploration.counterexample
    if counterexample is None:
        raise ValueError("exploration is clean; nothing to bundle")
    bundle_dir = Path(directory)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "kind": MC_BUNDLE_KIND,
        "schema": MC_BUNDLE_SCHEMA,
        "workload": exploration.workload,
        "policy": exploration.policy,
        "mutant": exploration.mutant,
        "config": config.canonical_dict(),
        "choices": list(counterexample.choices),
        "raw_choices": list(counterexample.raw_choices),
        "trail": [record.to_dict() for record in counterexample.trail],
        "violation": counterexample.violation.to_dict(),
        "events": len(counterexample.events),
        "trace_digest": trace_digest(counterexample.events),
        "schedules_explored": exploration.schedules,
    }
    save_workload(specs, bundle_dir / "workload.jsonl")
    with open(bundle_dir / "trace.jsonl", "w") as handle:
        for event in counterexample.events:
            handle.write(json.dumps(event) + "\n")
    _atomic_write_json(bundle_dir / "bundle.json", doc)
    return bundle_dir


def load_mc_bundle(path: str | Path) -> dict:
    """Read and validate a bundle (directory or ``bundle.json`` path)."""
    path = Path(path)
    if path.is_dir():
        path = path / "bundle.json"
    with open(path) as handle:
        doc = json.load(handle)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind != MC_BUNDLE_KIND:
        raise ValueError(
            f"{path}: not a model-check bundle (kind {kind!r}, "
            f"expected {MC_BUNDLE_KIND!r})"
        )
    if doc.get("schema") != MC_BUNDLE_SCHEMA:
        raise ValueError(
            f"{path}: bundle schema {doc.get('schema')!r}, "
            f"expected {MC_BUNDLE_SCHEMA}"
        )
    return doc


def replay_mc_bundle(path: str | Path) -> dict:
    """Re-run a counterexample schedule and verify it reproduces.

    Rebuilds the config and workload from the bundle, replays the
    recorded choice vector through the controlled engine (with the
    recorded mutant, if any), and compares the violation verdict plus
    the full trace digest.  Returns a report dict; ``matched`` is the
    verdict ``repro replay`` exit-codes on.
    """
    doc = load_mc_bundle(path)
    base = Path(path)
    if not base.is_dir():
        base = base.parent
    config = config_from_dict(doc["config"])
    specs = load_workload(base / "workload.jsonl")
    mutant = get_mutant(doc["mutant"]) if doc["mutant"] else None
    result = run_schedule(
        config, specs, doc["policy"], doc["choices"], mutant=mutant
    )
    expected = doc["violation"]
    actual = result.violation.to_dict() if result.violation else None
    digest = trace_digest(result.events)
    digest_matched = digest == doc["trace_digest"]
    matched = (
        actual is not None
        and actual["rule"] == expected["rule"]
        and actual["source"] == expected["source"]
        and digest_matched
    )
    return {
        "bundle": str(path),
        "matched": matched,
        "trace_matched": digest_matched,
        "policy": doc["policy"],
        "mutant": doc["mutant"],
        "choices": doc["choices"],
        "expected": expected,
        "actual": actual,
        "expected_digest": doc["trace_digest"],
        "actual_digest": digest,
    }
