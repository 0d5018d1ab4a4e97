"""Run manifests: structured provenance for every figure/sweep run.

A manifest is one JSON document answering "what produced these
numbers?": the experiment id and scale, a content hash over every
simulated cell's configuration, the seeds and policies, cache hit/miss
counts, the per-cell wall-time histogram aggregated across worker
processes, the full metrics-registry snapshot, the git revision, and a
schema version.  ``repro <figure> --report [DIR]`` writes one per
experiment (default directory: ``results/runs/``).

The module is stdlib-only and takes *plain data* (canonical config
dicts, registry snapshots), so any layer can build a manifest without
import cycles.  :func:`validate_manifest` is the schema check CI runs
against the smoke-test artifact.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.obs.prof import timing_section

#: Bump when the manifest document layout changes incompatibly.
#: v2: added the required ``failures`` section (per-cell failure
#: records from fault-tolerant sweep execution).
#: v3: added the required ``certification`` section (offline schedule
#: certification results from ``--certify``; ``enabled: false`` with no
#: cells when the flag was off).
#: v4: added the required ``timing`` section (per-stage wall-time
#: summaries derived from the ``prof.stage_ms`` histograms, merged
#: deterministically across worker processes; ``enabled: false`` with
#: no stages when the run recorded none).
#: v5: added the required ``engine_fallbacks`` section (kernel cells
#: healed onto the sanitized reference engine).
#: v6: added the required ``analysis`` section (static analyzer
#: verdicts, conflict-graph metrics, and per-cell feasibility
#: predictions from ``--analyze``; ``enabled: false`` when the flag
#: was off).
#: v7: dropped the ``engine_fallbacks`` section with the fallback
#: itself; a kernel exception is an ordinary entry in ``failures``.
MANIFEST_SCHEMA_VERSION = 7

#: Schema versions :func:`validate_manifest` accepts: only the current
#: one, which every manifest writer in the package emits.
ACCEPTED_SCHEMA_VERSIONS = (7,)

#: Document type marker, so a manifest is self-identifying.
MANIFEST_KIND = "repro-run-manifest"

#: Keys every valid manifest must carry, with their required types.
_REQUIRED_FIELDS: dict[str, type | tuple[type, ...]] = {
    "schema": int,
    "kind": str,
    "experiment": str,
    "scale": str,
    "created_unix": (int, float),
    "git_rev": (str, type(None)),
    "config_hash": (str, type(None)),
    "n_cells": int,
    "seeds": list,
    "policies": list,
    "jobs": int,
    "elapsed_s": (int, float),
    "cache": dict,
    "metrics": dict,
    "failures": list,
    "certification": dict,
}


def git_rev(repo_root: Optional[Path] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout."""
    import subprocess  # only a manifest being written needs it

    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root or Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def config_hash(cells: Sequence[tuple[Mapping, int, str]]) -> Optional[str]:
    """SHA-256 fingerprint over every cell's (config, seed, policy).

    Cells are hashed in sorted serialized order, so the fingerprint is
    independent of enumeration order; any change to any configuration
    field, seed list, or policy set changes it.  ``None`` for runs with
    no enumerable cells (the parameter tables).
    """
    if not cells:
        return None
    serialized = sorted(
        json.dumps(
            {"config": dict(config), "seed": seed, "policy": policy},
            sort_keys=True,
            separators=(",", ":"),
        )
        for config, seed, policy in cells
    )
    digest = hashlib.sha256()
    for line in serialized:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def build_manifest(
    experiment: str,
    scale: str,
    cells: Sequence[tuple[Mapping, int, str]],
    metrics_snapshot: Mapping,
    jobs: int = 1,
    elapsed_s: float = 0.0,
    cache_hits: int = 0,
    cache_misses: int = 0,
    failures: Sequence[Mapping] = (),
    notes: str = "",
    certification: Optional[Mapping] = None,
    analysis: Optional[Mapping] = None,
) -> dict:
    """Assemble a manifest document (JSON-ready dict).

    ``cells`` holds (canonical config dict, seed, policy) triples — the
    exact sweep the experiment enumerates; ``metrics_snapshot`` is a
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot`, which carries
    the per-cell wall-time histogram (``sweep.cell_wall_ms``) merged
    across worker processes.  ``failures`` holds per-cell failure
    records (see
    :meth:`repro.experiments.parallel.CellFailure.to_dict`) — cells
    that raised (in the engine or the worker), hung, or returned
    corrupt payloads, whether a retry
    later recovered them (``recovered: true``) or they were dropped.
    ``certification`` is the ``--certify`` section (see
    :func:`repro.certify.runner.certification_section`); ``None`` means
    certification was off and records ``{"enabled": false, "cells": []}``.
    The ``timing`` section is derived from the snapshot's
    ``prof.stage_ms`` histograms (:func:`repro.obs.prof.timing_section`)
    — per-stage wall-time summaries observed cells record as they run.
    ``analysis`` (schema
    v6) is the ``--analyze`` section (see
    :func:`repro.analyze.runner.analysis_section`): static equivalence
    verdicts, conflict-graph metrics, and per-cell feasibility
    predictions; ``None`` records ``{"enabled": false}``.
    """
    histograms = metrics_snapshot.get("histograms", {})
    return {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "experiment": experiment,
        "scale": scale,
        "created_unix": time.time(),
        "git_rev": git_rev(),
        "config_hash": config_hash(cells),
        "n_cells": len(cells),
        "seeds": sorted({seed for _, seed, _ in cells}),
        "policies": sorted({policy for _, _, policy in cells}),
        "jobs": jobs,
        "elapsed_s": elapsed_s,
        "cache": {"hits": cache_hits, "misses": cache_misses},
        "failures": [dict(failure) for failure in failures],
        "certification": (
            dict(certification)
            if certification is not None
            else {"enabled": False, "cells": []}
        ),
        "timing": timing_section(metrics_snapshot),
        "analysis": (
            dict(analysis) if analysis is not None else {"enabled": False}
        ),
        "cell_wall_ms": histograms.get("sweep.cell_wall_ms"),
        "metrics": dict(metrics_snapshot),
        "notes": notes,
    }


def manifest_filename(experiment: str, scale: str, created_unix: float) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(created_unix))
    return f"{experiment}-{scale}-{stamp}.json"


def write_manifest(manifest: Mapping, directory: Path | str) -> Path:
    """Write a manifest under ``directory``.

    The timestamp in the filename has one-second resolution, so two runs
    of the same experiment landing in the same second would collide; an
    existing file is never overwritten — a ``-1``, ``-2``, … suffix is
    appended instead.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / manifest_filename(
        manifest["experiment"], manifest["scale"], manifest["created_unix"]
    )
    stem = path.stem
    serial = 0
    while path.exists():
        serial += 1
        path = path.with_name(f"{stem}-{serial}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_manifest(path: Path | str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_manifest(manifest: Mapping) -> list[str]:
    """Schema check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    for field, expected in _REQUIRED_FIELDS.items():
        if field not in manifest:
            problems.append(f"missing field {field!r}")
            continue
        if not isinstance(manifest[field], expected):
            problems.append(
                f"field {field!r} has type {type(manifest[field]).__name__}, "
                f"expected {expected}"
            )
    if not problems:
        if manifest["kind"] != MANIFEST_KIND:
            problems.append(f"kind is {manifest['kind']!r}, not {MANIFEST_KIND!r}")
        if manifest["schema"] not in ACCEPTED_SCHEMA_VERSIONS:
            problems.append(
                f"schema version {manifest['schema']} not in "
                f"{ACCEPTED_SCHEMA_VERSIONS}"
            )
        cache = manifest["cache"]
        for key in ("hits", "misses"):
            if not isinstance(cache.get(key), int):
                problems.append(f"cache.{key} missing or not an int")
        for key in ("counters", "gauges", "histograms"):
            if not isinstance(manifest["metrics"].get(key), dict):
                problems.append(f"metrics.{key} missing or not a dict")
        for index, failure in enumerate(manifest["failures"]):
            if not isinstance(failure, dict):
                problems.append(f"failures[{index}] is not an object")
                continue
            for key in ("cell", "attempts", "exception"):
                if key not in failure:
                    problems.append(f"failures[{index}] missing {key!r}")
        certification = manifest["certification"]
        if not isinstance(certification.get("enabled"), bool):
            problems.append("certification.enabled missing or not a bool")
        cells = certification.get("cells")
        if not isinstance(cells, list):
            problems.append("certification.cells missing or not a list")
        else:
            for index, cell in enumerate(cells):
                if not isinstance(cell, dict):
                    problems.append(
                        f"certification.cells[{index}] is not an object"
                    )
                    continue
                for key in ("cell", "certified", "violations"):
                    if key not in cell:
                        problems.append(
                            f"certification.cells[{index}] missing {key!r}"
                        )
        problems.extend(_validate_timing(manifest.get("timing")))
        problems.extend(_validate_analysis(manifest.get("analysis")))
    return problems


def _validate_analysis(analysis: object) -> list[str]:
    """Problems with a v6 ``analysis`` section (empty = valid)."""
    if not isinstance(analysis, dict):
        return ["analysis missing or not an object (required by schema v6)"]
    problems: list[str] = []
    enabled = analysis.get("enabled")
    if not isinstance(enabled, bool):
        problems.append("analysis.enabled missing or not a bool")
        return problems
    if not enabled:
        return problems
    if not isinstance(analysis.get("clean"), bool):
        problems.append("analysis.clean missing or not a bool")
    verdicts = analysis.get("verdicts")
    if not isinstance(verdicts, list) or not verdicts:
        problems.append("analysis.verdicts missing or empty")
    else:
        for index, verdict in enumerate(verdicts):
            if not isinstance(verdict, dict):
                problems.append(f"analysis.verdicts[{index}] is not an object")
                continue
            for key in ("code", "name", "passed", "detail"):
                if key not in verdict:
                    problems.append(
                        f"analysis.verdicts[{index}] missing {key!r}"
                    )
    if not isinstance(analysis.get("graph"), dict):
        problems.append("analysis.graph missing or not an object")
    cells = analysis.get("cells")
    if not isinstance(cells, list):
        problems.append("analysis.cells missing or not a list")
    else:
        for index, cell in enumerate(cells):
            if not isinstance(cell, dict):
                problems.append(f"analysis.cells[{index}] is not an object")
                continue
            for key in ("cell", "predicted"):
                if key not in cell:
                    problems.append(f"analysis.cells[{index}] missing {key!r}")
    return problems


def _validate_timing(timing: object) -> list[str]:
    """Problems with a v4 ``timing`` section (empty = valid)."""
    if not isinstance(timing, dict):
        return ["timing missing or not an object (required by schema v4)"]
    problems: list[str] = []
    if not isinstance(timing.get("enabled"), bool):
        problems.append("timing.enabled missing or not a bool")
    stages = timing.get("stages")
    if not isinstance(stages, dict):
        problems.append("timing.stages missing or not an object")
        return problems
    for stage, data in stages.items():
        if not isinstance(data, dict):
            problems.append(f"timing.stages[{stage!r}] is not an object")
            continue
        for key in ("count", "total_ms", "mean_ms", "p95_ms"):
            if not isinstance(data.get(key), (int, float)):
                problems.append(
                    f"timing.stages[{stage!r}].{key} missing or non-numeric"
                )
    if timing.get("enabled") is False and stages:
        problems.append("timing.enabled is false but stages are present")
    return problems
