"""Certifying experiment cells: selection, execution, sampling.

``repro certify <exp>`` re-simulates sweep cells with an event log
attached and runs the certifier over each.  Cell selection mirrors
``repro trace`` (middle x, first seed by default) but fans out over
*policies*: the acceptance question is "does every policy's schedule
certify", so the default sample takes one cell per policy.

Experiments without sweeps (table1/table2) certify a synthesized cell
at the base configuration — the tables describe exactly one parameter
point, which is as deterministic as a sweep cell.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Sequence

from repro.core.policy import make_policy
from repro.certify.certifier import CertificationResult, certify_events
from repro.core.simulator import SimulationResult
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import sample_cell
from repro.experiments.parallel import CellOptions, CellOutcome, SweepCell, run_cell
from repro.obs.registry import MetricsRegistry
from repro.tracing import EventLog

#: The acceptance matrix: one cell per policy in the default sample.
DEFAULT_POLICIES = ("EDF-HP", "EDF-Wait", "CCA")


@dataclasses.dataclass(frozen=True)
class CellCertification:
    """One certified cell: where it came from plus the verdict."""

    experiment: str
    cell: SweepCell
    result: CertificationResult
    simulation: SimulationResult

    def to_dict(self) -> dict:
        return {
            "cell": {
                "x": self.cell.x,
                "seed": self.cell.seed,
                "policy": self.cell.policy,
            },
            "certified": self.result.certified,
            "violations": [v.to_dict() for v in self.result.violations],
            "rules_skipped": dict(self.result.skipped),
        }


def default_cells(
    experiment: str,
    scale: ExperimentScale,
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> list[SweepCell]:
    """The deterministic certification sample: one cell per policy.

    Sweep experiments use the middle x-value with the first seed;
    policies outside the sweep's own matrix reuse that x's config (a
    certifier question is well-posed for any policy at any cell).
    ``table1``/``table2`` synthesize the base-parameter cell.
    """
    sample = sample_cell(experiment, scale)
    return [
        dataclasses.replace(
            sample, policy=make_policy(name, penalty_weight=1.0).name
        )
        for name in policies
    ]


def stream_path_for(
    stream_dir: Path | str, experiment: str, cell: SweepCell
) -> Path:
    """Where one cell's spilled trace stream lives under ``stream_dir``."""
    return Path(stream_dir) / (
        f"{experiment}-x{cell.x:g}-s{cell.seed}-{cell.policy}.jsonl"
    )


def certify_cell(
    experiment: str,
    cell: SweepCell,
    *,
    max_wall_s: Optional[float] = None,
    stream_dir: Optional[Path | str] = None,
) -> CellCertification:
    """Re-simulate one cell with tracing on and certify its schedule.

    With ``stream_dir`` set, the trace is spilled to a JSONL file as it
    is produced and the certifier reads it back lazily — peak memory is
    bounded by one event, not the whole log, and verdicts are identical
    to the in-memory path (the stream carries the same flattened
    records).  The spill file is left behind for inspection and
    offline re-certification (``repro certify --events``).
    """
    if stream_dir is None:
        log = EventLog()
        outcome = _traced(cell, max_wall_s, log)
        events = log.events
    else:
        from repro.sim.stream import JsonlSink, iter_jsonl

        path = stream_path_for(stream_dir, experiment, cell)
        with JsonlSink(path) as sink:
            outcome = _traced(cell, max_wall_s, sink)
        events = iter_jsonl(path)
    simulation, workload = outcome.result, outcome.workload
    result = certify_events(
        events,
        workload,
        cell.policy,
        penalty_weight=cell.config.penalty_weight,
    )
    return CellCertification(
        experiment=experiment, cell=cell, result=result, simulation=simulation
    )


def _traced(cell: SweepCell, max_wall_s: Optional[float], sink) -> CellOutcome:
    """Run one cell with ``sink`` attached (and closed afterwards)."""
    options = CellOptions(max_wall_s=max_wall_s, trace=sink)
    return run_cell(cell.config, cell.seed, (cell.policy,), options)[0].checked()


def certify_sample(
    experiment: str,
    scale: ExperimentScale,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    registry: Optional[MetricsRegistry] = None,
    max_wall_s: Optional[float] = None,
    stream_dir: Optional[Path | str] = None,
) -> list[CellCertification]:
    """Certify the default cell sample; feeds per-policy ``certify.*``
    counters into ``registry`` when given (plus the ``certify`` stage's
    wall time, for manifest timing sections).  ``stream_dir`` spills
    each cell's trace to JSONL and certifies from the stream (see
    :func:`certify_cell`)."""
    import time as _time

    from repro.obs.prof import observe_stage

    out: list[CellCertification] = []
    for cell in default_cells(experiment, scale, policies):
        started = _time.perf_counter()
        certified = certify_cell(
            experiment, cell, max_wall_s=max_wall_s, stream_dir=stream_dir
        )
        out.append(certified)
        if registry is not None:
            observe_stage(
                registry, "certify", (_time.perf_counter() - started) * 1000.0
            )
            registry.counter("certify.cells", policy=cell.policy).inc()
            if not certified.result.certified:
                registry.counter(
                    "certify.uncertified_cells", policy=cell.policy
                ).inc()
            for code, count in certified.result.violations_by_rule().items():
                registry.counter(
                    "certify.violations", policy=cell.policy, rule=code
                ).inc(count)
    return out


def certification_section(
    samples: Sequence[CellCertification],
) -> dict:
    """The run manifest's ``certification`` section (schema v3)."""
    return {
        "enabled": True,
        "cells": [sample.to_dict() for sample in samples],
    }
