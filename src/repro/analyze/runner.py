"""Running the analysis passes over experiments and saved workloads.

``analyze_workload`` turns one workload into ANA001–ANA006 verdicts;
``analyze_experiment`` mirrors ``repro certify``'s deterministic
sampling (middle x, first seed — tables use the base configuration)
and adds per-cell feasibility predictions across the whole sweep.
``analysis_section`` shapes the result for the schema-v6 run manifest.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.analysis.program import linear_program
from repro.analysis.table import RelationTable
from repro.analysis.tree import TransactionTree
from repro.analyze.equivalence import (
    Counterexample,
    MaskMutation,
    mutate_spec_masks,
    mutate_state_table,
    prove_spec_masks,
    prove_state_table,
    spec_classes,
)
from repro.analyze.feasibility import CellPrediction, predict_cell, predict_specs
from repro.analyze.graph import ConflictGraph, GraphMetrics
from repro.checks.rules import all_rules, get_rule
from repro.config import SimulationConfig
from repro.core.masks import SpecMasks, StateTable
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import TABLE_BASES, experiment_cells, sample_cell
from repro.rtdb.transaction import TransactionSpec
from repro.workload.generator import generate_workload

@dataclasses.dataclass(frozen=True)
class Verdict:
    """One rule's outcome over one workload."""

    code: str
    name: str
    passed: bool
    detail: str
    counterexample: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "code": self.code,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclasses.dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    experiment: Optional[str]
    scale: Optional[str]
    sample_x: Optional[float]
    sample_seed: Optional[int]
    n_transactions: int
    db_size: int
    verdicts: list[Verdict]
    graph: GraphMetrics
    cells: list[CellPrediction]

    @property
    def clean(self) -> bool:
        return all(verdict.passed for verdict in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "sample": {"x": self.sample_x, "seed": self.sample_seed},
            "n_transactions": self.n_transactions,
            "db_size": self.db_size,
            "clean": self.clean,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
            "graph": self.graph.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _verdict(
    code: str, failures: Sequence[Counterexample], ok_detail: str
) -> Verdict:
    rule = get_rule(code)
    if failures:
        detail = (
            f"{len(failures)} counterexample(s); first: "
            f"{failures[0].describe()}"
        )
        return Verdict(
            code=code,
            name=rule.name,
            passed=False,
            detail=detail,
            counterexample=failures[0].to_dict(),
        )
    return Verdict(code=code, name=rule.name, passed=True, detail=ok_detail)


def _graph_consistency(
    graph: ConflictGraph, metrics: GraphMetrics
) -> list[str]:
    """ANA006: the metrics cross-checked against their own definitions."""
    problems: list[str] = []
    degrees = graph.degrees()
    if sum(degrees) != 2 * metrics.certain_pairs:
        problems.append(
            f"degree sum {sum(degrees)} != 2 x certain pairs "
            f"{metrics.certain_pairs}"
        )
    if (
        metrics.certain_pairs + metrics.conditional_pairs
        + metrics.compatible_pairs
        != metrics.n_pairs
    ):
        problems.append("pair counts do not partition the pair universe")
    for name in ("conflict_fraction", "conditional_fraction", "unsafe_fraction"):
        value = getattr(metrics, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [0, 1]")
    if sum(count for _, count in metrics.degree_histogram) != metrics.n:
        problems.append("degree histogram does not cover every instance")
    chosen, exact = graph.compatible_set()
    if len(chosen) != metrics.max_compatible_set:
        problems.append(
            f"reported compatible-set size {metrics.max_compatible_set} "
            f"!= recomputed {len(chosen)}"
        )
    if not graph.is_pairwise_compatible(chosen):
        problems.append("reported compatible set is not pairwise compatible")
    if exact and metrics.n:
        greedy, _ = graph.compatible_set(exact_limit=0)
        if len(greedy) > len(chosen):
            problems.append(
                f"greedy bound {len(greedy)} exceeds exact optimum "
                f"{len(chosen)}"
            )
    return problems


def analyze_workload(
    specs: Sequence[TransactionSpec],
    db_size: int,
    mutation: Optional[MaskMutation] = None,
) -> tuple[list[Verdict], ConflictGraph, GraphMetrics]:
    """All verdict passes over one workload.

    ``mutation`` corrupts the named kernel table before proving — the
    prover must then fail with a counterexample (this is how tests and
    CI prove the prover itself; see ``--mutate``).
    """
    masks = SpecMasks.from_specs(specs, db_size)
    if mutation is not None and mutation.kind in ("data", "write", "conflict"):
        masks = mutate_spec_masks(masks, mutation)
    seen: dict[str, TransactionTree] = {}
    for spec in specs:
        if spec.program_name not in seen:
            seen[spec.program_name] = TransactionTree(
                linear_program(spec.program_name, sorted(spec.data_set))
            )
    table = RelationTable(seen.values())
    state_table = StateTable(table)
    if mutation is not None and mutation.kind.startswith("state-"):
        state_table = mutate_state_table(state_table, mutation)

    counterexamples = prove_spec_masks(specs, db_size, masks=masks)
    counterexamples += prove_state_table(table, state_table=state_table)
    by_rule: dict[str, list[Counterexample]] = {}
    for ce in counterexamples:
        by_rule.setdefault(ce.rule, []).append(ce)

    classes = spec_classes(specs)
    k = len(classes)
    subject_states = sum(
        len(specs[members[0]].operations) + 1 for members in classes
    )
    n_states = len(state_table.states)

    graph = ConflictGraph.from_specs(specs)
    metrics = graph.metrics()
    infeasible = [
        spec
        for spec in specs
        if spec.deadline < spec.arrival_time + spec.resource_time - 1e-9
    ]
    graph_problems = _graph_consistency(graph, metrics)

    verdicts = [
        _verdict(
            "ANA001",
            by_rule.get("ANA001", []),
            f"{len(specs)} slot masks, {k} classes "
            f"({k * (k + 1) // 2} pairs), {len(specs)} conflict rows verified",
        ),
        _verdict(
            "ANA002",
            by_rule.get("ANA002", []),
            f"{k * k} ordered class pairs x {subject_states} reachable "
            f"subject states verified",
        ),
        _verdict(
            "ANA003",
            by_rule.get("ANA003", []),
            f"{n_states}x{n_states} state pairs verified against "
            f"rebuilt trees",
        ),
        _verdict(
            "ANA004",
            by_rule.get("ANA004", []),
            "conflict symmetry and no-conflict-implies-safe hold everywhere",
        ),
    ]
    rule5 = get_rule("ANA005")
    if infeasible:
        first = infeasible[0]
        verdicts.append(
            Verdict(
                code="ANA005",
                name=rule5.name,
                passed=False,
                detail=(
                    f"{len(infeasible)} statically infeasible transaction(s); "
                    f"first: tid {first.tid} deadline {first.deadline:.3f} < "
                    f"arrival {first.arrival_time:.3f} + resource "
                    f"{first.resource_time:.3f}"
                ),
            )
        )
    else:
        verdicts.append(
            Verdict(
                code="ANA005",
                name=rule5.name,
                passed=True,
                detail=f"all {len(specs)} deadlines cover isolated run time",
            )
        )
    rule6 = get_rule("ANA006")
    verdicts.append(
        Verdict(
            code="ANA006",
            name=rule6.name,
            passed=not graph_problems,
            detail=(
                "; ".join(graph_problems)
                if graph_problems
                else (
                    f"degree sum, pair partition, fraction bounds and "
                    f"compatible set verified over {metrics.n} instances"
                )
            ),
        )
    )
    assert [v.code for v in verdicts] == [r.code for r in all_rules("ANA")]
    return verdicts, graph, metrics


def _cell_points(
    experiment: str, scale: ExperimentScale
) -> list[tuple[float, int, SimulationConfig]]:
    """Every (x, seed) workload of the sweep, policies deduplicated."""
    cells = experiment_cells(experiment, scale)
    if not cells:
        base = TABLE_BASES[experiment]
        config = scale.scale_config(base)
        return [
            (config.arrival_rate, seed, config)
            for seed in scale.seeds_for(base)
        ]
    points: dict[tuple[float, int], SimulationConfig] = {}
    for cell in cells:
        points.setdefault((cell.x, cell.seed), cell.config)
    return [(x, seed, config) for (x, seed), config in sorted(points.items())]


def analyze_experiment(
    experiment: str,
    scale: ExperimentScale,
    mutation: Optional[MaskMutation] = None,
    predict_cells: bool = True,
) -> AnalysisResult:
    """Verdict passes on the sample workload plus per-cell predictions."""
    sample = sample_cell(experiment, scale)
    sample_x, sample_seed, config = sample.x, sample.seed, sample.config
    specs = generate_workload(config, sample_seed)
    verdicts, _, metrics = analyze_workload(
        specs, config.db_size, mutation=mutation
    )
    cells: list[CellPrediction] = []
    if predict_cells:
        for x, seed, cell_config in _cell_points(experiment, scale):
            if x == sample_x and seed == sample_seed and cell_config == config:
                cells.append(predict_specs(specs, x, seed))
            else:
                cells.append(predict_cell(cell_config, x, seed))
    return AnalysisResult(
        experiment=experiment,
        scale=scale.name,
        sample_x=sample_x,
        sample_seed=sample_seed,
        n_transactions=len(specs),
        db_size=config.db_size,
        verdicts=verdicts,
        graph=metrics,
        cells=cells,
    )


def analyze_specs(
    specs: Sequence[TransactionSpec],
    db_size: Optional[int] = None,
    mutation: Optional[MaskMutation] = None,
) -> AnalysisResult:
    """Analyze a saved workload (``repro analyze --workload``)."""
    if db_size is None:
        db_size = (
            max(item for spec in specs for item in spec.data_set) + 1
            if specs
            else 1
        )
    verdicts, _, metrics = analyze_workload(specs, db_size, mutation=mutation)
    return AnalysisResult(
        experiment=None,
        scale=None,
        sample_x=None,
        sample_seed=None,
        n_transactions=len(specs),
        db_size=db_size,
        verdicts=verdicts,
        graph=metrics,
        cells=[predict_specs(specs, 0.0, 0)] if specs else [],
    )


def analysis_section(result: AnalysisResult) -> dict:
    """The run manifest's ``analysis`` section (schema v6)."""
    return {
        "enabled": True,
        "clean": result.clean,
        "sample": {"x": result.sample_x, "seed": result.sample_seed},
        "verdicts": [verdict.to_dict() for verdict in result.verdicts],
        "graph": result.graph.to_dict(),
        "cells": [cell.to_dict() for cell in result.cells],
    }
