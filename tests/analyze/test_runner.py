"""The analysis runner: verdict assembly, sampling, manifest section."""

import pytest

from repro.analyze.equivalence import parse_mutation
from repro.checks.rules import all_rules
from repro.analyze.runner import (
    AnalysisResult,
    analysis_section,
    analyze_experiment,
    analyze_specs,
    analyze_workload,
)
from repro.experiments.config import ExperimentScale
from repro.obs.manifest import build_manifest, validate_manifest
from repro.obs.registry import MetricsRegistry
from repro.rtdb.transaction import Operation, TransactionSpec

ALL_CODES = [rule.code for rule in all_rules("ANA")]


def spec(tid, items, arrival=0.0, deadline=100.0):
    return TransactionSpec(
        tid=tid,
        type_id=tid,
        arrival_time=arrival,
        deadline=deadline,
        operations=tuple(
            Operation(item=item, compute_time=1.0) for item in items
        ),
        program_name=f"type{tid}",
    )


class TestAnalyzeWorkload:
    def test_emits_one_verdict_per_rule_in_code_order(self):
        specs = [spec(0, [0, 1]), spec(1, [2, 3])]
        verdicts, _, _ = analyze_workload(specs, db_size=8)
        assert [v.code for v in verdicts] == ALL_CODES
        assert all(v.passed for v in verdicts)

    def test_mask_mutation_fails_the_matching_verdict(self):
        specs = [spec(0, [0, 1]), spec(1, [1, 2])]
        verdicts, _, _ = analyze_workload(
            specs, db_size=8, mutation=parse_mutation("data:0:3")
        )
        by_code = {v.code: v for v in verdicts}
        assert not by_code["ANA001"].passed
        assert by_code["ANA001"].counterexample is not None
        assert "counterexample" in by_code["ANA001"].detail

    def test_state_mutation_fails_state_verdict(self):
        specs = [spec(0, [0, 1]), spec(1, [1, 2])]
        verdicts, _, _ = analyze_workload(
            specs, db_size=8, mutation=parse_mutation("state-conflict:0:1")
        )
        by_code = {v.code: v for v in verdicts}
        assert not by_code["ANA003"].passed
        # The mask passes are untouched by a state-table corruption.
        assert by_code["ANA001"].passed and by_code["ANA002"].passed

    def test_infeasible_deadline_fails_ana005(self):
        specs = [spec(0, [0], arrival=0.0, deadline=0.5)]  # needs 1 ms
        verdicts, _, _ = analyze_workload(specs, db_size=4)
        by_code = {v.code: v for v in verdicts}
        assert not by_code["ANA005"].passed
        assert "tid 0" in by_code["ANA005"].detail


class TestAnalyzeSpecs:
    def test_infers_db_size(self):
        result = analyze_specs([spec(0, [0, 5]), spec(1, [2])])
        assert result.db_size == 6
        assert result.experiment is None
        assert result.clean
        assert len(result.cells) == 1

    def test_explicit_db_size_wins(self):
        assert analyze_specs([spec(0, [0])], db_size=32).db_size == 32

    def test_empty_workload(self):
        result = analyze_specs([])
        assert result.n_transactions == 0
        assert result.cells == []


class TestAnalyzeExperiment:
    def test_sweep_experiment_analyzes_clean(self):
        result = analyze_experiment("fig4a", ExperimentScale.quick())
        assert isinstance(result, AnalysisResult)
        assert result.clean
        assert result.experiment == "fig4a"
        assert result.scale == "quick"
        # quick scale: 10 x values x 3 seeds, policies deduplicated.
        assert len(result.cells) == 30
        assert result.sample_x is not None

    def test_table_experiment_uses_base_config(self):
        result = analyze_experiment("table1", ExperimentScale.quick())
        assert result.clean
        assert len(result.cells) == 3  # one per quick main-memory seed
        assert result.sample_x == pytest.approx(result.cells[0].x)

    def test_no_cells_mode_skips_predictions(self):
        result = analyze_experiment(
            "fig4a", ExperimentScale.quick(), predict_cells=False
        )
        assert result.cells == []
        assert result.clean

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            analyze_experiment("fig99", ExperimentScale.quick())

    def test_mutation_dirties_the_result(self):
        result = analyze_experiment(
            "fig4a",
            ExperimentScale.quick(),
            mutation=parse_mutation("write:0:1"),
            predict_cells=False,
        )
        assert not result.clean


class TestAnalysisSection:
    def test_section_embeds_in_a_valid_manifest(self):
        result = analyze_experiment(
            "table1", ExperimentScale.quick()
        )
        section = analysis_section(result)
        assert section["enabled"] is True
        assert section["clean"] is True
        manifest = build_manifest(
            experiment="table1",
            scale="quick",
            cells=[],
            metrics_snapshot=MetricsRegistry().snapshot(),
            analysis=section,
        )
        assert validate_manifest(manifest) == []

    def test_to_dict_round_trips_through_json(self):
        import json

        result = analyze_specs([spec(0, [0, 1]), spec(1, [1, 2])])
        doc = json.loads(json.dumps(result.to_dict()))
        assert doc["clean"] is True
        assert [v["code"] for v in doc["verdicts"]] == ALL_CODES
