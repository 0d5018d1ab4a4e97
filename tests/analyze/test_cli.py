"""``repro analyze`` CLI: exit codes, reporters, modes."""

import json

import pytest

from repro.analyze.cli import analyze_main, build_analyze_parser
from repro.analyze.report import JSON_SCHEMA_VERSION
from repro.checks.rules import all_rules
from repro.cli import main
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.workload.serialization import save_workload


@pytest.fixture
def workload_file(tmp_path):
    specs = [
        TransactionSpec(
            tid=tid,
            type_id=tid,
            arrival_time=0.0,
            deadline=100.0,
            operations=tuple(
                Operation(item=item, compute_time=1.0)
                for item in items
            ),
            program_name=f"type{tid}",
        )
        for tid, items in ((0, [0, 1]), (1, [2, 3]), (2, [1, 2]))
    ]
    return save_workload(specs, tmp_path / "load.jsonl")


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert analyze_main([]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert analyze_main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "fig4a" in err  # lists the known ids

    def test_malformed_mutation(self, capsys):
        assert analyze_main(["fig4a", "--mutate", "bogus"]) == 2
        assert "KIND:ROW:BIT" in capsys.readouterr().err

    def test_missing_workload_file(self, tmp_path, capsys):
        assert analyze_main(["--workload", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_db_size(self, workload_file, capsys):
        assert analyze_main(
            ["--workload", str(workload_file), "--db-size", "0"]
        ) == 2
        assert "--db-size" in capsys.readouterr().err


class TestListRules:
    def test_catalog_covers_all_rules(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules("ANA"):
            assert rule.code in out
            assert rule.name in out


class TestExperimentMode:
    def test_table1_analyzes_clean(self, capsys):
        assert analyze_main(["table1", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "ANALYSIS CLEAN" in out
        assert "ANA001" in out and "PASS" in out

    def test_sweep_with_cells_and_verbose(self, capsys):
        assert analyze_main(
            ["fig4a", "--scale", "quick", "--verbose"]
        ) == 0
        out = capsys.readouterr().out
        assert "cells: 30 predicted" in out
        assert "x=1 seed=1" in out

    def test_no_cells_skips_predictions(self, capsys):
        assert analyze_main(["fig4a", "--scale", "quick", "--no-cells"]) == 0
        assert "cells:" not in capsys.readouterr().out

    def test_json_report_schema(self, capsys):
        assert analyze_main(
            ["table1", "--scale", "quick", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro-analysis"
        assert doc["schema"] == JSON_SCHEMA_VERSION
        assert doc["clean"] is True
        assert [v["code"] for v in doc["verdicts"]] == [
            rule.code for rule in all_rules("ANA")
        ]

    def test_mutated_masks_exit_one_with_counterexample(self, capsys):
        assert analyze_main(
            ["table1", "--scale", "quick", "--mutate", "data:0:3",
             "--no-cells"]
        ) == 1
        out = capsys.readouterr().out
        assert "ANALYSIS FAILED" in out
        assert "FAIL" in out
        assert "expected" in out  # the minimal counterexample

    def test_every_mutation_kind_exits_one(self, capsys):
        for kind_spec in ("data:0:1", "write:0:1", "conflict:0:1",
                          "state-safety:0:1", "state-conflict:0:1"):
            assert analyze_main(
                ["table1", "--scale", "quick", "--mutate", kind_spec,
                 "--no-cells"]
            ) == 1, f"{kind_spec} did not fail the analysis"
            capsys.readouterr()


class TestWorkloadMode:
    def test_saved_workload_analyzes_clean(self, workload_file, capsys):
        assert analyze_main(["--workload", str(workload_file)]) == 0
        out = capsys.readouterr().out
        assert "analyze: workload" in out
        assert "ANALYSIS CLEAN" in out

    def test_explicit_db_size(self, workload_file, capsys):
        assert analyze_main(
            ["--workload", str(workload_file), "--db-size", "16"]
        ) == 0
        assert "db 16" in capsys.readouterr().out

    def test_workload_mutation_detected(self, workload_file, capsys):
        assert analyze_main(
            ["--workload", str(workload_file), "--mutate", "write:1:2"]
        ) == 1


class TestMainDispatch:
    def test_analyze_subcommand_routes(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        assert "ANA001" in capsys.readouterr().out

    def test_parser_has_analyze_flag(self):
        args = build_analyze_parser().parse_args(["fig4a"])
        assert args.cells is True
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig4a", "--analyze"])
        assert args.analyze is True
