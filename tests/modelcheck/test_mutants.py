"""Seeded scheduler bugs: each must be caught with its expected rule.

This is the checker's own mutation gate, mirroring the sanitizer's
``tests/checks/test_mutations.py``: if an MC rule regresses into a
no-op, the mutant it exists to catch stops failing and this file goes
red.  Every counterexample must also survive the bundle round-trip —
written, reloaded, and replayed bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.modelcheck.bundle import (
    MC_BUNDLE_KIND,
    config_from_dict,
    load_mc_bundle,
    replay_mc_bundle,
    trace_digest,
    write_mc_bundle,
)
from repro.modelcheck.explorer import explore
from repro.modelcheck.mutants import all_mutants, get_mutant
from repro.checks.rules import get_rule
from repro.modelcheck.workloads import get_case

MUTANTS = [m.name for m in all_mutants()]


def explore_mutant(name):
    mutant = get_mutant(name)
    case = get_case(mutant.demo_workload)
    return (
        explore(
            case.config,
            case.specs,
            mutant.demo_policy,
            workload_name=case.name,
            mutant=mutant,
        ),
        case,
    )


class TestMutantsAreCaught:
    @pytest.mark.parametrize("name", MUTANTS)
    def test_mutant_fires_its_expected_rule(self, name):
        mutant = get_mutant(name)
        result, _ = explore_mutant(name)
        assert not result.clean, f"{name} was not caught"
        assert result.counterexample.violation.rule == mutant.expect_rule

    @pytest.mark.parametrize("name", MUTANTS)
    def test_counterexample_is_minimal(self, name):
        # Greedy shrinking strips every choice that is not needed to
        # reproduce; these seeded bugs all fire on the default schedule.
        result, _ = explore_mutant(name)
        assert result.counterexample.choices == ()

    def test_mutant_registry_is_well_formed(self):
        for mutant in all_mutants():
            assert mutant.summary
            get_rule(mutant.expect_rule)  # raises if unknown
            get_case(mutant.demo_workload)

    def test_unknown_mutant_raises_with_known_names(self):
        with pytest.raises(KeyError, match="inverted-wound"):
            get_mutant("nope")


class TestBundleRoundTrip:
    @pytest.mark.parametrize("name", MUTANTS)
    def test_bundle_replays_bit_for_bit(self, name, tmp_path):
        result, case = explore_mutant(name)
        bundle = write_mc_bundle(tmp_path / name, result, case.config, case.specs)
        assert load_mc_bundle(bundle)["kind"] == MC_BUNDLE_KIND
        report = replay_mc_bundle(bundle)
        assert report["matched"], report
        assert report["trace_matched"]
        assert report["actual_digest"] == report["expected_digest"]

    def test_bundle_document_shape(self, tmp_path):
        result, case = explore_mutant("wait-instead-of-wound")
        bundle = write_mc_bundle(tmp_path / "b", result, case.config, case.specs)
        doc = load_mc_bundle(bundle)
        assert doc["policy"] == "CCA"
        assert doc["mutant"] == "wait-instead-of-wound"
        assert doc["violation"]["rule"] == "MC001"
        assert (bundle / "workload.jsonl").exists()
        assert (bundle / "trace.jsonl").exists()
        assert doc["trace_digest"] == trace_digest(
            result.counterexample.events
        )

    def test_config_round_trips_through_bundle(self, tmp_path):
        result, case = explore_mutant("wait-instead-of-wound")
        bundle = write_mc_bundle(tmp_path / "b", result, case.config, case.specs)
        doc = load_mc_bundle(bundle)
        assert config_from_dict(doc["config"]) == case.config

    def test_clean_exploration_refuses_to_bundle(self, tmp_path):
        case = get_case("tie-twins")
        result = explore(
            case.config, case.specs, "EDF-HP", workload_name=case.name
        )
        with pytest.raises(ValueError, match="clean"):
            write_mc_bundle(tmp_path / "clean", result, case.config, case.specs)

    def test_fixed_bug_is_reported_as_not_matched(self, tmp_path):
        # Replaying a mutant bundle *without* the mutant models "the
        # defect got fixed": the rule no longer fires and replay says so.
        result, case = explore_mutant("wait-instead-of-wound")
        bundle = write_mc_bundle(tmp_path / "b", result, case.config, case.specs)
        doc = load_mc_bundle(bundle)
        doc["mutant"] = None
        import json

        (bundle / "bundle.json").write_text(json.dumps(doc))
        report = replay_mc_bundle(bundle)
        assert not report["matched"]
        assert report["actual"] is None  # the run is clean now

    def test_load_rejects_foreign_documents(self, tmp_path):
        import json

        (tmp_path / "bundle.json").write_text(
            json.dumps({"kind": "something-else"})
        )
        with pytest.raises(ValueError, match="not a model-check bundle"):
            load_mc_bundle(tmp_path)
