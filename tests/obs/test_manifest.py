"""Run manifests: hashing, schema validation, round trips."""

from pathlib import Path

import pytest

from repro.obs.manifest import (
    ACCEPTED_SCHEMA_VERSIONS,
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    config_hash,
    load_manifest,
    manifest_filename,
    validate_manifest,
    write_manifest,
)
from repro.obs.prof import observe_stage
from repro.obs.registry import MetricsRegistry


def triples(seed_count: int = 2) -> list[tuple[dict, int, str]]:
    return [
        ({"arrival_rate": 4.0, "db_size": 100}, seed, policy)
        for seed in range(1, seed_count + 1)
        for policy in ("EDF-HP", "CCA")
    ]


def registry_with_data() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("sim.commits", policy="CCA").inc(10)
    registry.counter("sweep.cache_hits").inc(3)
    registry.histogram("sweep.cell_wall_ms").observe(12.5)
    return registry


class TestConfigHash:
    def test_stable_across_enumeration_order(self):
        cells = triples()
        assert config_hash(cells) == config_hash(list(reversed(cells)))

    def test_sensitive_to_config_seed_and_policy(self):
        base = triples()
        assert config_hash(base) != config_hash(base[:-1])
        changed = [({"arrival_rate": 5.0, "db_size": 100}, 1, "CCA")]
        assert config_hash(changed) != config_hash(base[:1])
        reseeded = [(base[0][0], 99, base[0][2])]
        assert config_hash(reseeded) != config_hash(base[:1])

    def test_empty_cells_hash_to_none(self):
        assert config_hash([]) is None


class TestBuildManifest:
    def test_document_shape(self):
        manifest = build_manifest(
            experiment="fig4a",
            scale="quick",
            cells=triples(),
            metrics_snapshot=registry_with_data().snapshot(),
            jobs=4,
            elapsed_s=1.5,
            cache_hits=3,
            cache_misses=1,
        )
        assert validate_manifest(manifest) == []
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["n_cells"] == 4
        assert manifest["seeds"] == [1, 2]
        assert manifest["policies"] == ["CCA", "EDF-HP"]
        assert manifest["cache"] == {"hits": 3, "misses": 1}
        assert manifest["cell_wall_ms"]["count"] == 1

    def test_table_manifest_has_no_hash(self):
        manifest = build_manifest(
            experiment="table1",
            scale="quick",
            cells=[],
            metrics_snapshot=MetricsRegistry().snapshot(),
        )
        assert validate_manifest(manifest) == []
        assert manifest["config_hash"] is None
        assert manifest["cell_wall_ms"] is None


class TestValidation:
    def test_flags_missing_and_mistyped_fields(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        broken = dict(manifest)
        del broken["config_hash"]
        broken["jobs"] = "four"
        problems = validate_manifest(broken)
        assert any("config_hash" in problem for problem in problems)
        assert any("jobs" in problem for problem in problems)

    def test_flags_wrong_kind_and_schema(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        manifest["kind"] = "something-else"
        assert validate_manifest(manifest)
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        manifest["schema"] = MANIFEST_SCHEMA_VERSION + 1
        assert validate_manifest(manifest)
        # A v5 document (no analysis section): older layouts are no
        # longer accepted.
        v5 = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        del v5["analysis"]
        v5["schema"] = 5
        assert any(
            problem.startswith("schema version 5 not in")
            for problem in validate_manifest(v5)
        )

    def test_flags_broken_metrics_block(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        manifest["metrics"] = {"counters": {}}
        problems = validate_manifest(manifest)
        assert any("gauges" in problem for problem in problems)


class TestFailuresSection:
    FAILURE = {
        "cell": {"x": 4.0, "policy": "CCA", "seed": 2},
        "attempts": 2,
        "exception": "InjectedCrash",
        "message": "injected crash",
        "recovered": True,
    }

    def test_failures_embedded_and_valid(self):
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            failures=[self.FAILURE],
        )
        assert validate_manifest(manifest) == []
        assert manifest["failures"] == [self.FAILURE]

    def test_failures_default_to_empty_list(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        assert manifest["failures"] == []
        assert validate_manifest(manifest) == []

    def test_missing_failures_field_flagged(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        del manifest["failures"]
        assert any(
            "failures" in problem for problem in validate_manifest(manifest)
        )

    def test_malformed_failure_entries_flagged(self):
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            failures=[{"cell": {"x": 1.0}, "attempts": 1}],  # no exception
        )
        problems = validate_manifest(manifest)
        assert any("exception" in problem for problem in problems)
        manifest["failures"] = ["not-a-dict"]
        assert any(
            "not an object" in problem
            for problem in validate_manifest(manifest)
        )


class TestCertificationSection:
    def test_schema_version_is_pinned_at_seven(self):
        # v7 dropped the engine_fallbacks section; bumping the constant
        # without updating this pin is a schema change that needs the
        # validation rules revisited.
        assert MANIFEST_SCHEMA_VERSION == 7

    def test_defaults_to_disabled(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        assert manifest["certification"] == {"enabled": False, "cells": []}
        assert validate_manifest(manifest) == []

    def test_embedded_section_validates(self):
        section = {
            "enabled": True,
            "cells": [
                {
                    "cell": {"x": 4.0, "seed": 1, "policy": "CCA"},
                    "certified": True,
                    "violations": [],
                    "rules_skipped": {"CERT004": "not static"},
                }
            ],
        }
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            certification=section,
        )
        assert validate_manifest(manifest) == []
        assert manifest["certification"] == section

    def test_missing_section_flagged(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        del manifest["certification"]
        assert any(
            "certification" in problem
            for problem in validate_manifest(manifest)
        )

    def test_malformed_section_flagged(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        manifest["certification"] = {"enabled": "yes", "cells": {}}
        problems = validate_manifest(manifest)
        assert any("certification.enabled" in p for p in problems)
        assert any("certification.cells" in p for p in problems)

    def test_malformed_cell_entries_flagged(self):
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            certification={
                "enabled": True,
                "cells": [
                    "not-a-dict",
                    {"cell": {"x": 1.0}},  # no certified / violations
                ],
            },
        )
        problems = validate_manifest(manifest)
        assert any("cells[0] is not an object" in p for p in problems)
        assert any("cells[1] missing 'certified'" in p for p in problems)


class TestTimingSection:
    @staticmethod
    def registry_with_stages() -> MetricsRegistry:
        registry = registry_with_data()
        observe_stage(registry, "workload_gen", 1.5)
        observe_stage(registry, "simulate", 20.0)
        observe_stage(registry, "simulate", 30.0)
        return registry

    def test_built_from_stage_histograms(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), self.registry_with_stages().snapshot()
        )
        timing = manifest["timing"]
        assert timing["enabled"] is True
        assert set(timing["stages"]) == {"workload_gen", "simulate"}
        assert timing["stages"]["simulate"]["count"] == 2
        assert timing["stages"]["simulate"]["total_ms"] == pytest.approx(50.0)
        assert timing["stages"]["simulate"]["mean_ms"] == pytest.approx(25.0)
        assert validate_manifest(manifest) == []

    def test_disabled_when_no_stage_timing(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        assert manifest["timing"] == {"enabled": False, "stages": {}}
        assert validate_manifest(manifest) == []

    def test_missing_timing_flagged_for_v4(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        del manifest["timing"]
        assert any("timing" in p for p in validate_manifest(manifest))

    def test_malformed_timing_flagged(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), self.registry_with_stages().snapshot()
        )
        manifest["timing"] = {"enabled": "yes", "stages": []}
        problems = validate_manifest(manifest)
        assert any("timing.enabled" in p for p in problems)
        assert any("timing.stages" in p for p in problems)
        manifest["timing"] = {
            "enabled": True,
            "stages": {"simulate": {"count": 2}},  # no total/mean/p95
        }
        problems = validate_manifest(manifest)
        assert any("total_ms" in p for p in problems)
        manifest["timing"] = {
            "enabled": False,
            "stages": {
                "simulate": {
                    "count": 1, "total_ms": 1.0, "mean_ms": 1.0, "p95_ms": 1.0
                }
            },
        }
        assert any(
            "enabled is false" in p for p in validate_manifest(manifest)
        )

    def test_accepted_versions_pinned(self):
        assert ACCEPTED_SCHEMA_VERSIONS == (7,)


class TestAnalysisSection:
    SECTION = {
        "enabled": True,
        "clean": True,
        "sample": {"x": 5.0, "seed": 1},
        "verdicts": [
            {
                "code": "ANA001",
                "name": "conflict-mask-equivalence",
                "passed": True,
                "detail": "250 slot masks verified",
            }
        ],
        "graph": {"n": 250, "n_classes": 49, "conflict_fraction": 0.4},
        "cells": [
            {
                "cell": {"x": 5.0, "seed": 1},
                "predicted": {"regime": "light", "cpu_utilization": 0.3},
            }
        ],
    }

    def test_defaults_to_disabled(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        assert manifest["analysis"] == {"enabled": False}
        assert validate_manifest(manifest) == []

    def test_embedded_section_validates(self):
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            analysis=self.SECTION,
        )
        assert validate_manifest(manifest) == []
        assert manifest["analysis"] == self.SECTION

    def test_missing_section_flagged_for_v6(self):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        del manifest["analysis"]
        assert any(
            "analysis" in problem for problem in validate_manifest(manifest)
        )

    def test_malformed_section_flagged(self):
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            analysis={"enabled": True, "clean": "yes", "verdicts": [],
                      "graph": [], "cells": {}},
        )
        problems = validate_manifest(manifest)
        assert any("analysis.clean" in p for p in problems)
        assert any("analysis.verdicts" in p for p in problems)
        assert any("analysis.graph" in p for p in problems)
        assert any("analysis.cells" in p for p in problems)

    def test_malformed_verdict_and_cell_entries_flagged(self):
        section = {
            "enabled": True,
            "clean": True,
            "verdicts": ["not-a-dict", {"code": "ANA001"}],
            "graph": {},
            "cells": ["not-a-dict", {"cell": {"x": 1.0}}],
        }
        manifest = build_manifest(
            "fig4a",
            "quick",
            triples(),
            registry_with_data().snapshot(),
            analysis=section,
        )
        problems = validate_manifest(manifest)
        assert any("verdicts[0] is not an object" in p for p in problems)
        assert any("verdicts[1] missing 'passed'" in p for p in problems)
        assert any("cells[0] is not an object" in p for p in problems)
        assert any("cells[1] missing 'predicted'" in p for p in problems)


class TestGoldenFixtures:
    """The committed manifest document of the current schema (v7).

    It pins the on-disk layout — regenerating it is a conscious schema
    change, not a side effect.
    """

    DATA = Path(__file__).parent / "data"

    def test_golden_v7_validates(self):
        doc = load_manifest(self.DATA / "manifest_v7.json")
        assert doc["schema"] == 7
        assert validate_manifest(doc) == []
        assert "engine_fallbacks" not in doc
        analysis = doc["analysis"]
        assert analysis["enabled"] is True
        assert analysis["clean"] is True
        codes = [verdict["code"] for verdict in analysis["verdicts"]]
        assert codes == [
            "ANA001", "ANA002", "ANA003", "ANA004", "ANA005", "ANA006",
        ]
        assert all(verdict["passed"] for verdict in analysis["verdicts"])
        assert analysis["cells"], "golden v7 must carry cell predictions"
        predicted = analysis["cells"][0]["predicted"]
        assert predicted["regime"] in {"light", "moderate", "saturated"}


class TestWriteAndLoad:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        path = write_manifest(manifest, tmp_path / "runs")
        assert path.parent == tmp_path / "runs"
        loaded = load_manifest(path)
        assert validate_manifest(loaded) == []
        assert loaded["experiment"] == "fig4a"
        assert loaded["config_hash"] == manifest["config_hash"]

    def test_filename_carries_experiment_scale_stamp(self):
        name = manifest_filename("fig5b", "full", 0.0)
        assert name.startswith("fig5b-full-")
        assert name.endswith(".json")

    def test_same_second_runs_never_overwrite(self, tmp_path):
        """The filename stamp has 1 s resolution; a second write in the
        same second must pick a new name, not clobber the first."""
        manifest = build_manifest(
            "fig4a", "quick", triples(), registry_with_data().snapshot()
        )
        first = write_manifest(manifest, tmp_path)
        second = write_manifest(manifest, tmp_path)
        third = write_manifest(manifest, tmp_path)
        assert len({first, second, third}) == 3
        assert second.name == first.stem + "-1.json"
        assert third.name == first.stem + "-2.json"
        assert all(validate_manifest(load_manifest(p)) == []
                   for p in (first, second, third))
