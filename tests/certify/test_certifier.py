"""End-to-end certification of real simulated experiment cells.

The acceptance matrix from the issue: the paper's experiments certify
under every policy family — the locking baselines (EDF-HP, EDF-Wait)
and the CCA variants — at quick scale.  Also covers the runner's cell
selection, the metrics counters, and the manifest integration.
"""

import pytest

from repro.certify.runner import (
    DEFAULT_POLICIES,
    certification_section,
    certify_cell,
    certify_sample,
    default_cells,
)
from repro.checks.cli_core import UsageError
from repro.experiments.config import ExperimentScale
from repro.experiments.figures import resolve_cell
from repro.obs.manifest import build_manifest, validate_manifest
from repro.obs.registry import MetricsRegistry


@pytest.fixture(scope="module")
def quick():
    return ExperimentScale.quick()


def certify_one(experiment, quick, policy):
    (cell,) = default_cells(experiment, quick, [policy])
    return certify_cell(experiment, cell)


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("policy", DEFAULT_POLICIES)
    def test_fig4a_certifies_per_policy(self, quick, policy):
        certified = certify_one("fig4a", quick, policy)
        assert certified.result.certified, certified.result.violations
        assert certified.result.n_committed > 0
        assert certified.result.serialization_order is not None

    @pytest.mark.parametrize("policy", ["EDF-HP", "CCA"])
    def test_table1_certifies(self, quick, policy):
        certified = certify_one("table1", quick, policy)
        assert certified.result.certified, certified.result.violations

    @pytest.mark.parametrize("policy", ["cca-static", "Criticalness-CCA"])
    def test_fig5a_certifies_cca_variants(self, quick, policy):
        certified = certify_one("fig5a", quick, policy)
        assert certified.result.certified, certified.result.violations

    def test_static_policy_gets_cert004_checked(self, quick):
        certified = certify_one("fig4a", quick, "EDF-HP")
        assert "CERT004" in certified.result.checked

    def test_cca_gets_cert004_skipped_with_reason(self, quick):
        certified = certify_one("fig4a", quick, "CCA")
        assert "CERT004" in certified.result.skipped
        assert "not statically recomputable" in (
            certified.result.skipped["CERT004"]
        )


class TestCellSelection:
    def test_default_cells_one_per_policy_at_middle_x(self, quick):
        cells = default_cells("fig4a", quick)
        assert [cell.policy for cell in cells] == list(DEFAULT_POLICIES)
        assert len({(cell.x, cell.seed) for cell in cells}) == 1

    def test_default_cells_canonicalize_policy_names(self, quick):
        (cell,) = default_cells("fig4a", quick, ["edf"])
        assert cell.policy == "EDF-HP"

    def test_table_experiments_synthesize_base_cell(self, quick):
        (cell,) = default_cells("table1", quick, ["EDF-HP"])
        assert cell.x == cell.config.arrival_rate
        assert not cell.config.disk_resident
        (disk_cell,) = default_cells("table2", quick, ["EDF-HP"])
        assert disk_cell.config.disk_resident

    def test_resolve_cell_replaces_policy(self, quick):
        cells = default_cells("fig4a", quick, ["EDF-HP"])
        found = resolve_cell(
            "fig4a", quick, f"{cells[0].x:g},{cells[0].seed},fcfs"
        )
        assert found.policy == "FCFS"
        assert found.config == cells[0].config

    def test_resolve_cell_rejects_unknown_point(self, quick):
        with pytest.raises(UsageError, match="no cell at x=999 seed=1"):
            resolve_cell("fig4a", quick, "999,1,EDF-HP")


class TestSampleAndManifest:
    @pytest.fixture(scope="class")
    def sampled(self, quick):
        registry = MetricsRegistry()
        samples = certify_sample(
            "table1", quick, ["EDF-HP"], registry=registry
        )
        return registry, samples

    def test_counters_track_certified_cells(self, sampled):
        registry, samples = sampled
        assert len(samples) == 1
        counters = registry.snapshot()["counters"]
        (key,) = [k for k in counters if k.startswith("certify.cells")]
        assert "EDF-HP" in key
        assert counters[key] == 1
        assert not any(
            k.startswith("certify.uncertified_cells") for k in counters
        )

    def test_certification_section_shape(self, sampled):
        _, samples = sampled
        section = certification_section(samples)
        assert section["enabled"] is True
        (cell,) = section["cells"]
        assert cell["certified"] is True
        assert cell["violations"] == []
        assert set(cell["cell"]) == {"x", "seed", "policy"}

    def test_current_manifest_accepts_the_section(self, sampled):
        registry, samples = sampled
        manifest = build_manifest(
            experiment="table1",
            scale="quick",
            cells=[],
            metrics_snapshot=registry.snapshot(),
            certification=certification_section(samples),
        )
        assert validate_manifest(manifest) == []

    def test_manifest_defaults_to_certification_off(self):
        manifest = build_manifest(
            experiment="table1",
            scale="quick",
            cells=[],
            metrics_snapshot=MetricsRegistry().snapshot(),
        )
        assert manifest["certification"] == {"enabled": False, "cells": []}
        assert validate_manifest(manifest) == []
