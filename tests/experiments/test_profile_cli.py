"""``repro profile``: trace export, stage tables, kernel digest.

The CLI contract: exit 0 with a Perfetto-loadable trace JSON on disk,
exit 2 on usage errors (same cell grammar as ``repro trace``), cache
always bypassed so the timing is of real simulations.  The digest
rendering itself is unit-tested here too, against a hand-built
snapshot, so the format stays checked even if the CLI smoke cells stop
exercising some counter family.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_profile_parser, main
from repro.experiments.report import render_kernel_digest
from repro.obs.prof import validate_chrome_trace


class TestProfileParser:
    def test_rejects_tables(self):
        # table1/table2 have no sweep; there is nothing to profile.
        with pytest.raises(SystemExit):
            build_profile_parser().parse_args(["table1"])

    def test_accepts_sweep_experiments(self):
        args = build_profile_parser().parse_args(
            ["fig4a", "--cell", "4,1,CCA", "--scale", "quick"]
        )
        assert args.experiment == "fig4a"
        assert args.cell == "4,1,CCA"


class TestProfileCell:
    def test_cell_mode_writes_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            [
                "profile", "fig4a", "--scale", "quick",
                "--cell", "4,1,CCA", "--out", str(out),
            ]
        ) == 0
        printed = capsys.readouterr().out
        assert "cell x=4 seed=1 policy=CCA" in printed
        assert "stage timing" in printed
        for stage in ("workload_gen", "build", "event_loop"):
            assert f"  {stage:<14s} count=1 " in printed
        assert "aggregate timers" in printed
        assert "[kernel digest]" in printed
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["experiment"] == "fig4a"
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"cell.build", "cell.event_loop"} <= names

    def test_unknown_cell_is_usage_error(self, tmp_path, capsys):
        assert main(
            [
                "profile", "fig4a", "--scale", "quick",
                "--cell", "99,1,CCA", "--out", str(tmp_path / "t.json"),
            ]
        ) == 2
        assert "x values" in capsys.readouterr().err


class TestProfileSweep:
    def test_sweep_mode_profiles_every_cell(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(
            ["profile", "fig5f", "--scale", "quick", "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert "cells" in printed and "sims/s" in printed
        assert "cache_put" not in printed  # cache bypassed, never written
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = [event["name"] for event in doc["traceEvents"]]
        assert "sweep.execute_cells" in names


class TestKernelDigest:
    SNAPSHOT = {
        "counters": {
            "sweep.engine{engine=kernel}": 5,
            "sweep.engine{engine=reference}": 1,
            "kernel.fusion_spans{kind=free,policy=CCA}": 10,
            "kernel.fusion_spans{kind=locked,policy=CCA}": 2,
            "kernel.fused_ops{policy=CCA}": 36,
            "kernel.fusion_truncated{policy=CCA}": 1,
            "kernel.fusion_arrival_crossings{policy=CCA}": 4,
            "kernel.penalty_scans{mode=table,policy=CCA}": 7,
            "kernel.penalty_scans{mode=scalar,policy=CCA}": 3,
            "kernel.cca_prunes{policy=CCA,site=choose}": 9,
            "kernel.mask_builds{kind=conflict_slots,policy=CCA}": 6,
            "kernel.events_fired{policy=CCA}": 400,
            "sim.commits{policy=CCA}": 100,
        },
        "histograms": {},
    }

    def test_renders_all_families(self):
        digest = render_kernel_digest(self.SNAPSHOT)
        assert "[kernel digest]" in digest
        assert "engines: kernel=5 reference=1" in digest
        assert "12 spans (free 10, locked 2)" in digest
        assert "36 ops fused (3.00/span)" in digest
        assert "1 truncated, 4 arrival crossings" in digest
        assert "penalty scans: scalar=3 table=7" in digest
        assert "cca prunes: choose=9" in digest
        assert "mask builds: 6; kernel events: 400" in digest

    def test_empty_without_kernel_counters(self):
        assert render_kernel_digest({"counters": {"sim.commits": 3}}) == ""
        assert render_kernel_digest({"counters": {}}) == ""
