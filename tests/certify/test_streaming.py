"""Streaming certification: spilled traces certify identically.

The bounded-memory path (``certify_cell(stream_dir=...)`` spilling a
JSONL stream, then certifying lazily from the file) must produce the
*exact* verdicts of the in-memory path — same rules checked, same
violations, same serialization order — because the stream carries the
same flattened records in the same order.
"""

from __future__ import annotations

import pytest

from repro.certify.certifier import certify_events
from repro.certify.runner import certify_cell, default_cells, stream_path_for
from repro.experiments.config import ExperimentScale
from repro.experiments.parallel import CellOptions, run_cell
from repro.sim.stream import JsonlSink, iter_jsonl
from repro.tracing import EventLog


@pytest.fixture(scope="module")
def quick_scale():
    return ExperimentScale.quick()


@pytest.fixture(scope="module")
def sample_cell(quick_scale):
    return default_cells("fig4a", quick_scale, ("CCA",))[0]


def traced(cell, sink):
    """The cell's outcome with ``sink`` attached."""
    options = CellOptions(trace=sink)
    return run_cell(cell.config, cell.seed, (cell.policy,), options)[0]


def certifications_equal(left, right):
    assert left.certified == right.certified
    assert left.checked == right.checked
    assert left.skipped == right.skipped
    assert left.n_committed == right.n_committed
    assert left.n_wounds == right.n_wounds
    assert left.n_graph_edges == right.n_graph_edges
    assert left.serialization_order == right.serialization_order
    assert [v.to_dict() for v in left.violations] == [
        v.to_dict() for v in right.violations
    ]


class TestStreamedCertifyParity:
    def test_spilled_stream_matches_in_memory_verdicts(
        self, sample_cell, tmp_path
    ):
        in_memory = certify_cell("fig4a", sample_cell)
        streamed = certify_cell(
            "fig4a", sample_cell, stream_dir=tmp_path / "streams"
        )
        certifications_equal(in_memory.result, streamed.result)
        assert in_memory.simulation == streamed.simulation
        spill = stream_path_for(tmp_path / "streams", "fig4a", sample_cell)
        assert spill.exists()
        # The spill file itself re-certifies to the same verdict.
        workload_events = list(iter_jsonl(spill))
        assert workload_events  # really spilled, not an empty file

    def test_sink_stream_equals_event_log(self, sample_cell, tmp_path):
        """Byte-level: the sink's records ARE the EventLog's records."""
        log = EventLog()
        in_memory = traced(sample_cell, log).checked()
        path = tmp_path / "cell.jsonl"
        with JsonlSink(path) as sink:
            streamed = traced(sample_cell, sink).checked()
        assert streamed.result == in_memory.result
        assert list(iter_jsonl(path)) == log.events

    def test_write_read_certify_round_trip(self, sample_cell, tmp_path):
        """write -> read -> certify: the satellite's full loop."""
        log = EventLog()
        workload = traced(sample_cell, log).checked().workload
        path = tmp_path / "cell.jsonl"
        with JsonlSink(path) as sink:
            traced(sample_cell, sink)
        direct = certify_events(
            log.events,
            workload,
            sample_cell.policy,
            penalty_weight=sample_cell.config.penalty_weight,
        )
        replayed = certify_events(
            iter_jsonl(path),
            workload,
            sample_cell.policy,
            penalty_weight=sample_cell.config.penalty_weight,
        )
        certifications_equal(direct, replayed)
