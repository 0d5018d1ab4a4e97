"""Streaming trace sinks: flattening, bounds, spill round trips.

The guarantee under test: a spilled stream is *byte-identical* to the
in-memory event log — same flattened records, same order — so anything
downstream (the certifier, offline tooling) sees exactly one trace
format no matter which sink produced it.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.stream import (
    JsonlSink,
    TraceSink,
    flatten_event,
    iter_jsonl,
)
from repro.tracing import EventLog


class FakeTxn:
    def __init__(self, tid: int) -> None:
        self.tid = tid


class TestFlattenEvent:
    def test_scalars_pass_through(self):
        record = flatten_event("commit", {"time": 1.5, "policy": "CCA"})
        assert record == {"event": "commit", "time": 1.5, "policy": "CCA"}

    def test_transaction_like_values_flatten_to_tid(self):
        record = flatten_event("wound", {"winner": FakeTxn(3), "loser": FakeTxn(7)})
        assert record == {"event": "wound", "winner": 3, "loser": 7}

    def test_sequences_flatten_elementwise(self):
        record = flatten_event(
            "plist", {"members": [FakeTxn(1), 2, FakeTxn(3)]}
        )
        assert record == {"event": "plist", "members": [1, 2, 3]}

    def test_matches_event_log_flattening(self):
        log = EventLog()
        log("wound", time=0.5, winner=FakeTxn(3), losers=(FakeTxn(7), 9))
        assert log.events == [
            flatten_event(
                "wound",
                {"time": 0.5, "winner": FakeTxn(3), "losers": (FakeTxn(7), 9)},
            )
        ]


class TestTraceSinkProtocol:
    def test_all_sinks_conform(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        try:
            assert isinstance(sink, TraceSink)
        finally:
            sink.close()
        assert isinstance(EventLog(), TraceSink)


class TestJsonlSink:
    def test_spill_and_read_back(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink("arrive", time=0.0, txn=FakeTxn(1))
            sink("commit", time=2.5, txn=FakeTxn(1))
            assert sink.events_written == 2
        records = list(iter_jsonl(path))
        assert records == [
            {"event": "arrive", "time": 0.0, "txn": 1},
            {"event": "commit", "time": 2.5, "txn": 1},
        ]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink("tick", n=1)
        assert path.exists()

    def test_iteration_flushes_mid_run(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        try:
            sink("tick", n=1)
            # No close yet: __iter__ must flush so the reader sees it.
            assert [record["n"] for record in sink] == [1]
        finally:
            sink.close()

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink("tick", n=1)

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink("tick", n=1)
        sink.close()
        sink.close()  # must not raise

    def test_byte_identical_to_event_log_jsonl(self, tmp_path):
        """The spilled file equals EventLog.to_jsonl of the same events."""
        events = [
            ("arrive", {"time": 0.25, "txn": FakeTxn(4)}),
            ("wound", {"time": 1.0, "winner": FakeTxn(4), "loser": FakeTxn(2)}),
            ("commit", {"time": 3.5, "txn": FakeTxn(4)}),
        ]
        log = EventLog()
        with JsonlSink(tmp_path / "stream.jsonl") as sink:
            for name, fields in events:
                log(name, **fields)
                sink(name, **fields)
        log_path = log.to_jsonl(tmp_path / "log.jsonl")
        assert (
            (tmp_path / "stream.jsonl").read_bytes()
            == log_path.read_bytes()
        )


class TestIterJsonl:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n\n   \n{"event": "b"}\n')
        assert [r["event"] for r in iter_jsonl(path)] == ["a", "b"]

    def test_non_event_record_rejected_with_location(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n{"no_event": 1}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl:2"):
            list(iter_jsonl(path))

    def test_is_lazy(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\nnot json\n')
        iterator = iter_jsonl(path)
        assert next(iterator)["event"] == "a"  # bad line not reached yet
        with pytest.raises(json.JSONDecodeError):
            next(iterator)


# -- property: write -> read is the identity over JSON-safe records ----------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_field_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
).filter(lambda name: name != "event")
_events = st.lists(
    st.tuples(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
        st.dictionaries(_field_names, _scalars, max_size=4),
    ),
    max_size=32,
)


class TestRoundTripProperty:
    @settings(
        max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
        deadline=None,
    )
    @given(events=_events)
    def test_jsonl_round_trip_is_identity(self, tmp_path, events):
        """Any JSON-safe event stream written through a JsonlSink reads
        back as the exact flattened records an EventLog would hold
        (floats included: Python's JSON round trip is exact)."""
        log = EventLog()
        path = tmp_path / "prop.jsonl"
        with JsonlSink(path) as sink:
            for name, fields in events:
                log(name, **fields)
                sink(name, **fields)
        assert list(iter_jsonl(path)) == log.events
