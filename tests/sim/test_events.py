"""Event record semantics."""

import pytest

from repro.sim.events import Event


def noop(event):
    pass


class TestEvent:
    def test_fields(self):
        event = Event(5.0, noop, kind="arrival", payload={"tid": 1})
        assert event.time == 5.0
        assert event.kind == "arrival"
        assert event.payload == {"tid": 1}
        assert not event.cancelled

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-0.1, noop)

    def test_events_have_no_ordering(self):
        """The calendar orders entries by (time, sequence); events
        themselves are never compared."""
        early, late = Event(1.0, noop), Event(2.0, noop)
        with pytest.raises(TypeError):
            early < late  # noqa: B015

    def test_repr_shows_state(self):
        event = Event(1.5, noop, kind="test")
        assert "live" in repr(event)
        event.cancelled = True
        assert "cancelled" in repr(event)

    def test_zero_time_allowed(self):
        assert Event(0.0, noop).time == 0.0
