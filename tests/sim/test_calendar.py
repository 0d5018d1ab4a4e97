"""Event calendar: ordering, stability, cancellation."""

import pytest

from repro.sim.calendar import EventCalendar
from repro.sim.events import Event


def noop(event):
    pass


def make(time, kind="test"):
    return Event(time, noop, kind=kind)


class TestOrdering:
    def test_pops_in_time_order(self):
        calendar = EventCalendar()
        for t in (5.0, 1.0, 3.0, 2.0, 4.0):
            calendar.push(make(t))
        times = []
        while calendar:
            times.append(calendar.pop().time)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_same_time_events_pop_in_insertion_order(self):
        calendar = EventCalendar()
        first = make(1.0, kind="first")
        second = make(1.0, kind="second")
        third = make(1.0, kind="third")
        for event in (first, second, third):
            calendar.push(event)
        assert [calendar.pop().kind for _ in range(3)] == [
            "first",
            "second",
            "third",
        ]

    def test_interleaved_push_pop(self):
        calendar = EventCalendar()
        calendar.push(make(2.0))
        calendar.push(make(1.0))
        assert calendar.pop().time == 1.0
        calendar.push(make(0.5))
        # 0.5 was pushed after 2.0 but fires earlier.
        assert calendar.pop().time == 0.5
        assert calendar.pop().time == 2.0


    def test_many_same_time_events_pop_fifo(self):
        """Entries are ordered by (time, sequence); events define no
        ordering, so a heap that compared them would raise TypeError."""
        calendar = EventCalendar()
        for index in range(40):
            calendar.push(make(float(index % 3), kind=str(index)))
        popped = [int(calendar.pop().kind) for _ in range(40)]
        assert popped == sorted(range(40), key=lambda index: (index % 3, index))


class TestTies:
    def test_take_ties_returns_earliest_instant_in_insertion_order(self):
        calendar = EventCalendar()
        for kind, time in (("a", 1.0), ("late", 2.0), ("b", 1.0), ("c", 1.0)):
            calendar.push(make(time, kind=kind))
        assert [event.kind for event in calendar.take_ties()] == ["a", "b", "c"]
        assert len(calendar) == 1

    def test_take_ties_skips_cancelled(self):
        calendar = EventCalendar()
        first = calendar.push(make(1.0, kind="first"))
        doomed = calendar.push(make(1.0, kind="doomed"))
        calendar.push(make(1.0, kind="last"))
        calendar.cancel(doomed)
        ties = calendar.take_ties()
        assert [event.kind for event in ties] == ["first", "last"]
        assert ties[0] is first

    def test_reinsert_keeps_original_sequence(self):
        """Put back in any order, after a newer same-time push, the
        reinserted events still fire in their original insertion order
        and ahead of the newer event."""
        calendar = EventCalendar()
        for kind in ("a", "b", "c"):
            calendar.push(make(1.0, kind=kind))
        calendar.push(make(2.0, kind="later"))
        ties = calendar.take_ties()
        calendar.push(make(1.0, kind="newer"))
        for event in reversed(ties):
            calendar.reinsert(event)
        assert len(calendar) == 5
        assert [calendar.pop().kind for _ in range(5)] == [
            "a", "b", "c", "newer", "later"
        ]

    def test_reinsert_rejects_unpushed_and_cancelled(self):
        calendar = EventCalendar()
        with pytest.raises(ValueError):
            calendar.reinsert(make(1.0))
        event = calendar.push(make(1.0))
        calendar.cancel(event)
        with pytest.raises(ValueError):
            calendar.reinsert(event)

    def test_take_ties_on_empty_calendar(self):
        assert EventCalendar().take_ties() == []

class TestCancellation:
    def test_cancelled_event_is_skipped(self):
        calendar = EventCalendar()
        doomed = calendar.push(make(1.0))
        calendar.push(make(2.0))
        calendar.cancel(doomed)
        assert calendar.pop().time == 2.0

    def test_cancel_updates_length(self):
        calendar = EventCalendar()
        doomed = calendar.push(make(1.0))
        assert len(calendar) == 1
        calendar.cancel(doomed)
        assert len(calendar) == 0
        assert not calendar

    def test_double_cancel_is_idempotent(self):
        calendar = EventCalendar()
        doomed = calendar.push(make(1.0))
        calendar.cancel(doomed)
        calendar.cancel(doomed)
        assert len(calendar) == 0

    def test_cannot_push_cancelled_event(self):
        calendar = EventCalendar()
        event = make(1.0)
        event.cancelled = True
        with pytest.raises(ValueError):
            calendar.push(event)

    def test_peek_time_skips_cancelled(self):
        calendar = EventCalendar()
        doomed = calendar.push(make(1.0))
        calendar.push(make(3.0))
        calendar.cancel(doomed)
        assert calendar.peek_time() == 3.0


class TestBasics:
    def test_empty_calendar(self):
        calendar = EventCalendar()
        assert calendar.pop() is None
        assert calendar.peek_time() is None
        assert len(calendar) == 0

    def test_clear(self):
        calendar = EventCalendar()
        calendar.push(make(1.0))
        calendar.push(make(2.0))
        calendar.clear()
        assert calendar.pop() is None

    def test_iter_excludes_cancelled(self):
        calendar = EventCalendar()
        live = calendar.push(make(1.0))
        doomed = calendar.push(make(2.0))
        calendar.cancel(doomed)
        assert list(calendar) == [live]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make(-1.0)
