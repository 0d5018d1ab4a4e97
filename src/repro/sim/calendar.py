"""Event calendar: a stable, cancellable priority queue of events.

The calendar orders events by ``(time, sequence)`` where the sequence
number is assigned at insertion.  Two events scheduled for the same
simulated time therefore fire in insertion order, which keeps simulations
deterministic — a property the paper's multi-seed averaging methodology
relies on.

Heap entries are ``(time, sequence, event)`` tuples.  Sequence numbers
are unique, so tuple comparison never reaches the event and the heap
orders entries with the interpreter's native float/int comparisons —
events themselves define no ordering at all.

Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
when popped.  This keeps cancellation O(1) and is the standard technique
for simulations with frequent preemption (here: every CPU preemption
cancels an in-flight service-completion event).
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.sim.events import Event


class EventCalendar:
    """A priority queue of :class:`~repro.sim.events.Event` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert ``event`` and return it.

        The event's sequence number is assigned here; callers must not set
        it themselves.
        """
        if event.cancelled:
            raise ValueError("cannot schedule a cancelled event")
        sequence = event._sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (event.time, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events encountered on the way are discarded.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                self._live -= 1
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if heap:
            return heap[0][0]
        return None

    def take_ties(self) -> list[Event]:
        """Remove and return *every* live event at the earliest time.

        The result is ordered by sequence number, so ``take_ties()[0]``
        is exactly what :meth:`pop` would have returned — callers that
        fire one and :meth:`reinsert` the rest reproduce the default
        schedule bit for bit.  Returns ``[]`` when the calendar is
        empty.  This is the model checker's simultaneous-event seam:
        the engine's fixed (insertion-order) resolution of same-time
        events is one admissible ordering among several.
        """
        first = self.pop()
        if first is None:
            return []
        ties = [first]
        while self.peek_time() == first.time:
            event = self.pop()
            assert event is not None  # peek_time saw a live event
            ties.append(event)
        return ties

    def reinsert(self, event: Event) -> None:
        """Put back an event taken by :meth:`take_ties`, keeping its
        original sequence number — later same-time ties must still see
        the insertion order the event was created with."""
        if event.cancelled:
            raise ValueError("cannot reinsert a cancelled event")
        if event._sequence is None:
            raise ValueError("reinsert is only for events that were pushed")
        heapq.heappush(self._heap, (event.time, event._sequence, event))
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Cancel ``event`` (no-op if already cancelled)."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def clear(self) -> None:
        """Discard every event."""
        self._heap.clear()
        self._live = 0

    def __iter__(self) -> Iterator[Event]:
        """Iterate over live events in no particular order."""
        return (event for _, _, event in self._heap if not event.cancelled)
