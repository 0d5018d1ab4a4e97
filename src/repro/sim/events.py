"""The event record used by the calendar and the engine.

Every event is simulation work: observers never schedule events.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A timestamped callback.

    Events define no ordering: the calendar stores each one under a
    ``(time, sequence)`` key, assigning ``_sequence`` on push, so
    same-time events fire in insertion order.  ``payload`` carries
    arbitrary user data (typically the transaction the event concerns)
    and ``kind`` is a short label used for tracing.
    """

    __slots__ = ("time", "kind", "callback", "payload", "cancelled", "_sequence")

    def __init__(
        self,
        time: float,
        callback: Callable[["Event"], None],
        kind: str = "event",
        payload: Any = None,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = time
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self._sequence: Optional[int] = None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6g}, kind={self.kind!r}, {state})"
