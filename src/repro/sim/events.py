"""The event record used by the calendar and the engine."""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A timestamped callback.

    Events define no ordering: the calendar stores each one under a
    ``(time, sequence)`` key, assigning ``_sequence`` on push, so
    same-time events fire in insertion order.  ``payload`` carries
    arbitrary user data (typically the transaction the event concerns)
    and ``kind`` is a short label used for tracing.

    ``daemon`` events (observability samplers, periodic probes) fire
    like any other event but never keep the event loop alive: the engine
    stops once only daemon events remain.
    """

    __slots__ = (
        "time", "kind", "callback", "payload", "cancelled", "daemon", "_sequence"
    )

    def __init__(
        self,
        time: float,
        callback: Callable[["Event"], None],
        kind: str = "event",
        payload: Any = None,
        daemon: bool = False,
    ) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = time
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.daemon = daemon
        self._sequence: Optional[int] = None

    def describe(self) -> dict[str, Any]:
        """A JSON-ready summary of this event, for diagnostic records
        (budget-abort progress, quarantine bundles).  Callbacks and
        payloads stay out — they are neither serializable nor stable."""
        return {
            "kind": self.kind,
            "time": self.time,
            "daemon": self.daemon,
            "cancelled": self.cancelled,
        }

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6g}, kind={self.kind!r}, {state})"
