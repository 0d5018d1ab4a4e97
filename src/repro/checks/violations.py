"""Structured invariant violations raised by the RTSan sanitizer.

An :class:`InvariantViolation` names the broken invariant (a stable
``RTSnnn`` code mapping to a paper theorem — see ``docs/CHECKS.md``),
the simulated time, the transactions involved, and the tail of the
event trace leading up to the violation, so a failure in a long sweep
is immediately debuggable without re-running under ``repro trace``.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional, Sequence

#: The sanitizer's invariant catalog; messages live with the checks in
#: :mod:`repro.checks.sanitizer`, the paper mapping in docs/CHECKS.md.
INVARIANT_CODES: dict[str, str] = {
    "RTS001": "lock-table consistency",
    "RTS002": "Theorem 1: no lock wait under pre-analysis (CCA)",
    "RTS003": "Theorem 2: no mutual wound pair",
    "RTS004": "wound-wait / priority total-order consistency",
    "RTS005": "calendar time monotonicity",
    "RTS006": "IO-wait secondary compatibility",
}


class InvariantViolation(RuntimeError):
    """A paper invariant failed during a sanitized simulation run."""

    def __init__(
        self,
        code: str,
        message: str,
        *,
        time: float = 0.0,
        tids: Iterable[int] = (),
        trace: Sequence[tuple] = (),
        progress: Optional[dict] = None,
    ) -> None:
        if code not in INVARIANT_CODES:
            raise ValueError(f"unknown invariant code {code!r}")
        self.code = code
        self.invariant = INVARIANT_CODES[code]
        self.time = time
        self.tids = tuple(tids)
        self.trace = tuple(trace)
        self.progress: dict = dict(progress) if progress else {}
        self.raw_message = message
        super().__init__(self._format(message))

    def __reduce__(self):  # type: ignore[override]
        # The default reduce would re-call ``cls(formatted_message)``,
        # which fails code validation; rebuild from the structured
        # fields instead so violations survive worker pickling (and
        # the cell's failure record keeps their context).
        return (
            _rebuild_violation,
            (
                self.code,
                self.raw_message,
                self.time,
                self.tids,
                self.trace,
                self.progress,
            ),
        )

    def _format(self, message: str) -> str:
        parts = [f"{self.code} ({self.invariant}) at t={self.time:g}: {message}"]
        if self.tids:
            parts.append(f"  transactions involved: {list(self.tids)}")
        if self.trace:
            parts.append("  recent events:")
            for time, name, fields in self.trace:
                detail = " ".join(f"{k}={v}" for k, v in fields)
                parts.append(f"    t={time:<10g} {name:<16} {detail}")
        return "\n".join(parts)


def _rebuild_violation(
    code: str,
    message: str,
    time: float,
    tids: tuple,
    trace: tuple,
    progress: dict,
) -> "InvariantViolation":
    """Pickle helper for :class:`InvariantViolation`."""
    return InvariantViolation(
        code, message, time=time, tids=tids, trace=trace, progress=progress
    )


class EventTrail:
    """Bounded ring of recent trace events, kept for violation reports."""

    __slots__ = ("_ring",)

    def __init__(self, maxlen: int = 64) -> None:
        self._ring: deque[tuple] = deque(maxlen=maxlen)

    def record(self, time: float, name: str, fields: tuple) -> None:
        self._ring.append((time, name, fields))

    def tail(self, n: Optional[int] = None) -> tuple[tuple, ...]:
        events = tuple(self._ring)
        return events if n is None else events[-n:]

    def __len__(self) -> int:
        return len(self._ring)
