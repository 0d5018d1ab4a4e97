"""The simulation engine: clock plus event loop.

Usage::

    sim = Simulator()
    sim.schedule(5.0, lambda ev: print("fired at", sim.now))
    sim.run()

The engine is single-threaded and synchronous; callbacks run inline as
their events fire and may schedule or cancel further events.  Time never
moves backwards (scheduling into the past raises).  A run ends when the
calendar is empty: every event is simulation work, since observers (the
time-series sampler among them) fold the simulators' trace stream
instead of scheduling events of their own.
"""

from __future__ import annotations

import os
import sys
import time as _time
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim.calendar import EventCalendar
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.prof import SpanProfiler


class SimulationError(RuntimeError):
    """Raised for invalid uses of the engine (e.g. scheduling in the past)."""


class BudgetExceeded(SimulationError):
    """A resource budget (events, wall clock, memory) was exhausted.

    Carries a ``progress`` mapping describing how far the run got —
    events fired, sim time, and whatever the owning simulator adds
    (committed/restarts/live counts) — so a budget abort in a sweep is
    a *partial result report*, not just a traceback.  The custom
    ``__reduce__`` keeps the progress dict across process boundaries
    (worker exceptions travel pickled), including enrichment done after
    construction: simulators update ``exc.progress`` in place as the
    exception unwinds through them.
    """

    def __init__(self, message: str, progress: Optional[dict] = None) -> None:
        super().__init__(message)
        self.progress: dict = dict(progress) if progress else {}

    def __reduce__(self):  # type: ignore[override]
        return (type(self), (self.args[0], self.progress))


class EventBudgetExceeded(BudgetExceeded):
    """The event loop fired more callbacks than ``max_events`` allows.

    Almost always a runaway scheduling loop; the sweep executor treats
    it as a per-cell failure rather than letting it hang a sweep.
    """


class WallClockExceeded(BudgetExceeded):
    """The event loop ran longer (in real time) than ``max_wall_s``.

    This is the in-process half of the sweep executor's per-cell
    timeout: it fires even in serial (``jobs=1``) runs, where no parent
    process is there to time the cell out from outside.
    """


class MemoryBudgetExceeded(BudgetExceeded):
    """The process grew past ``max_memory_mb`` resident bytes.

    Polled at the same batched cadence as the wall-clock guard, so a
    cell that would OOM its worker (typically by materializing a huge
    in-memory trace) fails as a structured per-cell error — with
    partial progress attached — instead of taking the pool down.
    """


def rss_bytes() -> Optional[int]:
    """Current resident set size in bytes, or ``None`` if unknowable.

    Prefers ``/proc/self/statm`` (instantaneous RSS, Linux); falls back
    to ``resource.getrusage`` peak RSS elsewhere.  Like the wall-clock
    deadline, this reads host state that must never feed simulation
    logic — the guard only raises.
    """
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        try:
            page_size = os.sysconf("SC_PAGE_SIZE")
        except (ValueError, OSError):
            page_size = 4096
        return pages * page_size
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:
        return None


#: How many events fire between wall-clock/memory checks; keeps the
#: guards off the per-event hot path (one probe per batch).
_WALL_CHECK_INTERVAL = 512


class Simulator:
    """Discrete-event simulation clock and event loop."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.calendar = EventCalendar()
        self._events_processed = 0
        self._running = False
        self.on_event: Optional[Callable[[Event], None]] = None
        """Post-event hook: called after each event's callback returns,
        with the event that fired.  The RTSan sanitizer registers here
        to validate global state once per event; ``None`` (the default)
        costs one pointer check per event."""
        self.tie_breaker: Optional[Callable[[list[Event]], Event]] = None
        """Simultaneous-event resolution hook: when set and several live
        events share the earliest time, it receives them in insertion
        order and returns the one to fire first (the rest are put back
        unchanged).  Returning ``ties[0]`` reproduces the default
        insertion-order schedule exactly.  The model checker registers
        here to branch over same-time orderings; ``None`` (the default)
        keeps the fixed resolution with zero overhead."""

    @property
    def events_processed(self) -> int:
        """Count of events whose callbacks have run."""
        return self._events_processed

    def schedule(
        self,
        delay: float,
        callback: Callable[[Event], None],
        kind: str = "event",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay}")
        return self.schedule_at(self.now + delay, callback, kind=kind, payload=payload)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[Event], None],
        kind: str = "event",
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        return self.calendar.push(Event(time, callback, kind=kind, payload=payload))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        self.calendar.cancel(event)

    def step(self) -> bool:
        """Fire the earliest event.  Returns ``False`` when none remain."""
        if self.tie_breaker is not None:
            ties = self.calendar.take_ties()
            if not ties:
                return False
            event = ties[0] if len(ties) == 1 else self.tie_breaker(ties)
            for other in ties:
                if other is not event:
                    self.calendar.reinsert(other)
        else:
            event = self.calendar.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"event at t={event.time} is in the past (now={self.now})"
            )
        self.now = event.time
        self._events_processed += 1
        event.callback(event)
        if self.on_event is not None:
            self.on_event(event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        max_wall_s: Optional[float] = None,
        max_memory_mb: Optional[float] = None,
        profile: Optional["SpanProfiler"] = None,
    ) -> float:
        """Run the event loop and return the final clock value.

        ``until`` stops the loop once the next event would fire after that
        time (the clock is advanced to ``until``).  ``max_events`` bounds
        the number of callbacks fired, guarding against runaway loops
        (:class:`EventBudgetExceeded`).  ``max_wall_s`` bounds *real*
        elapsed time, checked every few hundred events, so a livelocked
        simulation terminates itself with :class:`WallClockExceeded`
        instead of hanging its process.  ``max_memory_mb`` bounds
        resident memory at the same batched cadence
        (:class:`MemoryBudgetExceeded`) — the guard against cells that
        would OOM their worker.  The loop stops when the calendar is
        empty.  ``profile`` attaches a span profiler whose counter
        tracks get a (sim time, events fired) sample every few hundred
        events — pure observation at the wall-clock guard's cadence,
        never feeding simulation state.

        The fired count the budget and the abort records use is read
        from :attr:`events_processed`, so an engine that completes
        several event boundaries inside one callback (OCC's fused
        compute spans) credits them there and the budget trips at the
        same boundary as strict per-event execution.  The wall-clock,
        memory and profiler cadence counts loop iterations instead.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        base = self._events_processed
        fired = 0
        loops = 0
        deadline: Optional[float] = None
        if max_wall_s is not None:
            # The wall-clock guard must read real time; it only raises,
            # never feeds the simulation state, so the determinism
            # linter's DET001 is suppressed here by design.
            deadline = _time.perf_counter() + max_wall_s  # repro: allow[DET001] -- guard only raises
        mem_limit: Optional[int] = None
        if max_memory_mb is not None:
            mem_limit = int(max_memory_mb * 1024 * 1024)
        try:
            while True:
                next_time = self.calendar.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self.now = max(self.now, until)
                    break
                if max_events is not None and fired >= max_events:
                    raise EventBudgetExceeded(
                        f"exceeded max_events={max_events}; likely a runaway loop",
                        {"events": fired, "sim_time": self.now},
                    )
                if (
                    deadline is not None
                    and loops % _WALL_CHECK_INTERVAL == 0
                    and _time.perf_counter() > deadline  # repro: allow[DET001] -- guard only raises
                ):
                    raise WallClockExceeded(
                        f"simulation exceeded max_wall_s={max_wall_s} "
                        f"after {fired} events (sim time {self.now:g})",
                        {"events": fired, "sim_time": self.now},
                    )
                if mem_limit is not None and loops % _WALL_CHECK_INTERVAL == 0:
                    rss = rss_bytes()
                    if rss is not None and rss > mem_limit:
                        raise MemoryBudgetExceeded(
                            f"simulation exceeded max_memory_mb={max_memory_mb:g} "
                            f"(rss {rss / 1048576.0:.1f} MB after {fired} events, "
                            f"sim time {self.now:g})",
                            {
                                "events": fired,
                                "sim_time": self.now,
                                "rss_bytes": rss,
                            },
                        )
                self.step()
                fired = self._events_processed - base
                loops += 1
                if profile is not None and loops % _WALL_CHECK_INTERVAL == 0:
                    profile.counter("engine.sim_time", self.now)
                    profile.counter("engine.events", float(fired))
        finally:
            self._running = False
        return self.now
