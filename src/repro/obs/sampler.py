"""Time series of scheduler state, folded from the trace stream.

A :class:`TimeSeriesSampler` is a trace hook for either engine: it folds
the :data:`repro.tracing.EVENT_SCHEMA` stream into piecewise-constant
state and records a :class:`Sample` every ``interval`` simulated ms::

    sampler = TimeSeriesSampler(interval=100.0)
    make_simulator(config, workload, policy, trace=sampler).run()
    sampler.to_csv("queues.csv")

Sample times are ``interval``, ``interval + interval``, ...  The sample
at boundary ``b`` sees every event at or before ``b`` and is emitted
when the first event after ``b`` arrives, so the series ends at the
run's last trace event (docs/OBSERVABILITY.md, *Time-series sampler*).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Any, Iterator

# Transaction states the fold tracks, as indices into its counts.
_READY, _RUNNING, _LOCK_WAIT, _IO_WAIT, _COMMITTED, _DROPPED = range(6)

#: The state each transaction-moving trace event puts its ``tx`` in.
#: Leaving ``_RUNNING`` is exactly a CPU release (preempt, io_start,
#: lock_wait, commit: a running transaction is preempted before it is
#: dropped, and is never wounded), entering it a CPU start.
_NEXT_STATE: dict[str, int] = {
    "dispatch": _RUNNING,
    "preempt": _READY,
    "io_start": _IO_WAIT,
    "io_complete": _READY,
    "lock_wait": _LOCK_WAIT,
    "lock_wake": _READY,
    "abort": _READY,
    "commit": _COMMITTED,
    "drop": _DROPPED,
}


@dataclasses.dataclass(frozen=True)
class Sample:
    """One snapshot of scheduler state at a simulated instant."""

    time: float
    live: int
    ready: int
    running: int
    lock_waiting: int
    io_waiting: int
    plist_size: int
    cpu_utilization: float
    restarts: int
    committed: int
    dropped: int


#: Column order of exported samples (the Sample fields).
SAMPLE_FIELDS: tuple[str, ...] = tuple(field.name for field in dataclasses.fields(Sample))


class TimeSeriesSampler:
    """Folds one run's trace events into a sample every ``interval`` ms."""

    def __init__(self, interval: float = 100.0) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.interval = interval
        self.samples: list[Sample] = []
        self._next_time = 0.0 + interval
        self._states: dict[Any, int] = {}
        self._counts = [0] * 6
        self._plist: set[Any] = set()
        self._tids: set[int] = set()
        self._restarts = 0
        self._busy = 0.0
        self._busy_since = 0.0
        self._last_arrival = 0.0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    # -- the fold ----------------------------------------------------------

    def __call__(
        self, name: str, time: float = 0.0, tx: Any = None, **fields: object
    ) -> None:
        # Transactions are keyed by the trace's ``tx`` object itself:
        # each engine passes one stable object per transaction.
        if time > self._next_time:
            self._sample_before(time)
        if name == "lock_acquire":
            self._plist.add(tx)
            return
        state = _NEXT_STATE.get(name)
        if state is None:
            if name == "arrival":
                if tx.tid in self._tids or time < self._last_arrival:
                    raise RuntimeError("a sampler observes exactly one run")
                self._tids.add(tx.tid)
                self._last_arrival = time
                self._states[tx] = _READY
                self._counts[_READY] += 1
            return
        states = self._states
        old = states[tx]
        if old == _RUNNING:
            self._busy += time - self._busy_since
        elif state == _RUNNING:
            self._busy_since = time
        counts = self._counts
        counts[old] -= 1
        counts[state] += 1
        states[tx] = state
        if name == "abort":
            self._restarts += 1
            self._plist.discard(tx)
        elif state >= _COMMITTED:
            self._plist.discard(tx)

    def _sample_before(self, time: float) -> None:
        """Emit a sample at every boundary strictly before ``time``."""
        ready, running, lock_waiting, io_waiting, committed, dropped = self._counts
        live = ready + running + lock_waiting + io_waiting
        plist_size = len(self._plist)
        tick = self._next_time
        while tick < time:
            # Cpu.utilization(tick), term for term.
            busy = self._busy
            if running:
                busy += tick - self._busy_since
            self.samples.append(
                Sample(tick, live, ready, running, lock_waiting, io_waiting, plist_size,
                       min(1.0, busy / tick), self._restarts, committed, dropped)
            )
            tick = tick + self.interval
        self._next_time = tick

    # -- export ------------------------------------------------------------

    def to_csv(self, path: str | Path) -> Path:
        """Write samples as CSV (creating parent directories); returns path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SAMPLE_FIELDS)
            writer.writerows(dataclasses.astuple(sample) for sample in self.samples)
        return path

    def to_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per sample; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for sample in self.samples:
                handle.write(json.dumps(dataclasses.asdict(sample)) + "\n")
        return path
