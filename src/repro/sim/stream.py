"""Bounded-memory trace streaming: sinks that consume events as they fire.

:class:`~repro.tracing.EventLog` materializes a whole run's trace in
memory, which is exactly what large scenarios cannot afford.
:class:`JsonlSink` keeps the same hook shape — callable ``(name,
**fields)`` — but spills every record straight to disk as JSON lines,
holding O(1) events in memory; the file is readable back with
:func:`iter_jsonl`, which the certifier consumes lazily
(``certify_events`` is a single forward pass, so a spilled trace
certifies without ever re-materializing).

Sinks flatten transaction-like values to their tid through
:func:`flatten_event` — the exact transformation ``EventLog.__call__``
applies — so a spilled stream is byte-identical to an in-memory log
serialized with ``to_jsonl``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator, Protocol, runtime_checkable


def flatten_event(name: str, fields: dict[str, Any]) -> dict[str, Any]:
    """One trace event as a plain record: transaction-like values (the
    reference engine's ``Transaction``, the kernel engine's slot views)
    are flattened to their tid by duck-typing, so both engines produce
    byte-identical records."""
    record: dict[str, Any] = {"event": name}
    for key, value in fields.items():
        if isinstance(value, (tuple, list)):
            record[key] = [
                item.tid if hasattr(item, "tid") else item for item in value
            ]
        elif hasattr(value, "tid"):
            record[key] = value.tid
        else:
            record[key] = value
    return record


@runtime_checkable
class TraceSink(Protocol):
    """Anything a simulator ``trace=`` hook can stream events into.

    The protocol is intentionally the shape trace hooks already have —
    a callable taking ``(name, **fields)`` — plus :meth:`close` so
    spilling sinks can flush, and iteration over the retained (or
    spilled) flattened records.
    """

    def __call__(self, name: str, **fields: Any) -> None: ...

    def close(self) -> None: ...

    def __iter__(self) -> Iterator[dict[str, Any]]: ...


class JsonlSink:
    """Spills every flattened event to ``path`` as JSON lines.

    The hot path holds one record at a time: flatten, serialize, write
    to the (buffered) file handle.  Iterating re-reads the file after a
    flush, so ``certify_events(sink, ...)`` works on a stream larger
    than memory.  ``close()`` is idempotent; the sink flushes on close
    so a written file is complete once the run (or the failure handler)
    closes it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.events_written = 0
        self._handle: Any = open(self.path, "w")

    def __call__(self, name: str, **fields: Any) -> None:
        if self._handle is None:
            raise ValueError(f"JsonlSink({self.path}) is closed")
        self._handle.write(json.dumps(flatten_event(name, fields)) + "\n")
        self.events_written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def __iter__(self) -> Iterator[dict[str, Any]]:
        self.flush()
        return iter_jsonl(self.path)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Lazily yield trace records from a JSONL file, one at a time.

    The streaming counterpart of ``EventLog.from_jsonl``: same record
    validation, O(1) memory.  Blank lines are skipped; a line that is
    not a trace event record raises ``ValueError`` with its location.
    """
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(f"{path}:{line_no}: not a trace event record")
            yield record
