"""In-memory span recording around calls into the program's layers.

The traced run wraps public functions and methods of each layer (see
``worker.py``); each call records one span: name, start, end, parent
span and the cell it belongs to.  Spans stay in memory, each also
recorded into the program's own ``SpanProfiler``, which writes them
once, at the end, as a Chrome trace.

A cell starts at the call that generates its workload; the engine and
cache-store calls that follow belong to it until the next cell starts or
a sweep-level call (cache lookup, summary) clears it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Callable, Iterator, Optional

from repro.obs.prof import SpanProfiler

#: How a wrapped call relates to the current cell.
STARTS_CELL = "starts"
IN_CELL = "in"
SWEEP_LEVEL = "sweep"


class SpanRecorder:
    def __init__(self) -> None:
        self.profiler = SpanProfiler()
        self.spans: list[dict] = []
        self.active = False
        self._stack: list[dict] = []
        self._cell: Optional[int] = None
        self._cells = 0

    def begin(self, name: str, role: str = IN_CELL) -> dict:
        if role == STARTS_CELL:
            self._cells += 1
            self._cell = self._cells
        elif role == SWEEP_LEVEL:
            self._cell = None
        span = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "cell": self._cell,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        self.profiler.add_span(
            span["name"], span["name"].split(".")[0], span["start"], span["end"],
            {"id": span["id"], "parent": span["parent"], "cell": span["cell"]},
        )

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[dict]:
        """A top-level span; wrapped calls record only while it is open."""
        span = self.begin(name, SWEEP_LEVEL)
        self.active = True
        try:
            yield span
        finally:
            self.active = False
            self.end(span)

    def wrap(
        self,
        fn: Callable,
        name: str,
        role: str = IN_CELL,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call while the recorder is active."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.begin(name, role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def duration_ms(self, span: dict) -> float:
        return (span["end"] - span["start"]) * 1000.0

    def self_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        child_ms: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] = (
                    child_ms.get(span["parent"], 0.0) + self.duration_ms(span)
                )
        out: dict[str, float] = {}
        for span in self.spans:
            own = self.duration_ms(span) - child_ms.get(span["id"], 0.0)
            out[span["name"]] = out.get(span["name"], 0.0) + own
        return out

    def outer_ms(self, name: str) -> float:
        """Total time in ``name`` spans not nested in another ``name`` span."""
        by_id = {span["id"]: span for span in self.spans}
        total = 0.0
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if span["name"] == name and (parent is None or parent["name"] != name):
                total += self.duration_ms(span)
        return total

    def subtree(self, root: dict) -> "SpanRecorder":
        """A recorder holding ``root`` and every span below it."""
        inside = {root["id"]}
        tree = SpanRecorder()
        for span in self.spans:  # parents are recorded before children
            if span["id"] in inside or span["parent"] in inside:
                inside.add(span["id"])
                tree.spans.append(span)
        return tree

    def cell_ms(self) -> list[float]:
        """Per-cell busy time: the top-level spans that carry a cell id."""
        by_id = {span["id"]: span for span in self.spans}
        cells: dict[int, float] = {}
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if span["cell"] is None or (parent is not None and parent["cell"] is not None):
                continue
            cells[span["cell"]] = cells.get(span["cell"], 0.0) + self.duration_ms(span)
        return [cells[cell] for cell in sorted(cells)]


def rebind(original: Callable, replacement: Callable, package: str = "repro") -> int:
    """Point every module-level name bound to ``original`` inside
    ``package`` at ``replacement``; returns how many were rebound.

    Modules import functions by name, so wrapping one means rebinding it
    wherever it was imported.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count
