"""Span profiler: wall-time attribution and Chrome-trace export.

The metrics registry answers *what the scheduler did* (aborts,
preempts, penalty evaluations); this module answers *where the real
time went*.  A :class:`SpanProfiler` records three kinds of facts:

* **Spans** — named wall-clock intervals (sweep stages, engine phases,
  whole cells), recorded via the :meth:`~SpanProfiler.span` context
  manager or the :meth:`~SpanProfiler.begin` / :meth:`~SpanProfiler.end`
  pair on hot-ish paths.
* **Aggregate timers** — pre-resolved :class:`AggregateTimer` handles
  for paths too hot for one span per occurrence (kernel event handlers,
  penalty scans, mask builds): each start/stop adds into a single
  total/call-count cell, following the ``SimulatorMetrics`` "one
  ``is not None`` check" pattern — callers bind the handle once and a
  run without a profiler does no timing work at all.
* **Counter samples** — periodic values (simulated time, live set and
  P-list sizes) that become counter tracks next to the wall-time spans.

Everything exports as Chrome Trace Event Format JSON
(:meth:`~SpanProfiler.chrome_trace`), loadable in Perfetto or
``chrome://tracing``: spans are ``ph: "X"`` complete events, counter
samples are ``ph: "C"`` events, and each recording process gets its own
track (``pid`` = worker process id), so a parallel sweep renders as one
lane per worker.  Worker processes ship their recordings back as plain
picklable state (:meth:`~SpanProfiler.export_state` /
:meth:`~SpanProfiler.extend`), merged deterministically in cell-key
order by the sweep executor — exactly like metric snapshots.

Timestamps anchor ``perf_counter`` intervals to one ``time.time``
epoch captured per profiler, so spans from different processes line up
on a common wall-clock axis.  Profiling never feeds simulation state —
results are bit-identical with a profiler attached
(``tests/sim/test_kernel_parity.py``) — and the overhead budget
(``benchmarks/test_prof_overhead.py``) is the same <=5 % the metrics
layer honours.

The module is stdlib-only and importable from every layer.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional

#: Stage wall-time histogram series name; one ``stage=<name>`` label per
#: pipeline stage (workload_gen, build, event_loop, certify, cache_put,
#: merge).
#: Wall-clock by nature, so parity tests exclude the ``prof.`` prefix
#: exactly as they exclude ``sweep.cell_wall_ms``.
STAGE_SERIES = "prof.stage_ms"

#: Chrome-trace event categories used by this codebase.
CAT_STAGE = "stage"
CAT_ENGINE = "engine"
CAT_KERNEL = "kernel"
CAT_CELL = "cell"


class AggregateTimer:
    """A total/call-count cell for paths too hot for per-span records.

    ``t0 = timer.start(); ...; timer.stop(t0)`` adds one interval; the
    handle is bound once (``timer = prof.timer(...)``) and each update
    is two clock reads plus two adds — no allocation, no dict lookups.
    """

    __slots__ = ("name", "cat", "total_s", "calls")

    def __init__(self, name: str, cat: str = CAT_KERNEL) -> None:
        self.name = name
        self.cat = cat
        self.total_s = 0.0
        self.calls = 0

    def start(self) -> float:
        return time.perf_counter()

    def stop(self, t0: float) -> None:
        self.total_s += time.perf_counter() - t0
        self.calls += 1

    def add(self, seconds: float, calls: int = 1) -> None:
        """Fold an externally measured interval (or another timer) in."""
        self.total_s += seconds
        self.calls += calls


class SpanProfiler:
    """Low-overhead recorder of spans, aggregates, and counter samples.

    One profiler per process; worker profilers ship
    :meth:`export_state` back to the parent, which folds them in with
    :meth:`extend`.  All public record methods are cheap enough for
    per-cell and per-phase use; for per-event paths use
    :meth:`timer` handles.
    """

    __slots__ = ("spans", "samples", "aggregates", "pid", "_epoch_unix", "_epoch_perf")

    def __init__(self, pid: Optional[int] = None) -> None:
        #: (pid, name, cat, start_unix_s, dur_s, args-or-None) records.
        self.spans: list[tuple[int, str, str, float, float, Optional[dict]]] = []
        #: (pid, name, t_unix_s, value) counter samples.
        self.samples: list[tuple[int, str, float, float]] = []
        #: name -> AggregateTimer (get-or-create via :meth:`timer`).
        self.aggregates: dict[str, AggregateTimer] = {}
        self.pid = pid if pid is not None else os.getpid()
        # Anchor perf_counter intervals to the wall clock once, so spans
        # recorded in different processes share a comparable time axis.
        self._epoch_unix = time.time()
        self._epoch_perf = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def begin(self) -> float:
        """Start an interval; pass the return value to :meth:`end`."""
        return time.perf_counter()

    def end(
        self,
        name: str,
        cat: str,
        t0: float,
        args: Optional[dict] = None,
    ) -> None:
        """Close the interval opened by :meth:`begin` as one span."""
        self.add_span(name, cat, t0, time.perf_counter(), args)

    def add_span(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        args: Optional[dict] = None,
    ) -> None:
        """Record a span from two already-taken ``perf_counter`` reads.

        Lets callers that timed an interval for other reasons (stage
        histograms) re-emit it as a span without extra clock reads.
        """
        start = self._epoch_unix + (t0 - self._epoch_perf)
        self.spans.append((self.pid, name, cat, start, t1 - t0, args))

    @contextmanager
    def span(self, name: str, cat: str = CAT_STAGE, **args: Any) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end(name, cat, t0, args=args if args else None)

    def timer(self, name: str, cat: str = CAT_KERNEL) -> AggregateTimer:
        """Get-or-create the aggregate timer called ``name``."""
        timer = self.aggregates.get(name)
        if timer is None:
            timer = self.aggregates[name] = AggregateTimer(name, cat)
        return timer

    def counter(self, name: str, value: float) -> None:
        """Record one counter sample at the current wall time."""
        now = self._epoch_unix + (time.perf_counter() - self._epoch_perf)
        self.samples.append((self.pid, name, now, value))

    # -- cross-process transport -------------------------------------------

    def export_state(self) -> dict:
        """Picklable recording state a worker ships to the parent."""
        return {
            "spans": list(self.spans),
            "samples": list(self.samples),
            "aggregates": {
                name: {"cat": timer.cat, "total_s": timer.total_s, "calls": timer.calls}
                for name, timer in self.aggregates.items()
            },
        }

    def extend(self, state: Mapping) -> None:
        """Fold a worker's :meth:`export_state` into this profiler.

        Spans and samples append in call order; the sweep executor calls
        this in cell-key order, so the merged recording is deterministic
        in structure (wall-clock values aside) at any worker count.
        Aggregate timers sum.
        """
        self.spans.extend(tuple(span) for span in state.get("spans", ()))
        self.samples.extend(tuple(sample) for sample in state.get("samples", ()))
        for name, data in state.get("aggregates", {}).items():
            self.timer(name, data.get("cat", CAT_KERNEL)).add(
                data["total_s"], data["calls"]
            )

    # -- reporting ---------------------------------------------------------

    def aggregate_summary(self) -> dict:
        """JSON-ready totals of every aggregate timer, sorted by name."""
        return {
            name: {
                "cat": timer.cat,
                "total_ms": round(timer.total_s * 1000.0, 6),
                "calls": timer.calls,
                "mean_us": round(
                    timer.total_s * 1e6 / timer.calls if timer.calls else 0.0, 3
                ),
            }
            for name, timer in sorted(self.aggregates.items())
        }

    def phase_totals(self) -> dict:
        """Wall-time attribution by phase name, spans and timers merged.

        Folds every span (summed by name) and every aggregate timer into
        one ``{name: {total_ms, calls}}`` mapping, sorted by name — the
        ``phases`` section ``repro bench`` embeds in its artifacts.
        """
        totals: dict[str, dict] = {}
        for _pid, name, _cat, _start, dur, _args in self.spans:
            entry = totals.setdefault(name, {"total_ms": 0.0, "calls": 0})
            entry["total_ms"] += dur * 1000.0
            entry["calls"] += 1
        for name, timer in self.aggregates.items():
            entry = totals.setdefault(name, {"total_ms": 0.0, "calls": 0})
            entry["total_ms"] += timer.total_s * 1000.0
            entry["calls"] += timer.calls
        return {
            name: {"total_ms": round(entry["total_ms"], 6), "calls": entry["calls"]}
            for name, entry in sorted(totals.items())
        }

    def chrome_trace(self, extra: Optional[Mapping] = None) -> dict:
        """The recording as a Chrome Trace Event Format document.

        Spans become ``ph: "X"`` complete events and counter samples
        ``ph: "C"`` counter events, with microsecond timestamps
        rebased to the earliest record; each recording pid gets a
        ``process_name`` metadata event so Perfetto shows one named
        track per worker process.  Aggregate timers are not timeline
        events — they land under the top-level ``aggregates`` key
        (ignored by trace viewers, consumed by ``repro profile`` and
        ``repro bench``).  ``extra`` keys merge into the top level.
        """
        starts = [span[3] for span in self.spans]
        starts.extend(sample[2] for sample in self.samples)
        t0 = min(starts) if starts else 0.0
        events: list[dict] = []
        pids = sorted(
            {span[0] for span in self.spans}
            | {sample[0] for sample in self.samples}
        )
        for pid in pids:
            label = "main" if pid == self.pid else f"worker-{pid}"
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": label},
                }
            )
        for pid, name, cat, start, dur, args in self.spans:
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": round((start - t0) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
            }
            if args:
                event["args"] = dict(args)
            events.append(event)
        for pid, name, t, value in self.samples:
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "pid": pid,
                    "tid": 0,
                    "ts": round((t - t0) * 1e6, 3),
                    "args": {"value": value},
                }
            )
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "aggregates": self.aggregate_summary(),
        }
        if extra:
            doc.update(dict(extra))
        return doc

    def write_chrome_trace(
        self, path: Path | str, extra: Optional[Mapping] = None
    ) -> Path:
        """Write :meth:`chrome_trace` as JSON; returns the path."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.chrome_trace(extra)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


def validate_chrome_trace(doc: Mapping) -> list[str]:
    """Schema check of a Chrome Trace document; empty list = valid.

    Validates the subset this codebase emits (and Perfetto requires):
    a ``traceEvents`` list whose entries carry ``name``/``ph``/``pid``/
    ``tid``, with numeric non-negative ``ts`` (and ``dur`` for ``X``
    events) in microseconds.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where} is not an object")
            continue
        for key in ("name", "ph"):
            if not isinstance(event.get(key), str):
                problems.append(f"{where}.{key} missing or not a string")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}.{key} missing or not an int")
        ph = event.get("ph")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}.ts missing, non-numeric, or negative")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}.dur missing, non-numeric, or negative")
        elif ph == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}.args missing for counter event")
        elif ph not in ("B", "E", "i", "I"):
            problems.append(f"{where}.ph {ph!r} is not a supported phase")
    return problems


# ---------------------------------------------------------------------------
# Stage timing <-> metrics registry bridge
# ---------------------------------------------------------------------------

def observe_stage(registry: Any, stage: str, wall_ms: float) -> None:
    """Record one pipeline stage's wall time into a metrics registry.

    Lands in the ``prof.stage_ms{stage=...}`` histogram, which worker
    snapshots ship back like every other series — so per-stage timing
    merges deterministically across processes and flows into manifests
    (schema v4 ``timing`` section) for free.
    """
    registry.histogram(STAGE_SERIES, stage=stage).observe(wall_ms)


def timing_section(metrics_snapshot: Mapping) -> dict:
    """The manifest ``timing`` section, derived from a registry snapshot.

    Collects every ``prof.stage_ms{stage=...}`` histogram into a
    per-stage summary; ``enabled`` is ``False`` (with no stages) when
    the run recorded no stage timing at all.
    """
    prefix = STAGE_SERIES + "{stage="
    stages: dict[str, dict] = {}
    for key, data in metrics_snapshot.get("histograms", {}).items():
        if not key.startswith(prefix) or not key.endswith("}"):
            continue
        stage = key[len(prefix):-1]
        stages[stage] = {
            "count": data["count"],
            "total_ms": data["total"],
            "mean_ms": data["mean"],
            "p95_ms": data["p95"],
        }
    return {"enabled": bool(stages), "stages": stages}


# ---------------------------------------------------------------------------
# Host provenance
# ---------------------------------------------------------------------------

def _cpu_model() -> Optional[str]:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_provenance() -> dict:
    """Who measured: interpreter, platform, CPU, and core count.

    Recorded in ``repro bench`` output and the committed
    ``BENCH_kernel.json`` so baselines measured on different machines
    are distinguishable (ratios are host-independent; absolute
    milliseconds are not).
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "endianness": sys.byteorder,
    }
