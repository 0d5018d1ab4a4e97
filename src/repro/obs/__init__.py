"""Observability: metrics registry, sampler, profiler, run manifests.

The subsystem has five pieces, each usable alone:

* :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms
  with deterministic snapshot/merge semantics;
* :mod:`repro.obs.hooks` — bindings that feed the registry from the
  simulator's hot path (:class:`SimulatorMetrics`) or from any trace
  stream (:class:`MetricsTraceHook`);
* :mod:`repro.obs.sampler` — a trace hook that folds either engine's
  event stream into a time series of scheduler state (queue depths,
  P-list size, CPU utilization, restarts);
* :mod:`repro.obs.prof` — span profiler with Chrome-trace export,
  aggregate timers for kernel internals, and host provenance;
* :mod:`repro.obs.manifest` — structured JSON provenance reports for
  figure/sweep runs.

See docs/OBSERVABILITY.md for the metrics catalog and manifest schema.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.hooks import (
        KernelIntrospection,
        MetricsTraceHook,
        SimulatorMetrics,
        fanout,
        slack_band,
    )
    from repro.obs.manifest import (
        MANIFEST_SCHEMA_VERSION,
        build_manifest,
        load_manifest,
        validate_manifest,
        write_manifest,
    )
    from repro.obs.prof import (
        AggregateTimer,
        SpanProfiler,
        host_provenance,
        observe_stage,
        timing_section,
        validate_chrome_trace,
    )
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
    from repro.obs.sampler import Sample, TimeSeriesSampler

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "AggregateTimer",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelIntrospection",
    "MetricsRegistry",
    "MetricsTraceHook",
    "Sample",
    "SimulatorMetrics",
    "SpanProfiler",
    "TimeSeriesSampler",
    "build_manifest",
    "fanout",
    "host_provenance",
    "load_manifest",
    "observe_stage",
    "slack_band",
    "timing_section",
    "validate_chrome_trace",
    "validate_manifest",
    "write_manifest",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.hooks": (
        "KernelIntrospection", "MetricsTraceHook", "SimulatorMetrics", "fanout", "slack_band",
    ),
    "repro.obs.manifest": (
        "MANIFEST_SCHEMA_VERSION", "build_manifest", "load_manifest", "validate_manifest",
        "write_manifest",
    ),
    "repro.obs.prof": (
        "AggregateTimer", "SpanProfiler", "host_provenance", "observe_stage", "timing_section",
        "validate_chrome_trace",
    ),
    "repro.obs.registry": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.sampler": ("Sample", "TimeSeriesSampler"),
})
