"""Span profiler: recording, merging, Chrome-trace export, parity.

Three contracts under test:

* **Recording** — spans/timers/counters land with the documented
  shapes, worker state round-trips through ``export_state``/``extend``,
  and ``phase_totals``/``aggregate_summary`` summarize deterministically.
* **Export** — ``chrome_trace`` emits a document our own validator (and
  therefore Perfetto) accepts, and the validator rejects the malformed
  shapes it claims to.
* **Non-interference** — simulation results are bit-identical with a
  profiler (and kernel introspection) attached, on both engines, and
  ``engine="auto"`` keeps the kernel under profiling and time-series
  sampling while falling back for sanitized runs.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator
from repro.obs.prof import (
    SpanProfiler,
    host_provenance,
    observe_stage,
    validate_chrome_trace,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler
from repro.workload.generator import generate_workload

CONFIG = SimulationConfig(n_transactions=120, arrival_rate=8.0)


def run_cell(engine_cls, policy="CCA", **kwargs):
    workload = generate_workload(CONFIG, seed=7)
    pol = make_policy(policy, penalty_weight=CONFIG.penalty_weight)
    return engine_cls(CONFIG, workload, pol, **kwargs).run()


class TestRecording:
    def test_span_context_manager_records_interval(self):
        prof = SpanProfiler(pid=1)
        with prof.span("work", "stage", n=3):
            pass
        assert len(prof.spans) == 1
        pid, name, cat, start, dur, args = prof.spans[0]
        assert (pid, name, cat, args) == (1, "work", "stage", {"n": 3})
        assert dur >= 0.0

    def test_add_span_is_retroactive(self):
        prof = SpanProfiler(pid=1)
        t0 = prof.begin()
        prof.add_span("late", "cell", t0, t0 + 0.5)
        assert prof.spans[0][4] == pytest.approx(0.5)

    def test_timer_handles_are_get_or_create(self):
        prof = SpanProfiler()
        timer = prof.timer("kernel.ev_phase", "kernel")
        assert prof.timer("kernel.ev_phase", "kernel") is timer
        timer.add(0.25, calls=5)
        summary = prof.aggregate_summary()
        assert summary["kernel.ev_phase"]["calls"] == 5
        assert summary["kernel.ev_phase"]["total_ms"] == pytest.approx(250.0)

    def test_export_state_extend_round_trip(self):
        worker = SpanProfiler(pid=99)
        with worker.span("cell.simulate", "stage"):
            pass
        worker.counter("live_set", 4.0)
        worker.timer("kernel.ev_arrival").add(0.1, calls=10)
        parent = SpanProfiler(pid=1)
        parent.timer("kernel.ev_arrival").add(0.2, calls=20)
        parent.extend(worker.export_state())
        assert [span[0] for span in parent.spans] == [99]
        assert parent.samples[0][0] == 99
        merged = parent.aggregates["kernel.ev_arrival"]
        assert merged.calls == 30
        assert merged.total_s == pytest.approx(0.3)

    def test_phase_totals_sums_spans_and_aggregates(self):
        prof = SpanProfiler(pid=1)
        t0 = prof.begin()
        prof.add_span("engine.event_loop", "engine", t0, t0 + 0.020)
        prof.add_span("engine.event_loop", "engine", t0, t0 + 0.030)
        prof.timer("kernel.penalty_scan").add(0.005, calls=3)
        totals = prof.phase_totals()
        assert totals["engine.event_loop"]["total_ms"] == pytest.approx(50.0)
        assert totals["engine.event_loop"]["calls"] == 2
        assert totals["kernel.penalty_scan"]["calls"] == 3
        assert list(totals) == sorted(totals)


class TestChromeTrace:
    def profiler_with_data(self):
        prof = SpanProfiler(pid=1)
        with prof.span("sweep.execute_cells", "stage"):
            with prof.span("cell.simulate", "stage", seed=7):
                pass
        prof.counter("sim_time", 12.5)
        prof.timer("kernel.ev_phase").add(0.004, calls=8)
        return prof

    def test_document_passes_own_validator(self):
        doc = self.profiler_with_data().chrome_trace(extra={"experiment": "x"})
        assert validate_chrome_trace(doc) == []
        assert doc["experiment"] == "x"

    def test_document_is_json_serializable_and_rebased(self):
        doc = self.profiler_with_data().chrome_trace()
        json.dumps(doc)
        timestamps = [
            event["ts"] for event in doc["traceEvents"] if "ts" in event
        ]
        assert min(timestamps) == 0.0

    def test_tracks_named_per_process(self):
        prof = self.profiler_with_data()
        worker = SpanProfiler(pid=2)
        with worker.span("cell.simulate", "stage"):
            pass
        prof.extend(worker.export_state())
        doc = prof.chrome_trace()
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in metadata} == {1, 2}

    def test_counter_events_emitted(self):
        doc = self.profiler_with_data().chrome_trace()
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters and counters[0]["args"] == {"value": 12.5}

    def test_aggregates_section_included(self):
        doc = self.profiler_with_data().chrome_trace()
        assert doc["aggregates"]["kernel.ev_phase"]["calls"] == 8

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        self.profiler_with_data().write_chrome_trace(path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({}, "traceEvents missing"),
            ({"traceEvents": "nope"}, "traceEvents missing"),
            ({"traceEvents": [42]}, "not an object"),
            (
                {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1}]},
                ".name missing",
            ),
            (
                {"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0}]},
                ".dur missing",
            ),
            (
                {"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}]},
                ".ts missing, non-numeric, or negative",
            ),
            (
                {"traceEvents": [{"name": "a", "ph": "C", "pid": 1, "tid": 1, "ts": 0}]},
                ".args missing",
            ),
            (
                {"traceEvents": [{"name": "a", "ph": "Z", "pid": 1, "tid": 1, "ts": 0}]},
                "not a supported phase",
            ),
        ],
    )
    def test_validator_rejects_malformed(self, doc, fragment):
        problems = validate_chrome_trace(doc)
        assert problems and fragment in problems[0]


class TestHostProvenance:
    def test_shape(self):
        host = host_provenance()
        assert set(host) == {
            "python",
            "implementation",
            "platform",
            "cpu_model",
            "cpu_count",
            "endianness",
        }
        assert isinstance(host["cpu_count"], int)
        json.dumps(host)


class TestObserveStage:
    def test_lands_in_stage_histogram(self):
        registry = MetricsRegistry()
        observe_stage(registry, "simulate", 12.0)
        observe_stage(registry, "simulate", 8.0)
        snapshot = registry.snapshot()
        series = snapshot["histograms"]["prof.stage_ms{stage=simulate}"]
        assert series["count"] == 2
        assert series["mean"] == pytest.approx(10.0)


class TestProfilingParity:
    """Profiling and introspection never perturb simulation results."""

    @pytest.mark.parametrize("engine_cls", [KernelSimulator, RTDBSimulator])
    @pytest.mark.parametrize("policy", ["EDF-HP", "CCA"])
    def test_results_identical_with_profiler(self, engine_cls, policy):
        bare = run_cell(engine_cls, policy)
        prof = SpanProfiler()
        profiled = run_cell(engine_cls, policy, profile=prof)
        assert profiled == bare
        assert prof.spans  # the engine actually recorded phases

    @pytest.mark.parametrize("engine_cls", [KernelSimulator, RTDBSimulator])
    def test_trace_stream_identical_with_profiler(self, engine_cls):
        from repro.tracing import EventLog

        bare_log, profiled_log = EventLog(), EventLog()
        run_cell(engine_cls, "CCA", trace=bare_log)
        run_cell(engine_cls, "CCA", trace=profiled_log, profile=SpanProfiler())
        assert profiled_log.events == bare_log.events

    @pytest.mark.parametrize("policy", ["EDF-HP", "CCA"])
    def test_sim_metrics_identical_with_profiler(self, policy):
        def sim_counters(**kwargs):
            registry = MetricsRegistry()
            run_cell(KernelSimulator, policy, metrics=registry, **kwargs)
            return {
                key: value
                for key, value in registry.snapshot()["counters"].items()
                if key.startswith("sim.")
            }

        assert sim_counters(profile=SpanProfiler()) == sim_counters()

    def test_results_identical_with_introspection(self):
        bare = run_cell(KernelSimulator, "CCA")
        registry = MetricsRegistry()
        introspected = run_cell(
            KernelSimulator, "CCA", metrics=registry, introspect=True
        )
        assert introspected == bare
        counters = registry.snapshot()["counters"]
        assert any(key.startswith("kernel.") for key in counters)

    def test_introspection_counters_deterministic(self):
        def kernel_counters():
            registry = MetricsRegistry()
            run_cell(KernelSimulator, "CCA", metrics=registry, introspect=True)
            return {
                key: value
                for key, value in registry.snapshot()["counters"].items()
                if key.startswith("kernel.")
            }

        first = kernel_counters()
        assert first == kernel_counters()
        assert first["kernel.events_fired{policy=CCA}"] > 0


class TestEngineAutoFallback:
    """The documented ``engine="auto"`` asymmetry: profilers and
    samplers keep the kernel selected; RTSan forces the reference
    engine."""

    def make(self, **kwargs):
        workload = generate_workload(CONFIG, seed=7)
        policy = make_policy("CCA", penalty_weight=CONFIG.penalty_weight)
        return make_simulator(CONFIG, workload, policy, **kwargs)

    def test_profiler_keeps_kernel(self):
        assert CONFIG.engine == "auto"
        simulator = self.make(profile=SpanProfiler(), introspect=True)
        assert isinstance(simulator, KernelSimulator)

    def test_sampler_keeps_the_kernel(self):
        sampler = TimeSeriesSampler(interval=1.0)
        simulator = self.make(trace=sampler)
        assert isinstance(simulator, KernelSimulator)
        reference_sampler = TimeSeriesSampler(interval=1.0)
        reference = RTDBSimulator(
            CONFIG,
            generate_workload(CONFIG, seed=7),
            make_policy("CCA", penalty_weight=CONFIG.penalty_weight),
            trace=reference_sampler,
        )
        assert simulator.run() == reference.run()
        assert len(sampler) > 0
        assert sampler.samples == reference_sampler.samples

    def test_fallback_and_kernel_agree(self):
        sanitized = self.make(sanitize=True)
        assert isinstance(sanitized, RTDBSimulator)
        with_profiler = self.make(profile=SpanProfiler())
        assert sanitized.run() == with_profiler.run()
