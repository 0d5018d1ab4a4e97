"""Bridges between the simulator/trace layer and the metrics registry.

Two ways metrics get fed:

* :class:`SimulatorMetrics` — instrument bundle the simulator binds once
  at construction when given a registry.  Every hot-path update is then
  a pre-resolved ``Counter.inc()``/``Histogram.observe()`` behind a
  single ``is not None`` check, which is what keeps the observability
  layer inside the <=5 % overhead budget
  (``benchmarks/test_obs_overhead.py``).
* :class:`MetricsTraceHook` — a generic trace hook (same ``callable(
  name, **fields)`` shape as :class:`repro.tracing.EventLog`) that
  counts every trace event into ``trace.<event>`` counters.  Attach it
  anywhere a ``trace=`` parameter is accepted.

:func:`fanout` composes several hooks into one, so an
:class:`~repro.tracing.EventLog` and a metrics hook can observe the same
run.
"""

from __future__ import annotations

from typing import Callable

from repro.obs.registry import MetricsRegistry

#: Slack-band edges, as multiples of a transaction's resource time.
#: slack = (deadline - arrival) / resource_time - 1; the paper draws
#: slack uniformly in [20 %, 800 %], so the bands split that range into
#: tight (< 100 %), medium (100..400 %) and loose (> 400 %).
SLACK_BAND_EDGES: tuple[float, ...] = (1.0, 4.0)
SLACK_BANDS: tuple[str, ...] = ("tight", "medium", "loose")


def slack_band(arrival_time: float, deadline: float, resource_time: float) -> str:
    """Which slack band a transaction's deadline falls into."""
    if resource_time <= 0:
        return SLACK_BANDS[-1]
    slack = (deadline - arrival_time) / resource_time - 1.0
    for edge, band in zip(SLACK_BAND_EDGES, SLACK_BANDS):
        if slack < edge:
            return band
    return SLACK_BANDS[-1]


class SimulatorMetrics:
    """Pre-bound per-policy instruments for one simulator run.

    The simulator creates one of these when constructed with a
    ``metrics`` registry and updates the bound instruments directly —
    no name lookups on the hot path.  The series all carry a
    ``policy=<name>`` label so sweep-level merges stay per-policy.
    """

    __slots__ = (
        "dispatches",
        "preempts",
        "commits",
        "deadline_misses",
        "aborts",
        "drops",
        "deadlock_breaks",
        "lock_waits",
        "penalty_evals",
        "iowait_decisions",
        "iowait_idle",
        "noncontributing_ms",
        "restart_counts",
        "_miss_by_band",
    )

    def __init__(self, registry: MetricsRegistry, policy_name: str) -> None:
        self.dispatches = registry.counter("sim.dispatches", policy=policy_name)
        self.preempts = registry.counter("sim.preempts", policy=policy_name)
        self.commits = registry.counter("sim.commits", policy=policy_name)
        self.deadline_misses = registry.counter(
            "sim.deadline_misses", policy=policy_name
        )
        self.aborts = {
            cause: registry.counter("sim.aborts", policy=policy_name, cause=cause)
            for cause in ("dispatch", "lock")
        }
        self.drops = registry.counter("sim.drops", policy=policy_name)
        self.deadlock_breaks = registry.counter(
            "sim.deadlock_breaks", policy=policy_name
        )
        self.lock_waits = registry.counter("sim.lock_waits", policy=policy_name)
        self.penalty_evals = registry.counter(
            "sim.penalty_evals", policy=policy_name
        )
        self.iowait_decisions = registry.counter(
            "sim.iowait_decisions", policy=policy_name
        )
        self.iowait_idle = registry.counter("sim.iowait_idle", policy=policy_name)
        self.noncontributing_ms = registry.histogram(
            "sim.noncontributing_ms", policy=policy_name
        )
        self.restart_counts = registry.histogram(
            "sim.restarts_at_commit", buckets=(0, 1, 2, 3, 5, 8, 13, 21),
            policy=policy_name,
        )
        self._miss_by_band = {
            band: registry.counter(
                "sim.deadline_misses_by_slack", policy=policy_name, band=band
            )
            for band in SLACK_BANDS
        }

    def deadline_miss(
        self, arrival_time: float, deadline: float, resource_time: float
    ) -> None:
        """Record a missed deadline, bucketed by the slack band."""
        self.deadline_misses.inc()
        self._miss_by_band[slack_band(arrival_time, deadline, resource_time)].inc()


class KernelIntrospection:
    """Pre-bound kernel-internals instruments (the ``kernel.*`` family).

    Where :class:`SimulatorMetrics` counts what the *schedule* did
    (aborts, preempts, misses — identical across engines), this bundle
    counts what the *kernel machinery* did: fusion spans taken and
    truncated, arrival-cursor crossings, CCA bound-prune hits by site,
    penalty-scan mode mix, and mask-matrix materializations.  Those are
    engine implementation facts with no reference-engine counterpart,
    so the kernel creates this bundle only when constructed with
    ``introspect=True`` *and* a registry — by default the ``kernel.*``
    series are absent and kernel/reference metric snapshots stay
    byte-identical for the differential parity suite.

    Every handle is pre-resolved here so each hot-path update is one
    attribute load and an ``inc()`` behind the kernel's single
    ``is not None`` check.
    """

    __slots__ = (
        "span_free",
        "span_locked",
        "fused_ops",
        "fusion_truncated",
        "fusion_crossings",
        "span_len",
        "scan_scalar",
        "scan_table",
        "prune_choose",
        "prune_dispatch",
        "prune_wound",
        "mask_builds",
        "events_fired",
    )

    def __init__(self, registry: MetricsRegistry, policy_name: str) -> None:
        self.span_free = registry.counter(
            "kernel.fusion_spans", policy=policy_name, kind="free"
        )
        self.span_locked = registry.counter(
            "kernel.fusion_spans", policy=policy_name, kind="locked"
        )
        self.fused_ops = registry.counter("kernel.fused_ops", policy=policy_name)
        self.fusion_truncated = registry.counter(
            "kernel.fusion_truncated", policy=policy_name
        )
        self.fusion_crossings = registry.counter(
            "kernel.fusion_arrival_crossings", policy=policy_name
        )
        self.span_len = registry.histogram(
            "kernel.fusion_span_len",
            buckets=(1, 2, 3, 5, 8, 13, 21, 34, 55),
            policy=policy_name,
        )
        self.scan_scalar = registry.counter(
            "kernel.penalty_scans", policy=policy_name, mode="scalar"
        )
        self.scan_table = registry.counter(
            "kernel.penalty_scans", policy=policy_name, mode="table"
        )
        self.prune_choose = registry.counter(
            "kernel.cca_prunes", policy=policy_name, site="choose"
        )
        self.prune_dispatch = registry.counter(
            "kernel.cca_prunes", policy=policy_name, site="dispatch"
        )
        self.prune_wound = registry.counter(
            "kernel.cca_prunes", policy=policy_name, site="wound"
        )
        self.mask_builds = registry.counter(
            "kernel.mask_builds", policy=policy_name, kind="conflict_slots"
        )
        self.events_fired = registry.counter(
            "kernel.events_fired", policy=policy_name
        )


class MetricsTraceHook:
    """A trace hook that tallies event kinds into a registry.

    Counts land in ``trace.<event>`` counters; numeric event fields are
    ignored (use :class:`repro.tracing.TraceCounters` or an
    :class:`~repro.tracing.EventLog` when field values matter).
    """

    __slots__ = ("registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def __call__(self, name: str, **fields: object) -> None:
        self.registry.counter(f"trace.{name}").inc()


def fanout(*hooks: Callable[..., None]) -> Callable[..., None]:
    """One trace hook that forwards every event to all ``hooks``."""
    live = tuple(hook for hook in hooks if hook is not None)

    def forward(name: str, **fields: object) -> None:
        for hook in live:
            hook(name, **fields)

    return forward
