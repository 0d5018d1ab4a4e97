"""Optimistic concurrency control baseline (related work).

The paper's related-work section weighs CCA against optimistic schemes
([HSRT91]; Haritsa's OPT-BC [Har91, HCL90]) and repeats their finding
that "optimistic concurrency control ... shows better performance only
for firm real-time transactions".  This package provides that
comparator: a broadcast-commit OCC simulator sharing the workloads,
policies and metrics of the locking simulators, so the claim can be
re-tested directly (``repro ext-occ``, checked by
``repro.experiments.validation.validate_extensions``).
"""

from repro.occ.simulator import OCCSimulator

__all__ = ["OCCSimulator"]
