"""Offline schedule certification (``repro certify``).

Whole-history static analysis over completed runs' trace streams:
serializability, strict-2PL lock discipline, High Priority wound
order, and pre-analysis (conflict/safety) soundness.  See
``docs/CERTIFY.md`` for the rule catalog and report formats.
"""

from repro.certify.certifier import (
    CertificationResult,
    Violation,
    certify_events,
)
from repro.certify.history import History, Incarnation, parse_history

__all__ = [
    "CertificationResult",
    "History",
    "Incarnation",
    "Violation",
    "certify_events",
    "parse_history",
]
