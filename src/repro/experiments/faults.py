"""Deterministic fault injection for sweep execution.

The chaos test suite (and the CI chaos smoke step) needs workers that
crash, hang, die, or return corrupt payloads *on a seeded schedule*:
the same cells fault in the same way on every run, at any ``jobs``
count, so fault-tolerant execution can be tested for the same
determinism invariants as fault-free execution (parallel == serial,
retry converges to the fault-free result).

A :class:`FaultPlan` decides, per ``(cell, attempt)``, whether to
inject and which :data:`fault kind <FAULT_KINDS>`:

``crash``
    Raise :class:`InjectedCrash` — a clean worker exception that
    pickles back to the parent.
``hang``
    Sleep ``hang_s`` real seconds, then raise :class:`InjectedHang`.
    The sleep is finite so an un-timed-out sweep still terminates; with
    a per-cell ``timeout`` the parent gives up on the cell first.
``corrupt``
    Return :data:`CORRUPT_PAYLOAD` instead of a result; the executor's
    payload validation turns it into a retryable failure.
``die``
    Hard-kill the worker process with ``os._exit`` — the parent sees
    ``BrokenProcessPool`` and must rebuild the pool.  Downgraded to
    ``crash`` when not running in a child process, so in-process
    (serial) execution never kills the test runner.
``interrupt``
    Raise ``KeyboardInterrupt``, simulating Ctrl-C landing mid-sweep.

The decision hashes ``(plan seed, cell key material)`` — nothing about
process identity or wall time — and faults only fire while
``attempt <= max_failures``, so bounded retries deterministically
outlast transient faults.

Plans propagate to worker processes through the :data:`FAULTS_ENV`
environment variable (``install`` exports it; workers re-parse it on
first use), so the same schedule is active in every process of a sweep.
Example::

    REPRO_FAULTS="crash=0.3,hang=0.1,seed=42,max_failures=1,hang_s=0.2"

Production sweeps simply leave :data:`FAULTS_ENV` unset; the executor's
single ``active_plan()`` check is the only overhead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import time
from typing import Optional

#: Environment variable carrying the serialized fault plan into workers.
FAULTS_ENV = "REPRO_FAULTS"

#: Injectable fault kinds, in spec-string order.
FAULT_KINDS = ("crash", "hang", "corrupt", "die", "interrupt")

#: What a ``corrupt`` fault returns in place of a simulation result.
CORRUPT_PAYLOAD = "__repro_corrupt_payload__"


class InjectedFault(RuntimeError):
    """Base class for exceptions raised by injected faults."""


class InjectedCrash(InjectedFault):
    """A clean (picklable) worker crash."""


class InjectedHang(InjectedFault):
    """Raised after a ``hang`` fault finishes sleeping."""


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of worker faults.

    ``crash``/``hang``/``corrupt``/``die``/``interrupt`` are rates in
    ``[0, 1]``; their sum must not exceed 1.  Each cell draws one
    deterministic uniform from ``(seed, key material)`` and the rates
    partition ``[0, 1)`` in :data:`FAULT_KINDS` order, so raising one
    rate never reshuffles which cells another kind hits.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    die: float = 0.0
    interrupt: float = 0.0
    max_failures: int = 1
    """Faults fire only while ``attempt <= max_failures`` — the fault is
    *transient* and bounded retries outlast it.  Use a huge value for
    permanent faults."""
    hang_s: float = 0.5
    """How long a ``hang`` fault sleeps (real seconds)."""

    def __post_init__(self) -> None:
        rates = self.rates()
        if any(rate < 0.0 for rate in rates.values()):
            raise ValueError(f"fault rates must be >= 0: {rates}")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise ValueError(f"fault rates sum to more than 1: {rates}")
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if self.hang_s < 0:
            raise ValueError("hang_s must be >= 0")

    def rates(self) -> dict[str, float]:
        return {kind: getattr(self, kind) for kind in FAULT_KINDS}

    # -- the schedule ------------------------------------------------------

    def decide(self, key_material: str, attempt: int) -> Optional[str]:
        """The fault kind for this ``(cell, attempt)``, or ``None``.

        Deterministic in ``(self.seed, key_material)``; independent of
        process, wall clock, and jobs count.
        """
        if attempt > self.max_failures:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{key_material}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        edge = 0.0
        for kind, rate in self.rates().items():
            edge += rate
            if draw < edge:
                return kind
        return None

    # -- env round trip ----------------------------------------------------

    def to_spec(self) -> str:
        """The ``k=v,...`` spec string :func:`parse_spec` reads back."""
        parts = [f"{kind}={rate:g}" for kind, rate in self.rates().items() if rate]
        parts.append(f"seed={self.seed}")
        parts.append(f"max_failures={self.max_failures}")
        parts.append(f"hang_s={self.hang_s:g}")
        return ",".join(parts)


def parse_spec(spec: str) -> FaultPlan:
    """Parse a ``crash=0.3,seed=42``-style spec into a :class:`FaultPlan`."""
    fields: dict[str, object] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad fault spec item {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key in FAULT_KINDS or key == "hang_s":
            fields[key] = float(value)
        elif key in ("seed", "max_failures"):
            fields[key] = int(value)
        else:
            raise ValueError(
                f"unknown fault spec key {key!r}; known: "
                f"{', '.join(FAULT_KINDS)}, seed, max_failures, hang_s"
            )
    return FaultPlan(**fields)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Process-wide active plan
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
_PARSED_ENV: Optional[str] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` in this process *and* future worker processes.

    Exports the plan via :data:`FAULTS_ENV` so ``ProcessPoolExecutor``
    children (which inherit the environment) replay the same schedule.
    ``install(None)`` clears both.
    """
    global _ACTIVE, _PARSED_ENV
    _ACTIVE = plan
    if plan is None:
        os.environ.pop(FAULTS_ENV, None)
        _PARSED_ENV = None
    else:
        spec = plan.to_spec()
        os.environ[FAULTS_ENV] = spec
        _PARSED_ENV = spec


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect here: installed directly, or via the env."""
    global _ACTIVE, _PARSED_ENV
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        if _PARSED_ENV is not None:
            # Env cleared out from under us (e.g. by a parent install(None)
            # before fork); drop the stale parse.
            _ACTIVE, _PARSED_ENV = None, None
        return _ACTIVE
    if spec != _PARSED_ENV:
        _ACTIVE = parse_spec(spec)
        _PARSED_ENV = spec
    return _ACTIVE


def _in_child_process() -> bool:
    # Read, never imported: a process that has not loaded
    # multiprocessing cannot be one of its pool workers.
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def maybe_inject(key_material: str, attempt: int) -> Optional[str]:
    """Fire the scheduled fault for this cell attempt, if any.

    Raises for ``crash``/``hang``/``interrupt``, never returns for
    ``die`` (in a child process), and returns :data:`CORRUPT_PAYLOAD`
    for ``corrupt`` — the caller must pass that straight through as the
    worker's payload.  Returns ``None`` when no fault is scheduled.
    """
    plan = active_plan()
    if plan is None:
        return None
    kind = plan.decide(key_material, attempt)
    if kind is None:
        return None
    if kind == "die" and not _in_child_process():
        kind = "crash"  # never hard-kill the main (test/CLI) process
    if kind == "crash":
        raise InjectedCrash(f"injected crash for {key_material} attempt {attempt}")
    if kind == "hang":
        time.sleep(plan.hang_s)
        raise InjectedHang(
            f"injected hang ({plan.hang_s:g}s) for {key_material} "
            f"attempt {attempt}"
        )
    if kind == "interrupt":
        raise KeyboardInterrupt(
            f"injected interrupt for {key_material} attempt {attempt}"
        )
    if kind == "die":
        os._exit(13)
    return CORRUPT_PAYLOAD
