"""Bounded exhaustive model checking of the scheduler (``repro mc``).

The fifth validation layer (docs/CHECKS.md): where the sanitizer checks
the one schedule the deterministic engine produces, the model checker
re-runs the *real* engine under a scripted decider that branches on
every genuine nondeterminism point — equal-priority ties, simultaneous
calendar events, disk-queue ties, ``IOwait-schedule`` candidate ties —
and proves the paper's Theorems 1-2 plus structural safety/liveness
invariants over **all** reachable schedules of small workloads, with
conflict-based partial-order reduction and minimal replayable
counterexamples on failure.
"""

from repro.modelcheck.controlled import ControlledSimulator, ModelCheckViolation
from repro.modelcheck.decider import (
    ChoiceRecord,
    Option,
    ReplayDivergence,
    ScriptedDecider,
)
from repro.modelcheck.explorer import (
    Counterexample,
    Exploration,
    ScheduleRun,
    ViolationInfo,
    explore,
    run_schedule,
)
from repro.modelcheck.mutants import MutantSpec, all_mutants, get_mutant
from repro.modelcheck.rules import RTS_TO_MC
from repro.modelcheck.workloads import (
    ALL_MC_POLICIES,
    WorkloadCase,
    all_cases,
    get_case,
)

__all__ = [
    "ALL_MC_POLICIES",
    "ChoiceRecord",
    "ControlledSimulator",
    "Counterexample",
    "Exploration",
    "ModelCheckViolation",
    "MutantSpec",
    "Option",
    "ReplayDivergence",
    "RTS_TO_MC",
    "ScheduleRun",
    "ScriptedDecider",
    "ViolationInfo",
    "WorkloadCase",
    "all_cases",
    "all_mutants",
    "explore",
    "get_case",
    "get_mutant",
    "run_schedule",
]
