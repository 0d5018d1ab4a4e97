"""Workload generation (paper Sections 4 and 5, Tables 1 and 2).

Transactions enter the system in a Poisson process; each is an instance
of one of 50 transaction types; a type updates a normally distributed
number of items chosen uniformly from the database; deadlines add a
uniformly chosen slack fraction on top of the resource time:

    deadline = arrival_time + resource_time * (1 + slack_percent)

Modules:

* :mod:`repro.workload.types` — per-run transaction type tables;
* :mod:`repro.workload.arrivals` — the Poisson arrival process;
* :mod:`repro.workload.deadlines` — the slack-based deadline model;
* :mod:`repro.workload.generator` — assembles full workloads
  (:class:`~repro.rtdb.transaction.TransactionSpec` lists);
* :mod:`repro.workload.programs` — tree programs with decision points
  for the conditional-conflict extension experiments.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workload.arrivals import bursty_arrivals, poisson_arrivals
    from repro.workload.deadlines import assign_deadline
    from repro.workload.generator import WorkloadGenerator, generate_workload
    from repro.workload.programs import TreeWorkloadGenerator
    from repro.workload.serialization import load_workload, save_workload
    from repro.workload.types import TransactionType, make_type_table

__all__ = [
    "TransactionType",
    "TreeWorkloadGenerator",
    "WorkloadGenerator",
    "assign_deadline",
    "bursty_arrivals",
    "generate_workload",
    "load_workload",
    "make_type_table",
    "poisson_arrivals",
    "save_workload",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workload.arrivals": ("bursty_arrivals", "poisson_arrivals"),
    "repro.workload.deadlines": ("assign_deadline",),
    "repro.workload.generator": ("WorkloadGenerator", "generate_workload"),
    "repro.workload.programs": ("TreeWorkloadGenerator",),
    "repro.workload.serialization": ("load_workload", "save_workload"),
    "repro.workload.types": ("TransactionType", "make_type_table"),
})
