"""repro — reproduction of "Real-Time Transaction Scheduling: A Cost
Conscious Approach" (Hong, Johnson, Chakravarthy; SIGMOD 1993).

Quickstart::

    from repro import (
        CCAPolicy, EDFPolicy, RTDBSimulator, SimulationConfig,
        generate_workload,
    )

    config = SimulationConfig(arrival_rate=8.0, n_transactions=500)
    workload = generate_workload(config, seed=1)
    cca = RTDBSimulator(config, workload, CCAPolicy(1.0)).run()
    edf = RTDBSimulator(config, workload, EDFPolicy()).run()
    print(cca.miss_percent, edf.miss_percent)

Package map:

* :mod:`repro.sim` — discrete-event simulation kernel (SIMPACK stand-in);
* :mod:`repro.analysis` — transaction pre-analysis (trees, conflict and
  safety relations);
* :mod:`repro.rtdb` — database substrate (locks, disk, transactions);
* :mod:`repro.core` — priority policies, penalty of conflict, the
  scheduling procedures and the simulator;
* :mod:`repro.workload` — workload generation per the paper's tables;
* :mod:`repro.metrics` — seed averaging and improvement metrics;
* :mod:`repro.experiments` — one experiment per paper table/figure.

The names below resolve on first use (:mod:`repro._lazy`), so ``import
repro`` loads none of the modules behind them.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.config import SimulationConfig
    from repro.core.oracle import SetOracle, TreeOracle
    from repro.core.policy import (
        CCAPolicy,
        CriticalnessCCAPolicy,
        EDFPolicy,
        EDFWaitPolicy,
        EDFWPPolicy,
        FCFSPolicy,
        LSFPolicy,
        PriorityPolicy,
        make_policy,
    )
    from repro.core.simulator import RTDBSimulator, SimulationResult, TransactionRecord
    from repro.metrics.comparison import PolicyComparison, improvement_percent
    from repro.metrics.summary import RunSummary, summarize
    from repro.metrics.stats import (
        ConfidenceInterval,
        PairedTestResult,
        mean_confidence_interval,
        paired_t_test,
    )
    from repro.mp.simulator import MultiprocessorSimulator
    from repro.occ.simulator import OCCSimulator
    from repro.tracing import EventLog
    from repro.workload.generator import WorkloadGenerator, generate_workload
    from repro.workload.programs import TreeWorkloadGenerator
    from repro.workload.serialization import load_workload, save_workload

__version__ = "1.0.0"

__all__ = [
    "CCAPolicy",
    "ConfidenceInterval",
    "CriticalnessCCAPolicy",
    "EDFPolicy",
    "EDFWPPolicy",
    "EDFWaitPolicy",
    "EventLog",
    "FCFSPolicy",
    "LSFPolicy",
    "MultiprocessorSimulator",
    "OCCSimulator",
    "PairedTestResult",
    "PolicyComparison",
    "PriorityPolicy",
    "RTDBSimulator",
    "RunSummary",
    "SetOracle",
    "SimulationConfig",
    "SimulationResult",
    "TransactionRecord",
    "TreeOracle",
    "TreeWorkloadGenerator",
    "WorkloadGenerator",
    "generate_workload",
    "improvement_percent",
    "load_workload",
    "make_policy",
    "mean_confidence_interval",
    "paired_t_test",
    "save_workload",
    "summarize",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": ("SimulationConfig",),
    "repro.core.oracle": ("SetOracle", "TreeOracle"),
    "repro.core.policy": (
        "CCAPolicy", "CriticalnessCCAPolicy", "EDFPolicy", "EDFWaitPolicy", "EDFWPPolicy",
        "FCFSPolicy", "LSFPolicy", "PriorityPolicy", "make_policy",
    ),
    "repro.core.simulator": ("RTDBSimulator", "SimulationResult", "TransactionRecord"),
    "repro.metrics.comparison": ("PolicyComparison", "improvement_percent"),
    "repro.metrics.summary": ("RunSummary", "summarize"),
    "repro.metrics.stats": (
        "ConfidenceInterval", "PairedTestResult", "mean_confidence_interval", "paired_t_test",
    ),
    "repro.mp.simulator": ("MultiprocessorSimulator",),
    "repro.occ.simulator": ("OCCSimulator",),
    "repro.tracing": ("EventLog",),
    "repro.workload.generator": ("WorkloadGenerator", "generate_workload"),
    "repro.workload.programs": ("TreeWorkloadGenerator",),
    "repro.workload.serialization": ("load_workload", "save_workload"),
})
