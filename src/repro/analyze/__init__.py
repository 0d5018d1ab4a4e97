"""Static workload analysis: the fourth layer of the checks stack.

``repro analyze`` inspects a workload and the conflict model *without
simulating*:

* the **equivalence prover** (:mod:`repro.analyze.equivalence`)
  exhaustively checks the kernel's flat tables
  (:class:`~repro.core.masks.SpecMasks`,
  :class:`~repro.core.masks.StateTable`) against the reference
  relations (:mod:`repro.analysis.relations`,
  :mod:`repro.core.oracle`) over every transaction pair and every
  reachable access state, emitting a minimal counterexample on
  mismatch;
* the **conflict-graph analyzer** (:mod:`repro.analyze.graph`) computes
  the workload's static contention structure — conflict /
  conditional / unsafe pair fractions, degree distribution, maximal
  compatible sets, Theorem-1 applicability;
* the **feasibility pass** (:mod:`repro.analyze.feasibility`) bounds
  per-transaction execution time against deadline slack and predicts
  each sweep cell's contention regime, recorded in the run manifest's
  schema-v6 ``analysis`` section and rendered against observed metrics
  by ``repro validate``.

The verdicts carry stable ``ANAnnn`` codes (:mod:`repro.analyze.rules`)
and the CLI follows the shared ``repro lint``/``repro certify``
contract: exit 0 when every verdict passes, 1 on any failure, 2 on
usage errors.  See ``docs/ANALYZE.md``.
"""

from repro.analyze.runner import AnalysisResult, Verdict, analyze_experiment

__all__ = [
    "AnalysisResult",
    "Verdict",
    "analyze_experiment",
]
