"""The four benchmark workloads and how each one drives the program.

Every workload is driven through a public entry point only:

* the three sweeps call ``repro.experiments.runner.sweep`` on the cell
  grid of a paper figure (``figures.MM_RATE_SWEEP`` and friends);
* ``ext-occ`` calls ``EXTENSION_EXPERIMENTS["ext-occ"](scale)`` under
  ``parallel.execution(...)``, so that ``jobs``/``cache`` take effect
  the day the extension is routed through the executor.

The benchmark seed reaches the program only as the seed list of a
:class:`SeededScale`, the ``ExperimentScale`` every entry point already
accepts.  Seed ``s`` runs the RNG seeds ``1000*s + 1 ...``, so seed 0
(:data:`DEFAULT_SEED`) replays the paper's own seed lists and different
benchmark seeds never share a workload.

This module also enumerates each workload's cells one by one
(:func:`check_cells`), reads back the cells a pass computed
(:class:`PassCells`), rebuilds the entry point's output from them
(:func:`expected_groups`) and computes a cell on a second engine
(:func:`reference_result`, :func:`other_engine_result`); the output
check in ``worker.py`` and ``run.py`` uses them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Optional

from repro.config import SimulationConfig
from repro.core.kernel import KernelSimulator
from repro.core.policy import make_policy
from repro.core.simulator import RTDBSimulator, SimulationResult
from repro.experiments import figures
from repro.experiments.cache import ResultCache, cache_key, result_from_dict, result_to_dict
from repro.experiments.config import MAIN_MEMORY_BASE, ExperimentScale
from repro.experiments.extensions import EXTENSION_EXPERIMENTS
from repro.experiments.parallel import execution, simulate_cell
from repro.experiments.runner import sweep
from repro.metrics.summary import summarize
from repro.obs.registry import MetricsRegistry
from repro.occ.simulator import OCCSimulator
from repro.workload.generator import generate_workload
from spans import rebind

#: The baseline seed; its per-cell digests are recorded in
#: ``expected_digests.json``.  Seed 1 is the documented hold-out seed.
DEFAULT_SEED = 0

SIZES = ("bench", "tiny")

#: ext-occ replays each workload under these engines (policy names as
#: its FigureResult series names them).
OCC_SERIES = ("EDF-HP", "CCA", "OCC")


@dataclasses.dataclass(frozen=True)
class SeededScale(ExperimentScale):
    """An ``ExperimentScale`` whose seed lists start at the benchmark seed."""

    base_seed: int = DEFAULT_SEED

    def seeds_for(self, config: SimulationConfig) -> tuple[int, ...]:
        count = self.n_seeds_disk if config.disk_resident else self.n_seeds_main_memory
        first = 1000 * self.base_seed + 1
        return tuple(range(first, first + count))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    sweep: Optional[figures.SweepSpec]
    """The paper sweep this workload runs; ``None`` for ext-occ."""
    n_seeds: int
    transactions_factor: float

    def scale(self, seed: int, size: str) -> SeededScale:
        if size == "tiny":
            return SeededScale("perfbench-tiny", 1, 1, 0.05, base_seed=seed)
        return SeededScale(
            "perfbench", self.n_seeds, self.n_seeds, self.transactions_factor,
            base_seed=seed,
        )

    def configs(self, seed: int, size: str) -> dict[float, SimulationConfig]:
        """Axis point -> config, exactly as the figure builds them."""
        if self.sweep is None:
            base = self.scale(seed, size).scale_config(
                MAIN_MEMORY_BASE.replace(arrival_rate=9.0)
            )
            configs = {0.0: base, 1.0: base.replace(firm_deadlines=True)}
        else:
            configs = self.sweep.configs(self.scale(seed, size))
        if size == "tiny":
            configs = dict(list(configs.items())[:2])
        return configs

    def policies(self) -> tuple[str, ...]:
        return OCC_SERIES if self.sweep is None else self.sweep.policies

    def seeds(self, seed: int, size: str) -> tuple[int, ...]:
        config = next(iter(self.configs(seed, size).values()))
        return self.scale(seed, size).seeds_for(config)

    def run(
        self,
        seed: int,
        size: str,
        jobs: int,
        cache: Optional[ResultCache],
        metrics: Optional[MetricsRegistry] = None,
    ):
        """One pass through the workload's public entry point."""
        if self.sweep is None:
            with execution(jobs=jobs, cache=cache, metrics=metrics):
                return EXTENSION_EXPERIMENTS["ext-occ"](self.scale(seed, size))
        return sweep(
            self.configs(seed, size),
            self.seeds(seed, size),
            self.sweep.policies,
            jobs=jobs,
            cache=cache,
            metrics=metrics,
        )

    def output_groups(self, output) -> dict[str, str]:
        """Digest of every output group a pass returned.

        A group is one (x, policy) summary of a sweep, or one point of
        an ext-occ series; its cells are the seeds behind it.
        """
        if self.sweep is None:
            return {
                group_id(x, name): digest(value)
                for name, points in output.series.items()
                for x, value in points
            }
        return {
            group_id(x, policy): digest(dataclasses.asdict(summary))
            for x, per_policy in output.items()
            for policy, summary in per_policy.items()
        }


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Why each workload is here: BENCHMARK.json and README.md.
        Workload("mm-rate", figures.MM_RATE_SWEEP, 3, 0.25),
        Workload("mm-dbsize", figures.MM_DBSIZE_SWEEP, 3, 0.25),
        Workload("disk-rate", figures.DISK_RATE_SWEEP, 8, 0.25),
        Workload("ext-occ", None, 3, 0.25),
    )
}


def digest(value) -> str:
    """SHA-256 of a JSON-ready value (floats keep every digit)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def group_id(x: float, policy: str) -> str:
    return f"x={x!r}|{policy}"


def cell_id(workload: str, x: float, policy: str, seed: int, n: int) -> str:
    return f"{workload}|x={x!r}|{policy}|seed={seed}|n={n}"


@dataclasses.dataclass(frozen=True)
class CheckCell:
    id: str
    group: str
    policy: str
    seed: int
    config: SimulationConfig
    key: str
    """The cell's result-cache key (OCC cells are keyed the same way)."""


def check_cells(workload: Workload, seed: int, size: str) -> list[CheckCell]:
    """Every cell of one pass, in the order the entry point merges them."""
    cells = []
    for x, config in workload.configs(seed, size).items():
        for policy in workload.policies():
            for cell_seed in workload.seeds(seed, size):
                cells.append(
                    CheckCell(
                        cell_id(workload.name, x, policy, cell_seed, config.n_transactions),
                        group_id(x, policy), policy, cell_seed, config,
                        cache_key(config, cell_seed, policy),
                    )
                )
    return cells


class PassCells:
    """The cell results one pass computed, read back after the pass.

    Sweep cells are read from the pass's private result cache, whose
    entries hold each cell's full ``result_to_dict``.  ext-occ has no
    cache, so for it the engines' ``run`` methods and
    ``generate_workload`` are wrapped to keep each result with the
    (config, seed) it was run on; a pass pays one extra call per cell
    for that, and the results are digested only after the pass.
    """

    def __init__(self, collect: bool) -> None:
        self.collected: dict[str, SimulationResult] = {}
        self._workload_key: Optional[tuple] = None
        if collect:
            rebind(generate_workload, self._noting_workload(generate_workload))
            for cls, label in ((KernelSimulator, None), (RTDBSimulator, None),
                               (OCCSimulator, "OCC")):
                cls.run = self._keeping_result(cls.run, label)

    def _noting_workload(self, fn):
        def generate(config, seed):
            self._workload_key = (config, seed)
            return fn(config, seed)

        return generate

    def _keeping_result(self, run, label: Optional[str]):
        def kept(engine):
            result = run(engine)
            config, seed = self._workload_key
            self.collected[cache_key(config, seed, label or result.policy_name)] = result
            return result

        return kept

    def start(self) -> None:
        self.collected = {}

    def read(
        self, cells: list[CheckCell], cache: Optional[ResultCache]
    ) -> tuple[dict[str, SimulationResult], list[str]]:
        """Cell id -> result, and problems (entries no cell owns)."""
        by_key = {cell.key: cell for cell in cells}
        results: dict[str, SimulationResult] = {}
        problems = []
        entries = sorted(cache.root.rglob("*.json")) if cache is not None else []
        for path in entries:
            entry = json.loads(path.read_text())
            cell = by_key.get(entry["key"])
            if cell is None:
                problems.append(f"cache entry {path.name} belongs to no cell")
                continue
            results[cell.id] = result_from_dict(entry["result"])
        for key, result in self.collected.items():
            cell = by_key.get(key)
            if cell is None:
                problems.append(f"a {result.policy_name} run belongs to no cell")
            elif cell.id in results and results[cell.id] != result:
                problems.append(f"cell {cell.id}: cache entry and run differ")
            else:
                results[cell.id] = result
        return results, problems


def expected_groups(
    workload: Workload, cells: list[CheckCell], results: dict[str, SimulationResult]
) -> dict[str, str]:
    """What :meth:`Workload.output_groups` must return, rebuilt from the
    cells' results (groups with a missing cell are left out)."""
    by_group: dict[str, list[SimulationResult]] = {}
    missing = set()
    for cell in cells:
        if cell.id in results:
            by_group.setdefault(cell.group, []).append(results[cell.id])
        else:
            missing.add(cell.group)
    if workload.sweep is None:
        # ext_occ: mean miss-or-drop percent over seeds, summed in order.
        return {
            group: digest(sum(r.miss_or_drop_percent for r in runs) / len(runs))
            for group, runs in by_group.items()
            if group not in missing
        }
    return {
        group: digest(dataclasses.asdict(summarize(runs)))
        for group, runs in by_group.items()
        if group not in missing
    }


def result_digest(result: SimulationResult) -> str:
    """Digest of a cell's full result, per-transaction records included."""
    return digest(result_to_dict(result))


def reference_result(cell: CheckCell) -> SimulationResult:
    """The cell on the reference engine; OCC cells on the OCC engine,
    as ext-occ runs them."""
    if cell.policy == "OCC":
        specs = generate_workload(cell.config, cell.seed)
        return OCCSimulator(cell.config, specs, make_policy("EDF-HP")).run()
    return simulate_cell(cell.config.replace(engine="reference"), cell.seed, cell.policy)


def other_engine_result(workload: Workload, cell: CheckCell) -> Optional[SimulationResult]:
    """The cell on the engine the workload does not run it on: the
    reference engine for sweep cells, the kernel for ext-occ's locking
    cells.  OCC cells have no second engine (``None``)."""
    if cell.policy == "OCC":
        return None
    engine = "reference" if workload.sweep is not None else "kernel"
    return simulate_cell(cell.config.replace(engine=engine), cell.seed, cell.policy)
