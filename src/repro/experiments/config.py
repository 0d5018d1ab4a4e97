"""Base parameter sets (paper Tables 1 and 2) and run scaling.

``MAIN_MEMORY_BASE`` is Table 1; ``DISK_BASE`` is Table 2.  The paper
averages 10 seeds x 1000 transactions (main memory) and 30 seeds x 300
transactions (disk); that is the ``full`` scale.  Because full-scale
sweeps take minutes, the harness also offers ``default`` (a faithful but
lighter sampling) and ``quick`` (CI-sized) scales, selected with the
``REPRO_SCALE`` environment variable or per call.

The base database size is the tables' literal 30 items: with ~20 updates
per transaction on a 30-item database essentially every pair of
transactions conflicts, which is the deliberately extreme data-contention
regime in which the paper's improvement magnitudes (up to ~30 %/~20 % on
main memory, ~95 %/~40 % on disk) reproduce; Figures 4f and 5e then relax
contention by sweeping the size up to 1000/600.  See DESIGN.md §6.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Optional

from repro.config import SimulationConfig

#: Table 1 — base parameters, main memory resident database.
MAIN_MEMORY_BASE = SimulationConfig(
    n_transaction_types=50,
    updates_mean=20.0,
    updates_std=10.0,
    compute_per_update=4.0,
    db_size=30,
    min_slack=0.2,
    max_slack=8.0,
    abort_cost=4.0,
    penalty_weight=1.0,
    disk_resident=False,
    n_transactions=1000,
    arrival_rate=5.0,
)

#: Table 2 — base parameters, disk resident database.
DISK_BASE = MAIN_MEMORY_BASE.replace(
    disk_resident=True,
    abort_cost=5.0,
    disk_access_time=25.0,
    disk_access_prob=0.1,
    n_transactions=300,
)

#: The paper's seed counts.
MAIN_MEMORY_SEEDS: tuple[int, ...] = tuple(range(1, 11))
DISK_SEEDS: tuple[int, ...] = tuple(range(1, 31))


#: The names ``ExperimentScale.named`` accepts, smallest first.
SCALE_NAMES = ("quick", "default", "full")


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """How big to run an experiment.

    ``transactions_factor`` scales each run's transaction count and
    ``n_seeds_*`` the seed lists; ``full`` reproduces the paper exactly.
    """

    name: str
    n_seeds_main_memory: int
    n_seeds_disk: int
    transactions_factor: float

    @classmethod
    def full(cls) -> "ExperimentScale":
        return cls("full", 10, 30, 1.0)

    @classmethod
    def default(cls) -> "ExperimentScale":
        return cls("default", 5, 10, 0.5)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        return cls("quick", 3, 4, 0.25)

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Scale named by ``REPRO_SCALE`` (default: ``default``).

        ``REPRO_FULL=1`` is accepted as an alias for
        ``REPRO_SCALE=full``.
        """
        if os.environ.get("REPRO_FULL") == "1":
            return cls.full()
        name = os.environ.get("REPRO_SCALE", "default").strip().lower()
        if name not in SCALE_NAMES:
            raise ValueError(
                f"REPRO_SCALE must be one of {sorted(SCALE_NAMES)}, got {name!r}"
            )
        return cls.named(name)

    @classmethod
    def named(cls, name: Optional[str]) -> "ExperimentScale":
        """The scale called ``name``; ``None`` defers to :meth:`from_env`."""
        if name is None:
            return cls.from_env()
        return {"full": cls.full, "default": cls.default, "quick": cls.quick}[name]()

    def seeds_for(self, config: SimulationConfig) -> tuple[int, ...]:
        if config.disk_resident:
            return DISK_SEEDS[: self.n_seeds_disk]
        return MAIN_MEMORY_SEEDS[: self.n_seeds_main_memory]

    def scale_config(self, config: SimulationConfig) -> SimulationConfig:
        """Shrink a run's transaction count for sub-full scales."""
        n = max(50, int(round(config.n_transactions * self.transactions_factor)))
        return config.replace(n_transactions=n)
