"""Transaction type tables.

Every transaction executed by the system is an instance of one of
``n_transaction_types`` types (paper: 50).  A type fixes the items its
instances update and the CPU time per update; the paper regenerates the
table for every run (seed), which this module does too.

The paper chooses "the actual database items ... uniformly from the range
of database size".  We sample each type's items *without replacement*:
updating the same item twice within one transaction would just be a
re-access of an already-held lock, thinning the effective update count.
When a type's update count exceeds the database size it is capped (only
reachable in stress tests with tiny databases).
"""

from __future__ import annotations

import dataclasses

from repro.config import SimulationConfig
from repro.sim.random import RandomStream, check_probability


@dataclasses.dataclass(frozen=True)
class TransactionType:
    """One pre-analyzed transaction type.

    ``write_flags`` marks which accesses take write locks; empty means
    all of them (the paper's write-only setting).
    """

    type_id: int
    items: tuple[int, ...]
    compute_per_update: float
    write_flags: tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("a transaction type must update at least one item")
        if len(set(self.items)) != len(self.items):
            raise ValueError("transaction type items must be distinct")
        if self.compute_per_update <= 0:
            raise ValueError("compute per update must be positive")
        if not self.write_flags:
            object.__setattr__(self, "write_flags", (True,) * len(self.items))
        elif len(self.write_flags) != len(self.items):
            raise ValueError("write_flags must match items in length")

    @property
    def n_updates(self) -> int:
        return len(self.items)

    @property
    def program_name(self) -> str:
        return f"type{self.type_id}"

    @property
    def cpu_time(self) -> float:
        """Isolated CPU demand of one instance."""
        return self.n_updates * self.compute_per_update


def make_type_table(
    config: SimulationConfig, stream: RandomStream
) -> list[TransactionType]:
    """Generate the per-run transaction type table.

    Update counts are N(updates_mean, updates_std) truncated below at 1
    and above at the database size; per-update compute time comes from
    ``config.compute_time_for_type`` (constant, or the high-variance
    class assignment of Section 4.2).
    """
    table: list[TransactionType] = []
    read_fraction = check_probability(config.read_fraction)
    draw = stream.random
    for type_id in range(config.n_transaction_types):
        n_updates = stream.positive_int_normal(config.updates_mean, config.updates_std)
        n_updates = min(n_updates, config.db_size)
        items = stream.sample_without_replacement(config.db_size, n_updates)
        # One coin per item, as stream.coin(read_fraction) would flip it.
        write_flags = tuple(not (draw() < read_fraction) for _ in items)
        table.append(
            TransactionType(
                type_id=type_id,
                items=tuple(items),
                compute_per_update=config.compute_time_for_type(type_id),
                write_flags=write_flags,
            )
        )
    return table
