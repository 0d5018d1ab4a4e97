"""Assemble complete workloads.

A workload is the full, immutable input of one simulated run: every
transaction's type, arrival time, operations (with their disk legs
pre-drawn) and deadline.  Generating it *before* simulation — rather than
drawing variates during the run — means the exact same workload can be
replayed under every policy, giving the paired EDF-vs-CCA comparisons the
paper's methodology implies (same seeds, same transactions).

Stream separation (see :class:`repro.sim.random.StreamFactory`) keeps the
type table, arrival process, type choices, slack draws and disk-access
coin flips independent, so e.g. changing the arrival rate does not
perturb the type table of the same seed.

Operations are built once per *program*, as the paper pre-analyzes
programs rather than instances: within one :meth:`~WorkloadGenerator.generate`
call, instances with the same type and the same disk legs share one
operations tuple (and its resource time), and equal operations are one
:class:`Operation` object.  Off disk no leg is ever drawn, so every
instance of a type shares its type's tuple.  Sharing changes no draw:
the disk-access coin is still flipped only for disk-resident workloads,
once per operation in operation order, and the resource time sums the
same terms in the same order, so workloads are bit-identical to
building every operation afresh.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.sim.random import StreamFactory, check_probability
from repro.workload.deadlines import assign_deadline
from repro.workload.arrivals import bursty_arrivals, poisson_arrivals
from repro.workload.types import TransactionType, make_type_table


class WorkloadGenerator:
    """Generates the paper's workload for one (config, seed) pair."""

    def __init__(self, config: SimulationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self._factory = StreamFactory(seed)

    def make_types(self) -> list[TransactionType]:
        """The per-run transaction type table."""
        return make_type_table(self.config, self._factory.stream("types"))

    def generate(self) -> list[TransactionSpec]:
        """The full workload: ``config.n_transactions`` transaction specs,
        ordered by arrival time."""
        config = self.config
        types = self.make_types()
        arrival_stream = self._factory.stream("arrivals")
        choice_stream = self._factory.stream("type-choice")
        slack_stream = self._factory.stream("slack")
        io_stream = self._factory.stream("disk-io")
        # Disk-leg coins: io_stream.coin's draw, validated once here.
        disk_prob = check_probability(config.disk_access_prob)
        io_draw = io_stream.random
        criticalness_stream = self._factory.stream("criticalness")

        if config.arrival_model == "bursty":
            arrivals = bursty_arrivals(
                arrival_stream,
                config.arrival_rate,
                config.n_transactions,
                burst_factor=config.burst_factor,
                burst_fraction=config.burst_fraction,
                mean_burst_ms=config.mean_burst_ms,
            )
        else:
            arrivals = poisson_arrivals(
                arrival_stream, config.arrival_rate, config.n_transactions
            )
        # (type_id, legs) -> (operations, resource_time); ``legs`` has bit
        # k set iff operation k draws a disk leg (always 0 off disk).
        programs: dict[tuple[int, int], tuple[tuple[Operation, ...], float]] = {}
        interned: dict[tuple[int, float, float, bool], Operation] = {}
        specs: list[TransactionSpec] = []
        for tid, arrival_time in enumerate(arrivals):
            tx_type = choice_stream.choice(types)
            legs = 0
            if config.disk_resident:
                for k in range(len(tx_type.items)):
                    if io_draw() < disk_prob:
                        legs |= 1 << k
            program = programs.get((tx_type.type_id, legs))
            if program is None:
                ops = []
                for k, (item, is_write) in enumerate(
                    zip(tx_type.items, tx_type.write_flags)
                ):
                    fields = (
                        item,
                        tx_type.compute_per_update,
                        config.disk_access_time if legs >> k & 1 else 0.0,
                        is_write,
                    )
                    op = interned.get(fields)
                    if op is None:
                        op = interned[fields] = Operation(*fields)
                    ops.append(op)
                program = programs[tx_type.type_id, legs] = (
                    tuple(ops),
                    sum(op.compute_time + op.io_time for op in ops),
                )
            operations, resource_time = program
            deadline = assign_deadline(
                arrival_time,
                resource_time,
                slack_stream,
                config.min_slack,
                config.max_slack,
            )
            criticalness = (
                criticalness_stream.randint(0, config.criticalness_levels - 1)
                if config.criticalness_levels > 1
                else 0
            )
            specs.append(
                TransactionSpec(
                    tid=tid,
                    type_id=tx_type.type_id,
                    arrival_time=arrival_time,
                    deadline=deadline,
                    operations=operations,
                    program_name=tx_type.program_name,
                    criticalness=criticalness,
                )
            )
        return specs


def generate_workload(config: SimulationConfig, seed: int) -> list[TransactionSpec]:
    """Convenience wrapper: one call, one workload."""
    return WorkloadGenerator(config, seed).generate()
