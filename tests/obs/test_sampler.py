"""Time-series sampler: a trace-stream fold on both engines, export.

Every test runs the sampler on the reference engine and on the kernel
(``trace=`` keeps the kernel under ``engine="auto"``); the two engines
emit the same trace stream, so they must produce the same samples.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from repro.config import SimulationConfig
from repro.core.factory import make_simulator
from repro.core.kernel import KernelSimulator
from repro.core.policy import CCAPolicy, EDFPolicy, EDFWPPolicy
from repro.core.simulator import RTDBSimulator
from repro.obs.hooks import fanout
from repro.obs.sampler import SAMPLE_FIELDS, Sample, TimeSeriesSampler
from repro.rtdb.transaction import Operation, TransactionSpec
from repro.tracing import EventLog
from repro.workload.generator import generate_workload

ENGINES = {"reference": RTDBSimulator, "kernel": KernelSimulator}

DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "sampler_digests.json").read_text()
)["runs"]

POLICIES = {"EDF-HP": EDFPolicy, "CCA": CCAPolicy, "EDF-WP": EDFWPPolicy}


def config(engine: str = "auto", **overrides) -> SimulationConfig:
    defaults = dict(
        n_transaction_types=5,
        updates_mean=4.0,
        updates_std=2.0,
        db_size=40,
        abort_cost=4.0,
        n_transactions=40,
        arrival_rate=8.0,
    )
    defaults.update(overrides)
    return SimulationConfig(engine=engine, **defaults)


def run_sampled(engine: str, interval: float = 50.0, seed: int = 3):
    cfg = config(engine)
    sampler = TimeSeriesSampler(interval=interval)
    simulator = make_simulator(
        cfg, generate_workload(cfg, seed), EDFPolicy(), trace=sampler
    )
    assert type(simulator) is ENGINES[engine]
    return sampler, simulator.run()


class TestSampling:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(interval=0.0)

    def test_samples_land_on_the_interval_grid(self):
        for engine in ENGINES:
            sampler, result = run_sampled(engine, interval=50.0)
            assert len(sampler) > 0
            for index, sample in enumerate(sampler):
                assert sample.time == pytest.approx(50.0 * (index + 1))

    def test_sampling_never_extends_the_run(self):
        cfg = config()
        workload = generate_workload(cfg, seed=3)
        bare = RTDBSimulator(cfg, list(workload), EDFPolicy()).run()
        for engine in ENGINES:
            sampler, sampled = run_sampled(engine, interval=50.0)
            assert sampled == bare
            assert all(sample.time < bare.makespan for sample in sampler)

    def test_snapshot_fields_are_consistent(self):
        for engine in ENGINES:
            sampler, result = run_sampled(engine)
            for sample in sampler:
                waiting = sample.ready + sample.lock_waiting + sample.io_waiting
                assert sample.live == waiting + sample.running
                assert sample.running in (0, 1)
                assert sample.plist_size <= sample.live
                assert 0.0 <= sample.cpu_utilization <= 1.0
                assert sample.committed <= result.n_committed
            # Cumulative series never decrease.
            for earlier, later in zip(sampler.samples, sampler.samples[1:]):
                assert later.committed >= earlier.committed
                assert later.restarts >= earlier.restarts

    def test_attach_is_single_use(self):
        for engine in ENGINES:
            cfg = config(engine, n_transactions=5)
            sampler = TimeSeriesSampler()
            make_simulator(
                cfg, generate_workload(cfg, 1), EDFPolicy(), trace=sampler
            ).run()
            with pytest.raises(RuntimeError, match="exactly one run"):
                make_simulator(
                    cfg, generate_workload(cfg, 2), EDFPolicy(), trace=sampler
                ).run()

    def test_composes_with_another_hook_through_fanout(self):
        for engine in ENGINES:
            alone, _ = run_sampled(engine)
            cfg = config(engine)
            log = EventLog()
            sampler = TimeSeriesSampler(interval=50.0)
            make_simulator(
                cfg,
                generate_workload(cfg, 3),
                EDFPolicy(),
                trace=fanout(log, sampler),
            ).run()
            assert sampler.samples == alone.samples
            assert len(log) > 0


def csv_sha256(sampler: TimeSeriesSampler, tmp_path: Path) -> str:
    return hashlib.sha256(sampler.to_csv(tmp_path / "s.csv").read_bytes()).hexdigest()


class TestRecordedDigests:
    """Samples match the daemon-event sampler's, recorded before the
    sampler became a trace hook (``data/sampler_digests.json``)."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_csv_matches_the_recorded_digest(self, name, engine, tmp_path):
        record = DIGESTS[name]
        cfg = SimulationConfig(engine=engine, **record["config"])
        sampler = TimeSeriesSampler(interval=record["interval"])
        simulator = make_simulator(
            cfg,
            generate_workload(cfg, record["seed"]),
            POLICIES[record["policy"]](),
            trace=sampler,
        )
        assert type(simulator) is ENGINES[engine]
        simulator.run()
        # Firm runs may end on deadline timers that emit no trace; the
        # fold's series stops at the last trace event (traced_*).
        expected = record.get("traced_samples", record["samples"])
        assert len(sampler) == expected
        assert csv_sha256(sampler, tmp_path) == record.get(
            "traced_sha256", record["sha256"]
        )


class TestBoundaries:
    """Integer times with events exactly on sampling boundaries: the
    sample at ``b`` sees every event at or before ``b``."""

    WORKLOAD = (
        # Runs 0..10: commits exactly on the first boundary.
        TransactionSpec(0, 0, 0.0, 100.0, (Operation(0, 10.0),)),
        # Arrives (and is dispatched) exactly on the second boundary.
        TransactionSpec(1, 0, 20.0, 100.0, (Operation(1, 5.0),)),
        # Arrives on the third; commits at 40, the run's last event.
        TransactionSpec(2, 0, 30.0, 100.0, (Operation(2, 10.0),)),
    )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_sample_at_a_boundary_sees_the_events_at_it(self, engine):
        cfg = SimulationConfig(n_transaction_types=1, db_size=4, engine=engine)
        sampler = TimeSeriesSampler(interval=10.0)
        result = make_simulator(
            cfg, list(self.WORKLOAD), EDFPolicy(), trace=sampler
        ).run()
        assert result.makespan == 40.0

        def sample(time, live, running, plist, util, committed):
            return Sample(time, live, 0, running, 0, 0, plist, util, 0, committed, 0)

        # No sample at 40: it would need an event after the run's last.
        assert sampler.samples == [
            sample(10.0, live=0, running=0, plist=0, util=1.0, committed=1),
            sample(20.0, live=1, running=1, plist=1, util=0.5, committed=1),
            sample(30.0, live=1, running=1, plist=1, util=0.5, committed=2),
        ]


class TestExport:
    def test_csv_roundtrip_creates_parents(self, tmp_path):
        for engine in ENGINES:
            sampler, _ = run_sampled(engine)
            path = sampler.to_csv(tmp_path / engine / "deep" / "queues.csv")
            assert path.exists()
            with open(path, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == list(SAMPLE_FIELDS)
            assert len(rows) == len(sampler) + 1

    def test_jsonl_roundtrip(self, tmp_path):
        for engine in ENGINES:
            sampler, _ = run_sampled(engine)
            path = sampler.to_jsonl(tmp_path / engine / "queues.jsonl")
            lines = path.read_text().splitlines()
            assert len(lines) == len(sampler)
            first = json.loads(lines[0])
            assert set(first) == set(SAMPLE_FIELDS)
