"""On-disk result cache: key sensitivity and corruption tolerance.

The cache key must change when *anything* that could change a result
changes — every configuration field, the seed, the policy name, and the
serialization schema version.  Damaged entries must be discarded and
recomputed, never crashed on or served.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.config import SimulationConfig
from repro.core.simulator import SimulationResult, TransactionRecord
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    ResultCache,
    cache_key,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.parallel import simulate_cell

BASE = SimulationConfig()

#: A valid alternative value for every SimulationConfig field (fields
#: whose generic tweak below would violate validation).
_SPECIAL_TWEAKS = {
    "update_time_classes": (0.4, 4.0, 40.0),
    "read_fraction": 0.5,
    "disk_scheduling": "priority",
    "arrival_model": "bursty",
    "disk_access_prob": 0.7,
    "engine": "reference",
}


def _tweaked(field: dataclasses.Field):
    """A different-but-valid value for one config field."""
    if field.name in _SPECIAL_TWEAKS:
        return _SPECIAL_TWEAKS[field.name]
    value = getattr(BASE, field.name)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    raise AssertionError(
        f"no tweak rule for field {field.name!r}; extend _SPECIAL_TWEAKS"
    )


class TestCacheKey:
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(SimulationConfig)]
    )
    def test_every_config_field_changes_the_key(self, field):
        changed = BASE.replace(
            **{field: _tweaked(SimulationConfig.__dataclass_fields__[field])}
        )
        assert cache_key(BASE, 1, "CCA") != cache_key(changed, 1, "CCA")

    def test_seed_changes_the_key(self):
        assert cache_key(BASE, 1, "CCA") != cache_key(BASE, 2, "CCA")

    def test_policy_name_changes_the_key(self):
        assert cache_key(BASE, 1, "CCA") != cache_key(BASE, 1, "EDF-HP")

    def test_schema_version_changes_the_key(self):
        assert cache_key(BASE, 1, "CCA") != cache_key(
            BASE, 1, "CCA", schema_version=cache_mod.SCHEMA_VERSION + 1
        )

    def test_key_is_stable(self):
        assert cache_key(BASE, 1, "CCA") == cache_key(
            SimulationConfig(), 1, "CCA"
        )


@pytest.fixture
def small_config(mm_config):
    return mm_config.replace(n_transactions=20)


@pytest.fixture
def result(small_config):
    return simulate_cell(small_config, seed=3, policy_name="CCA")


class TestSerialization:
    def test_round_trip_is_identical(self, result):
        assert result_from_dict(result_to_dict(result)) == result

    def test_round_trip_through_json_text(self, result):
        text = json.dumps(result_to_dict(result))
        assert result_from_dict(json.loads(text)) == result


#: A hand-built result whose floats exercise the encoder's shortest-repr
#: path (thirds, exponents, near-integers).
PINNED_RESULT = SimulationResult(
    policy_name="OCC-EDF-HP",
    n_committed=2,
    n_missed=1,
    total_restarts=3,
    makespan=123.456,
    cpu_utilization=1 / 3,
    disk_utilization=0.0,
    mean_plist_size=1e-07,
    records=(
        TransactionRecord(
            tid=0, type_id=4, arrival_time=0.1, deadline=50.25,
            commit_time=49.99999999999999, restarts=0,
        ),
        TransactionRecord(
            tid=1, type_id=2, arrival_time=2.5, deadline=3.0,
            commit_time=123.456, restarts=3,
        ),
    ),
    n_dropped=0,
)

PINNED_KEY = "91f9a2b82eb65b1a0d07dbe354db37d8aaff9c3e3f9b55e004874e33d682a9a5"

#: The exact bytes of PINNED_RESULT's entry: compact separators, no
#: trailing newline.  Existing caches stay readable only while this holds.
PINNED_BYTES = (
    b'{"schema":1,"key":"' + PINNED_KEY.encode() + b'","result":'
    b'{"policy_name":"OCC-EDF-HP","n_committed":2,"n_missed":1,'
    b'"total_restarts":3,"makespan":123.456,'
    b'"cpu_utilization":0.3333333333333333,"disk_utilization":0.0,'
    b'"mean_plist_size":1e-07,"n_dropped":0,'
    b'"records":[[0,4,0.1,50.25,49.99999999999999,0],[1,2,2.5,3.0,123.456,3]]}}'
)


class TestEntryBytes:
    def test_entry_bytes_are_pinned(self, tmp_path):
        path = ResultCache(tmp_path).put(SimulationConfig(), 7, "OCC", PINNED_RESULT)
        assert path.name == f"{PINNED_KEY}.json"
        assert path.read_bytes() == PINNED_BYTES

    def test_put_get_round_trip(self, tmp_path, small_config, result):
        cache = ResultCache(tmp_path)
        for seed, stored in ((7, PINNED_RESULT), (3, result)):
            cache.put(small_config, seed, "CCA", stored)
        fresh = ResultCache(tmp_path)
        assert fresh.get(small_config, 7, "CCA") == PINNED_RESULT
        assert fresh.get(small_config, 3, "CCA") == result
        assert fresh.counters.hits == 2


class TestResultCache:
    def test_get_miss_then_put_then_hit(self, tmp_path, small_config, result):
        cache = ResultCache(tmp_path)
        assert cache.get(small_config, 3, "CCA") is None
        cache.put(small_config, 3, "CCA", result)
        assert cache.get(small_config, 3, "CCA") == result
        assert dataclasses.astuple(cache.counters) == (1, 1, 1, 0, 0)

    def test_entries_do_not_cross_cells(self, tmp_path, small_config, result):
        cache = ResultCache(tmp_path)
        cache.put(small_config, 3, "CCA", result)
        assert cache.get(small_config, 4, "CCA") is None
        assert cache.get(small_config, 3, "EDF-HP") is None
        assert cache.get(small_config.replace(db_size=99), 3, "CCA") is None

    @pytest.mark.parametrize(
        "damage",
        [
            b"not json at all",
            b"{\"schema\": 1, \"key\": \"wrong\"",  # truncated
            b"{}",  # missing fields
            b"[1, 2, 3]",  # wrong shape
            b"",  # empty file
        ],
        ids=["garbage", "truncated", "empty-object", "wrong-shape", "empty"],
    )
    def test_corrupt_entry_discarded_and_recomputed(
        self, tmp_path, small_config, result, damage
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        path.write_bytes(damage)
        assert cache.get(small_config, 3, "CCA") is None
        assert cache.counters.discarded == 1
        assert cache.counters.misses == 1
        assert not path.exists()  # bad entry removed
        cache.put(small_config, 3, "CCA", result)
        assert cache.get(small_config, 3, "CCA") == result

    @pytest.mark.parametrize(
        "reshape",
        [lambda row: row[:5], lambda row: [*row, 0]],
        ids=["5-values", "7-values"],
    )
    def test_record_row_of_wrong_length_discarded(
        self, tmp_path, small_config, result, reshape
    ):
        """Rows are decoded positionally, so a row one value short or
        one value long is a corrupt entry, never a shifted record."""
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        entry = json.loads(path.read_text())
        rows = entry["result"]["records"]
        rows[-1] = reshape(rows[-1])
        path.write_text(json.dumps(entry))
        assert cache.get(small_config, 3, "CCA") is None
        assert (cache.counters.discarded, cache.counters.misses) == (1, 1)
        assert not path.exists()

    def test_record_row_order_is_the_record_field_order(self):
        assert cache_mod._RECORD_FIELDS == tuple(
            field.name for field in dataclasses.fields(TransactionRecord)
        )

    def test_truncated_json_counts_one_discard_one_miss(
        self, tmp_path, small_config, result
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        path.write_bytes(path.read_bytes()[:-20])  # chop the tail off
        assert cache.get(small_config, 3, "CCA") is None
        assert (cache.counters.discarded, cache.counters.misses) == (1, 1)
        assert not path.exists()

    def test_wrong_schema_in_entry_counts_one_discard_one_miss(
        self, tmp_path, small_config, result
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        entry = json.loads(path.read_text())
        entry["schema"] = cache_mod.SCHEMA_VERSION + 99
        path.write_text(json.dumps(entry))
        assert cache.get(small_config, 3, "CCA") is None
        assert (cache.counters.discarded, cache.counters.misses) == (1, 1)
        assert not path.exists()

    def test_schema_bump_invalidates_entry(
        self, tmp_path, small_config, result, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1)
        # The key itself changed, so the old entry is simply unreachable.
        assert cache.get(small_config, 3, "CCA") is None
        assert path.exists()  # old entry untouched, just never served

    def test_misfiled_entry_rejected(self, tmp_path, small_config, result):
        """An entry whose recorded key disagrees with its filename
        (e.g. hand-copied) is discarded, not served."""
        cache = ResultCache(tmp_path)
        source = cache.put(small_config, 3, "CCA", result)
        target = cache.path_for(cache_key(small_config, 4, "CCA"))
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert cache.get(small_config, 4, "CCA") is None
        assert (cache.counters.discarded, cache.counters.misses) == (1, 1)
        assert not target.exists()  # misfiled copy removed, original kept
        assert source.exists()

    def test_default_dir_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert ResultCache().root == tmp_path / "elsewhere"

    def test_atomic_writes_leave_no_temp_files(
        self, tmp_path, small_config, result
    ):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.put(small_config, seed, "CCA", result)
        leftovers = [
            name
            for _, _, names in os.walk(tmp_path)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestSafePut:
    """Write failures degrade to a counter instead of crashing a sweep."""

    @pytest.fixture
    def broken_root(self, tmp_path):
        """A cache root that cannot hold entries: the root *is a file*,
        so ``mkdir`` fails with an OSError even when running as root
        (unlike permission bits, which root bypasses)."""
        root = tmp_path / "not-a-directory"
        root.write_text("occupied")
        return root

    def test_first_failure_disables_further_writes(
        self, broken_root, small_config, result
    ):
        cache = ResultCache(broken_root)
        for seed in range(5):
            assert cache.safe_put(small_config, seed, "CCA", result) is None
        assert cache.counters.put_errors == 1  # not one per cell
        assert cache.write_disabled

    def test_safe_put_matches_put_on_healthy_cache(
        self, tmp_path, small_config, result
    ):
        cache = ResultCache(tmp_path)
        path = cache.safe_put(small_config, 3, "CCA", result)
        assert path is not None and path.exists()
        assert cache.counters.put_errors == 0
        assert not cache.write_disabled
        assert cache.get(small_config, 3, "CCA") == result

    def test_sweep_over_unwritable_cache_dir_completes(
        self, broken_root, small_config
    ):
        """Satellite: a sweep whose cache cannot be written still
        produces full results (and parity with no cache at all)."""
        from repro.experiments.parallel import (
            cells_for_sweep,
            execute_cells,
            last_stats,
        )

        tiny = small_config.replace(n_transactions=15)
        cells = cells_for_sweep({1.0: tiny}, (1, 2), ("CCA",))
        broken = execute_cells(cells, jobs=1, cache=ResultCache(broken_root))
        plain = execute_cells(cells, jobs=1, cache=None)
        assert broken == plain
        assert last_stats().cells_run == len(cells)


class TestCrashSafety:
    """Atomic writes and self-healing reads: a killed worker or host
    never gets a damaged entry served."""

    def test_entry_truncated_at_every_offset_is_never_served(
        self, tmp_path, small_config, result
    ):
        """What a host crash can leave of an unsynced entry: any prefix
        of its bytes at the final path.  Every prefix reads as a miss,
        is deleted, and is never returned; the whole entry still hits."""
        cache = ResultCache(tmp_path)
        path = cache.put(small_config, 3, "CCA", result)
        whole = path.read_bytes()
        for offset in range(len(whole)):
            path.write_bytes(whole[:offset])
            assert cache.get(small_config, 3, "CCA") is None, offset
            assert not path.exists(), offset
        assert (cache.counters.hits, cache.counters.discarded) == (0, len(whole))
        path.write_bytes(whole)
        assert cache.get(small_config, 3, "CCA") == result

    def test_interrupted_write_leaves_no_entry(
        self, tmp_path, small_config, result, monkeypatch
    ):
        """A write that fails halfway (simulated: the disk fills) must
        leave the final path absent — the next run gets a clean miss,
        never a truncated read — and must not leak the temp file."""
        real_fdopen = os.fdopen

        class HalfWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(28, "injected: no space left on device")

        monkeypatch.setattr(
            os, "fdopen", lambda fd, *a, **kw: HalfWrite(real_fdopen(fd, *a, **kw))
        )
        cache = ResultCache(tmp_path)
        with pytest.raises(OSError):
            cache.put(small_config, 1, "CCA", result)
        monkeypatch.undo()
        key = cache_key(small_config, 1, "CCA")
        assert not cache.path_for(key).exists()
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
        ]
        assert leftovers == []  # temp file unlinked on the way out
        assert cache.get(small_config, 1, "CCA") is None  # clean miss

    def test_stale_tmp_files_never_served(
        self, tmp_path, small_config, result
    ):
        """A stale ``.tmp`` from a killed worker sits inertly beside the
        real entries: lookups ignore it and a later put still lands."""
        cache = ResultCache(tmp_path)
        key = cache_key(small_config, 1, "CCA")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        stale = path.parent / f".{key[:8]}-killed.tmp"
        stale.write_text('{"schema": 1, "truncat')
        assert cache.get(small_config, 1, "CCA") is None
        cache.put(small_config, 1, "CCA", result)
        assert cache.get(small_config, 1, "CCA") == result
        assert stale.exists()  # untouched; harmless
