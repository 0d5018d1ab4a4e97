"""Unit tests for the determinism linter's rules, scopes and suppressions."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.checks.linter import (
    Finding,
    applicable_rules,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.checks.rules import Scope, all_rules, get_rule, is_known

ALL_CODES = [rule.code for rule in all_rules("DET")]


def findings_for(source: str, codes=None) -> list[Finding]:
    active, _ = lint_source(source, "snippet.py", codes or ALL_CODES)
    return active


def codes_of(source: str) -> set[str]:
    return {finding.code for finding in findings_for(source)}


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_all_eight_rules_registered(self):
        assert ALL_CODES == [
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "DET007", "DET008",
        ]

    def test_rules_carry_scope_and_rationale(self):
        for rule in all_rules("DET"):
            assert rule.summary
            assert rule.rationale
            assert rule.scope in (Scope.SIM_PATH, Scope.NON_EXPERIMENTS)

    def test_environ_rule_applies_beyond_sim_path(self):
        assert get_rule("DET006").scope is Scope.NON_EXPERIMENTS

    def test_is_known(self):
        assert is_known("DET001")
        assert not is_known("DET999")


# ---------------------------------------------------------------------------
# DET001 — wall-clock reads
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_time_time(self):
        src = "import time\nt = time.time()\n"
        assert codes_of(src) == {"DET001"}

    def test_perf_counter_via_alias(self):
        src = "import time as _time\nt = _time.perf_counter()\n"
        assert codes_of(src) == {"DET001"}

    def test_from_import(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert codes_of(src) == {"DET001"}

    def test_datetime_now(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert codes_of(src) == {"DET001"}

    def test_simulated_clock_is_fine(self):
        src = "def f(sim):\n    return sim.now\n"
        assert codes_of(src) == set()

    def test_time_sleep_not_flagged(self):
        src = "import time\ntime.sleep(1)\n"
        assert codes_of(src) == set()


# ---------------------------------------------------------------------------
# DET002 — unseeded RNG
# ---------------------------------------------------------------------------

class TestRng:
    def test_global_random(self):
        src = "import random\nx = random.random()\n"
        assert codes_of(src) == {"DET002"}

    def test_global_shuffle(self):
        src = "import random\nrandom.shuffle(items)\n"
        assert codes_of(src) == {"DET002"}

    def test_unseeded_random_instance(self):
        src = "import random\nrng = random.Random()\n"
        assert codes_of(src) == {"DET002"}

    def test_seeded_random_instance_is_fine(self):
        src = "import random\nrng = random.Random(42)\n"
        assert codes_of(src) == set()

    def test_instance_method_is_fine(self):
        # rng.random() on a (seeded) instance is the sanctioned pattern.
        src = "def f(rng):\n    return rng.random()\n"
        assert codes_of(src) == set()

    def test_uuid4_and_urandom(self):
        src = "import os\nimport uuid\na = uuid.uuid4()\nb = os.urandom(8)\n"
        assert codes_of(src) == {"DET002"}

    def test_numpy_global_rng(self):
        src = "import numpy\nx = numpy.random.rand(3)\n"
        assert codes_of(src) == {"DET002"}


# ---------------------------------------------------------------------------
# DET003 — unordered iteration
# ---------------------------------------------------------------------------

class TestSetIteration:
    def test_for_over_set_literal(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert codes_of(src) == {"DET003"}

    def test_for_over_set_local(self):
        src = "def f():\n    s = set()\n    for x in s:\n        pass\n"
        assert codes_of(src) == {"DET003"}

    def test_comprehension_over_set_call(self):
        src = "def f(a, b):\n    return [x for x in set(a) & set(b)]\n"
        assert codes_of(src) == {"DET003"}

    def test_list_of_set_returning_method(self):
        src = "def f(lockmgr, tx):\n    return list(lockmgr.held_items(tx))\n"
        assert codes_of(src) == {"DET003"}

    def test_sorted_set_is_fine(self):
        src = "def f(s):\n    return sorted(set(s))\n"
        assert codes_of(src) == set()

    def test_order_insensitive_consumers_are_fine(self):
        src = "def f():\n    s = {1, 2}\n    return max(s), len(s), any(s)\n"
        assert codes_of(src) == set()

    def test_reassignment_clears_set_tracking(self):
        src = (
            "def f():\n"
            "    s = set()\n"
            "    s = sorted(s)\n"
            "    for x in s:\n"
            "        pass\n"
        )
        assert codes_of(src) == set()

    def test_dict_iteration_is_fine(self):
        src = "def f(d):\n    for k in d:\n        pass\n"
        assert codes_of(src) == set()


# ---------------------------------------------------------------------------
# DET004 — id()-based ordering
# ---------------------------------------------------------------------------

class TestIdOrdering:
    def test_id_call(self):
        src = "def f(tx):\n    return id(tx)\n"
        assert codes_of(src) == {"DET004"}

    def test_locally_bound_id_is_fine(self):
        src = "from operator import itemgetter as id\nx = id(0)\n"
        assert codes_of(src) == set()


# ---------------------------------------------------------------------------
# DET005 — float accumulation in key functions
# ---------------------------------------------------------------------------

class TestFloatAccumulation:
    def test_augmented_accumulation_in_priority_func(self):
        src = (
            "def priority_key(items):\n"
            "    total = 0.0\n"
            "    for i in items:\n"
            "        total += i\n"
            "    return total\n"
        )
        assert codes_of(src) == {"DET005"}

    def test_sum_in_penalty_func(self):
        src = "def penalty_of(items):\n    return sum(items)\n"
        assert codes_of(src) == {"DET005"}

    def test_same_pattern_outside_key_funcs_is_fine(self):
        src = (
            "def tally(items):\n"
            "    total = 0.0\n"
            "    for i in items:\n"
            "        total += i\n"
            "    return total, sum(items)\n"
        )
        assert codes_of(src) == set()

    def test_int_accumulator_is_fine(self):
        src = (
            "def priority_key(items):\n"
            "    count = 0\n"
            "    for i in items:\n"
            "        count += 1\n"
            "    return count\n"
        )
        assert codes_of(src) == set()


# ---------------------------------------------------------------------------
# DET006 — environment reads
# ---------------------------------------------------------------------------

class TestEnvironReads:
    def test_environ_subscript(self):
        src = "import os\nx = os.environ['REPRO_SCALE']\n"
        assert codes_of(src) == {"DET006"}

    def test_environ_get(self):
        src = "import os\nx = os.environ.get('REPRO_SCALE')\n"
        assert codes_of(src) == {"DET006"}

    def test_getenv(self):
        src = "import os\nx = os.getenv('REPRO_JOBS')\n"
        assert codes_of(src) == {"DET006"}

    def test_from_import_environ(self):
        src = "from os import environ\nx = environ['HOME']\n"
        assert codes_of(src) == {"DET006"}

    def test_one_finding_per_chain(self):
        src = "import os\nx = os.environ.get('A', 'b')\n"
        assert len(findings_for(src)) == 1


# ---------------------------------------------------------------------------
# DET007 — string-hash ordering
# ---------------------------------------------------------------------------

class TestHashOrdering:
    def test_sorted_key_hash(self):
        src = "order = sorted(names, key=hash)\n"
        assert codes_of(src) == {"DET007"}

    def test_min_max_key_hash(self):
        src = "lo = min(names, key=hash)\nhi = max(names, key=hash)\n"
        assert [f.code for f in findings_for(src)] == ["DET007", "DET007"]

    def test_list_sort_key_hash(self):
        src = "names.sort(key=hash)\n"
        assert codes_of(src) == {"DET007"}

    def test_key_lambda_wrapping_hash(self):
        src = "order = sorted(txs, key=lambda tx: hash(tx.name))\n"
        assert codes_of(src) == {"DET007"}

    def test_hash_inside_priority_key_function(self):
        src = "def priority_key(tx):\n    return hash(tx.program_name)\n"
        assert codes_of(src) == {"DET007"}

    def test_str_set_literal_iteration(self):
        src = "for policy in {'edf', 'cca'}:\n    pass\n"
        assert "DET007" in codes_of(src)  # DET003 also fires

    def test_non_str_set_literal_is_det003_only(self):
        src = "for tx in {1, 2, 3}:\n    pass\n"
        assert codes_of(src) == {"DET003"}

    def test_sorted_with_stable_key_is_clean(self):
        src = "order = sorted(txs, key=lambda tx: tx.tid)\n"
        assert codes_of(src) == set()

    def test_hash_outside_key_function_is_clean(self):
        src = "def bucket_of(tx):\n    return hash(tx) % 8\n"
        assert codes_of(src) == set()

    def test_shadowed_hash_is_clean(self):
        src = (
            "from mylib import digest as hash\n"
            "order = sorted(txs, key=hash)\n"
        )
        assert codes_of(src) == set()


# ---------------------------------------------------------------------------
# DET008 — dict-table iteration in scheduling decisions
# ---------------------------------------------------------------------------

class TestDictTableIteration:
    def test_values_in_choose_function(self):
        src = (
            "def _choose(self):\n"
            "    return [tx for tx in self.live.values()]\n"
        )
        assert codes_of(src) == {"DET008"}

    def test_items_over_lock_table_in_dispatch(self):
        src = (
            "def dispatch_next(lock_table):\n"
            "    for item, waiters in lock_table.items():\n"
            "        pass\n"
        )
        assert codes_of(src) == {"DET008"}

    def test_keys_over_plist_in_resolve(self):
        src = (
            "def _resolve_conflicts(self):\n"
            "    tids = list(self._plist.keys())\n"
            "    return tids\n"
        )
        assert codes_of(src) == {"DET008"}

    def test_sorted_view_is_blessed(self):
        src = (
            "def _choose(self):\n"
            "    return sorted(self.live.values(), key=key)\n"
        )
        assert codes_of(src) == set()

    def test_order_insensitive_reducers_are_blessed(self):
        src = (
            "def _choose(self):\n"
            "    lo = min(self.live.values(), key=key, default=None)\n"
            "    busy = any(self.lock_table.values())\n"
            "    return lo, busy\n"
        )
        assert codes_of(src) == set()

    def test_non_decision_function_is_clean(self):
        src = (
            "def snapshot_metrics(self):\n"
            "    return list(self.live.values())\n"
        )
        assert codes_of(src) == set()

    def test_non_table_receiver_is_clean(self):
        src = (
            "def choose_color(self):\n"
            "    return [c for c in self.palette.values()]\n"
        )
        assert codes_of(src) == set()

    def test_module_level_iteration_is_clean(self):
        # No enclosing function means no scheduling decision.
        src = "order = list(lock_table.values())\n"
        assert codes_of(src) == set()

    def test_table_view_passed_to_helper_fires(self):
        src = (
            "def _choose(self):\n"
            "    return choose_primary(self.live.values(), key)\n"
        )
        assert codes_of(src) == {"DET008"}


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_same_line_allow_suppresses(self):
        src = "import time\nt = time.time()  # repro: allow[DET001]\n"
        active, suppressed = lint_source(src, "s.py", ALL_CODES)
        assert active == []
        assert [f.code for f in suppressed] == ["DET001"]
        assert suppressed[0].suppressed

    def test_justification_text_allowed(self):
        src = (
            "import time\n"
            "t = time.time()  # repro: allow[DET001] -- guard only raises\n"
        )
        active, suppressed = lint_source(src, "s.py", ALL_CODES)
        assert active == [] and len(suppressed) == 1

    def test_multiple_codes(self):
        src = (
            "import os, time\n"
            "x = (time.time(), os.getenv('A'))"
            "  # repro: allow[DET001, DET006]\n"
        )
        active, suppressed = lint_source(src, "s.py", ALL_CODES)
        assert active == []
        assert sorted(f.code for f in suppressed) == ["DET001", "DET006"]

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nt = time.time()  # repro: allow[DET002]\n"
        active, suppressed = lint_source(src, "s.py", ALL_CODES)
        assert [f.code for f in active] == ["DET001"]
        assert suppressed == []

    def test_other_line_does_not_suppress(self):
        src = (
            "import time\n"
            "# repro: allow[DET001]\n"
            "t = time.time()\n"
        )
        active, _ = lint_source(src, "s.py", ALL_CODES)
        assert [f.code for f in active] == ["DET001"]

    def test_parse_suppressions_maps_lines(self):
        src = "a = 1\nb = 2  # repro: allow[DET003,DET005]\n"
        assert parse_suppressions(src) == {2: frozenset({"DET003", "DET005"})}


# ---------------------------------------------------------------------------
# Scope classification
# ---------------------------------------------------------------------------

class TestScopes:
    def test_sim_path_dirs_get_all_rules(self):
        for head in ("sim", "core", "rtdb", "analysis", "workload", "occ", "mp"):
            rules = applicable_rules(Path(f"src/repro/{head}/module.py"))
            assert [r.code for r in rules] == ALL_CODES, head

    def test_experiments_get_no_rules(self):
        assert applicable_rules(Path("src/repro/experiments/runner.py")) == ()

    def test_other_repro_modules_get_environ_rule_only(self):
        rules = applicable_rules(Path("src/repro/obs/hooks.py"))
        assert [r.code for r in rules] == ["DET006"]
        rules = applicable_rules(Path("src/repro/config.py"))
        assert [r.code for r in rules] == ["DET006"]

    def test_outside_repro_gets_all_rules(self):
        rules = applicable_rules(Path("tests/checks/fixtures/known_bad.py"))
        assert [r.code for r in rules] == ALL_CODES


# ---------------------------------------------------------------------------
# lint_paths plumbing
# ---------------------------------------------------------------------------

class TestLintPaths:
    def test_unknown_select_code_raises(self):
        with pytest.raises(ValueError, match="DET999"):
            lint_paths([Path(__file__)], select=["DET999"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        result = lint_paths([bad])
        assert not result.clean
        assert result.findings == []
        assert len(result.errors) == 1 and "syntax error" in result.errors[0]

    def test_findings_sorted_and_counted(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import time\n"
            "b = time.time()\n"
            "a = time.monotonic()\n"
        )
        result = lint_paths([mod])
        assert [f.line for f in result.findings] == [2, 3]
        assert result.counts_by_code() == {"DET001": 2}
        assert result.files_checked == 1
