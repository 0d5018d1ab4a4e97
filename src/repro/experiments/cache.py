"""Content-addressed on-disk cache of simulation results.

A sweep cell — one :class:`~repro.config.SimulationConfig` run for one
seed under one policy — is a pure function of its inputs (workloads are
generated deterministically from ``(config, seed)`` and the simulator
draws no further randomness), so its :class:`SimulationResult` can be
cached on disk and replayed for free.  The key is a SHA-256 over the
config's :meth:`~repro.config.SimulationConfig.canonical_dict`, the
seed, the policy name, and :data:`SCHEMA_VERSION`; changing any of
those — including the serialization schema itself — addresses a
different entry, so stale results can never be served.

Entries live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) as
one JSON file per cell, fanned out by key prefix.  Writes are atomic
(temp file + ``os.replace``) so concurrent workers never observe a
partial entry; corrupt or truncated files are discarded and recomputed,
never crashed on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.config import SimulationConfig
from repro.core.simulator import SimulationResult, TransactionRecord

#: Bump when the serialized form of :class:`SimulationResult` (or the
#: meaning of any cached field) changes; old entries are then ignored.
SCHEMA_VERSION = 1

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def cache_key(
    config: SimulationConfig,
    seed: int,
    policy_name: str,
    schema_version: Optional[int] = None,
) -> str:
    """Content hash addressing one simulated cell.

    Any change to any configuration field, the seed, the policy name, or
    the schema version (default: the current :data:`SCHEMA_VERSION`)
    yields a different key.
    """
    if schema_version is None:
        schema_version = SCHEMA_VERSION
    # The compact, key-sorted JSON of {"config", "policy", "schema",
    # "seed"}, spliced around the config's memoized canonical JSON.
    payload = (
        f'{{"config":{config.canonical_json},'
        f'"policy":{json.dumps(policy_name)},'
        f'"schema":{json.dumps(schema_version)},'
        f'"seed":{json.dumps(seed)}}}'
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# SimulationResult <-> JSON
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("tid", "type_id", "arrival_time", "deadline", "commit_time", "restarts")
_record_row = operator.attrgetter(*_RECORD_FIELDS)


def result_to_dict(result: SimulationResult) -> dict:
    """A JSON-ready dict capturing *all* of a result's stored fields.

    Per-transaction records are kept (as compact rows) so every derived
    metric — mean lateness included — is bit-identical after a round
    trip; Python's JSON float encoding is exact (shortest round-trip
    repr).
    """
    return {
        "policy_name": result.policy_name,
        "n_committed": result.n_committed,
        "n_missed": result.n_missed,
        "total_restarts": result.total_restarts,
        "makespan": result.makespan,
        "cpu_utilization": result.cpu_utilization,
        "disk_utilization": result.disk_utilization,
        "mean_plist_size": result.mean_plist_size,
        "n_dropped": result.n_dropped,
        "records": [list(_record_row(record)) for record in result.records],
    }


def result_from_dict(data: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict`.

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed input;
    the cache turns those into a miss.  Each record row is checked for
    length and passed positionally, in :data:`_RECORD_FIELDS` order.
    """
    width = len(_RECORD_FIELDS)
    rows = data["records"]
    if not set(map(len, rows)) <= {width}:
        raise ValueError(f"a record row does not hold {width} values")
    records = tuple(TransactionRecord(*row) for row in rows)
    return SimulationResult(
        policy_name=data["policy_name"],
        n_committed=data["n_committed"],
        n_missed=data["n_missed"],
        total_restarts=data["total_restarts"],
        makespan=data["makespan"],
        cpu_utilization=data["cpu_utilization"],
        disk_utilization=data["disk_utilization"],
        mean_plist_size=data["mean_plist_size"],
        records=records,
        n_dropped=data["n_dropped"],
    )


# ---------------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CacheCounters:
    """Hit/miss/store tallies since construction (or the last reset)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    discarded: int = 0
    """Entries found corrupt/stale and thrown away (counted as misses too)."""
    put_errors: int = 0
    """Failed :meth:`ResultCache.safe_put` writes (disk full, read-only
    cache dir, ...); the first one disables further writes."""


class ResultCache:
    """On-disk store of :class:`SimulationResult` keyed by cell content.

    ``get`` never raises on bad entries: unreadable, truncated, or
    schema-mismatched files are deleted (best effort) and reported as
    misses, so a corrupted cache only costs recomputation.  ``safe_put``
    never raises on write errors: a full disk or read-only cache
    directory costs the cache, not the sweep.
    """

    def __init__(self, root: Optional[Path | str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.counters = CacheCounters()
        self.write_disabled = False
        """Set after the first failed write; a broken cache directory is
        not retried once per cell for the rest of the sweep."""

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.json"

    def reset_counters(self) -> None:
        self.counters = CacheCounters()

    # -- lookup / store ----------------------------------------------------

    def get(
        self,
        config: SimulationConfig,
        seed: int,
        policy_name: str,
        key: Optional[str] = None,
    ) -> Optional[SimulationResult]:
        """The cached result for a cell, or ``None`` (a miss).

        ``key``, when given, must be the cell's :func:`cache_key`; a
        caller that looks a cell up and later stores it computes the
        key once and passes it to both calls.
        """
        if key is None:
            key = cache_key(config, seed, policy_name)
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry["schema"] != SCHEMA_VERSION or entry["key"] != key:
                raise ValueError("stale or misfiled cache entry")
            result = result_from_dict(entry["result"])
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            # Corrupt, truncated, or stale: discard and recompute.
            self._discard(path)
            self.counters.discarded += 1
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return result

    def put(
        self,
        config: SimulationConfig,
        seed: int,
        policy_name: str,
        result: SimulationResult,
        key: Optional[str] = None,
    ) -> Path:
        """Store a cell's result atomically; returns the entry path
        (``key`` as in :meth:`get`)."""
        if key is None:
            key = cache_key(config, seed, policy_name)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result_to_dict(result),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # One json.dumps call runs the C encoder; json.dump
                # would stream through the pure-Python iterencode.
                handle.write(json.dumps(entry, separators=(",", ":")))
            # The rename publishes a complete file, so a worker killed
            # mid-write leaves a stale ``.tmp``, never a partial entry.
            # No fsync: an entry a host crash truncates reads as a miss
            # in :meth:`get` and is recomputed.
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters.stores += 1
        return path

    def safe_put(
        self,
        config: SimulationConfig,
        seed: int,
        policy_name: str,
        result: SimulationResult,
        key: Optional[str] = None,
    ) -> Optional[Path]:
        """Best-effort :meth:`put`: write errors degrade, never raise.

        An ``OSError`` (disk full, ``PermissionError`` on ``mkdir``,
        read-only filesystem, ...) increments ``counters.put_errors``
        and sets :attr:`write_disabled`, after which further calls are
        no-ops — the sweep keeps its results, it just stops
        checkpointing them.  Returns the entry path, or ``None`` when
        the write failed or writes are disabled.
        """
        if self.write_disabled:
            return None
        try:
            return self.put(config, seed, policy_name, result, key)
        except OSError:
            self.counters.put_errors += 1
            self.write_disabled = True
            return None

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
