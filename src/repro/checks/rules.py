"""The rule catalog of every check layer, and the determinism rules.

Every rule a check layer can report is declared as a :class:`Rule`
with a stable code and registered here, namespaced by code prefix:
``DETnnn`` (the :mod:`repro.checks.linter`, declared below),
``CERTnnn`` (:mod:`repro.certify.rules`), ``ANAnnn``
(:mod:`repro.analyze.rules`) and ``MCnnn``
(:mod:`repro.modelcheck.rules`).  Each layer keeps its rule text in its
own ``rules`` module; :func:`all_rules` and :func:`get_rule` import
that module on first use, so the catalog is whole whatever was
imported before.  The registry is the single source of truth for every
CLI's ``--list-rules`` output, the JSON reporters' rule tables, and the
docs.

Scopes
------

The whole experiment stack promises that simulation results are a pure
function of ``(config, seed, policy)`` — the result cache, the parallel
executor's serial/parallel parity, and the paper reproductions all rest
on it.  Different parts of the tree carry different shares of that
promise:

* ``SIM_PATH`` — modules on the simulation path (``sim/``, ``core/``,
  ``rtdb/``, ``analysis/``, ``workload/``, ``occ/``, ``mp/``): any
  nondeterminism here silently changes results, so every rule applies.
* ``NON_EXPERIMENTS`` — everything except ``experiments/``: reading the
  process environment is an experiment-harness concern (scales, cache
  dirs, fault specs); anywhere else it smuggles host state into what
  should be a pure function.

Files outside the ``repro`` package (test fixtures, ad-hoc scripts) are
checked against every rule — the strictest interpretation.  Only lint
rules carry a scope.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
from typing import Optional


class Scope(enum.Enum):
    """Where a rule applies (see the module docstring)."""

    SIM_PATH = "sim-path"
    NON_EXPERIMENTS = "non-experiments"


#: Top-level ``repro`` sub-packages on the simulation path: code here
#: runs inside (or feeds values into) a simulation and must be
#: bit-deterministic in ``(config, seed, policy)``.
SIM_PATH_DIRS = frozenset(
    {"sim", "core", "rtdb", "analysis", "workload", "occ", "mp"}
)

#: The one sub-package allowed to read the process environment.
EXPERIMENTS_DIR = "experiments"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One check rule: a stable code plus the hazard it guards against."""

    code: str
    name: str
    summary: str
    """One line, shown next to each finding."""
    rationale: str = ""
    """Why the rule matters (docs)."""
    scope: Optional[Scope] = None
    """Where a lint rule applies; rules of the other layers have none."""


#: Code prefix -> the module that declares that layer's rules.
_LAYER_MODULES = {
    "DET": __name__,
    "CERT": "repro.certify.rules",
    "ANA": "repro.analyze.rules",
    "MC": "repro.modelcheck.rules",
}

_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (codes must be unique)."""
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule


def _import_layers(prefix: str) -> None:
    """Import every layer whose codes can start with ``prefix``."""
    for layer, module in _LAYER_MODULES.items():
        if layer.startswith(prefix) or prefix.startswith(layer):
            importlib.import_module(module)


def all_rules(prefix: str = "") -> tuple[Rule, ...]:
    """Every registered rule whose code starts with ``prefix``, in code order."""
    _import_layers(prefix)
    return tuple(
        rule for code, rule in sorted(_REGISTRY.items()) if code.startswith(prefix)
    )


def get_rule(code: str) -> Rule:
    """The rule registered under ``code`` (KeyError if unknown)."""
    _import_layers(code)
    return _REGISTRY[code]


def is_known(code: str) -> bool:
    _import_layers(code)
    return code in _REGISTRY


DET001 = register(
    Rule(
        code="DET001",
        name="wall-clock-read",
        summary="wall-clock read on the simulation path",
        rationale=(
            "time.time()/perf_counter()/datetime.now() return host time, "
            "which differs run to run; simulation code must derive every "
            "timestamp from the simulated clock so results are a pure "
            "function of (config, seed, policy)."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET002 = register(
    Rule(
        code="DET002",
        name="unseeded-rng",
        summary="module-level / unseeded random number generation",
        rationale=(
            "random.random() and friends draw from the process-global "
            "generator (seeded from the OS), uuid4/secrets/os.urandom are "
            "nondeterministic by design, and random.Random() without a "
            "seed falls back to OS entropy.  All simulation randomness "
            "must come from the named, seeded streams in "
            "repro.sim.random."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET003 = register(
    Rule(
        code="DET003",
        name="unordered-iteration",
        summary="order-sensitive iteration over a set/frozenset",
        rationale=(
            "set iteration order depends on hash-table layout, which "
            "depends on insertion/deletion history and (for str keys) "
            "per-process hash randomization.  Scheduling loops, "
            "accumulations and serializations must iterate a sorted() or "
            "otherwise deterministically ordered view."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET004 = register(
    Rule(
        code="DET004",
        name="id-based-ordering",
        summary="id() used on the simulation path",
        rationale=(
            "id() is a process-dependent memory address: ordering, "
            "hashing or comparing by it differs across runs and "
            "processes, breaking serial/parallel parity.  Order by a "
            "stable field (tid, deadline, name) instead."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET005 = register(
    Rule(
        code="DET005",
        name="float-accumulation-in-key",
        summary="float accumulation inside a priority/penalty/key function",
        rationale=(
            "float addition is not associative, so an accumulated "
            "priority component is only reproducible if the summation "
            "order is itself deterministic.  Either iterate a "
            "deterministically ordered collection (and say so in a "
            "suppression), sum over sorted() operands, or use math.fsum."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET006 = register(
    Rule(
        code="DET006",
        name="environ-read",
        summary="process-environment read outside experiments/",
        rationale=(
            "os.environ/os.getenv smuggle host state into code whose "
            "output must depend only on explicit parameters; environment "
            "knobs belong in the experiments/ harness, which resolves "
            "them into SimulationConfig fields."
        ),
        scope=Scope.NON_EXPERIMENTS,
    )
)

DET007 = register(
    Rule(
        code="DET007",
        name="hash-based-ordering",
        summary="ordering depends on string hash() (PYTHONHASHSEED hazard)",
        rationale=(
            "hash(str) is salted per process: unless PYTHONHASHSEED is "
            "pinned, every run hashes strings differently, so sorting by "
            "hash(...), hash-keyed priority functions, and iteration over "
            "str-keyed set literals produce a different order each run.  "
            "Order by the value itself or another stable field instead."
        ),
        scope=Scope.SIM_PATH,
    )
)

DET008 = register(
    Rule(
        code="DET008",
        name="dict-table-scheduling-iteration",
        summary=(
            "plain-dict lock/transaction table iterated in a "
            "scheduling decision"
        ),
        rationale=(
            "dict iteration order is insertion history: for the live "
            "table, the lock table, and the P-list that means arrival "
            "and abort bookkeeping, not a documented tie-break.  A "
            "scheduling decision that consumes candidates in table "
            "order silently changes schedules whenever bookkeeping "
            "changes the insertion order (re-admission, restart "
            "incarnations, table compaction).  Consume a sorted(...) "
            "view or reduce with an explicit priority key, or attach a "
            "suppression naming the ordering that makes table order "
            "irrelevant."
        ),
        scope=Scope.SIM_PATH,
    )
)
