"""AST-based determinism linter over the ``repro`` source tree.

:func:`lint_paths` walks ``.py`` files, classifies each one into a rule
scope (see :mod:`repro.checks.rules`), and runs a single
:class:`ast.NodeVisitor` pass that flags nondeterminism hazards:

* ``DET001`` — wall-clock reads (``time.time``, ``datetime.now``, ...)
* ``DET002`` — module-level / unseeded RNG (``random.random``,
  ``random.Random()`` without a seed, ``uuid4``, ``os.urandom``, ...)
* ``DET003`` — order-sensitive iteration over sets/frozensets
* ``DET004`` — ``id()``-based ordering
* ``DET005`` — float accumulation inside priority/penalty/key functions
* ``DET006`` — ``os.environ`` reads outside ``experiments/``
* ``DET007`` — ordering by string ``hash()`` (``key=hash``, ``hash(...)``
  in priority/key functions, str-keyed set-literal iteration)
* ``DET008`` — plain-``dict`` lock/transaction-table views
  (``.values()``/``.items()``/``.keys()``) consumed inside
  scheduling-decision functions without an explicit ordering

A finding on a line carrying ``# repro: allow[DET00x]`` (optionally a
comma-separated list, optionally followed by a justification) is
recorded as *suppressed* rather than reported; ``repro lint`` exits 0
when only suppressed findings remain.

The pass uses only the stdlib ``ast``/``re`` machinery — no third-party
dependencies — and is purely syntactic: it tracks import aliases and
per-function assignments, but does no cross-module type inference.
Heuristic rules (DET003/DET005) therefore flag *patterns*; a documented
suppression is the intended escape hatch for the deterministic
instances.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.checks.rules import (
    EXPERIMENTS_DIR,
    SIM_PATH_DIRS,
    Rule,
    Scope,
    all_rules,
    is_known,
)

#: ``# repro: allow[DET001]`` / ``allow[DET001,DET005] -- justification``
_ALLOW_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*([A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\s*\]"
)

# -- what each rule bans ----------------------------------------------------

#: DET001: call targets returning host time.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: DET002: functions of the process-global ``random`` module.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: DET002: intrinsically nondeterministic call targets.
_ENTROPY_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4", "os.urandom"})

#: DET003: methods that return sets whatever their receiver.
_SET_RETURNING_METHODS = frozenset(
    {
        "intersection",
        "union",
        "difference",
        "symmetric_difference",
        # repo-local conventions (LockManager / Database diagnostics)
        "held_items",
        "locked_items",
    }
)

#: DET003: builtins through which set iteration order escapes.  Note
#: that ``sum()`` over floats is order-dependent, hence banned here.
_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "sum", "enumerate"})

#: DET003: builtins that consume an iterable order-insensitively.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "len", "any", "all", "set", "frozenset"}
)

#: DET005: function names that smell like priority/ordering keys.
_KEY_FUNC_RE = re.compile(r"priority|penalty|(^|_)key($|_)", re.IGNORECASE)

#: DET006: environment accessors.
_ENVIRON_PREFIX = "os.environ"
_ENVIRON_CALLS = frozenset({"os.getenv"})

#: DET007: sorters whose ``key=`` argument escapes into an ordering.
_KEYED_SORTERS = frozenset({"sorted", "min", "max"})

#: DET008: function names that make a scheduling decision.
_DECISION_FUNC_RE = re.compile(
    r"choose|dispatch|schedul|resolve|select|wound|preempt|pick",
    re.IGNORECASE,
)

#: DET008: receiver names that smell like lock/transaction tables.
_TABLE_NAME_RE = re.compile(
    r"live|plist|lock|waiter|holder|blocked|table", re.IGNORECASE
)

#: DET008: dict-view methods whose order is insertion history.
_DICT_VIEW_METHODS = frozenset({"values", "items", "keys"})


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "suppressed": self.suppressed,
        }


@dataclasses.dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = dataclasses.field(default_factory=list)
    """Unsuppressed violations, in (path, line, col, code) order."""
    suppressed: list[Finding] = dataclasses.field(default_factory=list)
    """Violations silenced by an inline ``# repro: allow[...]``."""
    files_checked: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)
    """Files that could not be parsed (syntax errors, encoding)."""

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_code(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for finding in self.findings:
            out[finding.code] = out.get(finding.code, 0) + 1
        return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Scope classification
# ---------------------------------------------------------------------------

def applicable_rules(path: Path) -> tuple[Rule, ...]:
    """Which rules apply to the module at ``path``.

    Classification keys off the path segment after the last ``repro``
    package directory: sim-path sub-packages get every rule,
    ``experiments/`` none, the rest of the package only the
    ``NON_EXPERIMENTS`` rules.  Files outside a ``repro`` package get
    every rule.
    """
    parts = path.parts
    anchor = None
    for index, part in enumerate(parts):
        if part == "repro":
            anchor = index
    if anchor is None or anchor + 1 >= len(parts):
        return all_rules("DET")
    head = parts[anchor + 1]
    if head in SIM_PATH_DIRS:
        return all_rules("DET")
    if head == EXPERIMENTS_DIR:
        return ()
    return tuple(
        rule for rule in all_rules("DET") if rule.scope is Scope.NON_EXPERIMENTS
    )


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map line number (1-based) -> codes allowed on that line."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            codes = frozenset(
                code.strip() for code in match.group(1).split(",")
            )
            out[lineno] = codes
    return out


# ---------------------------------------------------------------------------
# The AST pass
# ---------------------------------------------------------------------------

class _FunctionScope:
    """Per-function assignment tracking for the heuristic rules."""

    __slots__ = (
        "name",
        "is_key_func",
        "is_decision_func",
        "set_locals",
        "float_locals",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.is_key_func = bool(_KEY_FUNC_RE.search(name))
        self.is_decision_func = bool(_DECISION_FUNC_RE.search(name))
        self.set_locals: set[str] = set()
        self.float_locals: set[str] = set()


class _Checker(ast.NodeVisitor):
    """Single-pass visitor emitting findings for every active rule."""

    def __init__(self, path: str, codes: frozenset[str]) -> None:
        self.path = path
        self.codes = codes
        self.found: list[Finding] = []
        #: local alias -> canonical dotted module/object path.
        self.aliases: dict[str, str] = {}
        self.scopes: list[_FunctionScope] = []
        #: AST nodes fed to an order-insensitive consumer (DET008).
        self._order_blessed: set[int] = set()

    # -- helpers -----------------------------------------------------------

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        if code not in self.codes:
            return
        self.found.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    def _dotted(self, node: ast.expr) -> Optional[str]:
        """Canonical dotted name of an attribute chain, alias-resolved."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def _scope(self) -> Optional[_FunctionScope]:
        return self.scopes[-1] if self.scopes else None

    def _is_set_expr(self, node: ast.expr) -> bool:
        """Syntactic judgement: does ``node`` evaluate to a set?"""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_RETURNING_METHODS
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            scope = self._scope()
            return scope is not None and node.id in scope.set_locals
        return False

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports cannot name stdlib hazards
        for alias in node.names:
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    # -- function scopes ---------------------------------------------------

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.scopes.append(_FunctionScope(node.name))
        try:
            self.generic_visit(node)
        finally:
            self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- assignments (set-typed / float-typed local tracking) --------------

    def _note_assignment(self, target: ast.expr, value: ast.expr) -> None:
        scope = self._scope()
        if scope is None or not isinstance(target, ast.Name):
            return
        if self._is_set_expr(value):
            scope.set_locals.add(target.id)
        else:
            scope.set_locals.discard(target.id)
        if isinstance(value, ast.Constant) and isinstance(value.value, float):
            scope.float_locals.add(target.id)
        else:
            scope.float_locals.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_assignment(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        scope = self._scope()
        if (
            scope is not None
            and scope.is_key_func
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
            and node.target.id in scope.float_locals
        ):
            self._emit(
                node,
                "DET005",
                f"float accumulation '{node.target.id} += ...' inside "
                f"{scope.name}(); summation order must be deterministic "
                f"(sorted operands, math.fsum, or a justified suppression)",
            )
        self.generic_visit(node)

    # -- loops and comprehensions (DET003) ---------------------------------

    def _check_iteration(self, iterable: ast.expr, where: str) -> None:
        if self._is_set_expr(iterable):
            self._emit(
                iterable,
                "DET003",
                f"iteration over a set in {where}: set order depends on "
                f"hash-table history; iterate sorted(...) or a list/dict",
            )
        if isinstance(iterable, ast.Set) and iterable.elts and all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            for elt in iterable.elts
        ):
            self._emit(
                iterable,
                "DET007",
                f"iteration over a str-keyed set literal in {where}: str "
                f"hashes are salted per process (PYTHONHASHSEED), so the "
                f"order differs run to run; use a tuple or sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, "a for loop")
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, "a comprehension")
        self.generic_visit(node)

    # -- calls (DET001/DET002/DET003/DET004/DET005/DET006) -----------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
            and node.func.id not in self.aliases
        ):
            for arg in node.args:
                self._order_blessed.add(id(arg))
        self._check_table_view(node)
        dotted = self._dotted(node.func)

        if dotted is not None:
            if dotted in _WALL_CLOCK_CALLS:
                self._emit(
                    node,
                    "DET001",
                    f"wall-clock read {dotted}(): simulation code must "
                    f"use the simulated clock (Simulator.now)",
                )
            self._check_rng_call(node, dotted)
            if dotted in _ENVIRON_CALLS:
                self._emit(
                    node,
                    "DET006",
                    f"{dotted}() read outside experiments/: pass the value "
                    f"in via configuration instead",
                )

        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "sort":
            self._check_hash_key(node)
        if isinstance(func, ast.Name):
            name = func.id
            if name in _KEYED_SORTERS and name not in self.aliases:
                self._check_hash_key(node)
            if (
                name == "hash"
                and name not in self.aliases
                and (scope := self._scope()) is not None
                and scope.is_key_func
            ):
                self._emit(
                    node,
                    "DET007",
                    f"hash() inside {scope.name}(): str hashes are salted "
                    f"per process (PYTHONHASHSEED), so a hash-derived "
                    f"priority differs run to run; key on the value itself",
                )
            if name == "id" and name not in self.aliases:
                self._emit(
                    node,
                    "DET004",
                    "id() is a process-dependent address; order/hash by a "
                    "stable field (tid, name) instead",
                )
            if name in _ORDER_SENSITIVE_CONSUMERS:
                for arg in node.args:
                    if self._is_set_expr(arg):
                        self._emit(
                            arg,
                            "DET003",
                            f"{name}() over a set leaks hash-table order; "
                            f"wrap the set in sorted(...)",
                        )
            scope = self._scope()
            if (
                name == "sum"
                and name not in self.aliases
                and scope is not None
                and scope.is_key_func
            ):
                self._emit(
                    node,
                    "DET005",
                    f"sum() inside {scope.name}(): float summation order "
                    f"must be deterministic (sum over sorted operands or "
                    f"use math.fsum)",
                )
        self.generic_visit(node)

    def _check_table_view(self, node: ast.Call) -> None:
        """DET008: dict-view read of a lock/transaction table inside a
        scheduling-decision function, unless an order-insensitive
        consumer (``sorted``, ``min``, ``any``, ...) absorbs it."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _DICT_VIEW_METHODS
            and not node.args
            and not node.keywords
        ):
            return
        scope = self._scope()
        if scope is None or not scope.is_decision_func:
            return
        if id(node) in self._order_blessed:
            return
        receiver = self._dotted(func.value)
        if receiver is None:
            return
        if not _TABLE_NAME_RE.search(receiver.rsplit(".", 1)[-1]):
            return
        self._emit(
            node,
            "DET008",
            f"{receiver}.{func.attr}() inside {scope.name}(): plain-dict "
            f"table order is insertion history (arrival/abort "
            f"bookkeeping), not a tie-break; consume sorted(...) or "
            f"reduce with an explicit priority key",
        )

    def _check_hash_key(self, node: ast.Call) -> None:
        """DET007: a ``key=`` argument that orders by ``hash()``."""
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            uses_hash = (
                isinstance(value, ast.Name)
                and value.id == "hash"
                and value.id not in self.aliases
            ) or (
                isinstance(value, ast.Lambda)
                and any(
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "hash"
                    for inner in ast.walk(value.body)
                )
            )
            if uses_hash:
                self._emit(
                    value,
                    "DET007",
                    "ordering by hash(): str hashes are salted per process "
                    "(PYTHONHASHSEED), so the sort order differs run to "
                    "run; key on a stable field instead",
                )

    def _check_rng_call(self, node: ast.Call, dotted: str) -> None:
        module, _, attr = dotted.rpartition(".")
        if module == "random" and attr in _GLOBAL_RNG_FUNCS:
            self._emit(
                node,
                "DET002",
                f"random.{attr}() uses the process-global RNG; draw from "
                f"a seeded repro.sim.random stream instead",
            )
        elif dotted == "random.Random" and not node.args and not node.keywords:
            self._emit(
                node,
                "DET002",
                "random.Random() without a seed draws OS entropy; pass an "
                "explicit seed",
            )
        elif dotted.startswith("numpy.random.") or dotted == "numpy.random":
            self._emit(
                node,
                "DET002",
                f"{dotted}(): numpy's global RNG is process state; use a "
                f"seeded generator",
            )
        elif dotted in _ENTROPY_CALLS or module == "secrets":
            self._emit(
                node,
                "DET002",
                f"{dotted}() is nondeterministic by design; derive ids "
                f"from seeds or stable fields",
            )

    # -- bare attribute access (DET006: os.environ[...] etc.) --------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = self._dotted(node)
        if dotted is not None and (
            dotted == _ENVIRON_PREFIX or dotted.startswith(_ENVIRON_PREFIX + ".")
        ):
            self._emit(
                node,
                "DET006",
                "os.environ read outside experiments/: pass the value in "
                "via configuration instead",
            )
            return  # don't re-flag the inner links of the same chain
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self.aliases.get(node.id) == _ENVIRON_PREFIX:
            self._emit(
                node,
                "DET006",
                "os.environ read outside experiments/: pass the value in "
                "via configuration instead",
            )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def lint_source(
    source: str,
    path: str,
    codes: Iterable[str],
    filename: Optional[str] = None,
) -> tuple[list[Finding], list[Finding]]:
    """Lint one module's source; returns (findings, suppressed)."""
    tree = ast.parse(source, filename=filename or path)
    checker = _Checker(path, frozenset(codes))
    checker.visit(tree)
    allowed = parse_suppressions(source)
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in checker.found:
        if finding.code in allowed.get(finding.line, frozenset()):
            suppressed.append(
                dataclasses.replace(finding, suppressed=True)
            )
        else:
            active.append(finding)
    return active, suppressed


def lint_file(
    path: Path, select: Optional[Iterable[str]] = None
) -> tuple[list[Finding], list[Finding]]:
    """Lint one file under its scope's rules (optionally intersected
    with an explicit ``select`` set of codes)."""
    codes = {rule.code for rule in applicable_rules(path)}
    if select is not None:
        codes &= set(select)
    if not codes:
        return [], []
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), codes)


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        else:
            out.add(path)
    return sorted(out)


def lint_paths(
    paths: Sequence[Path], select: Optional[Iterable[str]] = None
) -> LintResult:
    """Lint every Python file under ``paths``.

    ``select`` restricts checking to the given codes (they must exist in
    the registry).  Findings are sorted by (path, line, col, code) so
    output is stable across filesystems.
    """
    if select is not None:
        unknown = [
            code for code in select if not (code.startswith("DET") and is_known(code))
        ]
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(unknown)}")
    result = LintResult()
    for path in iter_python_files(paths):
        if not path.exists():
            result.errors.append(f"{path}: no such file")
            continue
        try:
            active, suppressed = lint_file(path, select)
        except SyntaxError as exc:
            result.errors.append(f"{path}: syntax error: {exc.msg} "
                                 f"(line {exc.lineno})")
            continue
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
        result.files_checked += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result
