"""Repo invariant linter: AST checks for conventions the code relies on.

Run as ``python -m repro.analysis.lint src/`` (the CI static-analysis
job does).  Six rules:

**import-layering** — module-level imports must respect the package
layer order (lower layers must not import higher ones)::

    errors < context/expr/storage < filters < engine < plan
           < optimizer/cache/analysis < core/obs/tpch < ssb
           < service < bench

``expr`` and ``storage`` are mutually visible by design (``expr.nodes``
sits below storage, ``expr.eval`` above it; the cycle is broken at
module granularity).  ``testing`` is exempt in both directions: its
``faults`` module is a leaf utility imported from anywhere, while its
``chaos`` harness imports the world.  Function-local (lazy) imports are
deliberately out of scope — they are the sanctioned escape hatch — as
are imports under ``if TYPE_CHECKING``.

**lock-discipline** — an attribute assignment annotated with a
``# guarded-by: _lock`` comment declares that attribute lock-guarded:
outside the declaring method (usually ``__init__``), every ``self.X``
access in that class must sit inside a ``with self._lock:`` block.
A rare intentional bare read can carry ``# lint: unguarded`` on its
line.

**fault-registry** — every ``fault_point("name")`` literal in the tree
must be a key of ``FAULT_POINTS`` in ``testing/faults.py``, and every
registered key must have at least one call site (no phantom or
undocumented fault points).

**bare-unique** — ``np.unique(x)`` with no ``return_*`` keyword.  On
integers NumPy >= 2.3 answers it through a hash table, 30-70x slower
than a sort and a neighbour compare with the same output (and than the
sort ``np.unique`` itself runs once a ``return_*`` flag is set).  Write
the sort, or a ``sorted(set(...))`` for a pool of Python objects.

**metric-declaration** — a call to a method named ``counter`` or
``gauge`` outside ``repro/obs/``.  A serving counter or gauge is
declared once, as a field of the stats book that owns it
(``metric_field``), and only the walk in ``obs`` registers families.

**expr-walker** — a function that checks ``isinstance`` against four or
more expression node classes, outside the four modules that give each
node its meaning (``expr/eval.py``, ``analysis/typecheck.py``,
``cache/fingerprint.py``, ``storage/partition.py``).  The tree's shape
is declared once, by the node dataclasses: walk it with
``Expr.children()``/``walk()``/``map()`` and a spec's slots with
``QuerySpec.expressions()``/``map_expressions()``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from ..expr import nodes as expr_nodes

#: Package layer ranks.  An import is legal iff the target's rank is
#: strictly lower than the importer's, the packages are identical, or
#: the pair is explicitly peer-allowed.
LAYERS: dict[str, int] = {
    "errors": 0,
    "context": 1,
    "expr": 1,
    "storage": 1,
    "filters": 2,
    "engine": 3,
    "plan": 4,
    "optimizer": 5,
    "cache": 5,
    "analysis": 5,
    "core": 6,
    "obs": 6,
    "tpch": 6,
    "ssb": 7,
    "service": 8,
    "bench": 9,
}

#: Same-rank imports that are allowed (the expr/storage module-level
#: split documented above).
PEER_ALLOW: frozenset[tuple[str, str]] = frozenset(
    {("expr", "storage"), ("storage", "expr")}
)

#: Exempt from layering in both directions.
EXEMPT: frozenset[str] = frozenset({"testing", "__main__", "__init__"})


@dataclass(frozen=True)
class LintViolation:
    rule: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _iter_py_files(roots: list[str]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
    return files


def _repro_parts(path: Path) -> list[str] | None:
    """Dotted-path components under the ``repro`` package, or None for
    files outside it (tests, scripts)."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    below = parts[idx + 1 :]
    if not below:
        return []
    below[-1] = below[-1][: -len(".py")]
    return below


def _package_of(parts: list[str]) -> str:
    """Layering unit of a module: its top-level subpackage, or the
    module stem for files directly under ``repro/``."""
    return parts[0]


# ----------------------------------------------------------------------
# Rule a: import layering
# ----------------------------------------------------------------------
def _module_level_imports(tree: ast.Module) -> list[ast.stmt]:
    """Module-level import statements, descending into plain ``if`` /
    ``try`` wrappers but skipping ``if TYPE_CHECKING`` blocks."""
    out: list[ast.stmt] = []

    def is_type_checking(test: ast.expr) -> bool:
        return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )

    def walk(body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out.append(node)
            elif isinstance(node, ast.If):
                if not is_type_checking(node.test):
                    walk(node.body)
                walk(node.orelse)
            elif isinstance(node, ast.Try):
                walk(node.body)
                for handler in node.handlers:
                    walk(handler.body)
                walk(node.orelse)
                walk(node.finalbody)

    walk(tree.body)
    return out


def _import_targets(
    node: ast.stmt, module_parts: list[str]
) -> list[str]:
    """Top-level repro subpackage(s) an import statement targets."""
    targets: list[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            bits = alias.name.split(".")
            if bits[0] == "repro" and len(bits) > 1:
                targets.append(bits[1])
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            bits = (node.module or "").split(".")
            if bits and bits[0] == "repro":
                if len(bits) > 1:
                    targets.append(bits[1])
                else:
                    targets.extend(a.name for a in node.names)
            return targets
        # Relative: resolve against the containing package.
        package = module_parts[:-1]
        base = package[: len(package) - (node.level - 1)]
        suffix = (node.module or "").split(".") if node.module else []
        resolved = base + suffix
        if resolved:
            targets.append(resolved[0])
        else:
            # ``from .. import errors`` at depth 1: names are modules.
            targets.extend(a.name for a in node.names)
    return targets


def check_layering(
    path: Path, tree: ast.Module, parts: list[str]
) -> list[LintViolation]:
    source_pkg = _package_of(parts)
    if source_pkg in EXEMPT or source_pkg not in LAYERS:
        return []
    rank = LAYERS[source_pkg]
    violations: list[LintViolation] = []
    for node in _module_level_imports(tree):
        for target in _import_targets(node, parts):
            if target == source_pkg or target in EXEMPT:
                continue
            if target not in LAYERS:
                continue
            if LAYERS[target] < rank:
                continue
            if (
                LAYERS[target] == rank
                and (source_pkg, target) in PEER_ALLOW
            ):
                continue
            violations.append(
                LintViolation(
                    "import-layering",
                    str(path),
                    node.lineno,
                    f"{source_pkg!r} (layer {rank}) must not import "
                    f"{target!r} (layer {LAYERS[target]}) at module "
                    f"level",
                )
            )
    return violations


# ----------------------------------------------------------------------
# Rule b: lock discipline
# ----------------------------------------------------------------------
_GUARD_MARKER = "# guarded-by:"
_WAIVER = "# lint: unguarded"


def _guarded_attrs(
    cls: ast.ClassDef, lines: list[str]
) -> dict[str, tuple[str, str]]:
    """Map of attr -> (lock attribute, declaring function name)."""
    guarded: dict[str, tuple[str, str]] = {}
    for func in ast.walk(cls):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            line = lines[node.lineno - 1]
            if _GUARD_MARKER not in line:
                continue
            lock = (
                line.split(_GUARD_MARKER, 1)[1].strip().split()[0]
            )
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guarded[target.attr] = (lock, func.name)
    return guarded


def _with_locks(node: ast.With) -> set[str]:
    locks: set[str] = set()
    for item in node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            locks.add(expr.attr)
    return locks


def check_lock_discipline(
    path: Path, tree: ast.Module, source: str
) -> list[LintViolation]:
    lines = source.splitlines()
    violations: list[LintViolation] = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        guarded = _guarded_attrs(cls, lines)
        if not guarded:
            continue

        def visit(
            node: ast.AST, held: frozenset[str], func_name: str
        ) -> None:
            if isinstance(node, ast.With):
                inner = held | _with_locks(node)
                for child in node.body:
                    visit(child, inner, func_name)
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
            ):
                lock, declared_in = guarded[node.attr]
                line = lines[node.lineno - 1]
                if (
                    func_name != declared_in
                    and lock not in held
                    and _WAIVER not in line
                ):
                    violations.append(
                        LintViolation(
                            "lock-discipline",
                            str(path),
                            node.lineno,
                            f"self.{node.attr} is guarded by "
                            f"self.{lock} but accessed outside a "
                            f"'with self.{lock}:' block in "
                            f"{cls.name}.{func_name}",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, held, func_name)

        for func in cls.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for stmt in func.body:
                    visit(stmt, frozenset(), func.name)
    return violations


# ----------------------------------------------------------------------
# Rule c: fault-point registry coverage
# ----------------------------------------------------------------------
def _registry_keys(files: list[Path]) -> tuple[set[str], Path] | None:
    """FAULT_POINTS keys parsed from the scanned tree's faults module."""
    for path in files:
        if path.name == "faults.py" and path.parent.name == "testing":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                value = None
                if isinstance(node, ast.Assign):
                    names = [
                        t.id
                        for t in node.targets
                        if isinstance(t, ast.Name)
                    ]
                    if "FAULT_POINTS" in names:
                        value = node.value
                elif isinstance(node, ast.AnnAssign):
                    if (
                        isinstance(node.target, ast.Name)
                        and node.target.id == "FAULT_POINTS"
                    ):
                        value = node.value
                if isinstance(value, ast.Dict):
                    keys = {
                        k.value
                        for k in value.keys
                        if isinstance(k, ast.Constant)
                        and isinstance(k.value, str)
                    }
                    return keys, path
    return None


def _fault_point_calls(
    path: Path, tree: ast.Module
) -> list[tuple[str, int]]:
    calls: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name != "fault_point" or not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(
            first.value, str
        ):
            calls.append((first.value, node.lineno))
    return calls


def check_fault_registry(
    parsed: list[tuple[Path, ast.Module]]
) -> list[LintViolation]:
    registry = _registry_keys([p for p, _ in parsed])
    if registry is None:
        try:
            from ..testing.faults import FAULT_POINTS
        except Exception:
            return []
        keys, reg_path = set(FAULT_POINTS), Path("repro/testing/faults.py")
    else:
        keys, reg_path = registry
    violations: list[LintViolation] = []
    used: set[str] = set()
    for path, tree in parsed:
        if path == reg_path:
            continue
        for point, lineno in _fault_point_calls(path, tree):
            used.add(point)
            if point not in keys:
                violations.append(
                    LintViolation(
                        "fault-registry",
                        str(path),
                        lineno,
                        f"fault_point({point!r}) is not a registered "
                        f"key of FAULT_POINTS",
                    )
                )
    for key in sorted(keys - used):
        violations.append(
            LintViolation(
                "fault-registry",
                str(reg_path),
                1,
                f"FAULT_POINTS key {key!r} has no fault_point() call "
                f"site in the scanned tree",
            )
        )
    return violations


# ----------------------------------------------------------------------
# Rule d: no bare np.unique
# ----------------------------------------------------------------------
def check_bare_unique(path: Path, tree: ast.Module) -> list[LintViolation]:
    violations: list[LintViolation] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        if any(
            kw.arg is not None and kw.arg.startswith("return_")
            for kw in node.keywords
        ):
            continue
        violations.append(
            LintViolation(
                "bare-unique",
                str(path),
                node.lineno,
                "np.unique() without a return_* flag hashes integers; "
                "sort and compare neighbours instead",
            )
        )
    return violations


# ----------------------------------------------------------------------
# Rule e: metric families are declared on book fields
# ----------------------------------------------------------------------
def check_metric_declaration(
    path: Path, tree: ast.Module, parts: list[str] | None
) -> list[LintViolation]:
    if parts and parts[0] == "obs":
        return []
    return [
        LintViolation(
            "metric-declaration",
            str(path),
            node.lineno,
            f".{node.func.attr}() registers a metric family outside "
            "repro/obs; declare it as a book field with metric_field",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("counter", "gauge")
    ]


# ----------------------------------------------------------------------
# Rule f: one walk per expression tree
# ----------------------------------------------------------------------
#: Modules whose per-node dispatch is the node's semantics.
EXPR_SEMANTICS: frozenset[tuple[str, ...]] = frozenset(
    {("expr", "eval"), ("analysis", "typecheck"), ("cache", "fingerprint"),
     ("storage", "partition")}
)

#: A function naming this many node classes in ``isinstance`` checks
#: is re-listing the tree.
EXPR_WALKER_LIMIT = 4

EXPR_NODE_NAMES: frozenset[str] = frozenset(
    name
    for name, obj in vars(expr_nodes).items()
    if isinstance(obj, type) and issubclass(obj, expr_nodes.Expr)
) - {"Expr"}


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """The nodes of a function's body, not descending into nested
    functions or classes (they are checked on their own)."""
    for child in ast.iter_child_nodes(func):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield child
            yield from _own_nodes(child)


def check_expr_walkers(
    path: Path, tree: ast.Module, parts: list[str] | None
) -> list[LintViolation]:
    if parts and tuple(parts) in EXPR_SEMANTICS:
        return []
    violations: list[LintViolation] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Class names in the second argument of every isinstance call:
        # ``And``, ``N.And`` or a tuple of them.
        named = {
            name.attr if isinstance(name, ast.Attribute) else name.id
            for call in _own_nodes(func)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "isinstance"
            and len(call.args) == 2
            for name in ast.walk(call.args[1])
            if isinstance(name, (ast.Name, ast.Attribute))
        } & EXPR_NODE_NAMES
        if len(named) >= EXPR_WALKER_LIMIT:
            violations.append(
                LintViolation(
                    "expr-walker",
                    str(path),
                    func.lineno,
                    f"{func.name}() dispatches on {len(named)} expression "
                    "node classes; walk the tree with Expr.children()/"
                    "walk()/map() instead",
                )
            )
    return violations


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_lint(roots: list[str]) -> list[LintViolation]:
    files = _iter_py_files(roots)
    parsed: list[tuple[Path, ast.Module]] = []
    violations: list[LintViolation] = []
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            violations.append(
                LintViolation(
                    "parse", str(path), exc.lineno or 1, str(exc.msg)
                )
            )
            continue
        parsed.append((path, tree))
    for path, tree in parsed:
        parts = _repro_parts(path)
        source = path.read_text(encoding="utf-8")
        if parts:
            violations.extend(check_layering(path, tree, parts))
        violations.extend(check_lock_discipline(path, tree, source))
        violations.extend(check_bare_unique(path, tree))
        violations.extend(check_metric_declaration(path, tree, parts))
        violations.extend(check_expr_walkers(path, tree, parts))
    violations.extend(check_fault_registry(parsed))
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.lint",
        description="AST linter for the repo's structural invariants "
        "(import layering, lock discipline, fault-point registry, "
        "bare np.unique, metric declarations, expression walkers)",
    )
    parser.add_argument(
        "paths", nargs="+", help="files or directories to lint"
    )
    args = parser.parse_args(argv)
    violations = run_lint(args.paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
