"""Repo invariant linter tests: synthetic trees per rule + real tree.

Each lint rule gets positive (violation detected) and negative (clean
code passes) coverage against small synthetic packages written to
``tmp_path``, then the real ``src/`` tree is asserted clean — the same
invocation the CI static-analysis job runs.  When ruff/mypy happen to
be installed (CI always, dev machines sometimes), a smoke test runs
them too.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import LintViolation, main, run_lint

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")
    return root


def _rules(violations: list[LintViolation]) -> set[str]:
    return {v.rule for v in violations}


def _of(violations: list[LintViolation], rule: str) -> list[LintViolation]:
    """Violations of one rule.  Synthetic trees have no testing/faults.py,
    so the fault-registry rule falls back to the real registry and
    reports its keys unused — noise for the rule under test here."""
    return [v for v in violations if v.rule == rule]


# ----------------------------------------------------------------------
# Rule a: import layering
# ----------------------------------------------------------------------
def test_layering_flags_upward_import(tmp_path):
    _write_tree(tmp_path, {
        "repro/errors.py": "from repro.service import Engine\n",
        "repro/service/app.py": "x = 1\n",
    })
    violations = _of(run_lint([str(tmp_path)]), "import-layering")
    assert len(violations) == 1
    v = violations[0]
    assert "errors" in v.message and "service" in v.message
    assert v.line == 1


def test_layering_allows_downward_and_peer_imports(tmp_path):
    _write_tree(tmp_path, {
        # Downward: service (8) -> errors (0); analysis (5) -> plan (4).
        "repro/service/app.py": "from repro.errors import PlanError\n",
        "repro/analysis/a.py": "from ..plan import query\n",
        # Peer-allowed: expr <-> storage.
        "repro/expr/e.py": "from repro.storage import column\n",
        "repro/storage/s.py": "from repro.expr import nodes\n",
    })
    assert _of(run_lint([str(tmp_path)]), "import-layering") == []


def test_layering_skips_type_checking_and_local_imports(tmp_path):
    _write_tree(tmp_path, {
        "repro/errors.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.service import Engine\n"
            "def f():\n"
            "    from repro.service import Engine\n"
            "    return Engine\n"
        ),
    })
    assert _of(run_lint([str(tmp_path)]), "import-layering") == []


def test_layering_resolves_relative_imports(tmp_path):
    _write_tree(tmp_path, {
        "repro/plan/query.py": "from ..service import server\n",
    })
    violations = _of(run_lint([str(tmp_path)]), "import-layering")
    assert len(violations) == 1
    assert "plan" in violations[0].message


def test_layering_exempts_testing_package(tmp_path):
    _write_tree(tmp_path, {
        # testing imports the world, and anything may import testing.
        "repro/testing/chaos.py": "from repro.service import server\n",
        "repro/errors.py": "from repro.testing import faults\n",
    })
    assert _of(run_lint([str(tmp_path)]), "import-layering") == []


# ----------------------------------------------------------------------
# Rule b: lock discipline
# ----------------------------------------------------------------------
_LOCKED_CLASS = """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._n = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self._n += 1

    def peek(self):
        return self._n{waiver}
"""


def test_lock_discipline_flags_unguarded_access(tmp_path):
    _write_tree(tmp_path, {
        "mod.py": _LOCKED_CLASS.format(waiver=""),
    })
    violations = _of(run_lint([str(tmp_path)]), "lock-discipline")
    assert len(violations) == 1
    v = violations[0]
    assert "_n" in v.message and "peek" in v.message


def test_lock_discipline_accepts_guarded_and_waived_access(tmp_path):
    _write_tree(tmp_path, {
        "mod.py": _LOCKED_CLASS.format(waiver="  # lint: unguarded"),
    })
    assert _of(run_lint([str(tmp_path)]), "lock-discipline") == []


def test_lock_discipline_exempts_declaring_function(tmp_path):
    _write_tree(tmp_path, {
        "mod.py": (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._state = {}  # guarded-by: _lock\n"
            "        self._state['k'] = 1\n"  # same function: fine
        ),
    })
    assert _of(run_lint([str(tmp_path)]), "lock-discipline") == []


def test_lock_discipline_requires_the_declared_lock(tmp_path):
    _write_tree(tmp_path, {
        "mod.py": (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._other = threading.Lock()\n"
            "        self._n = 0  # guarded-by: _lock\n"
            "    def wrong(self):\n"
            "        with self._other:\n"
            "            return self._n\n"
        ),
    })
    violations = _of(run_lint([str(tmp_path)]), "lock-discipline")
    assert len(violations) == 1


# ----------------------------------------------------------------------
# Rule c: fault-point registry coverage
# ----------------------------------------------------------------------
def _fault_tree(tmp_path, *, call: str, registry: str) -> Path:
    return _write_tree(tmp_path, {
        "repro/testing/faults.py": (
            f"FAULT_POINTS = {registry}\n"
        ),
        "repro/engine/work.py": (
            "from ..testing.faults import fault_point\n"
            f"def go():\n    fault_point({call!r})\n"
        ),
    })


def test_fault_registry_flags_unregistered_call(tmp_path):
    _fault_tree(
        tmp_path,
        call="phantom.point",
        registry="{'real.point': frozenset({'raise'})}",
    )
    violations = run_lint([str(tmp_path)])
    rules = [v for v in violations if v.rule == "fault-registry"]
    messages = " ".join(v.message for v in rules)
    # Both directions fire: the phantom call AND the unused key.
    assert "phantom.point" in messages
    assert "real.point" in messages


def test_fault_registry_clean_when_both_directions_match(tmp_path):
    _fault_tree(
        tmp_path,
        call="real.point",
        registry="{'real.point': frozenset({'raise'})}",
    )
    assert run_lint([str(tmp_path)]) == []


# ----------------------------------------------------------------------
# Rule d: no bare np.unique
# ----------------------------------------------------------------------
def test_bare_unique_flagged_and_return_flags_accepted(tmp_path):
    _write_tree(tmp_path, {
        "mod.py": (
            "import numpy as np\n"
            "import numpy\n"
            "a = np.unique(x)\n"
            "b = numpy.unique(x, axis=0)\n"
            "c, d = np.unique(x, return_inverse=True)\n"
            "e = np.unique(x, return_counts=False)\n"
            "f = sorted(set(x))\n"
        ),
    })
    violations = _of(run_lint([str(tmp_path)]), "bare-unique")
    assert sorted(v.line for v in violations) == [3, 4]


# ----------------------------------------------------------------------
# Rule e: metric families only from declared book fields
# ----------------------------------------------------------------------
def test_metric_declaration_flagged_outside_obs(tmp_path):
    call = (
        "def f(registry):\n"
        "    registry.counter('repro_x_total', 'x')\n"
        "    registry.gauge('repro_y', 'y')\n"
        "    registry.histogram('repro_z_seconds', 'z')\n"
    )
    _write_tree(tmp_path, {
        "repro/service/app.py": call,
        "repro/obs/walk.py": call,
        "repro/cache/book.py": "x = metric_field('gauge', 'repro_b', 'b')\n",
    })
    violations = _of(run_lint([str(tmp_path)]), "metric-declaration")
    assert [(Path(v.path).name, v.line) for v in violations] == [
        ("app.py", 2), ("app.py", 3)
    ]


# ----------------------------------------------------------------------
# Rule f: one walk per expression tree
# ----------------------------------------------------------------------
def test_expr_walker_flags_node_dispatch_outside_semantic_modules(tmp_path):
    walker = (
        "from repro.expr import nodes as N\n"
        "from repro.expr.nodes import And, Or\n"
        "\n"
        "def rewrite(e):\n"
        "    if isinstance(e, (N.ColumnRef, N.Literal)):\n"
        "        return e\n"
        "    if isinstance(e, And) or isinstance(e, Or):\n"
        "        return e\n"
        "\n"
        "def three(e):\n"
        "    if isinstance(e, (N.ColumnRef, N.Literal, And, dict, list)):\n"
        "        return e\n"
        "\n"
        "def outer(e):\n"
        "    def inner(e):\n"
        "        return isinstance(e, (N.Not, N.Year, N.Substr, N.Case))\n"
        "    return isinstance(e, N.Between)\n"
    )
    _write_tree(tmp_path, {
        "repro/plan/walker.py": walker,
        "repro/expr/eval.py": walker,
        "repro/storage/partition.py": walker,
    })
    violations = _of(run_lint([str(tmp_path)]), "expr-walker")
    assert [(Path(v.path).name, v.line) for v in violations] == [
        ("walker.py", 4), ("walker.py", 15)
    ]
    assert "rewrite() dispatches on 4 expression node classes" in str(
        violations[0]
    )


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_real_src_tree_is_lint_clean():
    violations = run_lint([str(SRC)])
    assert violations == [], [str(v) for v in violations]


def test_cli_exit_codes(tmp_path, capsys):
    assert main([str(SRC)]) == 0
    assert "lint clean" in capsys.readouterr().out
    _write_tree(tmp_path, {
        "repro/errors.py": "from repro.service import Engine\n",
        "repro/service/app.py": "x = 1\n",
    })
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "import-layering" in out


def test_parse_errors_are_reported_not_raised(tmp_path):
    _write_tree(tmp_path, {"broken.py": "def f(:\n"})
    violations = _of(run_lint([str(tmp_path)]), "parse")
    assert len(violations) == 1


# ----------------------------------------------------------------------
# External tools, when present (CI installs them; dev machines may not)
# ----------------------------------------------------------------------
STRICT_PATHS = [
    "src/repro/allocator.py",
    "src/repro/errors.py",
    "src/repro/expr",
    "src/repro/plan",
    "src/repro/cache",
    "src/repro/analysis",
    "src/repro/core/transfer.py",
    "src/repro/engine/aggregate.py",
    "src/repro/engine/factorize.py",
    "src/repro/engine/hashjoin.py",
    "src/repro/engine/keys.py",
    "src/repro/engine/sort.py",
    "src/repro/engine/stats.py",
    "src/repro/filters/bitmap.py",
    "src/repro/filters/bloom.py",
    "src/repro/filters/hashing.py",
    "src/repro/filters/hashcache.py",
    "src/repro/storage/column.py",
    "src/repro/storage/table.py",
    "src/repro/storage/partition.py",
    "src/repro/storage/catalog.py",
    "src/repro/tpch/datagen.py",
    "src/repro/ssb/datagen.py",
]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_allowlist_clean():
    proc = subprocess.run(
        ["ruff", "check", *STRICT_PATHS],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_allowlist_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
