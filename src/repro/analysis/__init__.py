"""Static analysis: plan semantic analyzer + repo invariant linter.

Public surface:

- :func:`analyze` / :func:`validate` — schema-inference pass over a
  :class:`~repro.plan.query.QuerySpec` (``repro check`` routes through
  the first; the server's pre-admission verdict is the second).  Its
  ``REP112`` emptiness check reads value ranges the way zone-map
  pruning does, through :func:`repro.storage.partition.empty_operand`;
- :class:`Diagnostic` and the :data:`CODES` catalogue of stable
  ``REPxxx`` diagnostic codes;
- :mod:`repro.analysis.lint` — the AST invariant linter, run as
  ``python -m repro.analysis.lint src/`` (not re-exported here so the
  ``-m`` entry point stays import-clean).
"""

from .analyzer import analyze, validate
from .diagnostics import CODES, ERROR, WARNING, Diagnostic

__all__ = [
    "CODES",
    "ERROR",
    "WARNING",
    "Diagnostic",
    "analyze",
    "validate",
]
