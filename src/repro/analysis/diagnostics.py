"""Structured diagnostics for the plan semantic analyzer.

Every problem the analyzer can report has a **stable code** (``REPxxx``)
so that tooling — the ``repro check`` CLI, the network server's
registration check, CI gates, and tests — can match on the code instead
of the human message.  The runtime error paths that overlap with static
checks (``expr/eval.py``, ``plan/joingraph.py``) embed the same codes in
their :class:`~repro.errors.PlanError` messages, so a plan that slips
past static analysis and fails at execution time reports identically.

Severities: ``error`` diagnostics make a plan invalid (``validate``
raises, a server refuses to start); ``warning`` diagnostics are
advisory (e.g. a statically-unsatisfiable predicate is *legal*, it just
provably returns zero rows).
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR = "error"
WARNING = "warning"

#: The full catalogue: code -> (severity, short meaning).  The README
#: section and the negative-fixture test suite are generated against
#: this table; adding a code here without a fixture fails the suite.
CODES: dict[str, tuple[str, str]] = {
    "REP101": (ERROR, "unknown table: relation references a table "
                      "that is not in the catalog"),
    "REP102": (ERROR, "duplicate relation alias in a query spec"),
    "REP103": (ERROR, "unknown alias: join edge, join order, or "
                      "column reference names an undeclared alias"),
    "REP104": (ERROR, "unknown column: an alias.column reference does "
                      "not resolve against the inferred schema"),
    "REP105": (ERROR, "unknown join kind (not one of the declared "
                      "JOIN_KINDS)"),
    "REP106": (ERROR, "join key arity mismatch: left/right key lists "
                      "empty or of different lengths"),
    "REP107": (ERROR, "join key dtype mismatch between the two sides "
                      "of an equi-join pair"),
    "REP108": (ERROR, "type-incompatible comparison or arithmetic "
                      "(two literals, string vs non-string, ...)"),
    "REP109": (ERROR, "predicate does not infer to a boolean column"),
    "REP110": (ERROR, "invalid aggregate: unknown function or missing "
                      "input expression"),
    "REP111": (ERROR, "invalid post-op reference: sort key, group key "
                      "or projection input not in the stage schema"),
    "REP112": (WARNING, "statically unsatisfiable predicate: interval "
                        "analysis proves it selects zero rows"),
    "REP113": (ERROR, "unknown comparison or arithmetic operator"),
    "REP114": (ERROR, "invalid function operand: LIKE/SUBSTRING on a "
                      "non-string, YEAR on a non-date, IS NULL or IN "
                      "on a literal"),
    "REP115": (ERROR, "unresolved scalar reference: ScalarRef names a "
                      "table/column no pre-stage or catalog entry "
                      "provides"),
    "REP116": (ERROR, "invalid join order: not a permutation of the "
                      "declared aliases, or a step with no connecting "
                      "edge"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, location-addressed into the plan.

    ``path`` is a plan-path like ``edges[1].right_keys`` or
    ``pre_stages[0].spec.post[2].predicate`` — stable enough for tests
    to assert *where* a diagnostic fired, readable enough for humans.
    """

    code: str
    message: str
    path: str

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"undeclared diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        return CODES[self.code][0]

    def as_dict(self) -> dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "path": self.path,
        }

    def __str__(self) -> str:
        return f"{self.code} {self.severity} at {self.path}: {self.message}"


def diag(code: str, message: str, path: str) -> Diagnostic:
    """Shorthand constructor used throughout the analyzer."""
    return Diagnostic(code=code, message=message, path=path)
