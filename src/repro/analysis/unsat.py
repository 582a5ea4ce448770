"""Static unsatisfiability detection via interval analysis.

Decomposes a predicate into its AND-conjuncts and intersects, per
column, the value domains implied by constant comparisons — the same
comparison semantics the zone-map pruner in
:mod:`repro.storage.partition` applies to min/max bounds (``==`` means
the value must sit inside the range, ``<`` tightens the upper bound,
``BETWEEN`` is a closed interval, ``IN`` a finite point set, and ``!=``
is conservatively ignored).  A predicate whose domain for any column
intersects to empty provably selects zero rows; the analyzer reports it
as the ``REP112`` warning.

Only *provable* emptiness is reported: OR-branches, non-constant
operands, and unknown node shapes contribute no constraint, so a
``None`` return never implies satisfiability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..expr import nodes as N
from ..storage.dates import date_to_days
from ..storage.partition import const_value

#: Mirror of the zone-map pruner's flip map for const-op-column forms.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class _Domain:
    """Value domain for one column key under a conjunction."""

    lo: float = -math.inf
    lo_open: bool = False
    hi: float = math.inf
    hi_open: bool = False
    #: Finite allowed set (from ``==`` / ``IN``); None means "any".
    points: set | None = None
    #: String equalities tracked separately (no ordering on strings).
    strings: set | None = None

    def tighten_low(self, value: float, open_: bool) -> None:
        if value > self.lo or (value == self.lo and open_):
            self.lo, self.lo_open = value, open_

    def tighten_high(self, value: float, open_: bool) -> None:
        if value < self.hi or (value == self.hi and open_):
            self.hi, self.hi_open = value, open_

    def restrict_points(self, values: set) -> None:
        self.points = values if self.points is None else (
            self.points & values
        )

    def restrict_strings(self, values: set) -> None:
        self.strings = values if self.strings is None else (
            self.strings & values
        )

    def _in_range(self, value: float) -> bool:
        if value < self.lo or (value == self.lo and self.lo_open):
            return False
        if value > self.hi or (value == self.hi and self.hi_open):
            return False
        return True

    def empty(self) -> bool:
        if self.strings is not None and not self.strings:
            return True
        if self.points is not None:
            return not any(self._in_range(v) for v in self.points)
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)


def _string_value(expr: N.Expr) -> str | None:
    if isinstance(expr, N.Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def _operand_key(expr: N.Expr) -> str | None:
    """Domain key for a constrainable operand: a column, or YEAR(col)
    tracked as its own monotone-derived pseudo-column."""
    if isinstance(expr, N.ColumnRef):
        return expr.name
    if isinstance(expr, N.Year) and isinstance(expr.operand, N.ColumnRef):
        return f"year({expr.operand.name})"
    return None


def _conjuncts(expr: N.Expr) -> list[N.Expr]:
    if isinstance(expr, N.And):
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


@dataclass
class _Domains:
    by_key: dict[str, _Domain] = field(default_factory=dict)

    def get(self, key: str) -> _Domain:
        return self.by_key.setdefault(key, _Domain())


def _apply_comparison(domains: _Domains, expr: N.Comparison) -> None:
    key, op, other = _operand_key(expr.left), expr.op, expr.right
    if key is None:
        key = _operand_key(expr.right)
        if key is None:
            return
        op, other = _FLIP.get(expr.op, expr.op), expr.left
    value = const_value(other)
    if value is None:
        if op == "==":
            text = _string_value(other)
            if text is not None:
                domains.get(key).restrict_strings({text})
        return
    domain = domains.get(key)
    if op == "==":
        domain.restrict_points({value})
    elif op == "<":
        domain.tighten_high(value, open_=True)
    elif op == "<=":
        domain.tighten_high(value, open_=False)
    elif op == ">":
        domain.tighten_low(value, open_=True)
    elif op == ">=":
        domain.tighten_low(value, open_=False)
    # "!=" contributes nothing, matching the zone-map pruner.


def _apply_conjunct(domains: _Domains, conjunct: N.Expr) -> None:
    if isinstance(conjunct, N.Comparison):
        _apply_comparison(domains, conjunct)
        return
    if isinstance(conjunct, N.Between):
        key = _operand_key(conjunct.operand)
        if key is None:
            return
        low, high = const_value(conjunct.low), const_value(conjunct.high)
        domain = domains.get(key)
        if low is not None:
            domain.tighten_low(low, open_=False)
        if high is not None:
            domain.tighten_high(high, open_=False)
        return
    if isinstance(conjunct, N.InSet):
        key = _operand_key(conjunct.operand)
        if key is None:
            return
        numeric = {
            v
            for v in (const_value(N.Literal(x)) for x in conjunct.values)
            if v is not None
        }
        strings = {x for x in conjunct.values if isinstance(x, str)}
        if strings and not numeric:
            try:
                # DATE columns spell IN lists as ISO strings; treat a
                # fully-parseable list as epoch days *and* raw strings
                # (one of the two interpretations matches the column).
                numeric = {float(date_to_days(s)) for s in strings}
            except Exception:
                numeric = set()
        domain = domains.get(key)
        if numeric and not strings:
            domain.restrict_points(numeric)
        elif strings and not numeric:
            domain.restrict_strings(strings)
        return
    # OR-branches and anything else constrain nothing (conservative).


def unsat_reason(predicate: N.Expr) -> str | None:
    """Return a human reason if ``predicate`` is provably empty."""
    domains = _Domains()
    for conjunct in _conjuncts(predicate):
        _apply_conjunct(domains, conjunct)
    for key, domain in domains.by_key.items():
        if domain.empty():
            return (
                f"constraints on {key!r} intersect to an empty domain; "
                f"the predicate can never select a row"
            )
    return None
