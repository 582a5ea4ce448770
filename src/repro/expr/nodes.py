"""Expression AST.

Expressions are built with a small fluent DSL::

    col("l.quantity").gt(lit(24)) & col("p.brand").eq(lit("Brand#12"))

and evaluated vectorized against a :class:`~repro.storage.table.Table`
(see :mod:`repro.expr.eval`).  Predicates evaluate to BOOL columns;
value expressions to typed columns.

Comparison methods are named (``.eq``, ``.lt``, ...) rather than
overloading ``__eq__`` so that expressions remain hashable and usable in
sets/dicts; arithmetic does use the natural operators.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, fields, replace
from functools import cache, reduce
from typing import Any, ClassVar, get_args, get_type_hints


class Expr:
    """Base class for all expression nodes, each a frozen dataclass."""

    # Every node is a dataclass; declared so type checkers accept
    # ``fields`` and ``replace`` on an ``Expr``.
    __dataclass_fields__: ClassVar[dict[str, Any]]

    # -- comparisons ---------------------------------------------------
    def eq(self, other: "Expr") -> "Comparison":
        """``self = other``"""
        return Comparison("==", self, other)

    def ne(self, other: "Expr") -> "Comparison":
        """``self <> other``"""
        return Comparison("!=", self, other)

    def lt(self, other: "Expr") -> "Comparison":
        """``self < other``"""
        return Comparison("<", self, other)

    def le(self, other: "Expr") -> "Comparison":
        """``self <= other``"""
        return Comparison("<=", self, other)

    def gt(self, other: "Expr") -> "Comparison":
        """``self > other``"""
        return Comparison(">", self, other)

    def ge(self, other: "Expr") -> "Comparison":
        """``self >= other``"""
        return Comparison(">=", self, other)

    def between(self, low: "Expr", high: "Expr") -> "Between":
        """``self BETWEEN low AND high`` (inclusive both ends)."""
        return Between(self, low, high)

    def isin(self, values: Sequence) -> "InSet":
        """``self IN (values...)``"""
        return InSet(self, tuple(values))

    def like(self, pattern: str) -> "Like":
        """SQL ``LIKE`` with ``%`` and ``_`` wildcards."""
        return Like(self, pattern, negate=False)

    def not_like(self, pattern: str) -> "Like":
        """SQL ``NOT LIKE``."""
        return Like(self, pattern, negate=True)

    def is_null(self) -> "IsNull":
        """``self IS NULL``"""
        return IsNull(self, negate=False)

    def is_not_null(self) -> "IsNull":
        """``self IS NOT NULL``"""
        return IsNull(self, negate=True)

    # -- boolean connectives -------------------------------------------
    def __and__(self, other: "Expr") -> "And":
        return And(self, other)

    def __or__(self, other: "Expr") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other: "Expr") -> "Arithmetic":
        return Arithmetic("+", self, other)

    def __sub__(self, other: "Expr") -> "Arithmetic":
        return Arithmetic("-", self, other)

    def __mul__(self, other: "Expr") -> "Arithmetic":
        return Arithmetic("*", self, other)

    def __truediv__(self, other: "Expr") -> "Arithmetic":
        return Arithmetic("/", self, other)

    # -- structure -------------------------------------------------------
    def children(self) -> list["Expr"]:
        """The node's direct subexpressions, in field order."""
        out: list[Expr] = []
        for name in _expr_fields(type(self)):
            _gather(getattr(self, name), out)
        return out

    def walk(self) -> Iterator["Expr"]:
        """Every node of the tree, parents before children."""
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def map(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """Rebuild the tree bottom-up: ``fn`` receives each node with
        its children already mapped and returns its replacement.  A
        node none of whose children changed is passed on as itself."""
        changes: dict[str, object] = {}
        for name in _expr_fields(type(self)):
            value = getattr(self, name)
            mapped = _map_value(value, fn)
            if mapped is not value:
                changes[name] = mapped
        return fn(replace(self, **changes) if changes else self)

    def columns(self) -> frozenset[str]:
        """Names of the columns this expression tree references.

        Remembered on the node, which is frozen: the planner asks a
        spec's unchanging predicates again on every run."""
        names = self.__dict__.get("_columns")
        if names is None:
            names = frozenset(
                node.name for node in self.walk() if isinstance(node, ColumnRef)
            )
            self.__dict__["_columns"] = names
        return names


@cache
def _expr_fields(cls: type[Expr]) -> tuple[str, ...]:
    """Names of the dataclass fields of ``cls`` that hold expressions:
    an ``Expr`` or a (nested) tuple of them, such as ``Case.whens``.
    Any other field (``InSet.values``, ``Like.pattern``) is data."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if _holds_expr(hints[f.name]))


def _holds_expr(hint: object) -> bool:
    if get_args(hint):
        return any(_holds_expr(arg) for arg in get_args(hint))
    return isinstance(hint, type) and issubclass(hint, Expr)


def _gather(value: object, out: list["Expr"]) -> None:
    if isinstance(value, Expr):
        out.append(value)
    elif isinstance(value, tuple):
        for item in value:
            _gather(item, out)


def _map_value(value: object, fn: Callable[["Expr"], "Expr"]) -> object:
    if isinstance(value, Expr):
        return value.map(fn)
    if isinstance(value, tuple):
        items = tuple(_map_value(item, fn) for item in value)
        if any(new is not old for new, old in zip(items, value)):
            return items
    return value


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a (qualified) column name."""

    name: str


@dataclass(frozen=True)
class Literal(Expr):
    """A Python constant (int, float, str, bool, or ISO date string)."""

    value: object


@dataclass(frozen=True)
class DateLiteral(Expr):
    """An ISO date constant, compared against DATE columns."""

    iso: str


@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison between two expressions."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Between(Expr):
    """Inclusive range predicate."""

    operand: Expr
    low: Expr
    high: Expr


@dataclass(frozen=True)
class InSet(Expr):
    """Membership in a literal value list."""

    operand: Expr
    values: tuple


@dataclass(frozen=True)
class Like(Expr):
    """SQL LIKE / NOT LIKE over a string expression."""

    operand: Expr
    pattern: str
    negate: bool


@dataclass(frozen=True)
class IsNull(Expr):
    """Null test (only meaningful after outer joins)."""

    operand: Expr
    negate: bool


@dataclass(frozen=True)
class And(Expr):
    """Logical conjunction."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    """Logical disjunction."""

    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic (+ - * /) producing a numeric column."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    whens: tuple[tuple[Expr, Expr], ...]
    default: Expr


@dataclass(frozen=True)
class Year(Expr):
    """``EXTRACT(YEAR FROM date_expr)``."""

    operand: Expr


@dataclass(frozen=True)
class Substr(Expr):
    """``SUBSTRING(string_expr FROM start FOR length)`` (1-based)."""

    operand: Expr
    start: int
    length: int


@dataclass(frozen=True)
class ScalarRef(Expr):
    """A scalar subquery placeholder: one value from a one-row table.

    The query runner resolves these to :class:`Literal` values after the
    producing pre-stage has executed (see
    :func:`repro.plan.rewrite.resolve_scalars`); evaluating an unresolved
    reference is an error.
    """

    table: str
    column: str


# ----------------------------------------------------------------------
# Builder helpers (the public DSL surface)
# ----------------------------------------------------------------------
def col(name: str) -> ColumnRef:
    """Reference a column by (qualified) name."""
    return ColumnRef(name)


def lit(value: object) -> Literal:
    """Wrap a Python constant as a literal expression."""
    return Literal(value)


def date(iso: str) -> DateLiteral:
    """Wrap an ISO date string as a DATE literal."""
    return DateLiteral(iso)


def case(whens: Sequence[tuple[Expr, Expr]], default: Expr) -> Case:
    """Build a CASE expression from (condition, value) pairs."""
    return Case(tuple(whens), default)


def year(operand: Expr) -> Year:
    """EXTRACT(YEAR FROM operand)."""
    return Year(operand)


def substr(operand: Expr, start: int, length: int) -> Substr:
    """SUBSTRING(operand FROM start FOR length), 1-based like SQL."""
    return Substr(operand, start, length)


def all_of(*exprs: Expr) -> Expr:
    """AND-fold a sequence of predicates."""
    return reduce(And, exprs)


def any_of(*exprs: Expr) -> Expr:
    """OR-fold a sequence of predicates."""
    return reduce(Or, exprs)
