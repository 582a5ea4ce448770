"""Deterministic fingerprints for cross-query filter-cache entries.

A fingerprint identifies a piece of pre-filtering work purely by *what
it computes*, never by where it was computed: the base table's name and
monotonic data version, the canonical form of the local predicate, the
(table-relative) join-key columns, the filter kind, and its sizing
parameters.  Two queries — or two sessions, or two threads — that would
build the same filter therefore produce the same fingerprint, which is
what makes the :class:`~repro.cache.store.FilterCache` shareable.

Canonicalization rules:

* Expressions serialize structurally (node tags + operand forms), so a
  rebuilt-but-equal predicate tree maps to the same string and any
  changed constant to a different one.
* Column references inside a relation's local predicate and join-key
  lists are **alias-stripped**: ``s.s_suppkey`` and ``s2.s_suppkey``
  denote the same base column, so self-joins and differently-aliased
  queries share cache entries.
* Fingerprints are SHA-256 over the joined canonical parts — stable
  across processes and Python versions (no reliance on ``hash()``).
"""

from __future__ import annotations

import hashlib

from ..expr.nodes import (
    And,
    Arithmetic,
    Between,
    Case,
    ColumnRef,
    Comparison,
    DateLiteral,
    Expr,
    InSet,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    ScalarRef,
    Substr,
    Year,
)

_SEP = "\x1f"  # unit separator: cannot occur in canonical parts


def strip_alias(name: str, alias: str | None) -> str:
    """Drop a leading ``"{alias}."`` qualifier from a column name."""
    if alias is not None and name.startswith(alias + "."):
        return name[len(alias) + 1 :]
    return name


def canonical_expr(expr: Expr | None, alias: str | None = None) -> str:
    """A deterministic structural serialization of an expression tree.

    ``alias`` (when given) is stripped from column references so the
    form is relative to the base table rather than the query's aliasing.
    """
    if expr is None:
        return "none"
    if isinstance(expr, ColumnRef):
        return f"col:{strip_alias(expr.name, alias)}"
    if isinstance(expr, Literal):
        return f"lit:{type(expr.value).__name__}:{expr.value!r}"
    if isinstance(expr, DateLiteral):
        return f"date:{expr.iso}"
    if isinstance(expr, ScalarRef):
        # Unresolved scalar placeholders never reach cacheable scans
        # (the runner fingerprints the resolved spec), but serialize
        # deterministically anyway.
        return f"scalar:{expr.table}.{expr.column}"
    if isinstance(expr, Comparison):
        return (
            f"cmp({expr.op},{canonical_expr(expr.left, alias)},"
            f"{canonical_expr(expr.right, alias)})"
        )
    if isinstance(expr, Between):
        return (
            f"between({canonical_expr(expr.operand, alias)},"
            f"{canonical_expr(expr.low, alias)},"
            f"{canonical_expr(expr.high, alias)})"
        )
    if isinstance(expr, InSet):
        values = ",".join(f"{type(v).__name__}:{v!r}" for v in expr.values)
        return f"in({canonical_expr(expr.operand, alias)},[{values}])"
    if isinstance(expr, Like):
        tag = "notlike" if expr.negate else "like"
        return f"{tag}({canonical_expr(expr.operand, alias)},{expr.pattern!r})"
    if isinstance(expr, IsNull):
        tag = "notnull" if expr.negate else "isnull"
        return f"{tag}({canonical_expr(expr.operand, alias)})"
    if isinstance(expr, And):
        return (
            f"and({canonical_expr(expr.left, alias)},"
            f"{canonical_expr(expr.right, alias)})"
        )
    if isinstance(expr, Or):
        return (
            f"or({canonical_expr(expr.left, alias)},"
            f"{canonical_expr(expr.right, alias)})"
        )
    if isinstance(expr, Not):
        return f"not({canonical_expr(expr.operand, alias)})"
    if isinstance(expr, Arithmetic):
        return (
            f"arith({expr.op},{canonical_expr(expr.left, alias)},"
            f"{canonical_expr(expr.right, alias)})"
        )
    if isinstance(expr, Case):
        whens = ",".join(
            f"({canonical_expr(c, alias)}:{canonical_expr(v, alias)})"
            for c, v in expr.whens
        )
        return f"case([{whens}],{canonical_expr(expr.default, alias)})"
    if isinstance(expr, Year):
        return f"year({canonical_expr(expr.operand, alias)})"
    if isinstance(expr, Substr):
        return (
            f"substr({canonical_expr(expr.operand, alias)},"
            f"{expr.start},{expr.length})"
        )
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def fingerprint(*parts: str) -> str:
    """SHA-256 fingerprint of the joined canonical parts."""
    return hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()


def scan_fingerprint(table: str, version: object, predicate: str) -> str:
    """Key of a cached local-predicate selection vector.

    ``version`` is embedded via ``str()`` — an int (legacy), a
    :class:`~repro.storage.catalog.DataVersion` (``"base.delta"``), or
    an already-rendered version string all fingerprint identically.
    """
    return fingerprint("scan", table, str(version), predicate)


def filter_fingerprint(
    table: str,
    version: object,
    predicate: str,
    key_columns: tuple[str, ...],
    kind: str,
    params: str,
) -> str:
    """Key of a cached transferable filter.

    ``key_columns`` must already be table-relative (alias-stripped);
    ``kind`` names the filter family (``"bloom"`` / ``"exact"``);
    ``params`` carries sizing knobs such as the fpp.
    """
    return fingerprint(
        "filter", table, str(version), predicate, ",".join(key_columns), kind, params
    )


def prefilter_fingerprint(
    relation_keys: list[tuple[str, str, object, str]],
    edges: list[str],
    strategy: str,
    config_form: str,
) -> str:
    """Key of a cached whole-query pre-filter result (transfer or
    semi-join phase output: one sorted row-index vector per alias).

    ``relation_keys`` holds ``(alias, table, version, predicate)`` per
    relation; ``edges`` the canonical edge forms; ``config_form`` the
    strategy-config serialization.  Alias names participate because the
    join-graph structure is expressed in terms of them.
    """
    rel_part = ";".join(
        f"{alias}={table}@{version}:{pred}"
        for alias, table, version, pred in sorted(relation_keys)
    )
    return fingerprint(
        "prefilter", strategy, config_form, rel_part, ";".join(sorted(edges))
    )
