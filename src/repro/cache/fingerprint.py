"""Deterministic fingerprints for cross-query filter-cache entries.

A fingerprint identifies a piece of pre-filtering work purely by *what
it computes*, never by where it was computed: the base table's name and
monotonic data version, the canonical form of the local predicate, the
(table-relative) join-key columns, the filter kind, and its sizing
parameters.  Two queries — or two sessions, or two threads — that would
build the same filter therefore produce the same fingerprint, which is
what makes the :class:`~repro.cache.store.FilterCache` shareable.

Canonicalization rules:

* Expressions serialize structurally, from each node's declared
  dataclass fields (:func:`canonical_expr`), so a rebuilt-but-equal
  predicate tree maps to the same string and any changed constant to a
  different one.
* A plan's relations and join edges serialize once
  (:func:`plan_parts`); the whole-query pre-filter key adds data
  versions and the strategy config, the slow log's ``plan_fp``
  (:func:`plan_fingerprint`) the post pipeline and pre-stages.
* Column references inside a relation's local predicate and join-key
  lists are **alias-stripped**: ``s.s_suppkey`` and ``s2.s_suppkey``
  denote the same base column, so self-joins and differently-aliased
  queries share cache entries.
* Fingerprints are SHA-256 over the joined canonical parts — stable
  across processes and Python versions (no reliance on ``hash()``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import fields
from typing import TYPE_CHECKING

from ..expr.nodes import ColumnRef, Expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..plan.query import QuerySpec

_SEP = "\x1f"  # unit separator: cannot occur in canonical parts


def strip_alias(name: str, alias: str | None) -> str:
    """Drop a leading ``"{alias}."`` qualifier from a column name."""
    if alias is not None and name.startswith(alias + "."):
        return name[len(alias) + 1 :]
    return name


def canonical_expr(expr: Expr | None, alias: str | None = None) -> str:
    """A deterministic structural serialization of an expression tree.

    The node's class name, then each of its dataclass fields: a
    subexpression recursively, a tuple in brackets, any other value as
    a type-tagged ``repr``.  ``alias`` (when given) is stripped from
    column references so the form is relative to the base table rather
    than the query's aliasing.
    """
    if expr is None:
        return "none"
    if isinstance(expr, ColumnRef):
        return f"ColumnRef({_canonical_value(strip_alias(expr.name, alias), alias)})"
    parts = ",".join(
        _canonical_value(getattr(expr, f.name), alias) for f in fields(expr)
    )
    return f"{type(expr).__name__}({parts})"


def _canonical_value(value: object, alias: str | None) -> str:
    if isinstance(value, Expr):
        return canonical_expr(value, alias)
    if isinstance(value, tuple):
        return "[" + ",".join(_canonical_value(v, alias) for v in value) + "]"
    return f"{type(value).__name__}:{value!r}"


def plan_parts(spec: "QuerySpec") -> tuple[dict[str, tuple[str, str]], list[str]]:
    """A plan's canonical relation and edge parts.

    Per alias, its base table and the alias-stripped form of its local
    predicate; one form per join edge (endpoints, keys, kind, residual),
    sorted, so declaration order does not matter.
    """
    relations = {
        r.alias: (r.table, canonical_expr(r.predicate, r.alias))
        for r in spec.relations
    }
    edges = sorted(
        f"{e.left}[{','.join(e.left_keys)}]={e.right}[{','.join(e.right_keys)}]"
        f":{e.how}:{canonical_expr(e.residual)}"
        for e in spec.edges
    )
    return relations, edges


def plan_fingerprint(spec: "QuerySpec") -> str:
    """A 16-hex-char structural fingerprint of a query plan (the slow
    log's ``plan_fp``): :func:`plan_parts`, the number of post
    operators, and recursively the pre-stages.  Stable across processes
    and runs, and insensitive to declaration order."""
    relations, edges = plan_parts(spec)
    parts = [
        f"rel:{alias}={table}:{predicate}"
        for alias, (table, predicate) in sorted(relations.items())
    ]
    parts += [f"edge:{form}" for form in edges]
    parts.append(f"post:{len(spec.post)}")
    for stage in spec.pre_stages:
        parts.append(f"stage:{stage.output}:{plan_fingerprint(stage.spec)}")
    return fingerprint(*parts)[:16]


def fingerprint(*parts: str) -> str:
    """SHA-256 fingerprint of the joined canonical parts."""
    return hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()


def scan_fingerprint(table: str, version: object, predicate: str) -> str:
    """Key of a cached local-predicate selection vector.

    ``version`` is embedded via ``str()``: a
    :class:`~repro.storage.catalog.DataVersion` renders ``"base.delta"``.
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
    edges: Sequence[str],
    strategy: str,
    transfer: object,
) -> str:
    """Key of a cached whole-query pre-filter result (transfer or
    semi-join phase output: one sorted row-index vector per alias).

    ``relation_keys`` holds ``(alias, table, version, predicate)`` per
    relation; ``edges`` the :func:`plan_parts` edge forms.  Alias names
    participate because the join-graph structure is expressed in terms
    of them.  Predicate transfer adds its ``transfer`` config, a frozen
    dataclass of scalars whose ``repr`` serializes every knob;
    Yannakakis' semi-join plan (spanning tree plus off-tree residual
    verification) has none.
    """
    config = repr(transfer) if strategy == "predtrans" else "verify-residual"
    rel_part = ";".join(
        f"{alias}={table}@{version}:{pred}"
        for alias, table, version, pred in sorted(relation_keys)
    )
    return fingerprint("prefilter", strategy, config, rel_part, ";".join(edges))
