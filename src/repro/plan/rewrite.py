"""Expression tree and query-spec rewriting.

Two rewrites run before planning:

* resolving :class:`~repro.expr.nodes.ScalarRef` placeholders —
  references to the single value produced by a scalar-aggregate
  pre-stage — into plain literals once the stage has run;
* folding **self-loop join edges** (``edge.left == edge.right``) into
  row-local predicates (:func:`fold_self_edges`): a join of an alias
  with *itself* compares columns of one row occurrence, which is a
  filter, not a join.  The join-graph builder rejects self-loops, so
  the runner folds them first.
"""

from __future__ import annotations

from dataclasses import replace

from ..errors import PlanError
from ..expr import nodes as N
from ..storage.catalog import Catalog
from .query import QuerySpec


def resolve_scalars(expr: N.Expr | None, catalog: Catalog) -> N.Expr | None:
    """Replace every :class:`ScalarRef` with the value it points at.

    The referenced table must exist in ``catalog`` and contain exactly
    one row; dates surface as :class:`DateLiteral`, everything else as
    :class:`Literal`.
    """
    if expr is None:
        return None
    return _rewrite(expr, catalog)


def _lookup(ref: N.ScalarRef, catalog: Catalog) -> N.Expr:
    table = catalog.get(ref.table)
    if table.num_rows != 1:
        raise PlanError(
            f"scalar subquery {ref.table!r} produced {table.num_rows} rows"
        )
    value = table.column(ref.column).value_at(0)
    if value is None:
        raise PlanError(f"scalar subquery {ref.table}.{ref.column} is NULL")
    return N.Literal(value)


def _rewrite(expr: N.Expr, catalog: Catalog) -> N.Expr:
    if isinstance(expr, N.ScalarRef):
        return _lookup(expr, catalog)
    if isinstance(expr, (N.ColumnRef, N.Literal, N.DateLiteral)):
        return expr
    if isinstance(expr, N.Comparison):
        return N.Comparison(
            expr.op, _rewrite(expr.left, catalog), _rewrite(expr.right, catalog)
        )
    if isinstance(expr, N.Between):
        return N.Between(
            _rewrite(expr.operand, catalog),
            _rewrite(expr.low, catalog),
            _rewrite(expr.high, catalog),
        )
    if isinstance(expr, N.InSet):
        return N.InSet(_rewrite(expr.operand, catalog), expr.values)
    if isinstance(expr, N.Like):
        return N.Like(_rewrite(expr.operand, catalog), expr.pattern, expr.negate)
    if isinstance(expr, N.IsNull):
        return N.IsNull(_rewrite(expr.operand, catalog), expr.negate)
    if isinstance(expr, N.And):
        return N.And(_rewrite(expr.left, catalog), _rewrite(expr.right, catalog))
    if isinstance(expr, N.Or):
        return N.Or(_rewrite(expr.left, catalog), _rewrite(expr.right, catalog))
    if isinstance(expr, N.Not):
        return N.Not(_rewrite(expr.operand, catalog))
    if isinstance(expr, N.Arithmetic):
        return N.Arithmetic(
            expr.op, _rewrite(expr.left, catalog), _rewrite(expr.right, catalog)
        )
    if isinstance(expr, N.Case):
        whens = tuple(
            (_rewrite(cond, catalog), _rewrite(value, catalog))
            for cond, value in expr.whens
        )
        return N.Case(whens, _rewrite(expr.default, catalog))
    if isinstance(expr, N.Year):
        return N.Year(_rewrite(expr.operand, catalog))
    if isinstance(expr, N.Substr):
        return N.Substr(_rewrite(expr.operand, catalog), expr.start, expr.length)
    raise PlanError(f"cannot rewrite node {type(expr).__name__}")


def fold_self_edges(spec: QuerySpec) -> QuerySpec:
    """Fold every self-loop join edge into a local predicate.

    With a single occurrence of the alias, the join condition can only
    compare columns of the same row, so each kind degenerates to a
    row-local filter:

    * ``inner`` / ``semi`` — a row joins/matches itself iff the key
      columns are pairwise equal (and the residual holds): keep rows
      satisfying the conjunction;
    * ``anti`` — keep rows that do *not* match themselves: the negated
      conjunction;
    * ``left`` (and ``right``) — unrepresentable: the preserved and the
      null-extended side are the same occurrence, so the fold raises a
      precise :class:`PlanError` telling the caller to introduce a
      second alias occurrence instead.

    Specs without self-loop edges are returned unchanged (no copy).
    """
    if all(e.left != e.right for e in spec.edges):
        return spec
    folded: dict[str, N.Expr] = {}
    edges = []
    for e in spec.edges:
        if e.left != e.right:
            edges.append(e)
            continue
        if e.how in ("left", "right"):
            raise PlanError(
                f"self-loop {e.how} join on alias {e.left!r} in query "
                f"{spec.name!r} cannot null-extend its own occurrence; "
                "add a second alias occurrence of the table instead"
            )
        condition: N.Expr | None = None
        for lk, rk in zip(e.qualified_left(), e.qualified_right()):
            pair = N.col(lk).eq(N.col(rk))
            condition = pair if condition is None else N.And(condition, pair)
        if e.residual is not None:
            condition = N.And(condition, e.residual)
        if e.how == "anti":
            condition = N.Not(condition)
        alias = e.left
        held = folded.get(alias)
        folded[alias] = condition if held is None else N.And(held, condition)
    relations = []
    for r in spec.relations:
        extra = folded.get(r.alias)
        if extra is None:
            relations.append(r)
        elif r.predicate is None:
            relations.append(replace(r, predicate=extra))
        else:
            relations.append(replace(r, predicate=N.And(r.predicate, extra)))
    return replace(spec, relations=relations, edges=edges)


def has_scalar_refs(expr: N.Expr | None) -> bool:
    """True when the tree still contains unresolved scalar references."""
    return bool(scalar_tables(expr))


def scalar_tables(expr: N.Expr | None) -> set[str]:
    """Names of the tables the tree's :class:`ScalarRef` nodes read."""
    found: set[str] = set()

    def visit(node: N.Expr) -> None:
        if isinstance(node, N.ScalarRef):
            found.add(node.table)
        for child in _children(node):
            visit(child)

    if expr is not None:
        visit(expr)
    return found


def _children(node: N.Expr) -> list[N.Expr]:
    if isinstance(node, (N.ColumnRef, N.Literal, N.DateLiteral, N.ScalarRef)):
        return []
    if isinstance(node, (N.Comparison, N.And, N.Or, N.Arithmetic)):
        return [node.left, node.right]
    if isinstance(node, N.Between):
        return [node.operand, node.low, node.high]
    if isinstance(node, (N.InSet, N.Like, N.IsNull, N.Not, N.Year, N.Substr)):
        return [node.operand]
    if isinstance(node, N.Case):
        out: list[N.Expr] = []
        for cond, value in node.whens:
            out.extend((cond, value))
        out.append(node.default)
        return out
    raise PlanError(f"unknown node {type(node).__name__}")
