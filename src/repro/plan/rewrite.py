"""Expression tree and query-spec rewriting.

Three rewrites run before planning:

* resolving :class:`~repro.expr.nodes.ScalarRef` placeholders —
  references to the single value produced by a scalar-aggregate
  pre-stage — into plain literals once the stage has run;
* folding **self-loop join edges** (``edge.left == edge.right``) into
  row-local predicates (:func:`fold_self_edges`): a join of an alias
  with *itself* compares columns of one row occurrence, which is a
  filter, not a join.  The join-graph builder rejects self-loops, so
  the runner folds them first;
* counting a relation's rows before it joins (:func:`eager_counts`),
  when the block's first aggregate only counts its columns per join
  key of its one neighbour.
"""

from __future__ import annotations

from dataclasses import replace

from ..engine.aggregate import AggSpec, GroupKey
from ..errors import PlanError
from ..expr import nodes as N
from ..storage.catalog import Catalog
from ..storage.column import DType
from .query import Aggregate, QuerySpec, Stage


def resolve_scalars(expr: N.Expr | None, catalog: Catalog) -> N.Expr | None:
    """Replace every :class:`ScalarRef` with the value it points at.

    The referenced table must exist in ``catalog`` and contain exactly
    one row; dates surface as :class:`DateLiteral`, everything else as
    :class:`Literal`.
    """
    if expr is None:
        return None
    return expr.map(
        lambda node: _lookup(node, catalog) if isinstance(node, N.ScalarRef) else node
    )


def _lookup(ref: N.ScalarRef, catalog: Catalog) -> N.Expr:
    table = catalog.get(ref.table)
    if table.num_rows != 1:
        raise PlanError(
            f"scalar subquery {ref.table!r} produced {table.num_rows} rows"
        )
    column = table.column(ref.column)
    value = column.value_at(0)
    if value is None:
        raise PlanError(f"scalar subquery {ref.table}.{ref.column} is NULL")
    if column.dtype is DType.DATE:
        return N.DateLiteral(value)  # value_at gives a DATE as its ISO text
    return N.Literal(value)


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
        terms = [
            N.col(lk).eq(N.col(rk))
            for lk, rk in zip(e.qualified_left(), e.qualified_right())
        ]
        if e.residual is not None:
            terms.append(e.residual)
        condition = N.all_of(*terms)
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


def eager_counts(spec: QuerySpec, catalog: Catalog) -> QuerySpec:
    """Count a relation's rows per join key before the join (eager
    aggregation, Yan & Larson, VLDB 1995).

    Applies when the block's first post operator is an ``Aggregate`` A
    whose aggregates are all ``count(v.col)`` over one relation ``v``,
    and:

    * ``v`` has exactly one edge ``e = (u, v)``: equality keys, no
      residual, ``inner`` or ``left`` with ``v`` null-supplying;
    * nothing but ``e`` and A's aggregates reads ``v``;
    * A's keys include ``u``'s side of ``e`` as plain column refs, and
      neither side of ``e`` is FLOAT64 (``u``'s and ``v``'s tables are
      already in ``catalog``).

    Then ``v`` becomes a pre-stage that groups ``v``'s rows that pass
    its predicate by ``v``'s edge keys and counts each ``v.col``; ``e``
    joins the stage's output under ``v``'s alias, and each count in A
    becomes ``sum_counts`` over the stage's partial counts.

    Sound without a uniqueness check: every row of an A-group carries
    one ``u`` key, so the group's count is the sum, over the group's
    ``u`` rows, of that key's partial count.  A ``u`` row with no
    partner either drops out under both plans (``inner``) or meets a
    NULL partial count that adds 0 (``left``), just as its NULL-extended
    row counted 0.  A stays in the plan, so the groups and their order
    are unchanged.  ``count(*)``, SUM, AVG, MIN and MAX are left alone:
    ``count(*)`` would count a NULL-extended row, and partial sums
    change the float summation order.

    Returns ``spec`` itself when the rule does not apply.
    """
    if not spec.post or not isinstance(spec.post[0], Aggregate):
        return spec
    top = spec.post[0]
    inputs = [a.input for a in top.aggs if a.func == "count"]
    refs = [i for i in inputs if isinstance(i, N.ColumnRef)]
    if not refs or len(refs) != len(top.aggs):
        return spec
    counted = {ref.name.split(".", 1)[0] for ref in refs}
    if len(counted) != 1:
        return spec
    (v,) = counted
    touching = [e for e in spec.edges if v in (e.left, e.right)]
    if len(touching) != 1:
        return spec
    (e,) = touching
    if e.residual is not None or not (
        e.how == "inner" or (e.how == "left" and e.right == v)
    ):
        return spec
    if e.right == v:
        u, u_keys, v_keys = e.left, e.left_keys, e.right_keys
    else:
        u, u_keys, v_keys = e.right, e.right_keys, e.left_keys
    readers = [r.columns() for r in spec.residuals]
    readers += [k.resolved_expr().columns() for k in top.keys]
    if any(c.split(".", 1)[0] == v for cols in readers for c in cols):
        return spec
    relations = spec.alias_map()
    group_keys = {k.resolved_expr() for k in top.keys}
    if any(N.ColumnRef(f"{u}.{k}") not in group_keys for k in u_keys):
        return spec
    for alias, keys in ((u, u_keys), (v, v_keys)):
        table = relations[alias].table
        if table not in catalog:
            return spec
        columns = catalog.get(table).columns
        if any(k not in columns or columns[k].dtype is DType.FLOAT64 for k in keys):
            return spec
    stage_keys = tuple(dict.fromkeys(v_keys))
    if {a.name for a in top.aggs} & set(stage_keys):
        return spec

    output = f"{spec.name}_{v}_counts"
    stage = QuerySpec(
        name=output,
        relations=[relations[v]],
        post=[
            Aggregate(
                keys=tuple(GroupKey(k, N.col(f"{v}.{k}")) for k in stage_keys),
                aggs=top.aggs,
            )
        ],
    )
    counts = tuple(
        AggSpec("sum_counts", N.col(f"{v}.{a.name}"), a.name) for a in top.aggs
    )
    return replace(
        spec,
        relations=[
            replace(r, table=output, predicate=None) if r.alias == v else r
            for r in spec.relations
        ],
        post=[Aggregate(top.keys, counts), *spec.post[1:]],
        pre_stages=[*spec.pre_stages, Stage(stage, output)],
    )


def scalar_tables(expr: N.Expr | None) -> set[str]:
    """Names of the tables the tree's :class:`ScalarRef` nodes read."""
    if expr is None:
        return set()
    return {node.table for node in expr.walk() if isinstance(node, N.ScalarRef)}
