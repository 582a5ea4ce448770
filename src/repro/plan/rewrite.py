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
* aggregating a relation per join key before it joins
  (:func:`eager_aggregation`), when the block's first aggregate reads
  it only through counts and sums and the push removes rows: a count
  meets one partial per group, a sum crosses a many-to-many key.
"""

from __future__ import annotations

import operator
from dataclasses import replace
from functools import reduce

from ..engine.aggregate import AggSpec, GroupKey
from ..errors import PlanError
from ..expr import nodes as N
from ..storage.catalog import Catalog
from ..storage.column import DType
from ..storage.partition import get_layout
from .query import Aggregate, QuerySpec, Relation, Stage


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


#: Aggregates that partial aggregates per join key add back up to.
_PUSHABLE = ("count", "count_star", "sum")

#: The pre-stage column holding a pushed relation's row count per key.
ROWS = "rows"


def eager_aggregation(spec: QuerySpec, catalog: Catalog) -> QuerySpec:
    """Aggregate relations per join key before they join (eager
    aggregation, Yan & Larson, VLDB 1995).

    Applies when the block's first post operator is an ``Aggregate`` A
    whose aggregates are all ``count``, ``count(*)`` or ``sum``.  A
    relation ``v`` is *pushed* when:

    * every edge touching ``v`` is an equality edge without residual on
      one set of ``v``'s columns (its key), none of them FLOAT64, and
      is ``inner`` — or ``v`` has one edge, a ``left`` (``right``) join
      that null-supplies ``v``;
    * nothing but those edges and A's aggregates reads ``v``, and each
      aggregate reading ``v`` reads nothing else;
    * the push removes rows.  With counts only, every column of ``v``'s
      key is equated, through the block's inner and outer edges, with a
      plain column that A groups by: each group then meets one partial
      count per key, as Q13's customers meet their orders' counts.
      With a ``sum``, ``v``'s key class (the columns so equated with its
      key) is many-to-many: ``v`` and at least one other relation of it
      *repeat* their key, holding at least twice as many rows as
      distinct key tuples by the catalog's distinct counts
      (:meth:`PartitionLayout.distinct_count`, multiplied over a
      composite key).  Partial sums change a float sum's order of
      addition, so they are taken only where the written join would
      multiply rows on both sides, as c1's suppliers and customers per
      nation do;
    * with an outer edge anywhere in the block, every aggregate reads
      ``v`` alone (a NULL-extended row count could not scale one).

    Each pushed ``v`` becomes a pre-stage that groups ``v``'s rows that
    pass its predicate by its key and computes, per key, each
    aggregate that reads ``v`` and, when another aggregate needs it,
    the row count ``rows``.  ``v``'s edges join the stage's output under
    ``v``'s alias.  In A, with ``W`` the product of the *other* pushed
    relations' ``rows``:

    * ``count``/``sum`` of ``v`` becomes ``sum_counts``/``sum`` of
      ``v``'s partial times ``W``;
    * ``count(*)`` becomes ``sum_counts`` of every pushed ``rows``;
    * ``count(e)``/``sum(e)`` of unpushed relations becomes
      ``sum_counts`` of ``W`` where ``e`` is not NULL, / ``sum`` of
      ``e`` times ``W``.

    Sound without a uniqueness check: joins see a pushed row only
    through its key, so each joined row of the rewritten plan stands
    for the product of its pushed groups' sizes of the written plan's
    rows, which agree on every unpushed column.  A null-supplied ``v``
    with no partner is one NULL-extended row under both plans: its
    NULL partial adds 0 to a count and nothing to a sum, as its NULL
    columns did.  A stays in the plan, so the groups and their order
    are unchanged; counts are exact, sums may differ in their last
    bits.  ``avg``, ``min``, ``max`` and ``count_distinct`` leave the
    spec alone.

    Returns ``spec`` itself when no relation is pushed.
    """
    if not spec.post or not isinstance(spec.post[0], Aggregate):
        return spec
    top = spec.post[0]
    if any(
        a.func not in _PUSHABLE or (a.input is not None and not a.input.columns())
        for a in top.aggs
    ):
        return spec
    reads = [_aliases(a.input) for a in top.aggs]
    blocked = set().union(*(r for r in reads if len(r) > 1))
    for expr in [*spec.residuals, *(k.resolved_expr() for k in top.keys)]:
        blocked |= _aliases(expr)
    relations = spec.alias_map()
    summing = any(a.func == "sum" for a in top.aggs)
    outer = any(e.how in ("left", "right") for e in spec.edges)
    classes = _key_classes(spec)
    grouped = {
        classes.get(expr.name, expr.name)
        for expr in (k.resolved_expr() for k in top.keys)
        if isinstance(expr, N.ColumnRef)
    }
    pushed: dict[str, tuple[str, ...]] = {}
    for v in relations:
        keys = None if v in blocked else _push_keys(spec, v, catalog)
        if keys is None:
            continue
        roots = {classes[f"{v}.{k}"] for k in keys}
        if summing:
            repeating = _repeating(roots, classes, relations, catalog)
            if v not in repeating or len(repeating) < 2:
                continue
        elif not roots <= grouped:
            continue
        if outer and any(r != {v} for r in reads):
            continue
        pushed[v] = keys
    if not pushed:
        return spec

    outputs = {v: f"{spec.name}_{v}_counts" for v in pushed}
    stages: list[Stage] = []
    for v, keys in pushed.items():
        partials = [
            AggSpec(a.func, a.input, a.name)
            for a, r in zip(top.aggs, reads)
            if r == {v}
        ]
        if any(r != {v} for r in reads):
            partials.append(AggSpec("count_star", None, ROWS))
        names = [*keys, *(p.name for p in partials)]
        if len(set(names)) != len(names):
            return spec
        stages.append(
            Stage(
                QuerySpec(
                    name=outputs[v],
                    relations=[relations[v]],
                    post=[
                        Aggregate(
                            keys=tuple(GroupKey(k, N.col(f"{v}.{k}")) for k in keys),
                            aggs=tuple(partials),
                        )
                    ],
                ),
                outputs[v],
            )
        )

    def weight(*skip: str) -> N.Expr | None:
        terms = [N.col(f"{w}.{ROWS}") for w in pushed if w not in skip]
        return reduce(operator.mul, terms) if terms else None

    aggs = []
    for a, r in zip(top.aggs, reads):
        v = min(r) if len(r) == 1 else None
        if v in pushed:
            partial, scale = N.col(f"{v}.{a.name}"), weight(v)
            expr = partial if scale is None else partial * scale
        elif a.func == "count":
            expr = N.case([(a.input.is_not_null(), weight())], N.lit(0))
        elif a.func == "sum":
            expr = a.input * weight()
        else:
            expr = weight()
        aggs.append(AggSpec("sum" if a.func == "sum" else "sum_counts", expr, a.name))
    return replace(
        spec,
        relations=[
            replace(r, table=outputs[r.alias], predicate=None)
            if r.alias in pushed
            else r
            for r in spec.relations
        ],
        post=[Aggregate(top.keys, tuple(aggs)), *spec.post[1:]],
        pre_stages=[*spec.pre_stages, *stages],
    )


def _aliases(expr: N.Expr | None) -> frozenset[str]:
    """The aliases whose columns ``expr`` reads."""
    if expr is None:
        return frozenset()
    return frozenset(c.split(".", 1)[0] for c in expr.columns())


def _push_keys(spec: QuerySpec, v: str, catalog: Catalog) -> tuple[str, ...] | None:
    """``v``'s key, when its edges allow a push (see
    :func:`eager_aggregation`), else None."""
    touching = [e for e in spec.edges if v in (e.left, e.right)]
    keys: set[str] | None = None
    for e in touching:
        supplied = {"left": e.right, "right": e.left}.get(e.how)
        if e.residual is not None or not (
            e.how == "inner" or (supplied == v and len(touching) == 1)
        ):
            return None
        side = set(e.right_keys if e.right == v else e.left_keys)
        if keys is not None and side != keys:
            return None
        keys = side
    table = spec.relation(v).table
    if keys is None or table not in catalog:
        return None
    columns = catalog.get(table).columns
    if any(k not in columns or columns[k].dtype is DType.FLOAT64 for k in keys):
        return None
    first = touching[0]
    ordered = first.right_keys if first.right == v else first.left_keys
    return tuple(dict.fromkeys(ordered))


def _repeats(relation: Relation, columns: list[str], catalog: Catalog) -> bool:
    """Does ``relation``'s table hold at least twice as many rows as
    distinct tuples of ``columns`` (at most the product of the columns'
    distinct counts)?"""
    if relation.table not in catalog:
        return False
    table = catalog.get(relation.table)
    layout = get_layout(table)
    bound = 1
    for column in columns:
        if column not in table.columns:
            return False
        bound *= layout.distinct_count(column)
    return 2 * bound <= table.num_rows


def _key_classes(spec: QuerySpec) -> dict[str, str]:
    """Union-find roots of ``alias.column`` names equated by the block's
    inner and outer edges (the joins that multiply rows)."""
    parent: dict[str, str] = {}

    def find(name: str) -> str:
        while parent.setdefault(name, name) != name:
            name = parent[name]
        return name

    for e in spec.edges:
        if e.how in ("inner", "left", "right"):
            for a, b in zip(e.qualified_left(), e.qualified_right()):
                parent[find(a)] = find(b)
    return {name: find(name) for name in list(parent)}


def _repeating(
    roots: set[str],
    classes: dict[str, str],
    relations: dict[str, Relation],
    catalog: Catalog,
) -> set[str]:
    """The aliases that repeat their columns of the key classes
    ``roots``."""
    members: dict[str, list[str]] = {}
    for name, root in classes.items():
        if root in roots:
            alias, column = name.split(".", 1)
            members.setdefault(alias, []).append(column)
    return {
        alias
        for alias, columns in members.items()
        if _repeats(relations[alias], columns, catalog)
    }


def scalar_tables(expr: N.Expr | None) -> set[str]:
    """Names of the tables the tree's :class:`ScalarRef` nodes read."""
    if expr is None:
        return set()
    return {node.table for node in expr.walk() if isinstance(node, N.ScalarRef)}
