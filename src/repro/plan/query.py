"""Declarative query specifications.

A :class:`QuerySpec` is the unit both the predicate-transfer phase and
the join phase consume: a set of aliased relations with local predicates,
a set of equi-join edges (optionally with residual non-equi conditions),
post-join residual filters, and a pipeline of post operators
(aggregate / filter / project / sort / limit).

Subqueries are decorrelated into **pre-stages** (paper §3.4): each stage
is a full ``QuerySpec`` whose result is registered as a derived table
that the outer spec joins like any base relation.  Stages run with the
same strategy as the outer query, so multi-table subqueries get their
own predicate-transfer phase.  A stage may have stages of its own, and
reads the outputs of the stages before it at every enclosing level.

Pre-stages
----------
Stages normally run before the outer spec's scan.  Under ``predtrans``
and ``yannakakis`` a *grouped* stage runs after the outer transfer
phase instead, pre-filtered on its group key, when:

* its post pipeline is one ``Aggregate`` with at least one key,
  followed only by ``Filter`` operators;
* exactly one outer relation reads its output — no later stage, no
  ``ScalarRef`` — and every edge touching that relation is ``inner``
  or ``semi``;
* some such edge joins a group key that is a plain column of one stage
  relation, to a neighbour whose component of the outer graph (without
  the deferred relations) has a local predicate or a non-deferred
  stage.

Sound because a semi-join on a group key commutes with ``GROUP BY``:
dropping the input rows whose key no surviving neighbour carries drops
exactly the groups that would join nothing, and leaves every other
group's aggregates unchanged.  A ``Sort``/``Limit`` after the aggregate
(top-k groups), an outer or anti edge preserving the stage's rows, or a
second reader would each see the dropped groups, so they keep the stage
where it was.  The mechanics are :mod:`repro.core.prestage`'s.

Naming convention: inside a spec every column is referenced as
``"<alias>.<column>"``; join-edge key lists use unqualified column names
and are qualified by the runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from ..engine.aggregate import AggSpec, GroupKey
from ..errors import PlanError
from ..expr.nodes import Expr

JOIN_KINDS = ("inner", "left", "right", "semi", "anti")


@dataclass(frozen=True)
class Relation:
    """One aliased occurrence of a table in the join graph."""

    alias: str
    table: str
    predicate: Expr | None = None

    def __post_init__(self) -> None:
        if "." in self.alias:
            raise PlanError(f"alias {self.alias!r} must not contain '.'")


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join between two aliases.

    ``left_keys[i]`` joins ``right_keys[i]``; multi-key edges express
    composite equi-joins (e.g. lineitem ⋈ partsupp on partkey+suppkey).
    ``residual`` is a non-equi condition on the matched pair, part of the
    join's match semantics for ``semi``/``anti``/``left`` kinds.
    """

    left: str
    right: str
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]
    how: str = "inner"
    residual: Expr | None = None

    def __post_init__(self) -> None:
        if self.how not in JOIN_KINDS:
            raise PlanError(f"unknown join kind {self.how!r}")
        if len(self.left_keys) != len(self.right_keys) or not self.left_keys:
            raise PlanError("join edge key lists must be equal-length, non-empty")

    def qualified_left(self) -> list[str]:
        """Left key columns as ``alias.column`` names."""
        return [f"{self.left}.{k}" for k in self.left_keys]

    def qualified_right(self) -> list[str]:
        """Right key columns as ``alias.column`` names."""
        return [f"{self.right}.{k}" for k in self.right_keys]


def edge(
    left: str,
    right: str,
    on: Sequence[tuple[str, str]] | tuple[str, str],
    how: str = "inner",
    residual: Expr | None = None,
) -> JoinEdge:
    """Convenience builder: ``edge("n", "r", ("n_regionkey", "r_regionkey"))``."""
    pairs = [on] if isinstance(on[0], str) else list(on)  # type: ignore[index]
    return JoinEdge(
        left,
        right,
        tuple(p[0] for p in pairs),
        tuple(p[1] for p in pairs),
        how=how,
        residual=residual,
    )


# ----------------------------------------------------------------------
# Post-join operator pipeline
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Aggregate:
    """Group-by (or scalar, when ``keys`` is empty) aggregation."""

    keys: tuple[GroupKey, ...]
    aggs: tuple[AggSpec, ...]


@dataclass(frozen=True)
class Filter:
    """A row filter (e.g. HAVING when placed after an Aggregate)."""

    predicate: Expr


@dataclass(frozen=True)
class Project:
    """Compute/retain named output columns from expressions."""

    outputs: tuple[tuple[str, Expr], ...]


@dataclass(frozen=True)
class Sort:
    """ORDER BY: list of (column, "asc"|"desc")."""

    by: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Limit:
    """LIMIT k."""

    k: int


PostOp = Aggregate | Filter | Project | Sort | Limit


@dataclass(frozen=True)
class Stage:
    """A decorrelated subquery: run ``spec``, register result as ``output``."""

    spec: "QuerySpec"
    output: str


@dataclass
class QuerySpec:
    """A complete (sub)query over a catalog."""

    name: str
    relations: list[Relation]
    edges: list[JoinEdge] = field(default_factory=list)
    residuals: list[Expr] = field(default_factory=list)
    post: list[PostOp] = field(default_factory=list)
    pre_stages: list[Stage] = field(default_factory=list)
    join_order: list[str] | None = None

    def __post_init__(self) -> None:
        aliases = [r.alias for r in self.relations]
        if len(set(aliases)) != len(aliases):
            raise PlanError(f"duplicate aliases in query {self.name!r}")
        known = set(aliases)
        for e in self.edges:
            if e.left not in known or e.right not in known:
                raise PlanError(
                    f"edge {e.left}-{e.right} references unknown alias "
                    f"in query {self.name!r}"
                )
        if self.join_order is not None:
            self.validate_join_order(self.join_order)

    def expressions(self) -> list[Expr]:
        """Every expression of this block, in :meth:`map_expressions`
        order (its stages' are their own)."""
        found: list[Expr] = []

        def visit(expr: Expr) -> Expr:
            found.append(expr)
            return expr

        self.map_expressions(visit)
        return found

    def map_expressions(self, fn: Callable[[Expr], Expr]) -> "QuerySpec":
        """A copy with ``fn`` applied to every expression of this block:
        relation predicates, edge residuals, residuals, and the inputs
        of its ``Filter``, ``Project`` and ``Aggregate`` post ops.
        Empty slots stay ``None``; stages are left as they are."""

        def post_op(op: PostOp) -> PostOp:
            if isinstance(op, Filter):
                return Filter(fn(op.predicate))
            if isinstance(op, Project):
                return Project(tuple((name, fn(e)) for name, e in op.outputs))
            if isinstance(op, Aggregate):
                keys = tuple(
                    k if k.expr is None else replace(k, expr=fn(k.expr))
                    for k in op.keys
                )
                aggs = tuple(
                    a if a.input is None else replace(a, input=fn(a.input))
                    for a in op.aggs
                )
                return Aggregate(keys, aggs)
            return op

        return replace(
            self,
            relations=[
                r if r.predicate is None else replace(r, predicate=fn(r.predicate))
                for r in self.relations
            ],
            edges=[
                e if e.residual is None else replace(e, residual=fn(e.residual))
                for e in self.edges
            ],
            residuals=[fn(r) for r in self.residuals],
            post=[post_op(op) for op in self.post],
        )

    def alias_map(self) -> dict[str, Relation]:
        """Alias → relation lookup."""
        return {r.alias: r for r in self.relations}

    def relation(self, alias: str) -> Relation:
        """Look up a relation by alias."""
        for r in self.relations:
            if r.alias == alias:
                return r
        raise PlanError(f"unknown alias {alias!r} in query {self.name!r}")

    def validate_join_order(self, order: list[str]) -> None:
        """Check a join order covers exactly the spec's aliases."""
        if sorted(order) != sorted(r.alias for r in self.relations):
            raise PlanError(
                f"join order {order} does not cover the relations of "
                f"query {self.name!r}"
            )
