"""Unit tests for scalar-subquery resolution and the plan-tree walk."""

from dataclasses import dataclass

import pytest

from repro.cache.fingerprint import canonical_expr
from repro.errors import PlanError
from repro.engine.aggregate import AggSpec, GroupKey
from repro.expr.nodes import (
    DateLiteral,
    Expr,
    Literal,
    ScalarRef,
    case,
    col,
    date,
    lit,
    substr,
    year,
)
from repro.plan.query import (
    Aggregate,
    Filter,
    Limit,
    Project,
    QuerySpec,
    Relation,
    edge,
)
from repro.plan.rewrite import resolve_scalars, scalar_tables
from repro.service.workload import vary_spec
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.dates import date_to_days
from repro.storage.partition import const_value
from repro.storage.table import Table


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(Table.from_pydict("one", {"v": [42.5], "n": [7]}))
    cat.register(Table.from_pydict("many", {"v": [1.0, 2.0]}))
    return cat


def test_resolves_to_literal(catalog):
    expr = col("a").gt(ScalarRef("one", "v"))
    resolved = resolve_scalars(expr, catalog)
    assert resolved.right == Literal(42.5)
    assert not scalar_tables(resolved)


def test_date_scalar_resolves_to_a_date_literal():
    """A date-valued stage surfaces as a DateLiteral: zone-map pruning
    reads its constant and the fingerprint takes the date form."""
    cat = Catalog()
    cat.register(Table("first", {"d": Column.from_dates(["1992-01-04"])}))
    resolved = resolve_scalars(col("o.o_orderdate").lt(ScalarRef("first", "d")), cat)
    assert resolved.right == DateLiteral("1992-01-04")
    assert const_value(resolved.right) == date_to_days("1992-01-04")
    assert canonical_expr(resolved.right) == "date:1992-01-04"


def test_resolves_inside_arithmetic(catalog):
    expr = col("a").gt(ScalarRef("one", "v") * lit(2.0))
    resolved = resolve_scalars(expr, catalog)
    assert not scalar_tables(resolved)


def test_resolves_inside_case_between_like(catalog):
    expr = case(
        [(col("s").like("x%"), ScalarRef("one", "v"))],
        col("a").between(lit(0), ScalarRef("one", "n")),
    )
    resolved = resolve_scalars(expr, catalog)
    assert not scalar_tables(resolved)


def test_resolves_inside_substr_year_not(catalog):
    expr = ~(substr(col("s"), 1, 2).eq(lit("ab"))) | year(col("d")).eq(
        ScalarRef("one", "n")
    )
    resolved = resolve_scalars(expr, catalog)
    assert not scalar_tables(resolved)


def test_none_passthrough(catalog):
    assert resolve_scalars(None, catalog) is None


def test_multi_row_scalar_rejected(catalog):
    with pytest.raises(PlanError, match="2 rows"):
        resolve_scalars(col("a").gt(ScalarRef("many", "v")), catalog)


def test_missing_table_rejected(catalog):
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        resolve_scalars(col("a").gt(ScalarRef("ghost", "v")), catalog)


def test_scalar_tables_names_the_tables_read(catalog):
    assert scalar_tables(col("a").gt(ScalarRef("one", "v"))) == {"one"}
    assert not scalar_tables(col("a").gt(lit(1)))
    assert not scalar_tables(None)


def test_untouched_expression_identity(catalog):
    expr = col("a").isin((1, 2)) & col("b").is_null()
    resolved = resolve_scalars(expr, catalog)
    assert resolved == expr


# ----------------------------------------------------------------------
# One walk: a node declares its children by its dataclass fields
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Twice(Expr):
    """A node no rewrite knows by name: one expression field plus data."""

    operand: Expr
    label: str = "x2"


def test_children_follow_expression_fields_only():
    inner = col("a").isin((1, 2))
    node = case([(inner, Twice(col("b")))], lit(0))
    assert node.children() == [inner, Twice(col("b")), lit(0)]
    assert inner.children() == [col("a")]
    assert substr(col("s"), 1, 2).children() == [col("s")]
    assert col("a").children() == []
    assert list(node.walk()) == [
        node, inner, col("a"), Twice(col("b")), col("b"), lit(0)
    ]


def test_map_rebuilds_only_changed_paths():
    expr = col("a").gt(lit(1)) & Twice(col("b"))
    assert expr.map(lambda node: node) is expr
    renamed = expr.map(
        lambda node: col(node.name.upper()) if node == col("b") else node
    )
    assert renamed.left is expr.left
    assert renamed.right == Twice(col("B"))


def test_a_new_node_needs_no_edit_to_the_rewrites(catalog):
    expr = col("o.d").lt(Twice(ScalarRef("one", "n") + col("o.x")))
    assert expr.columns() == {"o.d", "o.x"}
    assert scalar_tables(expr) == {"one"}
    resolved = resolve_scalars(expr, catalog)
    assert resolved.right == Twice(Literal(7) + col("o.x"))
    assert not scalar_tables(resolved)

    spec = QuerySpec(
        "t", relations=[Relation("o", "orders", Twice(date("1995-03-15")))]
    )
    varied = vary_spec(spec, 10, "#v")
    assert varied.name == "t#v"
    assert varied.relations[0].predicate == Twice(DateLiteral("1995-03-25"))


def _every_slot_spec():
    return QuerySpec(
        "s",
        relations=[Relation("a", "t", col("a.p").gt(lit(1))), Relation("b", "t")],
        edges=[
            edge("a", "b", ("k", "k"), how="semi", residual=col("a.r").lt(col("b.r")))
        ],
        residuals=[col("a.z").is_null()],
        post=[
            Aggregate(
                (GroupKey("g", col("a.g")), GroupKey("h")),
                (AggSpec("sum", col("a.v"), "v"), AggSpec("count_star", None, "n")),
            ),
            Filter(col("v").gt(lit(0))),
            Project((("w", col("v") * lit(2)),)),
            Limit(5),
        ],
        join_order=["a", "b"],
    )


def test_query_spec_expressions_cover_every_slot():
    spec = _every_slot_spec()
    assert spec.expressions() == [
        col("a.p").gt(lit(1)),
        col("a.r").lt(col("b.r")),
        col("a.z").is_null(),
        col("a.g"),
        col("a.v"),
        col("v").gt(lit(0)),
        col("v") * lit(2),
    ]


def test_map_expressions_keeps_empty_slots_and_the_rest():
    spec = _every_slot_spec()
    mapped = spec.map_expressions(lambda e: Twice(e))
    assert mapped.expressions() == [Twice(e) for e in spec.expressions()]
    assert mapped.relations[1].predicate is None
    assert mapped.post[0].keys[1].expr is None
    assert mapped.post[0].aggs[1].input is None
    assert mapped.post[3] == Limit(5)
    assert mapped.join_order == ["a", "b"]
    assert spec.expressions()[0] == col("a.p").gt(lit(1))


# ----------------------------------------------------------------------
# Self-loop edge folding
# ----------------------------------------------------------------------
def _selfloop_spec(how="inner", residual=None, predicate=None):
    from repro.plan.query import QuerySpec, Relation, edge

    return QuerySpec(
        "q",
        relations=[Relation("s", "t", predicate)],
        edges=[edge("s", "s", (("p", "q"),), how=how, residual=residual)],
    )


def test_fold_self_edges_inner_becomes_filter():
    from repro.expr.nodes import Comparison
    from repro.plan.rewrite import fold_self_edges

    folded = fold_self_edges(_selfloop_spec())
    assert folded.edges == []
    pred = folded.relations[0].predicate
    assert isinstance(pred, Comparison) and pred.op == "=="
    assert pred.columns() == {"s.p", "s.q"}


def test_fold_self_edges_anti_negates():
    from repro.expr.nodes import Not
    from repro.plan.rewrite import fold_self_edges

    folded = fold_self_edges(_selfloop_spec(how="anti"))
    assert isinstance(folded.relations[0].predicate, Not)


def test_fold_self_edges_ands_into_existing_predicate():
    from repro.expr.nodes import And, col, lit
    from repro.plan.rewrite import fold_self_edges

    folded = fold_self_edges(
        _selfloop_spec(predicate=col("s.p").gt(lit(0)))
    )
    assert isinstance(folded.relations[0].predicate, And)


def test_fold_self_edges_left_rejected():
    from repro.plan.rewrite import fold_self_edges

    with pytest.raises(PlanError, match="self-loop left join"):
        fold_self_edges(_selfloop_spec(how="left"))


def test_fold_self_edges_no_selfloops_returns_same_object():
    from repro.plan.query import QuerySpec, Relation, edge
    from repro.plan.rewrite import fold_self_edges

    spec = QuerySpec(
        "q",
        relations=[Relation("a", "t"), Relation("b", "t")],
        edges=[edge("a", "b", ("p", "p"))],
    )
    assert fold_self_edges(spec) is spec
