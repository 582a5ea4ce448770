"""Eager COUNT (:func:`repro.plan.rewrite.eager_counts`): when it fires,
and that the rewritten plan returns what the written one does."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import runner
from repro.core.runner import STRATEGIES, run_query
from repro.engine.aggregate import AggSpec, GroupKey
from repro.expr.nodes import col, lit
from repro.plan.query import Aggregate, QuerySpec, Relation, Sort, edge
from repro.plan.rewrite import eager_counts
from repro.storage.catalog import Catalog
from repro.storage.column import Column, DType
from repro.storage.table import Table


def _ints(values):
    valid = np.array([v is not None for v in values])
    data = np.array([0 if v is None else v for v in values], dtype=np.int64)
    return Column(data, DType.INT64, valid=None if valid.all() else valid)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    cat = Catalog()
    # u: key 2 twice, key 4 without a partner, a NULL key.
    cat.register(Table("u", {
        "k": _ints([1, 2, 3, 4, None, 2]),
        "g": _ints([5, 6, 5, 6, 5, 5]),
        "f": Column.from_floats(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 2.0])),
    }))
    # v: key 1 has one non-NULL x, key 3 only NULL x's, key 7 no u row,
    # and a NULL key that matches nothing.
    cat.register(Table("v", {
        "k": _ints([1, 1, 2, 3, 3, None, 7]),
        "x": _ints([10, None, 20, None, None, 5, 6]),
        "y": _ints([1, 2, 3, 4, 5, 6, 7]),
        "f": Column.from_floats(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 0.0, 7.0])),
    }))
    cat.register(Table("w", {"k": _ints([1, 2, 2, 3]), "z": _ints([8, 9, 8, 9])}))
    return cat


def _spec(how="inner", aggs=None, keys=None, edges=None, residuals=(), v_pred=None):
    aggs = aggs or (AggSpec("count", col("v.x"), "n"),)
    keys = keys or (GroupKey("k", col("u.k")),)
    relations = [Relation("u", "u"), Relation("v", "v", v_pred), Relation("w", "w")]
    edges = edges or [edge("u", "v", ("k", "k"), how=how)]
    if not any("w" in (e.left, e.right) for e in edges):
        relations = relations[:2]
    return QuerySpec(
        name="t",
        relations=relations,
        edges=list(edges),
        residuals=list(residuals),
        post=[Aggregate(keys, aggs), Sort(tuple((k.name, "asc") for k in keys))],
    )


def _fires(spec, catalog) -> bool:
    rewritten = eager_counts(spec, catalog)
    if rewritten is spec:
        return False
    (stage,) = rewritten.pre_stages
    assert stage.output == "t_v_counts"
    assert rewritten.relation("v").table == "t_v_counts"
    assert rewritten.relation("v").predicate is None
    assert stage.spec.relations == [spec.relation("v")]
    assert {a.func for a in rewritten.post[0].aggs} == {"sum_counts"}
    return True


FIRING = {
    "inner": _spec(),
    "left": _spec(how="left"),
    "inner, v on the left": _spec(edges=[edge("v", "u", ("k", "k"))]),
    "two counts, v predicate": _spec(
        how="left",
        aggs=(AggSpec("count", col("v.x"), "n"), AggSpec("count", col("v.y"), "m")),
        v_pred=col("v.y").le(lit(5)),
    ),
    "u joins more relations": _spec(
        how="left",
        keys=(GroupKey("z", col("w.z")), GroupKey("k", col("u.k"))),
        edges=[edge("u", "v", ("k", "k"), how="left"), edge("u", "w", ("k", "k"))],
    ),
}

NOT_FIRING = {
    "sum": _spec(aggs=(AggSpec("sum", col("v.x"), "n"),)),
    "count(*)": _spec(how="left", aggs=(AggSpec("count_star", None, "n"),)),
    "count and sum": _spec(
        aggs=(AggSpec("count", col("v.x"), "n"), AggSpec("sum", col("v.y"), "s"))
    ),
    "residual on the edge": _spec(
        edges=[edge("u", "v", ("k", "k"), residual=col("v.y").gt(col("u.g")))]
    ),
    "v preserved by the left join": _spec(
        edges=[edge("v", "u", ("k", "k"), how="left")]
    ),
    "v joins a second relation": _spec(
        edges=[edge("u", "v", ("k", "k")), edge("v", "w", ("k", "k"))]
    ),
    "a residual reads v": _spec(residuals=[col("v.y").gt(lit(1))]),
    "a group key reads v": _spec(
        keys=(GroupKey("k", col("u.k")), GroupKey("y", col("v.y")))
    ),
    "u's key not grouped": _spec(keys=(GroupKey("g", col("u.g")),)),
    "FLOAT64 key": _spec(edges=[edge("u", "v", ("f", "f"))]),
}


@pytest.mark.parametrize("name", sorted(FIRING))
def test_fires(catalog, name):
    assert _fires(FIRING[name], catalog)


@pytest.mark.parametrize("name", sorted(NOT_FIRING))
def test_does_not_fire(catalog, name):
    assert not _fires(NOT_FIRING[name], catalog)


def test_does_not_fire_before_its_tables_exist(catalog):
    spec = replace(_spec(), relations=[Relation("u", "u"), Relation("v", "later")])
    assert not _fires(spec, catalog)


def _written(monkeypatch, spec, catalog, strategy):
    with monkeypatch.context() as patch:
        patch.setattr(runner, "eager_counts", lambda spec, catalog: spec)
        return run_query(spec, catalog, strategy).table


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(FIRING))
def test_rewritten_plan_returns_the_written_plans_rows(
    catalog, monkeypatch, name, strategy
):
    spec = FIRING[name]
    got = run_query(spec, catalog, strategy)
    assert [b.query for b in got.stats.blocks()][:-1] == ["t_v_counts"]
    want = _written(monkeypatch, spec, catalog, strategy)
    assert got.table.to_rows() == want.to_rows()
    for name_ in want.column_names:
        assert got.table.column(name_).dtype is want.column(name_).dtype


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_left_join_counts_zero_without_a_counted_partner(catalog, strategy):
    rows = run_query(FIRING["left"], catalog, strategy).table.to_rows()
    # Key 3's partners all have a NULL x, key 4 has none, and the NULL
    # key matches nothing: each counts 0.
    assert rows == [(1, 1), (2, 2), (3, 0), (4, 0), (None, 0)]
    inner = run_query(FIRING["inner"], catalog, strategy).table.to_rows()
    assert inner == [(1, 1), (2, 2), (3, 0)]
