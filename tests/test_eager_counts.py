"""Eager aggregation (:func:`repro.plan.rewrite.eager_aggregation`): when
it fires, and that the rewritten plan returns what the written one does
— on fixed cases and on drawn catalogs and plans."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import runner
from repro.core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig, run_query
from repro.engine.aggregate import AggSpec, GroupKey
from repro.expr.nodes import col, lit
from repro.plan.query import Aggregate, QuerySpec, Relation, Sort, edge
from repro.plan.rewrite import eager_aggregation
from repro.storage.catalog import Catalog
from repro.storage.column import Column, DType
from repro.storage.table import Table


def _ints(values):
    valid = np.array([v is not None for v in values])
    data = np.array([0 if v is None else v for v in values], dtype=np.int64)
    return Column(data, DType.INT64, valid=None if valid.all() else valid)


def _floats(values):
    column = _ints(values)
    return Column(column.data.astype(np.float64), DType.FLOAT64, valid=column.valid)


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
    # p: a unique key.
    cat.register(Table("p", {"k": _ints([1, 2, 3]), "x": _ints([4, None, 6])}))
    # x and y: keys that repeat at least twice on average (the many-to-many
    # test of a pushed sum), a NULL key on each side.
    cat.register(Table("x", {
        "k": _ints([1, 1, 1, 2, 2, None]),
        "g": _ints([5, 6, 5, 6, 5, 5]),
        "f": Column.from_floats(np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])),
    }))
    cat.register(Table("y", {
        "k": _ints([1, 1, 2, 2, 2, 3, None]),
        "x": _ints([10, None, 20, None, 30, 5, 6]),
        "y": _ints([1, 2, 3, 4, 5, 6, 7]),
        "f": Column.from_floats(np.array([1.0, -1.0, 2.0, 3.0, 3.0, 0.0, 7.0])),
    }))
    return cat


#: Tables of the many-to-many cases: u, v and w all repeat their keys.
REPEATING = {"u": "x", "v": "y", "w": "x"}


def _spec(
    how="inner", aggs=None, keys=None, edges=None, residuals=(), v_pred=None,
    tables=None,
):
    aggs = aggs or (AggSpec("count", col("v.x"), "n"),)
    keys = keys or (GroupKey("k", col("u.k")),)
    edges = edges or [edge("u", "v", ("k", "k"), how=how)]
    tables = tables or {}
    joined = {alias for e in edges for alias in (e.left, e.right)}
    relations = [
        Relation(alias, tables.get(alias, alias), v_pred if alias == "v" else None)
        for alias in ("u", "v", "w", "p")
        if alias in joined
    ]
    return QuerySpec(
        name="t",
        relations=relations,
        edges=list(edges),
        residuals=list(residuals),
        post=[Aggregate(keys, aggs), Sort(tuple((k.name, "asc") for k in keys))],
    )


def _pushed(spec, catalog) -> list[str]:
    """The aliases the rule aggregates before the join, in stage order."""
    rewritten = eager_aggregation(spec, catalog)
    if rewritten is spec:
        return []
    aliases = []
    for stage in rewritten.pre_stages:
        alias = stage.output.removeprefix("t_").removesuffix("_counts")
        assert rewritten.relation(alias).table == stage.output
        assert rewritten.relation(alias).predicate is None
        assert stage.spec.relations == [spec.relation(alias)]
        aliases.append(alias)
    assert {a.func for a in rewritten.post[0].aggs} <= {"sum_counts", "sum"}
    assert rewritten.post[1:] == spec.post[1:]
    return aliases


#: Case -> (spec, the aliases pushed).
FIRING = {
    "inner": (_spec(), ["v"]),
    "left": (_spec(how="left"), ["v"]),
    "inner, v on the left": (_spec(edges=[edge("v", "u", ("k", "k"))]), ["v"]),
    "two counts, v predicate": (
        _spec(
            how="left",
            aggs=(AggSpec("count", col("v.x"), "n"), AggSpec("count", col("v.y"), "m")),
            v_pred=col("v.y").le(lit(5)),
        ),
        ["v"],
    ),
    "u joins more relations": (
        _spec(
            how="left",
            keys=(GroupKey("z", col("w.z")), GroupKey("k", col("u.k"))),
            edges=[edge("u", "v", ("k", "k"), how="left"), edge("u", "w", ("k", "k"))],
        ),
        ["v"],
    ),
    # Both keys repeat, so a sum may be pushed.
    "sum": (_spec(aggs=(AggSpec("sum", col("v.x"), "n"),), tables=REPEATING), ["v"]),
    "count and sum": (
        _spec(
            aggs=(AggSpec("count", col("v.x"), "n"), AggSpec("sum", col("v.f"), "s")),
            tables=REPEATING,
        ),
        ["v"],
    ),
    # w is read only by its edge: counted per key too, and scales v's count.
    "v joins a second relation": (
        _spec(edges=[edge("u", "v", ("k", "k")), edge("v", "w", ("k", "k"))]),
        ["v", "w"],
    ),
    "count(*) and a sum of u": (
        _spec(
            aggs=(AggSpec("count_star", None, "n"), AggSpec("sum", col("u.f"), "s")),
            keys=(GroupKey("g", col("u.g")),),
            tables=REPEATING,
        ),
        ["v"],
    ),
    "triangle, sums of two pushed relations": (
        _spec(
            aggs=(
                AggSpec("sum", col("v.f"), "s"),
                AggSpec("count", col("w.g"), "n"),
                AggSpec("count", col("p.x"), "m"),
            ),
            keys=(GroupKey("g", col("p.x")),),
            edges=[
                edge("p", "v", ("k", "k")),
                edge("p", "w", ("k", "k")),
                edge("v", "w", ("k", "k")),
            ],
            tables=REPEATING,
        ),
        ["v", "w"],
    ),
}

NOT_FIRING = {
    "count(*)": _spec(how="left", aggs=(AggSpec("count_star", None, "n"),)),
    "residual on the edge": _spec(
        edges=[edge("u", "v", ("k", "k"), residual=col("v.y").gt(col("u.g")))]
    ),
    "v preserved by the left join": _spec(
        edges=[edge("v", "u", ("k", "k"), how="left")]
    ),
    "a residual reads v": _spec(residuals=[col("v.y").gt(lit(1))]),
    "a group key reads v": _spec(
        keys=(GroupKey("k", col("u.k")), GroupKey("y", col("v.y")))
    ),
    "FLOAT64 key": _spec(edges=[edge("u", "v", ("f", "f"))]),
    "avg": _spec(aggs=(AggSpec("avg", col("v.x"), "n"),)),
    "u's key not grouped": _spec(keys=(GroupKey("g", col("u.g")),)),
    "sum across a one-to-many key": _spec(
        aggs=(AggSpec("sum", col("v.x"), "n"),),
        keys=(GroupKey("k", col("p.k")),),
        edges=[edge("p", "v", ("k", "k"))],
        tables=REPEATING,
    ),
    # u's and v's keys repeat, but less than twice on average.
    "sum across keys that barely repeat": _spec(
        aggs=(AggSpec("sum", col("v.x"), "n"),)
    ),
}


@pytest.mark.parametrize("name", sorted(FIRING))
def test_fires(catalog, name):
    spec, pushed = FIRING[name]
    assert _pushed(spec, catalog) == pushed


@pytest.mark.parametrize("name", sorted(NOT_FIRING))
def test_does_not_fire(catalog, name):
    assert _pushed(NOT_FIRING[name], catalog) == []


def test_does_not_fire_before_its_tables_exist(catalog):
    spec = replace(_spec(), relations=[Relation("u", "u"), Relation("v", "later")])
    assert _pushed(spec, catalog) == []


def _written(monkeypatch, spec, catalog, config):
    with monkeypatch.context() as patch:
        patch.setattr(runner, "eager_aggregation", lambda spec, catalog: spec)
        return run_query(spec, catalog, config=config).table


def _same_table(got: Table, want: Table) -> None:
    assert got.to_rows() == want.to_rows()
    assert got.column_names == want.column_names
    for name in want.column_names:
        assert got.column(name).dtype is want.column(name).dtype


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(FIRING))
def test_rewritten_plan_returns_the_written_plans_rows(
    catalog, monkeypatch, name, strategy
):
    spec, pushed = FIRING[name]
    got = run_query(spec, catalog, strategy)
    stages = [f"t_{alias}_counts" for alias in pushed]
    assert [b.query for b in got.stats.blocks()][:-1] == stages
    _same_table(got.table, _written(monkeypatch, spec, catalog, RunConfig(strategy)))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_left_join_counts_zero_without_a_counted_partner(catalog, strategy):
    rows = run_query(FIRING["left"][0], catalog, strategy).table.to_rows()
    # Key 3's partners all have a NULL x, key 4 has none, and the NULL
    # key matches nothing: each counts 0.
    assert rows == [(1, 1), (2, 2), (3, 0), (4, 0), (None, 0)]
    inner = run_query(FIRING["inner"][0], catalog, strategy).table.to_rows()
    assert inner == [(1, 1), (2, 2), (3, 0)]


# ----------------------------------------------------------------------
# Drawn catalogs and plans
# ----------------------------------------------------------------------
_KEYS = st.one_of(st.none(), st.integers(0, 2))
_VALUES = st.one_of(st.none(), st.integers(-4, 9))

#: Join shapes over relations a, b, c, d, all on column ``k``: a chain,
#: a star around a, and the a-b-c triangle with a tail.  ``left`` edges
#: are drawn only onto the leaves (the last relation of an edge), where
#: their null-supplied side is one relation.
_SHAPES = {
    "chain": [("a", "b"), ("b", "c")],
    "star": [("a", "b"), ("a", "c"), ("a", "d")],
    "triangle": [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
}


@st.composite
def _tables(draw, name: str) -> Table:
    n = draw(st.integers(1, 8))
    column = lambda values: st.lists(values, min_size=n, max_size=n)  # noqa: E731
    return Table(name, {
        "k": _ints(draw(column(_KEYS))),
        "g": _ints(draw(column(st.integers(0, 2)))),
        "x": _ints(draw(column(_VALUES))),
        "f": _floats(draw(column(_VALUES))),
    })


@st.composite
def _plans(draw) -> tuple[Catalog, QuerySpec]:
    catalog = Catalog()
    for name in "abcd":
        catalog.register(draw(_tables(name)))
    shape = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))]
    aliases = sorted({a for pair in shape for a in pair})
    degree = {a: sum(a in pair for pair in shape) for a in aliases}
    edges = []
    for left, right in shape:
        leaf = degree[right] == 1 and shape != _SHAPES["triangle"]
        how = draw(st.sampled_from(["inner", "left"])) if leaf else "inner"
        edges.append(edge(left, right, ("k", "k"), how=how))
    relations = []
    for alias in aliases:
        predicate = None
        if draw(st.booleans()):
            predicate = col(f"{alias}.x").ge(lit(draw(st.integers(-4, 9))))
        relations.append(Relation(alias, alias, predicate))
    grouped = draw(
        st.lists(st.sampled_from(aliases), min_size=1, max_size=2, unique=True)
    )
    keys = tuple(
        GroupKey(f"g_{a}", col(f"{a}.{draw(st.sampled_from('kg'))}"))
        for a in grouped
    )
    aggs = []
    for i in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(["count", "count_star", "sum"]))
        # Grouped relations stay unpushed: weight them, so that counts
        # and sums of unpushed columns are drawn often.
        alias = draw(st.sampled_from([*grouped, *aliases]))
        source = f"{alias}.{draw(st.sampled_from('xf'))}"
        source = None if func == "count_star" else col(source)
        aggs.append(AggSpec(func, source, f"a{i}"))
    spec = QuerySpec(
        name="t",
        relations=relations,
        edges=edges,
        post=[Aggregate(keys, tuple(aggs)), Sort(tuple((k.name, "asc") for k in keys))],
    )
    return catalog, spec


@settings(max_examples=200, deadline=None)
@given(_plans())
def test_drawn_plans_return_the_written_plans_rows(plan):
    """Duplicate and NULL keys on every side, NULL and integer-valued
    float values (so partial sums are exact), local predicates, inner
    and left edges: the rewritten plan returns exactly the written
    plan's rows under every strategy, lazy and eager."""
    catalog, spec = plan
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "eager_aggregation", lambda spec, catalog: spec)
        want = run_query(spec, catalog, config=RunConfig("nopredtrans")).table
    for strategy in STRATEGIES:
        for materialize in MATERIALIZE_MODES:
            config = RunConfig(strategy, materialize=materialize)
            _same_table(run_query(spec, catalog, config=config).table, want)
