"""Unit tests for cardinality estimation and greedy join ordering."""

import numpy as np
import pytest

from repro.errors import PlanError
from repro.optimizer.cardinality import NdvCache, estimate_join_rows, ndv
from repro.optimizer.joinorder import greedy_join_order
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.column import Column
from repro.storage.table import Table


def test_ndv_exact():
    t = Table.from_pydict("t", {"a": [1, 1, 2, 3, 3, 3]})
    assert ndv(t.column("a")) == 3
    assert ndv(t.column("a"), rows=np.array([0, 1])) == 1
    empty = Table.from_pydict("t", {"a": np.empty(0, dtype=np.int64)})
    assert ndv(empty.column("a")) == 0


def test_ndv_exact_on_every_physical_type():
    rng = np.random.default_rng(0)
    dense = rng.integers(-40, 40, 500)
    columns = {
        "dense ints (presence table)": Column.from_ints(dense),
        "sparse ints (sort)": Column.from_ints(dense * 10**12),
        "int64 extremes": Column.from_ints(
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, 0]
        ),
        "dates": Column.from_days(dense % 30 + 9000),
        "string codes": Column.from_strings([f"s{v}" for v in dense]),
        "floats": Column.from_floats(dense / 4),
        "bools": Column.from_bools(dense > 0),
    }
    rows = rng.integers(0, len(dense), 60)
    for name, column in columns.items():
        assert ndv(column) == len(set(column.to_pylist())), name
        if len(column) == len(dense):
            assert ndv(column, rows) == len(set(column.take(rows).to_pylist())), name


def test_join_orders_unchanged_by_the_distinct_count(monkeypatch):
    """Every registered query orders its joins as it does under a
    plain sort-based distinct count."""
    from repro.core import runner
    from repro.ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
    from repro.tpch import ALL_QUERY_IDS, generate_tpch, get_query
    from repro.tpch.queries import CYCLIC_QUERY_IDS

    sf = 0.02
    tpch, ssb = generate_tpch(sf=sf, seed=1), generate_ssb(sf=sf, seed=1)
    cases = [(get_query(q, sf=sf), tpch) for q in ALL_QUERY_IDS + CYCLIC_QUERY_IDS]
    cases += [(get_ssb_query(q), ssb) for q in ALL_SSB_QUERY_IDS]
    orders = []
    greedy = runner.greedy_join_order

    def recording(*args):
        orders.append(greedy(*args))
        return orders[-1]

    def by_sorting(values):
        return len(np.unique(values))

    def all_orders():
        orders.clear()
        for spec, catalog in cases:
            # replan: the optimizer orders even the queries that pin one.
            config = runner.RunConfig(strategy="predtrans", replan=True)
            runner.run_query(spec, catalog, config=config)
        return list(orders)

    monkeypatch.setattr(runner, "greedy_join_order", recording)
    fast = all_orders()
    monkeypatch.setattr("repro.optimizer.cardinality.count_distinct", by_sorting)
    assert fast == all_orders()
    assert len(fast) >= len(cases)


def test_ndv_cache_memoizes():
    t = Table.from_pydict("t", {"x.a": [1, 2, 2]}).prefixed("x")
    cache = NdvCache({"x": t})
    assert cache.get("x", "x.a") == 2
    assert cache.get("x", "x.a") == 2  # hits memo


def test_estimate_join_rows():
    assert estimate_join_rows(100, 100, [(10, 100)]) == pytest.approx(100.0)
    assert estimate_join_rows(100, 100, [(10, 10), (10, 10)]) == pytest.approx(
        100.0
    )
    assert estimate_join_rows(0, 100, [(1, 1)]) == 0.0


def _graph_and_tables(relations, edges):
    spec = QuerySpec("q", relations=relations, edges=edges)
    graph = build_join_graph(spec)
    return graph


def _cache(**tables):
    return NdvCache({a: t.prefixed(a) for a, t in tables.items()})


def test_greedy_starts_from_smallest():
    graph = _graph_and_tables(
        [Relation("big", "big"), Relation("small", "small")],
        [edge("big", "small", ("k", "k"))],
    )
    big = Table.from_pydict("big", {"k": list(range(100))})
    small = Table.from_pydict("small", {"k": [1, 2]})
    order = greedy_join_order(
        graph, {"big": 100, "small": 2}, _cache(big=big, small=small)
    )
    assert order[0] == "small"
    assert order == ["small", "big"]


def test_greedy_stays_connected():
    # chain a-b-c: starting at a, c can only come after b.
    graph = _graph_and_tables(
        [Relation(x, x) for x in "abc"],
        [edge("a", "b", ("k", "k")), edge("b", "c", ("k", "k"))],
    )
    t = Table.from_pydict("t", {"k": [1, 2, 3]})
    order = greedy_join_order(
        graph, {"a": 1, "b": 10, "c": 100}, _cache(a=t, b=t, c=t)
    )
    assert order == ["a", "b", "c"]


def test_semi_right_side_deferred():
    # o semi l: l may never be first even though it is smallest.
    graph = _graph_and_tables(
        [Relation("o", "o"), Relation("l", "l")],
        [edge("o", "l", ("k", "k"), how="semi")],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"o": 100, "l": 1}, _cache(o=t, l=t))
    assert order == ["o", "l"]


def test_anti_right_side_deferred():
    graph = _graph_and_tables(
        [Relation("c", "c"), Relation("o", "o")],
        [edge("c", "o", ("k", "k"), how="anti")],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"c": 50, "o": 1}, _cache(c=t, o=t))
    assert order == ["c", "o"]


def test_left_right_side_deferred_through_chain():
    # c LEFT o, o-x inner: x cannot pull o in before c.
    graph = _graph_and_tables(
        [Relation("c", "c"), Relation("o", "o"), Relation("x", "x")],
        [
            edge("c", "o", ("k", "k"), how="left"),
            edge("o", "x", ("j", "j")),
        ],
    )
    t = Table.from_pydict("t", {"k": [1], "j": [1]})
    order = greedy_join_order(
        graph, {"c": 10, "o": 5, "x": 1}, _cache(c=t, o=t, x=t)
    )
    assert order.index("c") < order.index("o")


def test_all_restricted_rights_rejected():
    # A semi-edge cycle makes every relation a restricted right side.
    graph = _graph_and_tables(
        [Relation("a", "a"), Relation("b", "b"), Relation("c", "c")],
        [
            edge("a", "b", ("k", "k"), how="semi"),
            edge("b", "c", ("k", "k"), how="semi"),
            edge("c", "a", ("k", "k"), how="semi"),
        ],
    )
    t = Table.from_pydict("t", {"k": [1]})
    with pytest.raises(PlanError):
        greedy_join_order(graph, {"a": 1, "b": 1, "c": 1}, _cache(a=t, b=t, c=t))


def test_disconnected_graph_ordered_per_component():
    # A disconnected graph (cross product) is no longer rejected: each
    # component is ordered independently, smallest component first.
    graph = _graph_and_tables(
        [Relation("a", "a"), Relation("b", "b")],
        [],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"a": 5, "b": 1}, _cache(a=t, b=t))
    assert order == ["b", "a"]


def test_disconnected_multi_vertex_components_ordered():
    graph = _graph_and_tables(
        [Relation(x, x) for x in ("a", "b", "c", "d")],
        [edge("a", "b", ("k", "k")), edge("c", "d", ("k", "k"))],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(
        graph,
        {"a": 100, "b": 50, "c": 2, "d": 9},
        _cache(a=t, b=t, c=t, d=t),
    )
    # {c,d} holds the smallest relation, so it is ordered first; within
    # each component the greedy start is the smallest member.
    assert order[:2] == ["c", "d"]
    assert set(order[2:]) == {"a", "b"} and order[2] == "b"


def test_single_relation():
    graph = _graph_and_tables([Relation("a", "a")], [])
    assert greedy_join_order(graph, {"a": 5}, _cache()) == ["a"]


def test_greedy_prefers_selective_dimension_first():
    """Joining the filtered dimension before the big fact reduces the
    estimated intermediate, so greedy must pick it."""
    graph = _graph_and_tables(
        [Relation("f", "f"), Relation("d1", "d1"), Relation("d2", "d2")],
        [edge("f", "d1", ("k1", "k")), edge("f", "d2", ("k2", "k"))],
    )
    fact = Table.from_pydict(
        "f", {"k1": list(range(100)), "k2": [i % 10 for i in range(100)]}
    )
    dim_selective = Table.from_pydict("d1", {"k": [5]})
    dim_wide = Table.from_pydict("d2", {"k": list(range(10))})
    order = greedy_join_order(
        graph,
        {"f": 100, "d1": 1, "d2": 10},
        _cache(f=fact, d1=dim_selective, d2=dim_wide),
    )
    assert order[0] == "d1"
