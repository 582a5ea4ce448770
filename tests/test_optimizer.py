"""Unit tests for cardinality estimation and greedy join ordering."""

import dataclasses

import numpy as np
import pytest

from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.errors import PlanError
from repro.optimizer.cardinality import catalog_ndv, estimate_join_rows
from repro.optimizer.joinorder import greedy_join_order, step_estimates
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.column import Column, DType
from repro.storage.partition import DEFAULT_PARTITION_ROWS, get_layout
from repro.storage.table import Table


def _ndv(column: Column) -> int:
    """The catalog statistic of a one-column table."""
    return get_layout(Table("t", {"a": column})).distinct_count("a")


def test_ndv_exact():
    t = Table.from_pydict("t", {"a": [1, 1, 2, 3, 3, 3]})
    assert get_layout(t).distinct_count("a") == 3
    empty = Table.from_pydict("t", {"a": np.empty(0, dtype=np.int64)})
    assert get_layout(empty).distinct_count("a") == 0


def test_ndv_counts_valid_rows_only():
    """A NULL row's placeholder value is not a value: [NULL, 5, 5, 7]
    has two distinct values, and an all-NULL column none."""
    valid = np.array([False, True, True, True])
    assert _ndv(Column(np.array([0, 5, 5, 7]), DType.INT64, valid=valid)) == 2
    assert _ndv(Column(np.array([9, 9]), DType.INT64, valid=np.zeros(2, bool))) == 0
    day = Column(np.array([1, 9000, 9000]), DType.DATE, valid=valid[:3])
    assert _ndv(day) == 1


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
    for name, column in columns.items():
        assert _ndv(column) == len(set(column.to_pylist())), name


def test_join_orders_unchanged_by_the_distinct_count(monkeypatch):
    """Every registered query orders its joins as it does under a
    plain sort-based distinct count.  Each arm counts on a catalog of
    its own, so the statistics memo cannot serve the second arm."""
    from repro.core import runner
    from repro.ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
    from repro.tpch import ALL_QUERY_IDS, generate_tpch, get_query
    from repro.tpch.queries import CYCLIC_QUERY_IDS

    sf = 0.02
    specs = [(get_query(q, sf=sf), "tpch") for q in ALL_QUERY_IDS + CYCLIC_QUERY_IDS]
    specs += [(get_ssb_query(q), "ssb") for q in ALL_SSB_QUERY_IDS]
    orders = []
    greedy = runner.greedy_join_order

    def recording(*args):
        orders.append(greedy(*args))
        return orders[-1]

    sorted_counts = []

    def by_sorting(values):
        sorted_counts.append(len(values))
        return len(np.unique(values))

    def all_orders():
        orders.clear()
        catalogs = {"tpch": generate_tpch(sf=sf, seed=1), "ssb": generate_ssb(sf=sf, seed=1)}
        for spec, kind in specs:
            # Unpinned: the optimizer orders Q5 too.
            unpinned = dataclasses.replace(spec, join_order=None)
            runner.run_query(unpinned, catalogs[kind], strategy="predtrans")
        return list(orders)

    monkeypatch.setattr(runner, "greedy_join_order", recording)
    fast = all_orders()
    assert sorted_counts == []
    monkeypatch.setattr("repro.engine.factorize.count_distinct", by_sorting)
    assert fast == all_orders()
    assert sorted_counts  # the second arm counted, by sorting
    assert len(fast) >= len(specs)


def test_estimate_join_rows():
    assert estimate_join_rows(100, 100, 10, 100) == pytest.approx(100.0)
    assert estimate_join_rows(100, 100, 100, 10) == pytest.approx(100.0)
    assert estimate_join_rows(0, 100, 1, 1) == 0.0
    assert estimate_join_rows(5, 7, 0, 0) == pytest.approx(35.0)


def _graph_and_tables(relations, edges):
    spec = QuerySpec("q", relations=relations, edges=edges)
    graph = build_join_graph(spec)
    return graph


def _lookup(**tables):
    return catalog_ndv(tables, DEFAULT_PARTITION_ROWS)


def test_greedy_starts_from_smallest():
    graph = _graph_and_tables(
        [Relation("big", "big"), Relation("small", "small")],
        [edge("big", "small", ("k", "k"))],
    )
    big = Table.from_pydict("big", {"k": list(range(100))})
    small = Table.from_pydict("small", {"k": [1, 2]})
    order = greedy_join_order(
        graph, {"big": 100, "small": 2}, _lookup(big=big, small=small)
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
        graph, {"a": 1, "b": 10, "c": 100}, _lookup(a=t, b=t, c=t)
    )
    assert order == ["a", "b", "c"]


def test_semi_right_side_deferred():
    # o semi l: l may never be first even though it is smallest.
    graph = _graph_and_tables(
        [Relation("o", "o"), Relation("l", "l")],
        [edge("o", "l", ("k", "k"), how="semi")],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"o": 100, "l": 1}, _lookup(o=t, l=t))
    assert order == ["o", "l"]


def test_anti_right_side_deferred():
    graph = _graph_and_tables(
        [Relation("c", "c"), Relation("o", "o")],
        [edge("c", "o", ("k", "k"), how="anti")],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"c": 50, "o": 1}, _lookup(c=t, o=t))
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
        graph, {"c": 10, "o": 5, "x": 1}, _lookup(c=t, o=t, x=t)
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
        greedy_join_order(graph, {"a": 1, "b": 1, "c": 1}, _lookup(a=t, b=t, c=t))


def test_disconnected_graph_ordered_per_component():
    # A disconnected graph (cross product) is no longer rejected: each
    # component is ordered independently, smallest component first.
    graph = _graph_and_tables(
        [Relation("a", "a"), Relation("b", "b")],
        [],
    )
    t = Table.from_pydict("t", {"k": [1]})
    order = greedy_join_order(graph, {"a": 5, "b": 1}, _lookup(a=t, b=t))
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
        _lookup(a=t, b=t, c=t, d=t),
    )
    # {c,d} holds the smallest relation, so it is ordered first; within
    # each component the greedy start is the smallest member.
    assert order[:2] == ["c", "d"]
    assert set(order[2:]) == {"a", "b"} and order[2] == "b"


def test_single_relation():
    graph = _graph_and_tables([Relation("a", "a")], [])
    assert greedy_join_order(graph, {"a": 5}, _lookup()) == ["a"]


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
        _lookup(f=fact, d1=dim_selective, d2=dim_wide),
    )
    assert order[0] == "d1"


# ----------------------------------------------------------------------
# The composite-key step estimate, on the shape of TPC-H Q9
# ----------------------------------------------------------------------
def _q9_shape(with_s_l: bool = True):
    """``s``, ``ps`` and ``l`` joined as in Q9: ``ps`` holds every
    (part, supplier) pair and ``l`` references ``ps`` on both keys, so
    ``ps ⋈ l`` has exactly ``|l|`` rows.  Independent per-column
    estimates, counting ``suppkey`` once per edge, put it at
    ``|l| / |s|`` (Q9 at SF 0.5: ≈ 0.5 rows for 3 001 902)."""
    parts, supps = 6, 4
    pk, sk = np.divmod(np.arange(parts * supps), supps)
    rng = np.random.default_rng(3)
    pick = rng.integers(0, parts * supps, 10 * parts * supps)
    tables = {
        "s": Table.from_pydict("s", {"suppkey": np.arange(supps)}),
        "ps": Table.from_pydict("ps", {"partkey": pk, "suppkey": sk}),
        "l": Table.from_pydict("l", {"partkey": pk[pick], "suppkey": sk[pick]}),
    }
    edges = [
        edge("s", "ps", ("suppkey", "suppkey")),
        edge("ps", "l", [("partkey", "partkey"), ("suppkey", "suppkey")]),
    ]
    if with_s_l:
        edges.append(edge("s", "l", ("suppkey", "suppkey")))
    graph = _graph_and_tables([Relation(a, a) for a in tables], edges)
    sizes = {a: t.num_rows for a, t in tables.items()}
    return graph, sizes, _lookup(**tables)


def test_composite_foreign_key_estimates_the_fact_table():
    graph, sizes, ndv = _q9_shape()
    estimates = step_estimates(graph, sizes, ndv, ["s", "ps", "l"])
    assert estimates["ps"] == pytest.approx(sizes["ps"])
    assert estimates["l"] == pytest.approx(sizes["l"])


def test_a_key_class_reached_twice_is_counted_once():
    """``l.suppkey = s.suppkey`` adds nothing once ``s.suppkey =
    ps.suppkey`` is joined: the estimate is the one without that edge."""
    with_edge = step_estimates(*_q9_shape(with_s_l=True), ["s", "ps", "l"])
    without = step_estimates(*_q9_shape(with_s_l=False), ["s", "ps", "l"])
    assert with_edge == without


def test_single_equality_estimates_are_the_textbook_formula():
    """One key per step: ``est × |R| / max(min(V(joined), est + 1),
    min(V(R), |R|))``, the estimate before composite keys."""
    rng = np.random.default_rng(5)
    tables = {
        "a": Table.from_pydict("a", {"k": rng.integers(0, 30, 40)}),
        "b": Table.from_pydict(
            "b", {"k": rng.integers(0, 50, 200), "j": rng.integers(0, 7, 200)}
        ),
        "c": Table.from_pydict("c", {"j": rng.integers(0, 900, 1000)}),
    }
    graph = _graph_and_tables(
        [Relation(x, x) for x in tables],
        [edge("a", "b", ("k", "k")), edge("b", "c", ("j", "j"))],
    )
    # Filtered sizes: c's NDV is capped at its 5 local rows.
    sizes = {"a": 40, "b": 200, "c": 5}
    got = step_estimates(graph, sizes, _lookup(**tables), ["a", "b", "c"])

    def v(alias, column):
        return len(np.unique(tables[alias].column(column).data))

    est_b = 40 * 200 / max(min(v("a", "k"), 40 + 1), v("b", "k"))
    est_c = est_b * 5 / max(min(v("b", "j"), int(est_b) + 1), min(v("c", "j"), 5))
    assert got == pytest.approx({"b": est_b, "c": est_c})


# ----------------------------------------------------------------------
# One order for every strategy
# ----------------------------------------------------------------------
#: Queries with a pre-stage that predtrans and yannakakis defer: the
#: stage runs pre-filtered, so its output — a relation the consumer
#: orders — is smaller under them than under the other strategies.
DEFERRED = {"q2", "q17", "q20", "q21"}


def _block_orders(stats) -> list[tuple[str, list[str]]]:
    return [(block.query, block.join_order) for block in stats.blocks()]


def test_every_strategy_joins_in_the_same_order():
    from repro.ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
    from repro.tpch import ALL_QUERY_IDS, generate_tpch, get_query
    from repro.tpch.queries import CYCLIC_QUERY_IDS

    sf = 0.02
    tpch, ssb = generate_tpch(sf=sf, seed=1), generate_ssb(sf=sf, seed=1)
    cases = [(f"q{q}", get_query(q, sf=sf), tpch) for q in ALL_QUERY_IDS + CYCLIC_QUERY_IDS]
    cases += [(f"ssb{q}", get_ssb_query(q), ssb) for q in ALL_SSB_QUERY_IDS]
    deferred = set()
    for name, spec, catalog in cases:
        runs = {
            strategy: run_query(spec, catalog, config=RunConfig(strategy=strategy)).stats
            for strategy in STRATEGIES
        }
        if any(block.seeded for block in runs["predtrans"].blocks()):
            deferred.add(name)
            continue
        orders = {s: _block_orders(stats) for s, stats in runs.items()}
        assert all(o[-1][1] for o in orders.values()), name
        assert len({repr(o) for o in orders.values()}) == 1, (name, orders)
    assert deferred == DEFERRED
