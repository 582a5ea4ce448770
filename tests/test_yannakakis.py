"""Unit tests for the Yannakakis semi-join baseline."""

from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from repro.core.runner import RunConfig, _scan, run_query
from repro.core.transfer import ExecContext
from repro.core.yannakakis import build_join_tree, run_semi_join_rows
from repro.engine.hashjoin import hash_join
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.catalog import Catalog
from repro.storage.column import Column
from repro.storage.table import Table
from repro.tpch import BENCH_QUERY_IDS, generate_tpch
from repro.tpch.queries import get_query


def _setup(tables, edges):
    """The join graph and an uncached context over scanned (prefixed)
    tables, every row alive."""
    spec = QuerySpec(
        "q", relations=[Relation(a, a) for a in tables], edges=edges
    )
    jg = build_join_graph(spec)
    scanned = {a: t.prefixed(a) for a, t in tables.items()}
    rows = {a: np.arange(t.num_rows) for a, t in tables.items()}
    return jg, ExecContext(tables=scanned, rows=rows)


def _survivors(state):
    """Surviving row ids per alias, as lists."""
    return {alias: rows.tolist() for alias, rows in state.rows.items()}


def _chain():
    r = Table.from_pydict("r", {"b": [1, 2, 3]})
    s = Table.from_pydict("s", {"b": [1, 4, 2, 5, 3], "c": [100, 200, 300, 400, 500]})
    t = Table.from_pydict("t", {"c": [100, 300, 600, 700]})
    return _setup(
        {"r": r, "s": s, "t": t},
        [edge("r", "s", ("b", "b")), edge("s", "t", ("c", "c"))],
    )


def test_join_tree_bfs_and_dropped_edges():
    jg, _ = _chain()
    jtree = build_join_tree(jg, root="s")
    assert jtree.root == "s"
    assert set(jtree.tree.edges) == {("s", "r"), ("s", "t")}
    assert jtree.dropped_edges == []


def test_join_tree_drops_cycle_edges():
    a = Table.from_pydict("a", {"k": [1]})
    jg, _ = _setup(
        {"a": a, "b": a, "c": a},
        [
            edge("a", "b", ("k", "k")),
            edge("b", "c", ("k", "k")),
            edge("c", "a", ("k", "k")),
        ],
    )
    jtree = build_join_tree(jg, root="a")
    assert len(jtree.dropped_edges) == 1


def test_semi_join_phase_exact_on_acyclic_query():
    """On an acyclic query, every surviving row must participate in the
    full join result, and every participating row must survive — the
    Yannakakis guarantee."""
    jg, state = _chain()
    run_semi_join_rows(state, jg)
    stats = state.stats.transfer
    assert _survivors(state) == {"r": [0, 1], "s": [0, 2], "t": [0, 1]}
    # Semi-joins ship exact filters: on these dense keys, bitmaps.
    assert stats.inserted("bitmap") > 0 and stats.probed("bitmap") > 0
    assert stats.inserted("bloom") == stats.probed("bloom") == 0


def test_semi_join_phase_respects_root_choice():
    for root in ("r", "s", "t"):
        jg, state = _chain()
        run_semi_join_rows(state, jg, root=root)
        # The reduction itself is root-independent on acyclic queries.
        assert state.rows["s"].tolist() == [0, 2]


def test_left_join_direction_blocked():
    c = Table.from_pydict("c", {"k": [1, 2, 3]})
    o = Table.from_pydict("o", {"k": [1, 1]})
    jg, state = _setup(
        {"c": c, "o": o}, [edge("c", "o", ("k", "k"), how="left")]
    )
    run_semi_join_rows(state, jg)
    # customers (preserved side) must never be reduced
    assert state.rows["c"].tolist() == [0, 1, 2]
    # orders may be reduced by the allowed c->o direction
    assert state.rows["o"].tolist() == [0, 1]  # all orders match a customer here


def test_anti_edge_never_filters_left_side():
    ps = Table.from_pydict("ps", {"k": [1, 2, 3]})
    sc = Table.from_pydict("sc", {"k": [2]})
    jg, state = _setup(
        {"ps": ps, "sc": sc}, [edge("ps", "sc", ("k", "k"), how="anti")]
    )
    run_semi_join_rows(state, jg)
    assert state.rows["ps"].tolist() == [0, 1, 2]  # anti-join left side untouched


def test_disconnected_components_handled():
    a = Table.from_pydict("a", {"k": [1, 2]})
    b = Table.from_pydict("b", {"k": [2, 3]})
    c = Table.from_pydict("c", {"x": [9]})
    jg, state = _setup(
        {"a": a, "b": b, "c": c}, [edge("a", "b", ("k", "k"))]
    )
    run_semi_join_rows(state, jg)
    assert state.rows["a"].tolist() == [1]
    assert state.rows["c"].tolist() == [0]


def test_yannakakis_result_equals_full_join_participation():
    """Cross-check against a brute-force join on random data."""
    rng = np.random.default_rng(3)
    r = Table.from_pydict("r", {"b": rng.integers(0, 10, 40)})
    s = Table.from_pydict(
        "s", {"b": rng.integers(0, 10, 40), "c": rng.integers(0, 10, 40)}
    )
    t = Table.from_pydict("t", {"c": rng.integers(0, 10, 40)})
    jg, state = _setup(
        {"r": r, "s": s, "t": t},
        [edge("r", "s", ("b", "b")), edge("s", "t", ("c", "c"))],
    )
    scanned = state.tables
    run_semi_join_rows(state, jg)
    surviving_s = set(state.rows["s"].tolist())
    # Brute force: which s rows appear in r ⋈ s ⋈ t?
    rs, _ = hash_join(
        scanned["s"].filter(np.ones(40, bool)), scanned["r"], ["s.b"], ["r.b"]
    )
    rst, _ = hash_join(rs, scanned["t"], ["s.c"], ["t.c"])
    surviving_s_b_c = {
        (row[0], row[1])
        for row in zip(
            rst.column("s.b").to_pylist(), rst.column("s.c").to_pylist()
        )
    }
    for i in range(40):
        key = (int(s.column("b").data[i]), int(s.column("c").data[i]))
        assert (i in surviving_s) == (key in surviving_s_b_c)


def test_cycle_edge_post_verification_recovers_filtering():
    """On a triangle, the off-tree edge is verified after the tree
    passes, removing rows classical Yannakakis would have kept."""
    # a-b and b-c agree everywhere; the a-c cycle edge disagrees on the
    # second row, which only the post-verification pass can remove.
    a = Table.from_pydict("a", {"k": [1, 2], "m": [1, 2]})
    b = Table.from_pydict("b", {"k": [1, 2]})
    c = Table.from_pydict("c", {"k": [1, 2], "m": [1, 9]})
    jg, state = _setup(
        {"a": a, "b": b, "c": c},
        [
            edge("a", "b", ("k", "k")),
            edge("b", "c", ("k", "k")),
            edge("a", "c", ("m", "m")),
        ],
    )
    run_semi_join_rows(state, jg)
    assert state.stats.transfer.edges_verified > 0
    assert state.rows["a"].tolist() == [0]
    assert state.rows["c"].tolist() == [0]


def test_acyclic_query_has_no_verified_edges():
    jg, state = _chain()
    run_semi_join_rows(state, jg)
    assert state.stats.transfer.edges_verified == 0


@pytest.mark.parametrize("root", ["c", "o"])
@pytest.mark.parametrize("how", ["left", "anti"])
def test_blocked_direction_ships_nothing(how, root):
    """A left/anti edge takes part in one pass only: the blocked
    direction's filter is never built, whichever side is the root."""
    c = Table.from_pydict("c", {"k": [1, 2, 3]})
    o = Table.from_pydict("o", {"k": [1, 1, 4]})
    jg, state = _setup(
        {"c": c, "o": o}, [edge("c", "o", ("k", "k"), how=how)]
    )
    run_semi_join_rows(state, jg, root=root)
    stats = state.stats.transfer
    # Only c -> o shipped: c's three keys inserted, o's three rows probed.
    assert stats.edges_traversed == 1
    assert (stats.inserted("bitmap"), stats.probed("bitmap")) == (3, 3)
    assert _survivors(state) == {"c": [0, 1, 2], "o": [0, 1]}
    # The same edge as an inner join ships in both directions.
    jg, state = _setup({"c": c, "o": o}, [edge("c", "o", ("k", "k"))])
    run_semi_join_rows(state, jg, root=root)
    assert state.stats.transfer.edges_traversed == 2


# ----------------------------------------------------------------------
# Full-reducer property on TPC-H (checked from row ids)
# ----------------------------------------------------------------------
FULL_REDUCER_SF = 0.003


def _is_plain_acyclic(spec: QuerySpec) -> bool:
    """Single-block, acyclic, inner equi-joins only, no residuals: the
    queries on which Yannakakis is a full reducer."""
    return (
        len(spec.relations) > 1
        and not spec.pre_stages
        and not spec.residuals
        and all(e.how == "inner" and e.residual is None for e in spec.edges)
        and nx.is_tree(build_join_graph(spec))
    )


FULL_REDUCER_IDS = [
    q for q in BENCH_QUERY_IDS if _is_plain_acyclic(get_query(q, sf=FULL_REDUCER_SF))
]


@pytest.fixture(scope="module")
def rid_catalog():
    """TPC-H with a ``rid`` (row position) column on every table."""
    base = generate_tpch(sf=FULL_REDUCER_SF, seed=0)
    catalog = Catalog()
    for name in base.names():
        table = base.get(name)
        rid = Column.from_ints(np.arange(table.num_rows))
        catalog.register(Table(name, {**table.columns, "rid": rid}))
    return catalog


def test_full_reducer_queries_selected():
    assert {3, 10} <= set(FULL_REDUCER_IDS)


@pytest.mark.parametrize("query_id", FULL_REDUCER_IDS)
def test_full_reducer_on_acyclic_tpch(rid_catalog, query_id):
    """After the semi-join phase every surviving row of every alias
    appears in the join result, and every participating row survived.
    The oracle is the ``nopredtrans`` join of the same relations, read
    back as row ids — it never touches the transfer code."""
    spec = replace(get_query(query_id, sf=FULL_REDUCER_SF), post=[])
    config = RunConfig(strategy="nopredtrans", materialize="eager")
    joined = run_query(spec, rid_catalog, config=config).table

    ctx = ExecContext()
    _scan(ctx, spec, rid_catalog, config)
    run_semi_join_rows(ctx, build_join_graph(spec))
    for alias, rows in ctx.rows.items():
        participating = np.unique(joined.column(f"{alias}.rid").data)
        assert np.array_equal(rows, participating), alias
