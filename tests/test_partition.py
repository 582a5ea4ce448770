"""Partition layouts and zone-map pruning.

The load-bearing property: pruning is *conservative* — a partition may
only be skipped when its zone map proves no row in it satisfies the
predicate — so the pruned, chunk-evaluated selection vector is always
byte-identical to a full-table evaluation.  Plus layout caching /
invalidation-by-object-identity on mutation (``concat`` / replace).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import _scan_selection
from repro.core.transfer import ExecContext
from repro.engine.stats import QueryStats
from repro.expr.eval import evaluate_mask
from repro.expr.nodes import col, date, lit, year
from repro.storage import (
    Catalog,
    Column,
    DEFAULT_PARTITION_ROWS,
    DType,
    PartitionLayout,
    Table,
    get_layout,
    slice_table,
)
def make_table(n: int = 1000, seed: int = 0, clustered: bool = True) -> Table:
    rng = np.random.default_rng(seed)
    days = rng.integers(8000, 10500, size=n)
    if clustered:
        days = np.sort(days)
    return Table(
        "t",
        {
            "k": Column.from_ints(np.arange(n, dtype=np.int64)),
            "v": Column.from_ints(rng.integers(-50, 50, size=n)),
            "x": Column.from_floats(rng.random(n) * 10.0),
            "d": Column.from_days(days.astype(np.int32)),
            "s": Column.from_strings(
                [f"tag{int(i)}" for i in rng.integers(0, 7, size=n)]
            ),
        },
    )


PREDICATES = [
    col("t.v").ge(lit(10)),
    col("t.v").lt(lit(-49)),
    col("t.v").eq(lit(0)),
    col("t.v").ne(lit(0)),
    col("t.x").between(lit(2.0), lit(3.0)),
    col("t.x").gt(lit(9.99)),
    col("t.d").ge(date("1994-01-01")) & col("t.d").lt(date("1995-01-01")),
    col("t.d").le(date("1992-06-01")),
    col("t.v").isin([1, 2, 3]),
    col("t.v").isin([999]),
    year(col("t.d")).eq(lit(1994)),
    year(col("t.d")).ge(lit(1997)),
    (col("t.v").lt(lit(-40))) | (col("t.v").gt(lit(40))),
    col("t.v").ge(lit(10)) & col("t.s").like("tag%"),
    lit(25).le(col("t.v")),  # mirrored constant-op-column form
]


@pytest.fixture(scope="module")
def table():
    return make_table()


@pytest.mark.parametrize("predicate", PREDICATES, ids=range(len(PREDICATES)))
@pytest.mark.parametrize("partition_rows", [64, 256, 10_000])
def test_pruned_scan_matches_full_scan(table, predicate, partition_rows):
    """Pruning + chunked evaluation never drops (or adds) a row."""
    view = table.prefixed("t")
    expected = np.flatnonzero(evaluate_mask(predicate, view))
    stats = QueryStats()
    got = _scan_selection(
        ExecContext(stats=stats, partition_rows=partition_rows),
        table,
        "t",
        predicate,
        view,
    )
    assert np.array_equal(got, expected)
    assert stats.partitions_total == get_layout(table, partition_rows).num_partitions


@pytest.mark.parametrize("predicate", PREDICATES, ids=range(len(PREDICATES)))
def test_prune_mask_is_conservative(table, predicate):
    """Every partition containing a qualifying row must be kept."""
    layout = get_layout(table, 128)
    mapping = {f"t.{name}": name for name in table.columns}
    keep = layout.prune(predicate, mapping)
    mask = evaluate_mask(predicate, table.prefixed("t"))
    for i in range(layout.num_partitions):
        start, stop = layout.bounds(i)
        if mask[start:stop].any():
            assert keep[i], f"partition {i} pruned despite qualifying rows"


def test_pruning_actually_skips_partitions(table):
    """On clustered dates a tight range predicate prunes chunks."""
    layout = get_layout(table, 128)
    predicate = col("t.d").ge(date("1994-01-01")) & col("t.d").lt(
        date("1994-07-01")
    )
    keep = layout.prune(predicate, {f"t.{n}": n for n in table.columns})
    assert not keep.all()  # clustered days => some chunks provably empty


def test_zone_map_min_max_match_slices(table):
    layout = get_layout(table, 100)
    zone = layout.zone("v")
    data = table.column("v").data
    for i in range(layout.num_partitions):
        start, stop = layout.bounds(i)
        assert zone.mins[i] == data[start:stop].min()
        assert zone.maxs[i] == data[start:stop].max()
        assert zone.null_counts[i] == 0
        assert zone.valid_counts[i] == stop - start


def test_string_columns_have_no_zone_map(table):
    assert get_layout(table, 100).zone("s") is None


def test_null_aware_zone_maps_and_pruning():
    valid = np.array([True, True, False, False, True, False, False, False])
    column = Column(
        np.array([5, 7, 0, 0, -3, 0, 0, 0], dtype=np.int64),
        DType.INT64,
        valid=valid,
    )
    t = Table("n", {"a": column})
    layout = PartitionLayout(t, 4)
    zone = layout.zone("a")
    # Partition 0: valid values {5, 7}; partition 1: only -3 valid.
    assert zone.mins[0] == 5 and zone.maxs[0] == 7
    assert zone.mins[1] == -3 and zone.maxs[1] == -3
    assert list(zone.null_counts) == [2, 3]
    # Null rows never satisfy value predicates: the placeholder zeros
    # must not widen the zone.
    keep = layout.prune(col("a").eq(lit(0)))
    assert not keep.any()
    # IS NULL keeps partitions with nulls; IS NOT NULL needs valid rows.
    assert list(layout.prune(col("a").is_null())) == [True, True]
    assert list(layout.prune(col("a").is_not_null())) == [True, True]
    # An all-null partition is prunable for any value predicate.
    all_null = Table(
        "n2", {"a": Column(np.zeros(4, dtype=np.int64), DType.INT64,
                           valid=np.zeros(4, dtype=np.bool_))}
    )
    assert not PartitionLayout(all_null, 4).prune(col("a").ge(lit(-10))).any()


def test_unsupported_predicates_keep_everything(table):
    layout = get_layout(table, 100)
    mapping = {f"t.{n}": n for n in table.columns}
    assert layout.prune(col("t.s").like("tag1"), mapping).all()
    assert layout.prune(col("t.v").lt(col("t.k")), mapping).all()
    assert layout.prune(~col("t.v").eq(lit(0)), mapping).all()


def test_layout_cached_per_table_object(table):
    assert get_layout(table, 128) is get_layout(table, 128)
    assert get_layout(table, 128) is not get_layout(table, 64)


def test_concat_invalidates_layout_and_zone_maps(table):
    layout = get_layout(table, DEFAULT_PARTITION_ROWS)
    zone = layout.zone("v")
    batch = Table.from_pydict(
        "t",
        {
            "k": np.arange(5, dtype=np.int64),
            "v": np.full(5, 10_000, dtype=np.int64),
            "x": np.zeros(5),
            "d": Column.from_days(np.full(5, 12_000, dtype=np.int32)),
            "s": ["zzz"] * 5,
        },
    )
    extended = table.concat(batch)
    # Mutation produced a new object => a fresh layout; the old one is
    # untouched and unreachable through the new table.
    fresh = get_layout(extended, DEFAULT_PARTITION_ROWS)
    assert fresh is not layout
    assert fresh.zone("v").maxs.max() == 10_000
    assert zone.maxs.max() < 10_000
    # And a catalog replace bumps the data version (the cross-query
    # cache's invalidation handle for cached selection vectors).
    catalog = Catalog({"t": table})
    before = catalog.data_version("t")
    catalog.register(extended, "t")
    assert catalog.data_version("t") > before


def test_slice_table_is_zero_copy(table):
    chunk = slice_table(table, 10, 20, {"t.v": "v"}, name="t")
    assert chunk.num_rows == 10
    assert np.shares_memory(chunk.column("t.v").data, table.column("v").data)


def test_empty_table_layout():
    t = Table("e", {"a": Column.from_ints(np.empty(0, dtype=np.int64))})
    layout = PartitionLayout(t, 16)
    assert layout.num_partitions == 0
    assert layout.zone("a") is None
    assert len(layout.prune(col("a").eq(lit(1)))) == 0


def test_not_equal_pruning_never_drops_nan_rows():
    """NaN satisfies ``!=`` under the evaluator's NumPy semantics, so
    float ``!=`` must not prune on NaN-blind fmin/fmax bounds."""
    t = Table(
        "f", {"x": Column.from_floats(np.array([5.0, np.nan, 5.0, 5.0]))}
    )
    layout = PartitionLayout(t, 2)
    predicate = col("x").ne(lit(5.0))
    assert layout.prune(predicate).all()  # conservatively kept
    expected = np.flatnonzero(evaluate_mask(predicate, t))
    got = _scan_selection(
        ExecContext(partition_rows=2),
        t,
        "f",
        col("f.x").ne(lit(5.0)),
        t.prefixed("f"),
    )
    assert np.array_equal(got, expected)
    # Integer != pruning (no NaN possible) still prunes constant chunks.
    ti = Table("i", {"a": Column.from_ints(np.array([7, 7, 7, 7]))})
    assert not PartitionLayout(ti, 2).prune(col("a").ne(lit(7))).any()


def test_replaced_tables_stay_collectable():
    """The layout memo must not pin retired tables for process life."""
    import gc
    import weakref

    t = make_table(200)
    get_layout(t, 64).zone("v")
    # Column buffers are the leak-relevant payload; watch one weakly
    # via an ndarray-holding wrapper (Columns have no __weakref__).
    probe = weakref.ref(t.columns["v"].data.base or t.columns["v"].data)
    del t
    gc.collect()
    assert probe() is None


def test_layouts_free_their_table_by_refcount():
    """A layout holds its table's columns, not the table: the memo on
    the table then forms no cycle, so dropping the last reference frees
    the column buffers at once, with the cycle collector off.  Holds
    for a layout carried over by an append, too."""
    import gc
    import weakref

    from repro.storage.partition import carry_layouts

    t = make_table(200)
    layout = get_layout(t, 64)
    layout.zone("v")
    assert layout.gap_free("k")
    grown = t.concat(make_table(10, seed=1))
    carry_layouts(t, grown)
    get_layout(grown, 64).zone("v")
    probe = weakref.ref(t.columns["v"].data)
    gc.disable()
    try:
        del t, layout
        assert probe() is None
    finally:
        gc.enable()
    # The carried layout still answers from what it inherited.
    assert get_layout(grown, 64).gap_free("k")


# ----------------------------------------------------------------------
# Column statistics: distinct counts per table version
# ----------------------------------------------------------------------
def _counted(monkeypatch) -> list[int]:
    """The length of every array a distinct count is taken over."""
    from repro.engine import factorize

    calls: list[int] = []
    real = factorize.count_distinct

    def counting(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(factorize, "count_distinct", counting)
    return calls


def _commit(catalog: Catalog, **deltas: Table) -> None:
    batch = catalog.begin_ingest()
    for name, delta in deltas.items():
        batch.stage(name, delta)
    batch.commit()


def test_distinct_count_is_computed_once_per_table_version(monkeypatch):
    from repro.core.runner import RunConfig, run_query
    from repro.tpch import generate_tpch, get_query

    base = generate_tpch(sf=0.005, seed=1)
    catalog = Catalog({name: base.get(name) for name in base.names()})
    spec, config = get_query(3, sf=0.005), RunConfig(strategy="nopredtrans")
    calls = _counted(monkeypatch)
    run_query(spec, catalog, config=config)
    first = list(calls)
    assert first  # Q3's join keys, counted by the first query...
    run_query(spec, catalog, config=config)
    run_query(spec, catalog, config=RunConfig(strategy="predtrans"))
    assert calls == first  # ...and by no later one
    orders = catalog.get("orders")
    layout = get_layout(orders)
    for column in ("o_orderkey", "o_custkey"):
        assert layout.distinct_count(column) == len(np.unique(orders.column(column).data))
    assert calls == first

    # A new version inherits: only the appended rows are counted.
    _commit(catalog, orders=orders.head(8))
    run_query(spec, catalog, config=config)
    assert calls[len(first):] and max(calls[len(first):]) <= 8


def test_inherited_distinct_counts_equal_a_recount_after_appends():
    """Batches shaped like the ingest benchmark's: new orders with
    monotone keys past the last one, lineitems referencing them, and
    foreign keys and dates taken from existing rows."""
    from repro.tpch import generate_tpch

    base = generate_tpch(sf=0.01, seed=2)
    catalog = Catalog({name: base.get(name) for name in ("orders", "lineitem")})
    keys = {
        "orders": ("o_orderkey", "o_custkey", "o_orderdate"),
        "lineitem": ("l_orderkey", "l_partkey", "l_suppkey", "l_shipdate"),
    }
    for name, columns in keys.items():
        for column in columns:
            get_layout(catalog.get(name)).distinct_count(column)
    rng = np.random.default_rng(0)
    for _ in range(3):
        orders, lineitem = catalog.get("orders"), catalog.get("lineitem")
        top = int(orders.column("o_orderkey").data.max())
        new_keys = top + 1 + np.arange(64)
        new_orders = orders.take(rng.integers(0, orders.num_rows, 64)).with_column(
            "o_orderkey", Column.from_ints(new_keys)
        )
        new_items = lineitem.take(rng.integers(0, lineitem.num_rows, 448)).with_column(
            "l_orderkey", Column.from_ints(rng.choice(new_keys, 448))
        )
        _commit(catalog, orders=new_orders, lineitem=new_items)
        for name, columns in keys.items():
            table = catalog.get(name)
            layout = get_layout(table)
            assert layout._inherited_distinct is not None
            for column in columns:
                recount = PartitionLayout(table).distinct_count(column)
                assert layout.distinct_count(column) == recount, column


def test_gap_free_stays_false_for_a_column_with_a_gap():
    from repro.storage.partition import extend_layout

    old = Table.from_pydict("t", {"k": [1, 2, 4, 4, 4, 4]})
    layout = get_layout(old, 2)
    assert layout.distinct_count("k") == 3 and not layout.gap_free("k")
    # Beyond the old range, the gap at 3 stays; inside it, a value that
    # is not 3 leaves it, and 3 fills it.
    for tail, expected in (([5, 5], False), ([2], False), ([3], True), ([0, 3], True)):
        new = old.concat(Table.from_pydict("t", {"k": tail}))
        extended = extend_layout(layout, new)
        assert extended.gap_free("k") is expected, tail
        assert extended.distinct_count("k") == len(set([1, 2, 4] + tail)), tail
        assert get_layout(new, 2).gap_free("k") is expected  # from scratch
    nulls = Column(np.array([1, 2, 3, 4]), DType.INT64, valid=np.array([True] * 3 + [False]))
    assert not get_layout(Table("t", {"k": nulls})).gap_free("k")


def test_racing_readers_share_one_statistic_per_column():
    """Threads asking for the same counts at once all get the one
    statistic the layout installed, and the gap test agrees with it."""
    import sys
    import threading

    layout = get_layout(make_table(20_000), 256)
    columns = ("k", "v", "x")
    barrier = threading.Barrier(8)
    results = []

    def read():
        barrier.wait(timeout=10)
        results.append(([layout._distinct_stat(c) for c in columns], layout.gap_free("k")))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    installed = [layout._distinct_stat(c) for c in columns]
    for stats, dense in results:
        assert all(a is b for a, b in zip(stats, installed)) and dense
    assert installed[0].count == 20_000
