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
