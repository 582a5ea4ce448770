"""The presence bitmap a single dense integer key ships instead of a
Bloom filter or an exact hash set (:mod:`repro.filters.bitmap`).

Pinned here, mostly as ``hypothesis`` properties:

* the bitmap's keep-mask is ``np.isin`` over the non-NULL keys, and a
  subset of the Bloom filter's — negatives, ``DATE``, empty and one-key
  sources, NULL-bearing probe columns, probe keys near ±2⁶³ — also for
  row subsets, ``low = −2⁶³`` and spans around ``CACHE_BITS``;
* the size rule at its boundary: a span of ``CACHE_BITS`` or of the
  Bloom filter's bit count (the exact hash set's byte count), whichever
  is larger, ships a bitmap, one more does not;
* every bitmap is no larger than the filter it replaced or the
  cache-sized span, and an exact build allocates no more than the hash
  set it replaced or that span's bytes;
* a memory budget that admits the replaced filter but not the bitmap
  ships the filter asked for, and caches nothing;
* a cached bitmap extended over appended rows is bit-identical to a
  fresh build over the merged table, and falls back to a rebuild
  exactly when that build would not pick a bitmap;
* a corrupted cached bitmap is detected, dropped and rebuilt;
* an exact filter that fits as a bitmap is not degraded under a memory
  budget;
* the edge kind reaches ``--analyze``, the ``transfer`` span and the
  slow-query log.
"""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.cache.context import AliasKey, QueryCache
from repro.cache.store import FilterCache
from repro.context import QueryContext
from repro.core.runner import RunConfig, run_query
from repro.core.transfer import ExecContext, build_filter, probe_filter
from repro.engine.stats import EdgeStat
from repro.filters.bitmap import CACHE_BITS, BitmapFilter, span_limit
from repro.filters.bloom import BloomFilter, bloom_bits
from repro.filters.exact import ExactFilter
from repro.filters.hashing import bloom_keys
from repro.filters.hashset import hash_set_bytes
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import spans_from_stats
from repro.storage import Catalog, Column, Table
from repro.testing import FaultPlan, FaultRule, inject
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

FPP = 0.01
I64_MIN, I64_MAX = -(2**63), 2**63 - 1
I32_MIN, I32_MAX = -(2**31), 2**31 - 1


def _kind_args(kind: str) -> float | None:
    """The ``fpp`` a bitmap standing in for ``kind`` is sized against."""
    return FPP if kind == "bloom" else None


def _build(table: Table, kind: str, rows: np.ndarray | None = None):
    state = ExecContext(tables={"t": table})
    edge = EdgeStat(0, "t", "u", ("t.k",))
    return build_filter(state, edge, None, table, rows, kind, FPP), edge


def _probe(filt, probe: Table, rows: np.ndarray | None = None) -> np.ndarray:
    state = ExecContext(tables={"u": probe})
    return probe_filter(state, EdgeStat(0, "t", "u", ("u.k",)), filt, probe, ("u.k",), rows)


# ----------------------------------------------------------------------
# Membership: np.isin, and a subset of the Bloom filter's answer
# ----------------------------------------------------------------------
@st.composite
def _source_and_probe(draw):
    date = draw(st.booleans())
    lo_bound, hi_bound = (I32_MIN, I32_MAX) if date else (I64_MIN, I64_MAX)
    # <= 144: inside a one-block Bloom filter's bits and a 16-slot hash
    # set's bytes, so every source ships a bitmap whichever kind was
    # asked for.
    width = draw(st.integers(min_value=1, max_value=144))
    low = draw(st.integers(min_value=lo_bound, max_value=hi_bound - width))
    keys = draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), min_size=0, max_size=60)
    )
    src = np.asarray(keys, dtype=np.int64) + low
    src_valid = np.asarray(
        draw(st.lists(st.booleans(), min_size=len(src), max_size=len(src))),
        dtype=np.bool_,
    )
    near = [lo_bound, lo_bound + 1, hi_bound - 1, hi_bound, low - 1, low + width, 0]
    pool = st.one_of(
        st.sampled_from(keys or [0]).map(lambda k: k + low),
        st.integers(min_value=low - 2, max_value=low + width + 1),
        st.sampled_from(near),
        st.integers(min_value=lo_bound, max_value=hi_bound),
    )
    probe = np.asarray(
        [min(max(v, lo_bound), hi_bound) for v in draw(st.lists(pool, max_size=80))],
        dtype=np.int64,
    )
    probe_valid = np.asarray(
        draw(st.lists(st.booleans(), min_size=len(probe), max_size=len(probe))),
        dtype=np.bool_,
    )
    return date, src, src_valid, probe, probe_valid


def _column(values: np.ndarray, valid: np.ndarray, date: bool) -> Column:
    column = Column.from_days(values) if date else Column.from_ints(values)
    if valid.all():
        return column
    data = column.data.copy()
    data[~valid] = 0  # the canonical placeholder under a NULL
    return Column(data, column.dtype, valid=valid)


@settings(max_examples=150, deadline=None)
@given(_source_and_probe(), st.sampled_from(["bloom", "exact"]))
def test_bitmap_mask_is_isin_and_within_the_bloom_mask(case, kind):
    date, src, src_valid, probe, probe_valid = case
    source = Table("t", {"t.k": _column(src, src_valid, date)})
    probed = Table("u", {"u.k": _column(probe, probe_valid, date)})
    built, edge = _build(source, kind)
    assert isinstance(built, BitmapFilter) and edge.kind == "bitmap"
    got = _probe(built, probed)
    # NULL keys never match: NULL source rows insert nothing, NULL probe
    # rows never pass.
    assert np.array_equal(got, np.isin(probe, src[src_valid]) & probe_valid)
    assert int(np.bitwise_count(built.bits).sum()) == len(np.unique(src[src_valid]))
    # The Bloom filter over the same rows (NULL placeholders and all)
    # passes every row the bitmap passes.
    bloom = BloomFilter(capacity=len(src), fpp=FPP)
    bloom.add_hashes(bloom_keys([source.column("t.k")]))
    assert not (got & ~bloom.contains_hashes(bloom_keys([probed.column("u.k")]))).any()


def test_bitmap_of_nothing_passes_nothing():
    empty = Table("t", {"t.k": Column.from_ints(np.empty(0, dtype=np.int64))})
    built, _ = _build(empty, "bloom")
    assert isinstance(built, BitmapFilter) and (built.span, built.size_bytes()) == (0, 0)
    probe = Table("u", {"u.k": Column.from_ints([I64_MIN, 0, I64_MAX])})
    assert not _probe(built, probe).any()


def test_one_key_bitmap_at_the_int64_edges():
    for key in (I64_MIN, I64_MAX):
        source = Table("t", {"t.k": Column.from_ints([key])})
        built, _ = _build(source, "exact")
        assert isinstance(built, BitmapFilter) and built.span == 1
        probe = Table("u", {"u.k": Column.from_ints([I64_MIN, I64_MAX, 0, -1])})
        assert _probe(built, probe).tolist() == [key == I64_MIN, key == I64_MAX, False, False]


@st.composite
def _wide_source_and_probe(draw):
    """A source whose non-NULL built keys span ``width`` — up to one past
    ``CACHE_BITS`` — from ``low`` (``−2⁶³`` among the choices), with
    NULL rows and rows left out of the build, and a NULL-bearing probe
    column probed on a row subset."""
    date = draw(st.booleans())
    lo_bound, hi_bound = (I32_MIN, I32_MAX) if date else (I64_MIN, I64_MAX)
    width = draw(
        st.one_of(
            st.integers(min_value=1, max_value=5_000),
            st.sampled_from([CACHE_BITS - 1, CACHE_BITS, CACHE_BITS + 1]),
        )
    )
    low = draw(
        st.one_of(
            st.just(lo_bound),
            st.integers(min_value=lo_bound, max_value=hi_bound - width + 1),
        )
    )
    n = draw(st.integers(min_value=0, max_value=40))
    offsets = draw(
        st.lists(st.integers(min_value=0, max_value=width - 1), min_size=n, max_size=n)
    )
    # The two ends are valid and built, so the span is ``width``.
    src = np.asarray([0, width - 1] + offsets, dtype=np.int64) + low
    src_valid = np.asarray(
        [True, True] + draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        dtype=np.bool_,
    )
    picked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    build_rows = np.asarray(
        [0, 1] + [i + 2 for i, p in enumerate(picked) if p], dtype=np.intp
    )
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        build_rows = build_rows[:0]  # an empty bitmap
    near = [lo_bound, hi_bound, low - 1, low, low + width - 1, low + width, 0]
    pool = st.one_of(
        st.sampled_from(src.tolist()),
        st.sampled_from(near),
        st.integers(min_value=lo_bound, max_value=hi_bound),
    )
    probe = np.asarray(
        [min(max(v, lo_bound), hi_bound) for v in draw(st.lists(pool, max_size=80))],
        dtype=np.int64,
    )
    probe_valid = np.asarray(
        draw(st.lists(st.booleans(), min_size=len(probe), max_size=len(probe))),
        dtype=np.bool_,
    )
    kept = draw(st.lists(st.booleans(), min_size=len(probe), max_size=len(probe)))
    probe_rows = np.flatnonzero(np.asarray(kept, dtype=np.bool_))
    return date, src, src_valid, build_rows, probe, probe_valid, probe_rows


@settings(max_examples=200, deadline=None)
@given(_wide_source_and_probe())
def test_byte_table_probe_is_isin_over_the_non_null_keys(case):
    date, src, src_valid, build_rows, probe, probe_valid, probe_rows = case
    source = Table("t", {"t.k": _column(src, src_valid, date)})
    probed = Table("u", {"u.k": _column(probe, probe_valid, date)})
    built, _ = _build(source, "exact", build_rows)
    inserted = src[build_rows][src_valid[build_rows]]
    span = int(inserted.max() - inserted.min() + 1) if len(inserted) else 0
    # Few keys: the cache-sized span is the whole rule.
    assert isinstance(built, BitmapFilter) == (span <= CACHE_BITS)
    if isinstance(built, BitmapFilter):
        assert built.span == span
    got = _probe(built, probed, probe_rows)
    expected = (np.isin(probe, inserted) & probe_valid)[probe_rows]
    if isinstance(built, BitmapFilter):
        assert np.array_equal(got, expected)
    else:  # the hash set inserts NULL placeholders too: a superset
        assert not (expected & ~got).any()


# ----------------------------------------------------------------------
# The size rule
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    # Up to 4 000 keys the cache-sized span is the limit; at 150 000
    # the replaced filter is larger than it, and is the limit.
    st.one_of(st.integers(min_value=2, max_value=4_000), st.just(150_000)),
    st.sampled_from(["bloom", "exact"]),
    st.integers(min_value=-(2**40), max_value=2**40),
)
def test_eligibility_boundary_is_the_span_limit(n, kind, low):
    replaced = hash_set_bytes(n) if kind == "exact" else bloom_bits(n, FPP)
    bits = max(CACHE_BITS, replaced)
    assert span_limit(n, _kind_args(kind)) == bits
    rng = np.random.default_rng(n)
    for span, bitmap in ((bits - 1, True), (bits, True), (bits + 1, False)):
        values = low + np.concatenate(
            [[0, span - 1], rng.integers(0, span, n - 2)]
        ).astype(np.int64)
        built, edge = _build(Table("t", {"t.k": Column.from_ints(values)}), kind)
        assert isinstance(built, BitmapFilter) == bitmap, (span, bits)
        assert edge.kind == ("bitmap" if bitmap else kind)
        if bitmap:
            assert built.span == span and built.size_bytes() == -(-span // 8)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-50_000, max_value=50_000), max_size=400),
    st.sampled_from(["bloom", "exact"]),
    st.booleans(),
)
def test_every_bitmap_is_no_larger_than_the_filter_it_replaced(values, kind, date):
    arr = np.asarray(values, dtype=np.int64)
    column = Column.from_days(arr) if date else Column.from_ints(arr)
    built, _ = _build(Table("t", {"t.k": column}), kind)
    hashes = bloom_keys([column])
    replaced = (
        BloomFilter(capacity=len(arr), fpp=FPP)
        if kind == "bloom"
        else ExactFilter.from_keys(hashes)
    )
    # Larger than the replaced filter only within the cache-sized span.
    assert built.size_bytes() <= max(replaced.size_bytes(), CACHE_BITS // 8)


def test_widest_exact_bitmap_build_allocates_no_more_than_the_hash_set():
    # Sparse keys at the exact rule's widest span: the build scatters
    # into a byte per integer of the span before packing, and that array
    # must stay within the hash set the bitmap replaces or the
    # cache-sized span's bytes.
    n = 20_000
    span = span_limit(n, None)
    values = np.concatenate(
        [[0, span - 1], np.random.default_rng(0).integers(0, span, n - 2)]
    ).astype(np.int64)
    table = Table("t", {"t.k": Column.from_ints(values)})
    tracemalloc.start()
    try:
        built, _ = _build(table, "exact")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(built, BitmapFilter) and built.span == span
    # The larger of the set and the cache-sized scatter array, plus a
    # morsel of keys and the packed bits.
    scatter = max(hash_set_bytes(n), CACHE_BITS)
    assert peak <= scatter + 2 * values.nbytes + built.size_bytes()


@pytest.mark.parametrize("kind", ["bloom", "exact"])
def test_budget_between_the_replaced_filter_and_the_bitmap_ships_the_kind_asked(kind):
    # 1 000 keys over a cache-sized span: a 128 KiB bitmap against a
    # ~1.2 KB Bloom filter or an 18 KB hash set.
    n = 1_000
    values = np.concatenate(
        [[0, CACHE_BITS - 1], np.random.default_rng(1).integers(0, CACHE_BITS, n - 2)]
    ).astype(np.int64)
    catalog = Catalog({"t": Table("t", {"k": Column.from_ints(values)})})
    free, _ = _ship(_bound(FilterCache(max_bytes=1 << 24), catalog), kind)
    assert isinstance(free, BitmapFilter) and free.span == CACHE_BITS
    replaced = (
        BloomFilter(capacity=n, fpp=FPP).size_bytes()
        if kind == "bloom"
        else hash_set_bytes(n)
    )
    budget = (replaced + free.size_bytes()) // 2
    assert replaced < budget < free.size_bytes()
    store = FilterCache(max_bytes=1 << 24)
    state = _bound(store, catalog)
    state.qctx = QueryContext(memory_budget=budget)
    built, edge = _ship(state, kind)  # no MemoryBudgetExceeded
    assert edge.kind == kind and not isinstance(built, BitmapFilter)
    assert state.qctx.filters_degraded == 0 and len(store) == 0
    probe = Table("u", {"u.k": Column.from_ints(np.arange(-5, CACHE_BITS + 5))})
    got, exact = _probe(built, probe), _probe(free, probe)
    assert not (exact & ~got).any()  # no false negatives
    if kind == "exact":
        assert np.array_equal(got, exact)


# ----------------------------------------------------------------------
# Cache extension over appended rows
# ----------------------------------------------------------------------
def _bound(store: FilterCache, catalog: Catalog) -> ExecContext:
    """A query context that caches alias ``t`` of ``catalog``."""
    table = catalog.get("t")
    key = AliasKey("t", catalog.data_version("t"), "", expr=None, base=table)
    return ExecContext(
        cache=QueryCache(store, {"t": key}), tables={"t": table.prefixed("t")}
    )


def _ship(state: ExecContext, kind: str):
    edge = EdgeStat(0, "t", "u", ("t.k",))
    table = state.tables["t"]
    return build_filter(state, edge, "t", table, None, kind, FPP), edge


def _same_filter(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, BitmapFilter):
        return (a.low, a.span, a.rows, a.fpp) == (b.low, b.span, b.rows, b.fpp) and (
            np.array_equal(a.bits, b.bits)
        )
    if isinstance(a, BloomFilter):
        return np.array_equal(a._words, b._words)
    return len(a) == len(b)


@settings(max_examples=60, deadline=None)
@given(
    # Spans <= 144 bits: the cached filter is always a bitmap.
    st.lists(st.integers(min_value=0, max_value=143), min_size=1, max_size=200),
    st.lists(
        st.one_of(
            st.integers(min_value=-3_000, max_value=5_000),
            st.integers(min_value=10**6, max_value=10**9),  # outgrows the rule
        ),
        min_size=1,
        max_size=60,
    ),
    st.sampled_from(["bloom", "exact"]),
)
def test_extend_then_probe_equals_build_over_merged(base, delta, kind):
    catalog = Catalog({"t": Table("t", {"k": Column.from_ints(base)})})
    store = FilterCache(max_bytes=1 << 24)
    cached, _ = _ship(_bound(store, catalog), kind)
    assert isinstance(cached, BitmapFilter)
    batch = catalog.begin_ingest()
    batch.stage("t", Table("t", {"k": Column.from_ints(delta)}))
    batch.commit()

    extended, edge = _ship(_bound(store, catalog), kind)
    fresh, _ = _ship(ExecContext(tables={"t": catalog.get("t").prefixed("t")}), kind)
    assert _same_filter(extended, fresh)
    stats = store.stats()
    if isinstance(fresh, BitmapFilter):
        assert edge.provenance == "extended"
        assert (stats.extensions, stats.extension_rebuilds) == (1, 0)
    else:  # the merged span outgrew the rule: rebuilt, as the fresh build
        assert edge.provenance == "built"
        assert (stats.extensions, stats.extension_rebuilds) == (0, 1)
    probe = Table(
        "u", {"u.k": Column.from_ints(np.arange(-3_100, 5_100, dtype=np.int64))}
    )
    assert np.array_equal(_probe(extended, probe), _probe(fresh, probe))


def test_corrupted_cached_bitmap_is_detected_dropped_and_rebuilt():
    catalog = Catalog({"t": Table("t", {"k": Column.from_ints(np.arange(500))})})
    store = FilterCache(max_bytes=1 << 20)
    first, _ = _ship(_bound(store, catalog), "bloom")
    assert isinstance(first, BitmapFilter) and len(store) == 1
    clean = first.bits.copy()
    with inject(FaultPlan([FaultRule("cache.get", "corrupt")])) as plan:
        rebuilt, edge = _ship(_bound(store, catalog), "bloom")
    assert plan.triggered  # the fault had an array to flip
    assert store.stats().corruptions == 1
    assert edge.provenance == "built"
    assert isinstance(rebuilt, BitmapFilter) and np.array_equal(rebuilt.bits, clean)
    served, edge = _ship(_bound(store, catalog), "bloom")
    assert edge.provenance == "cache" and served is rebuilt


# ----------------------------------------------------------------------
# Queries: memory budget and observability
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=0.003, seed=0)


def test_exact_filter_that_fits_as_a_bitmap_is_not_degraded(catalog):
    # Q5's keys are all single dense integers: under Yannakakis every
    # filter is a bitmap, so a budget below the hash sets' estimate but
    # above the bitmaps' binds nothing.
    q5 = get_query(5, sf=0.003)
    # A huge budget tracks the true peak without ever binding.
    free = run_query(
        q5, catalog, config=RunConfig(strategy="yannakakis", memory_budget=1 << 40)
    )
    edges = free.stats.transfer.shipped()
    assert {e.kind for e in edges} == {"bitmap"}
    budget = free.stats.mem_peak_bytes  # the bitmaps and the output
    assert 0 < budget < max(hash_set_bytes(e.keys_inserted) for e in edges)
    tight = run_query(
        q5, catalog, config=RunConfig(strategy="yannakakis", memory_budget=budget)
    )
    assert tight.stats.filters_degraded == 0
    assert tight.stats.outcome == "ok"
    assert tight.table.to_rows() == free.table.to_rows()


def test_the_edge_kind_reaches_span_slow_log_and_analyze(catalog, capsys):
    result = run_query(get_query(5, sf=0.003), catalog, "predtrans")
    (transfer,) = [s for s in spans_from_stats(result.stats) if s.name == "transfer"]
    assert {e["kind"] for e in transfer.attrs["edges"] if e["decision"] == "shipped"} == {
        "bitmap"
    }
    buf = io.StringIO()
    log = SlowQueryLog(buf, threshold_s=0.0)
    assert log.maybe_record(
        seconds=1.0, stats=result.stats, query="q5", strategy="predtrans"
    )
    record = json.loads(buf.getvalue())
    assert "bitmap" in {e["kind"] for e in record["edges"]}
    argv = ["tpch", "--sf", "0.003", "--query", "5", "--strategy", "predtrans",
            "--repeats", "1", "--no-filter-cache", "--analyze"]
    assert main(argv) == 0
    assert "bitmap (built)" in capsys.readouterr().out
