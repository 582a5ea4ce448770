"""The pre-filter kernel as the executor runs it.

``build_filter`` / ``probe_filter`` walk a relation's surviving rows a
morsel at a time, hashing each slice right before the filter consumes
it.  Pinned here:

* the loop is invisible in the results — filter words after a build and
  the keep-mask after a probe equal one whole-array call, byte for
  byte, at every length around the morsel boundaries;
* which representation ships: sparse keys (and composite and string
  keys) hash into the filter kind asked for, a dense integer key ships
  a presence bitmap whose probe is ``np.isin``;
* only the rows a filter touches are ever hashed;
* the function boundaries the benchmark's tracer patches
  (``benchmarks/perf/layers.py``) exist and are what a query calls.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest

from repro.core.runner import run_query
from repro.core.transfer import ExecContext, build_filter, probe_filter
from repro.engine.stats import EdgeStat
from repro.filters.bitmap import BitmapFilter
from repro.filters.bloom import MORSEL_KEYS, BloomFilter
from repro.filters.exact import ExactFilter
from repro.filters.hashing import bloom_keys
from repro.storage import Column, DType, Table
from repro.storage.catalog import Catalog
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

M = MORSEL_KEYS
LENGTHS = [0, 1, M - 1, M, M + 1, 3 * M + 7]


def _columns(kind: str, n: int) -> dict[str, Column]:
    values = (np.arange(n, dtype=np.int64) * 2654435761) % 1_000_003
    if kind == "int64":  # sparse: spans ~2^40, far past any filter
        return {"t.k": Column.from_ints(values << 20)}
    if kind == "int64-dense":  # negatives included
        return {"t.k": Column.from_ints(values % 5_000 - 2_500)}
    if kind == "two-column":
        return {"t.k": Column.from_ints(values), "t.j": Column.from_ints(values % 97)}
    if kind == "date":  # sparse: spans ~2e9 days
        return {"t.k": Column.from_days(values * 2_000)}
    if kind == "date-dense":
        return {"t.k": Column.from_days(8000 + values % 3000)}
    words = np.array([f"w{i}" for i in range(500)], dtype=object)
    return {"t.k": Column.from_codes(values % 500, words)}


@pytest.mark.parametrize("filter_kind", ["bloom", "exact"])
@pytest.mark.parametrize(
    "key_kind",
    ["int64", "int64-dense", "two-column", "date", "date-dense", "string"],
)
@pytest.mark.parametrize("n", LENGTHS)
def test_morsel_loop_equals_one_whole_array_call(n, key_kind, filter_kind):
    table = Table("t", _columns(key_kind, n))
    keys = tuple(table.columns)
    columns = [table.column(c) for c in keys]
    rng = np.random.default_rng(n)
    subset = np.flatnonzero(rng.random(n) < 0.6)
    for rows in (None, subset, subset[:0]):
        state = ExecContext(tables={"t": table})
        edge = EdgeStat(0, "t", "t", keys)
        built = build_filter(state, edge, None, table, rows, filter_kind, 0.01)
        n_built = n if rows is None else len(rows)
        inserted = columns[0].data if rows is None else columns[0].data[rows]
        # Dense keys ship a bitmap; so do sparse integer keys with at
        # most one distinct survivor (a span of one bit beats any filter).
        bitmap = key_kind.endswith("-dense") or (
            key_kind in ("int64", "date") and len(np.unique(inserted)) <= 1
        )
        assert isinstance(built, BitmapFilter) == bitmap
        if bitmap:
            expected = np.isin(columns[0].data, inserted)
        else:
            hashes = bloom_keys(columns, rows)
            if filter_kind == "bloom":
                whole = BloomFilter(capacity=len(hashes), fpp=0.01)
                whole.add_hashes(hashes)
                assert np.array_equal(built._words, whole._words)
            else:
                whole = ExactFilter.from_keys(hashes)
                assert len(built) == len(whole)
            # Probe every row (about 40 % were never inserted) both ways.
            probe_all = bloom_keys(columns)
            expected = (
                whole.contains_hashes(probe_all)
                if filter_kind == "bloom"
                else whole.contains_keys(probe_all)
            )
        got = probe_filter(state, edge, built, table, keys, None)
        assert got.dtype == np.bool_ and np.array_equal(got, expected)
        assert (edge.rows_probed, edge.rows_passed) == (n, int(expected.sum()))
        if rows is not None:
            got = probe_filter(state, edge, built, table, keys, rows)
            assert np.array_equal(got, expected[rows])
            if built.exact:
                assert got.all()
        # The edge records what the kernel did, whatever the length.
        kind = "bitmap" if bitmap else filter_kind
        assert (edge.kind, edge.provenance) == (kind, "built")
        assert edge.keys_inserted == n_built
        assert edge.filter_bytes == built.size_bytes()


def test_hashing_survivors_touches_only_survivors(monkeypatch):
    """Hashing N survivors of an M-row column mixes at most N + one
    morsel of keys — never the whole column."""
    import repro.filters.hashing as hashing

    mixed = {"keys": 0}
    real = hashing.mix64

    def counting(keys):
        mixed["keys"] += len(keys)
        return real(keys)

    monkeypatch.setattr(hashing, "mix64", counting)
    m, n = 40 * MORSEL_KEYS, 3 * MORSEL_KEYS + 11
    table = Table("t", {"t.k": Column.from_ints(np.arange(m))})
    rows = np.sort(np.random.default_rng(0).choice(m, size=n, replace=False))
    state = ExecContext(tables={"t": table}, rows={"t": rows})
    edge = EdgeStat(0, "t", "t", ("t.k",))
    filt = build_filter(state, edge, "t", table, rows, "bloom", 0.01)
    assert mixed["keys"] <= n + MORSEL_KEYS
    mixed["keys"] = 0
    assert probe_filter(state, edge, filt, table, ("t.k",), rows).all()
    assert mixed["keys"] <= n + MORSEL_KEYS


# ----------------------------------------------------------------------
# The tracer's boundaries (benchmarks/perf/layers.py, not editable)
# ----------------------------------------------------------------------
TRACED = [
    ("repro.filters.hashing", "mix64"),
    ("repro.filters.hashing", "bloom_keys"),
    ("repro.filters.hashcache:KeyHashCache", "bloom_keys"),
    ("repro.filters.bloom:BloomFilter", "add_hashes"),
    ("repro.filters.bloom:BloomFilter", "contains_hashes"),
]


def _count_calls(monkeypatch, owner: str, attr: str, calls: dict) -> None:
    """Patch one target the way ``benchmarks/perf/tracing.py`` does:
    methods on the class, functions in every loaded ``repro.*`` module
    whose globals hold the original."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    key = f"{owner}.{attr}"
    calls[key] = []

    def wrap(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[key].append((args, result))
            return result

        return wrapper

    if class_name:
        cls = getattr(module, class_name)
        monkeypatch.setattr(cls, attr, wrap(cls.__dict__[attr]))
        return
    original = getattr(module, attr)
    wrapper = wrap(original)
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, wrapper)


def _sparse_keys(catalog: Catalog) -> Catalog:
    """``catalog`` with every INT64 ``*key`` column shifted left 24 bits:
    every join matches as before, but a key span fits no filter, so the
    edges hash into Bloom filters."""
    out = Catalog()
    for name in catalog.names():
        table = catalog.get(name)
        out.register(
            Table(
                name,
                {
                    c: Column.from_ints(col.data << 24)
                    if c.endswith("key") and col.dtype is DType.INT64
                    else col
                    for c, col in table.columns.items()
                },
            )
        )
    return out


def test_tracer_targets_resolve_and_are_what_a_query_calls(monkeypatch):
    calls: dict[str, list] = {}
    for owner, attr in TRACED:
        _count_calls(monkeypatch, owner, attr, calls)
    catalog = _sparse_keys(generate_tpch(sf=0.01, seed=1))
    result = run_query(get_query(5, sf=0.01), catalog, "predtrans")
    transfer = result.stats.transfer
    assert transfer.inserted("bloom") and transfer.probed("bloom")

    assert calls["repro.filters.hashing.mix64"]
    hashed = (
        calls["repro.filters.hashing.bloom_keys"]
        + calls["repro.filters.hashcache:KeyHashCache.bloom_keys"]
    )
    assert hashed
    # The shapes the tracer's count hooks read: len(result) keys hashed,
    # len(args[1]) keys built / probed, a bool mask out of a probe.
    built = calls["repro.filters.bloom:BloomFilter.add_hashes"]
    probed = calls["repro.filters.bloom:BloomFilter.contains_hashes"]
    assert sum(len(args[1]) for args, _ in built) == transfer.inserted("bloom")
    assert sum(len(args[1]) for args, _ in probed) == transfer.probed("bloom")
    assert all(mask.dtype == np.bool_ for _, mask in probed)
    assert sum(len(keys) for _, keys in hashed) == (
        transfer.inserted("bloom") + transfer.probed("bloom")
    )
    assert max(len(args[1]) for args, _ in probed) <= MORSEL_KEYS


def test_tracer_targets_see_no_bitmap_work(monkeypatch):
    """The bitmap twin: on TPC-H's dense keys every Q5 edge ships a
    bitmap, which hashes nothing, so none of the tracer's key-hashing or
    Bloom boundaries fires — bitmap time lands in ``core.transfer``'s
    self time.  (``mix64`` still fires: the join phase hashes too.)"""
    calls: dict[str, list] = {}
    for owner, attr in TRACED:
        _count_calls(monkeypatch, owner, attr, calls)
    result = run_query(get_query(5, sf=0.01), generate_tpch(sf=0.01, seed=1), "predtrans")
    transfer = result.stats.transfer
    assert {e.kind for e in transfer.shipped()} == {"bitmap"}
    assert transfer.inserted("bitmap") and transfer.probed("bitmap")
    assert transfer.inserted("bloom") == transfer.probed("bloom") == 0
    assert not any(v for k, v in calls.items() if not k.endswith("mix64"))
