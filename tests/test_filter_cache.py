"""Tests for the byte-budgeted LRU FilterCache and the payloads the
per-query QueryCache stores in it."""

from __future__ import annotations

import threading
import zlib

import numpy as np
import pytest

from repro.cache.context import AliasKey, QueryCache
from repro.cache.store import FilterCache, payload_checksum, payload_nbytes
from repro.core.runner import RunConfig, run_query
from repro.core.transfer import TransferConfig, identity_rows
from repro.filters.bloom import BloomFilter
from repro.service.workload import result_digest
from repro.storage.catalog import DataVersion
from repro.testing.faults import FaultPlan, FaultRule, inject
from repro.tpch import get_query


def arr(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64)  # 8 bytes per element


def test_put_get_roundtrip_and_counters():
    cache = FilterCache(max_bytes=10_000)
    payload = arr(10)
    assert cache.get("fp1") is None  # miss
    assert cache.put("fp1", payload)
    assert cache.get("fp1") is payload  # hit, same object
    stats = cache.stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.insertions == 1
    assert stats.entries == 1 and stats.bytes == payload.nbytes
    assert stats.hit_rate == 0.5


def test_lru_eviction_on_byte_budget():
    cache = FilterCache(max_bytes=200)
    cache.put("a", arr(10))  # 80 bytes
    cache.put("b", arr(10))  # 160 bytes
    cache.put("c", arr(10))  # 240 -> evicts "a"
    assert cache.get("a") is None
    assert cache.get("b") is not None and cache.get("c") is not None
    assert cache.stats().evictions == 1
    assert cache.total_bytes <= 200


def test_get_refreshes_recency():
    cache = FilterCache(max_bytes=200)
    cache.put("a", arr(10))
    cache.put("b", arr(10))
    cache.get("a")  # "a" is now most-recent; "b" is LRU
    cache.put("c", arr(10))
    assert cache.get("a") is not None
    assert cache.get("b") is None


def test_replacing_entry_updates_bytes():
    cache = FilterCache(max_bytes=10_000)
    cache.put("fp", arr(10))
    cache.put("fp", arr(100))
    assert len(cache) == 1
    assert cache.total_bytes == arr(100).nbytes


def test_oversize_payload_rejected():
    cache = FilterCache(max_bytes=100)
    assert not cache.put("big", arr(1000))
    assert len(cache) == 0
    assert cache.stats().rejected == 1


def test_invalidate_table_drops_only_tagged_entries():
    cache = FilterCache(max_bytes=10_000)
    cache.put("l1", arr(5), tables=("lineitem",))
    cache.put("l2", arr(5), tables=("lineitem", "orders"))
    cache.put("n1", arr(5), tables=("nation",))
    dropped = cache.invalidate_table("lineitem")
    assert dropped == 2
    assert cache.get("l1") is None and cache.get("l2") is None
    assert cache.get("n1") is not None
    assert cache.invalidate_table("lineitem") == 0  # idempotent


def test_clear_empties_but_keeps_budget():
    cache = FilterCache(max_bytes=10_000)
    cache.put("x", arr(5))
    cache.clear()
    assert len(cache) == 0 and cache.total_bytes == 0
    assert cache.max_bytes == 10_000
    assert cache.put("x", arr(5))


def test_lineage_keeps_one_entry_and_counts_the_superseded():
    cache = FilterCache(max_bytes=10_000)
    cache.put("v1.0", arr(5), tables=("t",), lineage="v1")
    cache.put("v1.1", arr(6), tables=("t",), lineage="v1")
    assert "v1.0" not in cache and cache.get("v1.1") is not None
    stats = cache.stats()
    assert stats.entries == 1 and stats.bytes == arr(6).nbytes
    assert stats.invalidations == 1
    # Last put wins, whichever delta it is at; a refresh of the same
    # fingerprint supersedes nothing.
    cache.put("v1.0", arr(5), tables=("t",), lineage="v1")
    cache.put("v1.0", arr(5), tables=("t",), lineage="v1")
    assert "v1.1" not in cache and len(cache) == 1
    assert cache.stats().invalidations == 2
    # Other lineages and unlineaged entries are untouched.
    cache.put("v2.0", arr(5), lineage="v2")
    cache.put("other", arr(5))
    assert len(cache) == 3 and cache.stats().invalidations == 2


def test_lineage_index_follows_evictions_and_invalidations():
    """A lineage whose entry left by eviction, table invalidation or
    clear() has nothing to supersede: the next put counts no
    invalidation of its own."""
    cache = FilterCache(max_bytes=100)
    cache.put("a.0", arr(10), lineage="a")  # 80 bytes
    cache.put("b.0", arr(10), lineage="b")  # evicts a.0
    assert cache.stats().evictions == 1
    cache.put("a.1", arr(1), lineage="a")
    assert cache.stats().invalidations == 0
    cache.put("c.0", arr(1), tables=("t",), lineage="c")
    assert cache.invalidate_table("t") == 1
    cache.put("c.1", arr(1), lineage="c")
    assert cache.stats().invalidations == 1
    cache.clear()  # counts the 3 entries it drops
    cache.put("a.2", arr(2), lineage="a")
    stats = cache.stats()
    assert stats.entries == 1 and stats.invalidations == 1 + 3


def test_payload_nbytes_kinds():
    assert payload_nbytes(arr(10)) == 80
    assert payload_nbytes({"a": arr(10), "b": arr(5)}) == 120
    assert payload_nbytes({"a": arr(10), "all": 1_000_000}) == 80
    bloom = BloomFilter(capacity=100, fpp=0.01)
    assert payload_nbytes(bloom) == bloom.size_bytes()


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        FilterCache(max_bytes=0)


def test_thread_safety_smoke():
    cache = FilterCache(max_bytes=50_000)
    errors: list[Exception] = []

    def worker(tid: int) -> None:
        try:
            for i in range(200):
                fp = f"fp-{tid}-{i % 20}"
                if cache.get(fp) is None:
                    cache.put(fp, arr(20), tables=(f"t{tid}",))
                if i % 50 == 0:
                    cache.invalidate_table(f"t{(tid + 1) % 4}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.total_bytes <= 50_000


def test_payload_checksum_reads_arrays_in_place():
    """The CRC is the one ``tobytes()`` gives, strided or not."""
    base = np.arange(64, dtype=np.int64).reshape(8, 8)
    arrays = [
        base,
        base[:, ::3],
        np.asfortranarray(base),
        base.T,
        identity_rows(50),
        np.array([True, False, True]),
    ]
    for a in arrays:
        assert payload_checksum(a) == zlib.crc32(a.tobytes())
    want = zlib.crc32(arrays[1].tobytes(), zlib.crc32(arrays[0].tobytes()))
    assert payload_checksum({"a": arrays[0], "b": arrays[1], "n": 7}) == want


def test_prefilter_entry_stores_exactly_the_all_rows_aliases_as_counts():
    cache = FilterCache()
    query = QueryCache(cache, {a: AliasKey("t", DataVersion(1), "") for a in "abcd"})
    rows = {
        "a": np.arange(5),
        "b": np.array([0, 2, 4]),  # starts at 0, but is not every row
        "c": np.array([1, 2]),
        "d": np.arange(0),
    }
    query.put_prefilter("predtrans", TransferConfig(), rows)
    fp = query.prefilter_fp("predtrans", TransferConfig())
    stored = cache.get(fp)
    assert stored["a"] == 5 and stored["d"] == 0
    assert stored["b"] is rows["b"] and stored["c"] is rows["c"]
    got = query.get_prefilter(fp)
    assert got.keys() == rows.keys()
    for alias, want in rows.items():
        assert np.array_equal(got[alias], want)


def _prefilter_entries(monkeypatch) -> list[tuple[str, dict | None]]:
    """Record every whole-prefilter lookup: its fingerprint and what it
    returned."""
    seen: list[tuple[str, dict | None]] = []
    get = QueryCache.get_prefilter

    def spy(self, fp):
        out = get(self, fp)
        seen.append((fp, out))
        return out

    monkeypatch.setattr(QueryCache, "get_prefilter", spy)
    return seen


def test_all_rows_survivors_are_cached_as_a_count(small_catalog, monkeypatch):
    """Q18's lineitem survives whole: the entry stores its row count, is
    charged nothing for it, and a hit hands back the shared read-only
    identity vector."""
    seen = _prefilter_entries(monkeypatch)
    cache = FilterCache()
    config = RunConfig(strategy="predtrans", filter_cache=cache)
    spec = get_query(18, sf=0.01)
    cold = run_query(spec, small_catalog, config=config)
    warm = run_query(spec, small_catalog, config=config)
    assert result_digest(cold.table) == result_digest(warm.table)
    fp, rows = seen[-1]
    n = small_catalog.get("lineitem").num_rows
    assert rows is not None and len(rows["l"]) == n
    assert not rows["l"].flags.writeable
    assert np.shares_memory(rows["l"], identity_rows(n))
    stored = cache.get(fp)
    assert stored["l"] == n
    assert payload_nbytes(stored) == 0 and payload_checksum(stored) is None


def test_corruption_is_caught_beside_a_count(small_catalog, monkeypatch):
    """Q10's entry keeps nation as a count and the other aliases as
    arrays; a byte flipped in one of those is still a corruption and a
    miss, and the rebuilt result is the cold one."""
    seen = _prefilter_entries(monkeypatch)
    cache = FilterCache()
    config = RunConfig(strategy="predtrans", filter_cache=cache)
    spec = get_query(10, sf=0.01)
    cold = result_digest(run_query(spec, small_catalog, config=config).table)
    fp, _ = seen[-1]
    stored = cache.get(fp)
    assert stored["n"] == small_catalog.get("nation").num_rows
    arrays = [v for v in stored.values() if isinstance(v, np.ndarray)]
    assert arrays and payload_nbytes(stored) == sum(a.nbytes for a in arrays)
    with inject(FaultPlan([FaultRule("cache.get", "corrupt")])):
        assert cache.get(fp) is None
    assert cache.stats().corruptions == 1 and fp not in cache
    warm = run_query(spec, small_catalog, config=config)
    assert result_digest(warm.table) == cold
