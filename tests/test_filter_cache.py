"""Unit tests for the byte-budgeted LRU FilterCache."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cache.store import FilterCache, payload_nbytes
from repro.filters.bloom import BloomFilter


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
