"""Byte-budgeted LRU store for cross-query pre-filtering artifacts.

The :class:`FilterCache` holds the three artifact kinds the engine can
reuse across queries, all keyed by deterministic fingerprints
(:mod:`repro.cache.fingerprint`):

* built transferable filters (Bloom / exact) from pristine vertices,
* sorted row-index selection vectors of local-predicate scans,
* whole-query pre-filter results (alias → selection vector, or its
  row count when every row survives).

Entries are tagged with the base table names they were derived from, so
:meth:`invalidate_table` can promptly reclaim memory when a table is
replaced (version-bumped fingerprints already make stale entries
unreachable; invalidation just stops them from squatting in the LRU).

Appends supersede entries without orphaning a whole table: each put may
name the artifact's **lineage** — its fingerprint with the table
versions' ``base`` in place of ``base.delta`` — and the store keeps one
entry per lineage.  Putting the artifact at a newer delta drops the one
built before the commit (counted as an invalidation), so a stream of
commits leaves the cache flat instead of stranding one copy per delta.
Last put wins: a reader pinned to an older snapshot may replace a newer
entry, which costs one rebuild later, never a wrong result.

Thread safety: every public method takes the internal lock, so one
cache can serve all worker threads of a service
:class:`~repro.service.engine.Engine`.  Cached payloads are shared
between threads and treated as immutable by every consumer (selection
vectors are never written through; filters are only probed after
construction — their op counters may undercount under races, which is
benign).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..engine.stats import metric_field
from ..testing.faults import _payload_arrays, fault_point


@dataclass
class CacheStats:
    """Cache effectiveness and occupancy.

    :class:`FilterCache` keeps one under its lock and hands out copies
    from :meth:`FilterCache.stats`.  ``hit_rate`` is derived when a
    copy is made.
    """

    hits: int = metric_field(
        "counter", "repro_filter_cache_hits_total", "Filter-cache hits"
    )
    misses: int = metric_field(
        "counter", "repro_filter_cache_misses_total", "Filter-cache misses"
    )
    insertions: int = metric_field(
        "counter", "repro_filter_cache_insertions_total",
        "Filter-cache insertions",
    )
    evictions: int = metric_field(
        "counter", "repro_filter_cache_evictions_total",
        "LRU evictions under the byte budget",
    )
    invalidations: int = metric_field(
        "counter", "repro_filter_cache_invalidations_total",
        "Entries dropped by table re-registration",
    )
    rejected: int = metric_field(
        "counter", "repro_filter_cache_rejected_total",
        "Payloads too large for the byte budget",
    )
    corruptions: int = metric_field(
        "counter", "repro_filter_cache_corruptions_total",
        "Checksum failures handled as misses",
    )
    entries: int = metric_field(
        "gauge", "repro_filter_cache_entries",
        "Cached filter payloads resident",
    )
    bytes: int = metric_field(
        "gauge", "repro_filter_cache_bytes", "Filter-cache bytes resident"
    )
    max_bytes: int = metric_field(
        "gauge", "repro_filter_cache_max_bytes", "Filter-cache byte budget"
    )
    hit_rate: float = metric_field(
        "gauge", "repro_filter_cache_hit_ratio", "Lifetime hits / lookups",
        init=False,
    )

    def __post_init__(self) -> None:
        lookups = self.hits + self.misses
        self.hit_rate = self.hits / lookups if lookups else 0.0


def payload_nbytes(payload: object) -> int:
    """Best-effort byte accounting of a cacheable payload.

    An int stands for a row count (a pre-filter entry's all-rows
    survivor vector) and holds no buffer, so it is free.
    """
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, int):
        return 0
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    size = getattr(payload, "size_bytes", None)
    if callable(size):
        return int(size())
    return 64  # opaque payloads: charge a nominal entry cost


def payload_checksum(payload: object) -> int | None:
    """CRC32 over the payload's backing arrays (``None`` if opaque).

    Covers every mutable ndarray a cached artifact carries (selection
    vectors, Bloom word arrays, exact-set slot arrays), so any
    in-place clobbering — a buggy consumer writing through a shared
    filter, bit rot in a future mmap'd backend — is caught at the next
    :meth:`FilterCache.get` instead of silently pre-filtering wrong.
    A C-contiguous array is read in place; only a strided one is copied
    into C order first, which is the byte stream ``tobytes()`` gives.
    """
    arrays = _payload_arrays(payload)
    if not arrays:
        return None
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr), crc)
    return crc


class _Entry:
    __slots__ = ("payload", "nbytes", "tables", "crc", "lineage")

    def __init__(self, payload: object, nbytes: int, tables: tuple[str, ...],
                 crc: int | None = None, lineage: str | None = None) -> None:
        self.payload = payload
        self.nbytes = nbytes
        self.tables = tables
        self.crc = crc
        self.lineage = lineage


class FilterCache:
    """A thread-safe, byte-budgeted LRU of pre-filtering artifacts."""

    DEFAULT_MAX_BYTES = 256 << 20  # 256 MiB

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._by_table: dict[str, set[str]] = {}
        self._by_lineage: dict[str, str] = {}
        self._stats = CacheStats(max_bytes=max_bytes)

    # ------------------------------------------------------------------
    def get(self, fp: str) -> object | None:
        """Look up a fingerprint; a hit refreshes LRU recency.

        Checksum-validated: an entry whose payload no longer matches
        the CRC recorded at insertion is dropped and reported as a
        miss — the caller rebuilds, so corruption degrades to a cache
        miss, never to a wrong answer.
        """
        with self._lock:
            entry = self._entries.get(fp)
            if entry is None:
                self._stats.misses += 1
                return None
            fault_point("cache.get", entry.payload)
            if entry.crc is not None and payload_checksum(entry.payload) != entry.crc:
                self._remove(fp)
                self._stats.corruptions += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(fp)
            self._stats.hits += 1
            return entry.payload

    def put(
        self,
        fp: str,
        payload: object,
        *,
        nbytes: int | None = None,
        tables: tuple[str, ...] = (),
        lineage: str | None = None,
    ) -> bool:
        """Insert (or refresh) an entry; evicts LRU entries over budget.

        Payloads larger than the whole budget are rejected (returning
        ``False``) rather than wiping the cache to fit one entry.  An
        entry stored under the same ``lineage`` with another
        fingerprint is dropped and counted as an invalidation (module
        docstring).
        """
        if nbytes is None:
            nbytes = payload_nbytes(payload)
        fault_point("cache.put", payload)
        crc = payload_checksum(payload)
        with self._lock:
            if nbytes > self.max_bytes:
                self._stats.rejected += 1
                return False
            self._remove(fp)
            if lineage is not None:
                superseded = self._by_lineage.get(lineage)
                if superseded is not None and self._remove(superseded):
                    self._stats.invalidations += 1
                self._by_lineage[lineage] = fp
            self._entries[fp] = _Entry(payload, nbytes, tables, crc, lineage)
            self._stats.bytes += nbytes
            for table in tables:
                self._by_table.setdefault(table, set()).add(fp)
            self._stats.insertions += 1
            while self._stats.bytes > self.max_bytes and self._entries:
                self._remove(next(iter(self._entries)))
                self._stats.evictions += 1
            return True

    def _remove(self, fp: str) -> bool:
        """Drop one entry and its index links (call under the lock)."""
        entry = self._entries.pop(fp, None)
        if entry is None:
            return False
        self._stats.bytes -= entry.nbytes
        for table in entry.tables:
            fps = self._by_table.get(table)
            if fps is not None:
                fps.discard(fp)
                if not fps:
                    del self._by_table[table]
        if entry.lineage is not None and self._by_lineage.get(entry.lineage) == fp:
            del self._by_lineage[entry.lineage]
        return True

    # ------------------------------------------------------------------
    def invalidate_table(self, name: str) -> int:
        """Drop every entry derived from table ``name``; returns count.

        Correctness never depends on this call — a data-version bump
        already orphans stale fingerprints — but it reclaims their
        memory immediately instead of waiting for LRU pressure.
        """
        with self._lock:
            fps = self._by_table.pop(name, None)
            if not fps:
                return 0
            dropped = sum(self._remove(fp) for fp in list(fps))
            self._stats.invalidations += dropped
            return dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`stats`)."""
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()
            self._by_table.clear()
            self._by_lineage.clear()
            self._stats.bytes = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes currently held by cached payloads."""
        with self._lock:
            return self._stats.bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fp: str) -> bool:
        with self._lock:
            return fp in self._entries

    def stats(self) -> CacheStats:
        """A consistent snapshot of counters and occupancy."""
        with self._lock:
            return replace(self._stats, entries=len(self._entries))
