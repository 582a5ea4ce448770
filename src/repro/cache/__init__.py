"""Cross-query filter cache (the serving-layer memory of the engine).

PR1–2 made a single predicate-transfer query fast; this package makes
*repeated* queries fast by remembering the pre-filtering artifacts that
are pure functions of base data + predicate shape:

* :mod:`.fingerprint` — deterministic cache keys over (table, data
  version, canonical predicate, join keys, filter kind, params);
* :mod:`.store` — :class:`FilterCache`, a thread-safe byte-budgeted LRU
  with table-tagged invalidation;
* :mod:`.context` — :class:`QueryCache`, the per-query binding the
  runner threads through the scan / transfer / semi-join phases.

Invalidation model: the :class:`~repro.storage.catalog.Catalog` stamps
every registration with a monotonic data version that fingerprints
embed.  Mutating a table (append/replace via ``register``) therefore
orphans all stale entries; :meth:`FilterCache.invalidate_table`
additionally reclaims their memory eagerly.

``default_filter_cache()`` returns the process-wide cache the CLI's
``tpch``/``ssb`` commands share; library users normally let a service
:class:`~repro.service.engine.Engine` own a private cache instead.
"""

from __future__ import annotations

from .context import AliasKey, QueryCache, build_query_cache
from .fingerprint import (
    canonical_expr,
    filter_fingerprint,
    fingerprint,
    plan_fingerprint,
    prefilter_fingerprint,
    scan_fingerprint,
)
from .store import CacheStats, FilterCache

_default_cache: FilterCache | None = None


def default_filter_cache() -> FilterCache:
    """The process-wide cache shared by CLI commands (lazily created)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = FilterCache()
    return _default_cache


__all__ = [
    "AliasKey",
    "CacheStats",
    "FilterCache",
    "QueryCache",
    "build_query_cache",
    "canonical_expr",
    "default_filter_cache",
    "filter_fingerprint",
    "fingerprint",
    "plan_fingerprint",
    "prefilter_fingerprint",
    "scan_fingerprint",
]
