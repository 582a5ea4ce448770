"""Observability: metrics registry, Prometheus exposition, tracing,
and the slow-query log.

The subsystem is deliberately **one-way**: the stats objects
(:class:`~repro.engine.stats.QueryStats`,
:class:`~repro.cache.store.CacheStats`,
:class:`~repro.service.engine.EngineStats`,
:class:`~repro.service.server.ServerStats`) remain the single source
of truth, and the walk in :mod:`repro.obs.adapters` snapshots the
fields they declare as metrics into families at scrape time.  The only
push-side instrumentation is the per-query histogram observation at
completion (latency percentiles cannot be reconstructed from aggregate
counters), and every push path is gated on an optional registry — no
registry configured means the no-op fast path: not a single extra
allocation or lock acquisition on the query hot path.

Pure stdlib; no third-party client library.
"""

from __future__ import annotations

from .adapters import EngineObserver, ObsCollector, export_stats
from .export import parse_prometheus_text, render_prometheus, render_varz
from .httpd import MetricsServer
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricFamily,
    MetricsRegistry,
)
from .slowlog import SlowQueryLog
from .trace import (
    Span,
    TraceSink,
    format_span_tree,
    mint_span_id,
    mint_trace_id,
    spans_from_stats,
)

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "EngineObserver",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsServer",
    "ObsCollector",
    "SlowQueryLog",
    "Span",
    "TraceSink",
    "export_stats",
    "format_span_tree",
    "mint_span_id",
    "mint_trace_id",
    "parse_prometheus_text",
    "render_prometheus",
    "render_varz",
    "spans_from_stats",
]
