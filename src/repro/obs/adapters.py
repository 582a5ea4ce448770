"""One-way adapters: stats objects → metric families.

The engine's stats classes (:class:`~repro.service.engine.EngineStats`,
:class:`~repro.cache.store.CacheStats`, the server's wire counters)
stay the single source of truth; at scrape time the exporters below
mirror their current totals into counter/gauge families via
``set_total``/``set``.  Nothing is double-counted: there is no push
path for anything an authoritative aggregate already holds.

The one exception is :class:`EngineObserver` — per-query latency
*histograms* (total seconds plus the paper's Figure-5 split:
pre-filter vs join-phase seconds, labelled by strategy) cannot be
reconstructed from aggregate counters, so the engine observes each
completed query once, at completion.  With no registry configured the
engine holds no observer and the hot path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .export import render_prometheus, render_varz
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # import cycle: service.engine imports repro.obs
    from ..cache.store import CacheStats
    from ..engine.stats import QueryStats
    from ..service.engine import EngineSnapshot
    from ..service.server import QueryServer

__all__ = [
    "EngineObserver",
    "ObsCollector",
    "export_cache",
    "export_engine",
    "export_server",
]

#: ``repro_queries_total`` outcome labels, in catalogue order.  ``ok``
#: and ``degraded`` partition successful queries; the rest mirror the
#: typed-error taxonomy of :mod:`repro.errors`.
OUTCOME_LABELS = (
    "ok", "degraded", "timeout", "cancelled", "rejected",
    "rejected_invalid", "budget", "failure",
)


class EngineObserver:
    """Push-side per-query histogram observations (completion only)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._query_seconds = registry.histogram(
            "repro_query_seconds",
            "End-to-end wall clock of completed queries",
            ("strategy",),
        )
        self._prefilter_seconds = registry.histogram(
            "repro_prefilter_phase_seconds",
            "Pre-filter phase (scan + transfer) seconds — Figure 5 left",
            ("strategy",),
        )
        self._joinphase_seconds = registry.histogram(
            "repro_join_phase_seconds",
            "Join phase (join + post + materialize) seconds — Figure 5 right",
            ("strategy",),
        )

    def observe_query(self, stats: "QueryStats", seconds: float) -> None:
        strategy = stats.strategy or "unknown"
        self._query_seconds.labels(strategy=strategy).observe(seconds)
        self._prefilter_seconds.labels(strategy=strategy).observe(
            stats.prefilter_seconds
        )
        self._joinphase_seconds.labels(strategy=strategy).observe(
            stats.joinphase_seconds
        )


def export_engine(registry: MetricsRegistry, snap: "EngineSnapshot") -> None:
    """Mirror one atomic engine snapshot into metric families."""
    stats = snap.stats
    outcomes = registry.counter(
        "repro_queries_total",
        "Resolved queries by outcome (typed-error taxonomy)",
        ("outcome",),
    )
    ok = stats.queries - stats.degraded
    for outcome, total in (
        ("ok", ok),
        ("degraded", stats.degraded),
        ("timeout", stats.timeouts),
        ("cancelled", stats.cancellations),
        ("rejected", stats.rejected),
        ("rejected_invalid", stats.rejected_invalid),
        ("budget", stats.budget_exceeded),
        ("failure", stats.failures),
    ):
        outcomes.labels(outcome=outcome).set_total(total)
    by_strategy = registry.counter(
        "repro_queries_by_strategy_total",
        "Successful queries by execution strategy",
        ("strategy",),
    )
    for strategy, count in stats.by_strategy.items():
        by_strategy.labels(strategy=strategy).set_total(count)
    registry.counter(
        "repro_engine_submitted_total",
        "Queries that entered admission control (admitted + rejected)",
    ).set_total(stats.submitted)
    registry.counter(
        "repro_rows_returned_total", "Result rows returned to callers"
    ).set_total(stats.rows_returned)
    registry.counter(
        "repro_filters_degraded_total",
        "Exact-set filters degraded to Bloom under a memory budget",
    ).set_total(stats.filters_degraded)
    registry.counter(
        "repro_partitions_scanned_total",
        "Scan partitions considered across all queries",
    ).set_total(stats.partitions_total)
    registry.counter(
        "repro_partitions_pruned_total",
        "Scan partitions eliminated by zone maps",
    ).set_total(stats.partitions_pruned)
    registry.counter(
        "repro_ingests_total",
        "Committed transactional ingest batches",
    ).set_total(stats.ingests)
    registry.counter(
        "repro_ingest_failures_total",
        "Ingest batches that failed before commit (catalog untouched)",
    ).set_total(stats.ingest_failures)
    registry.counter(
        "repro_rows_ingested_total",
        "Delta rows appended through committed ingest batches",
    ).set_total(stats.rows_ingested)
    registry.gauge(
        "repro_engine_slots_in_use",
        "Admitted, unresolved queries (queued + running)",
    ).set(snap.pending)
    registry.gauge(
        "repro_engine_slots", "Admission limit (workers + max_pending)"
    ).set(snap.admission_limit)
    registry.gauge(
        "repro_engine_workers", "Worker-pool threads"
    ).set(snap.workers)


def export_cache(registry: MetricsRegistry, cs: "CacheStats | None") -> None:
    """Mirror a filter-cache snapshot (no-op families when disabled)."""
    counters = (
        ("repro_filter_cache_hits_total", "Filter-cache hits", "hits"),
        ("repro_filter_cache_misses_total", "Filter-cache misses", "misses"),
        (
            "repro_filter_cache_insertions_total",
            "Filter-cache insertions",
            "insertions",
        ),
        (
            "repro_filter_cache_evictions_total",
            "LRU evictions under the byte budget",
            "evictions",
        ),
        (
            "repro_filter_cache_invalidations_total",
            "Entries dropped by table re-registration",
            "invalidations",
        ),
        (
            "repro_filter_cache_rejected_total",
            "Payloads too large for the byte budget",
            "rejected",
        ),
        (
            "repro_filter_cache_corruptions_total",
            "Checksum failures handled as misses",
            "corruptions",
        ),
        (
            "repro_filter_cache_extensions_total",
            "Older-version entries extended over delta rows",
            "extensions",
        ),
        (
            "repro_filter_cache_extension_rebuilds_total",
            "Extension attempts that degraded to a full rebuild",
            "extension_rebuilds",
        ),
    )
    for name, help_text, fld in counters:
        registry.counter(name, help_text).set_total(
            0 if cs is None else getattr(cs, fld)
        )
    registry.gauge(
        "repro_filter_cache_entries", "Cached filter payloads resident"
    ).set(0 if cs is None else cs.entries)
    registry.gauge(
        "repro_filter_cache_bytes", "Filter-cache bytes resident"
    ).set(0 if cs is None else cs.bytes)
    registry.gauge(
        "repro_filter_cache_max_bytes", "Filter-cache byte budget"
    ).set(0 if cs is None else cs.max_bytes)
    registry.gauge(
        "repro_filter_cache_hit_ratio", "Lifetime hits / lookups"
    ).set(0.0 if cs is None else cs.hit_rate)


def export_server(registry: MetricsRegistry, server: "QueryServer") -> None:
    """Mirror the wire-level serving counters.

    The server's counters are plain ints mutated only on the event
    loop thread; cross-thread reads observe a consistent value per
    counter (they are mirrored individually, not as a set).
    """
    registry.counter(
        "repro_server_connections_total", "Connections accepted"
    ).set_total(server.connections_total)
    registry.counter(
        "repro_server_wire_queries_total", "QUERY frames dispatched"
    ).set_total(server.queries_total)
    registry.counter(
        "repro_server_wire_ingests_total", "INGEST frames dispatched"
    ).set_total(server.ingests_total)
    registry.counter(
        "repro_server_protocol_errors_total",
        "Malformed/oversized/unknown frames answered with typed errors",
    ).set_total(server.protocol_errors)
    registry.counter(
        "repro_server_cancelled_by_disconnect_total",
        "In-flight queries aborted because their connection died",
    ).set_total(server.cancelled_by_disconnect)
    registry.gauge(
        "repro_server_connections", "Live connections"
    ).set(server.connections)
    registry.gauge(
        "repro_server_inflight", "QUERY tasks currently being served"
    ).set(server.inflight)
    registry.gauge(
        "repro_server_draining", "1 while draining (graceful shutdown)"
    ).set(1 if server.draining else 0)


class ObsCollector:
    """Scrape-time glue: refresh the adapters, render the registry.

    One collector serves ``/metrics``, ``/varz`` and the ``METRICS``
    wire frame; each scrape re-snapshots the stats sources so the
    exposition is as fresh as one atomic engine snapshot.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        engine=None,
        server=None,
    ) -> None:
        self.registry = registry
        self.engine = engine
        self.server = server

    def refresh(self) -> None:
        if self.engine is not None:
            export_engine(self.registry, self.engine.snapshot())
            export_cache(self.registry, self.engine.cache_stats())
        if self.server is not None:
            export_server(self.registry, self.server)

    def prometheus(self) -> str:
        self.refresh()
        return render_prometheus(self.registry)

    def varz(self) -> dict:
        self.refresh()
        return render_varz(self.registry)
