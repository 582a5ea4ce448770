"""One walk from the stats books to the metric families.

Each serving counter and gauge is one field of the stats object
("book") that owns it — :class:`~repro.service.engine.EngineStats` and
:class:`~repro.service.engine.EngineSnapshot`,
:class:`~repro.cache.store.CacheStats`,
:class:`~repro.service.server.ServerStats` — declared with
:func:`~repro.engine.stats.metric_field`.  At scrape time
:func:`export_stats` mirrors a book's current values into the families
its fields name, via ``set_total``/``set``; the ``STATS`` frame is
``asdict()`` of the same books.  Nothing is double-counted: there is
no push path for anything a book already holds.

The one exception is :class:`EngineObserver` — per-query latency
*histograms* (total seconds plus the paper's Figure-5 split:
pre-filter vs join-phase seconds, labelled by strategy) cannot be
reconstructed from aggregate counters, so the engine observes each
completed query once, at completion.  With no registry configured the
engine holds no observer and the hot path is untouched.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Any

from ..cache.store import CacheStats
from .export import render_prometheus, render_varz
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # import cycle: service.engine imports repro.obs
    from ..engine.stats import QueryStats

__all__ = ["EngineObserver", "ObsCollector", "export_stats"]

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


def export_stats(registry: MetricsRegistry, book: Any) -> None:
    """Mirror one book into the families its fields declare.

    A field holding a book (``EngineSnapshot.stats``) is walked in
    turn.  The one sample not read off a field is
    ``repro_queries_total{outcome="ok"}``: ``queries`` counts degraded
    successes too, so ok is ``queries - degraded``.
    """
    for f in fields(book):
        value = getattr(book, f.name)
        if is_dataclass(value):
            export_stats(registry, value)
            continue
        meta = f.metadata
        if "metric" not in meta:
            continue
        if "by" in meta:
            labelnames, samples = (meta["by"],), value
        elif "outcome" in meta:
            if meta["outcome"] == "ok":
                value -= book.degraded
            labelnames, samples = ("outcome",), {meta["outcome"]: value}
        else:
            labelnames, samples = (), {None: value}
        if meta["kind"] == "counter":
            family = registry.counter(meta["metric"], meta["help"], labelnames)
            for key, total in samples.items():
                family.labels(**dict(zip(labelnames, [key]))).set_total(total)
        else:
            family = registry.gauge(meta["metric"], meta["help"], labelnames)
            for key, level in samples.items():
                family.labels(**dict(zip(labelnames, [key]))).set(level)


class ObsCollector:
    """Scrape-time glue: export the books, render the registry.

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
            export_stats(self.registry, self.engine.snapshot())
            # A disabled cache still exports its families, as zeros.
            export_stats(
                self.registry, self.engine.cache_stats() or CacheStats()
            )
        if self.server is not None:
            export_stats(self.registry, self.server.stats())

    def prometheus(self) -> str:
        self.refresh()
        return render_prometheus(self.registry)

    def varz(self) -> dict:
        self.refresh()
        return render_varz(self.registry)
