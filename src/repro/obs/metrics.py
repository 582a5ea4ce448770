"""Thread-safe metrics primitives: counters, gauges, histograms.

Three rules shape this module:

* **Fixed log-scale buckets.**  Every latency histogram shares the
  :data:`LATENCY_BUCKETS` ladder (100 µs → 60 s, a 1–2.5–5 decade
  progression).  Because the ladder is identical everywhere, histogram
  snapshots are *mergeable* — bucket counts from N engines (or N
  client connections) add element-wise and percentiles estimated
  from the merged counts stay valid.  Per-histogram custom buckets
  would silently break that.

* **One declaration, mirrored one way.**  A serving counter or gauge
  is one declared field of the stats book that owns it
  (:func:`~repro.engine.stats.metric_field`); the scrape-time walk in
  :mod:`repro.obs.adapters` mirrors it with :meth:`Counter.set_total`
  or :meth:`Gauge.set`, and ``/varz`` and the ``STATS`` frame follow
  from the same field.  Counters have no ``inc``: nothing here keeps
  a second count.  Histograms alone are pushed, one observation per
  completed query.

* **No-op when absent.**  Nothing in this module is consulted unless
  a caller holds a registry; callers gate on ``registry is None``
  before touching any of it, which keeps the disabled path free.
"""

from __future__ import annotations

import bisect
import re
import threading
from dataclasses import dataclass

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricFamily",
    "MetricsRegistry",
]

#: Shared log-scale latency bucket upper bounds, in seconds.  A fixed
#: 1–2.5–5 ladder from 100 µs to 60 s: wide enough for SF 0.001 unit
#: tests and SF ≥ 1 runs alike, and *identical for every histogram*.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set_total(self, value: float) -> None:
        """Mirror a total that a stats book owns; the counter merely
        exposes it."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable, mergeable copy of a histogram's state.

    ``counts[i]`` is the number of observations in
    ``(buckets[i-1], buckets[i]]``; ``counts[-1]`` is the overflow
    (``> buckets[-1]``) bucket.
    """

    buckets: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int
    max: float

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0 < pct <= 100).

        Linear interpolation inside the containing bucket; the
        overflow bucket is capped at the observed maximum, and the
        estimate never exceeds it.  Returns 0.0 for an empty
        histogram.
        """
        if not 0 < pct <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        running = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if running + n >= rank:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                upper = self.buckets[i] if i < len(self.buckets) else self.max
                frac = (rank - running) / n
                return min(lower + frac * (upper - lower), self.max)
            running += n
        return self.max


class Histogram:
    """Observation counts over the shared log-scale bucket ladder."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count", "_max")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be non-empty, strictly increasing")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if value > self._max:
                self._max = value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                buckets=self.buckets,
                counts=tuple(self._counts),
                sum=self._sum,
                count=self._count,
                max=self._max,
            )


_KINDS = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricFamily:
    """A named metric with a fixed label schema and labelled children.

    Children are created on first use (``family.labels(outcome="ok")``)
    and live for the registry's lifetime — Prometheus semantics, where
    a label combination once reported keeps reporting.
    """

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r}")
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        """The child for this label combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._buckets)
                else:
                    child = _KINDS[self.kind]()
                self._children[key] = child
            return child

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """``(label_values, child)`` pairs sorted by label values."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """An ordered, thread-safe collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create and
    idempotent: re-declaring a family with the same kind and label
    schema returns the existing one (the export walk re-declares on every
    scrape); re-declaring with a *different* kind or labels raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _declare(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind}{fam.labelnames}, cannot re-register "
                        f"as {kind}{tuple(labelnames)}"
                    )
                return fam
            fam = MetricFamily(name, help, kind, tuple(labelnames), buckets)
            self._families[name] = fam
            return fam

    def counter(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, help, "counter", tuple(labelnames))

    def gauge(
        self, name: str, help: str, labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._declare(name, help, "gauge", tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._declare(name, help, "histogram", tuple(labelnames), buckets)

    def families(self) -> list[MetricFamily]:
        """Families in registration order (a stable scrape order)."""
        with self._lock:
            return list(self._families.values())
