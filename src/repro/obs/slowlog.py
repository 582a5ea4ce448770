"""Structured, rate-limited slow-query log.

One JSON line per query whose wall clock crosses the threshold:
trace id, plan fingerprint, strategy, the Figure-5 phase breakdown
(prefilter vs join-phase seconds plus the per-phase split), cache
traffic, and outcome.  An operator correlates a slow line with its
full span tree via ``trace_id`` and with recurring plan shapes via
``plan_fp`` — the fingerprint is stable across runs for the same plan
structure, unlike the query's display name.

Rate limiting is a token bucket (``max_per_minute``): a storm of slow
queries — the exact situation that makes a slow log interesting —
must not turn the log itself into the bottleneck.  Suppressed records
are *counted*, and the count is attached to the next emitted line, so
nothing disappears silently.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict
from typing import IO, Callable

from ..cache.fingerprint import canonical_expr
from ..engine.stats import QueryStats
from ..plan.query import QuerySpec

__all__ = ["SlowQueryLog", "plan_fingerprint"]

_SEP = "\x1f"


def plan_fingerprint(spec: QuerySpec) -> str:
    """A 16-hex-char structural fingerprint of a query plan.

    SHA-256 over the canonical plan shape: sorted relation entries
    (alias, table, canonical local predicate), sorted join edges
    (endpoints, keys, kind), and recursively the pre-stages.  Stable
    across processes and runs — ``repr``-based hashing would leak
    object ids — and insensitive to declaration order.
    """
    parts: list[str] = []
    for r in sorted(spec.relations, key=lambda r: r.alias):
        parts.append(
            f"rel:{r.alias}={r.table}:{canonical_expr(r.predicate, r.alias)}"
        )
    for e in sorted(spec.edges, key=lambda e: (e.left, e.right, e.left_keys)):
        parts.append(
            f"edge:{e.left}[{','.join(e.left_keys)}]"
            f"={e.right}[{','.join(e.right_keys)}]:{e.how}"
            f":{canonical_expr(e.residual)}"
        )
    parts.append(f"post:{len(spec.post)}")
    for stage in spec.pre_stages:
        parts.append(f"stage:{stage.output}:{plan_fingerprint(stage.spec)}")
    digest = hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


class SlowQueryLog:
    """JSON-lines slow-query log with token-bucket rate limiting.

    Parameters
    ----------
    target:
        A path (opened append-mode, owned) or an open text stream
        (borrowed — e.g. ``sys.stderr``).
    threshold_s:
        Queries at or above this wall clock are logged.
    max_per_minute:
        Token-bucket rate; the bucket also holds at most this many
        tokens, so an idle minute buys one full burst, not unbounded
        backlog.
    clock:
        Monotonic time source (injected by tests).
    """

    def __init__(
        self,
        target: str | IO[str],
        *,
        threshold_s: float,
        max_per_minute: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold_s < 0:
            raise ValueError("threshold_s must be >= 0")
        if max_per_minute <= 0:
            raise ValueError("max_per_minute must be > 0")
        self.threshold_s = float(threshold_s)
        self._rate = float(max_per_minute) / 60.0
        self._burst = float(max_per_minute)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self._burst
        self._refilled_at = clock()
        self._suppressed = 0
        self.emitted = 0
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    # ------------------------------------------------------------------
    def _take_token(self) -> bool:
        """Consume one token if available (caller holds the lock)."""
        now = self._clock()
        self._tokens = min(
            self._burst, self._tokens + (now - self._refilled_at) * self._rate
        )
        self._refilled_at = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def maybe_record(
        self,
        *,
        seconds: float,
        stats: QueryStats | None,
        query: str,
        strategy: str,
        trace_id: str = "",
        plan_fp: str = "",
        outcome: str = "ok",
    ) -> bool:
        """Log the query iff it is slow and a token is available.

        Returns ``True`` exactly when a line was written — each slow
        query is logged at most once, and a rate-limited one is
        counted into the next emitted line's ``suppressed`` field.
        """
        if seconds < self.threshold_s:
            return False
        with self._lock:
            if not self._take_token():
                self._suppressed += 1
                return False
            suppressed, self._suppressed = self._suppressed, 0
            self.emitted += 1
        record: dict = {
            "ts": time.time(),
            "trace_id": trace_id,
            "query": query,
            "plan_fp": plan_fp,
            "strategy": strategy,
            "seconds": round(seconds, 6),
            "outcome": outcome,
            "threshold_s": self.threshold_s,
        }
        if suppressed:
            record["suppressed"] = suppressed
        if stats is not None:
            record["phases"] = {
                "prefilter_s": round(stats.prefilter_seconds, 6),
                "joinphase_s": round(stats.joinphase_seconds, 6),
                "scan_s": round(stats.total("scan_seconds"), 6),
                "transfer_s": round(stats.total("transfer_seconds"), 6),
                "join_s": round(stats.total("join_seconds"), 6),
                "post_s": round(stats.total("post_seconds"), 6),
                "materialize_s": round(stats.total("materialize_seconds"), 6),
            }
            record["cache"] = {
                "hits": stats.total("filter_cache_hits"),
                "misses": stats.total("filter_cache_misses"),
            }
            record["filters_built"] = stats.transfer.edges_traversed
            record["edges"] = [asdict(e) for e in stats.transfer.edges]
            record["output_rows"] = stats.output_rows
            record["partitions_pruned"] = stats.total("partitions_pruned")
            record["filters_degraded"] = stats.filters_degraded
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()
        return True

    @property
    def suppressed(self) -> int:
        with self._lock:
            return self._suppressed

    def close(self) -> None:
        with self._lock:
            if self._owns and not self._fh.closed:
                self._fh.close()
