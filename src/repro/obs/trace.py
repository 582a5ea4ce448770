"""Per-query phase tracing.

A trace is a tree of spans keyed by a ``trace_id`` that travels with
the query: minted by the service layer (or propagated from a remote
client via the optional ``trace_id`` QUERY field and echoed on
RESULT/ERROR), stamped onto :class:`~repro.engine.stats.QueryStats`,
and — when a :class:`TraceSink` is configured — exported as JSON-lines.

Spans are **derived, not recorded**: the runner already times every
phase boundary (scan → transfer → join → post → materialize, plus
per-pre-stage breakdowns) into ``QueryStats``, and phases execute
strictly sequentially, so :func:`spans_from_stats` reconstructs start
offsets from cumulative durations after the fact.  The hot path gains
no per-phase span objects, and with no sink configured it gains
nothing at all.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable

from ..engine.stats import QueryStats

__all__ = [
    "Span",
    "TraceSink",
    "format_span_tree",
    "mint_span_id",
    "mint_trace_id",
    "spans_from_stats",
]


def mint_trace_id() -> str:
    """A fresh 32-hex-char trace id (W3C trace-context sized)."""
    return os.urandom(16).hex()


def mint_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return os.urandom(8).hex()


@dataclass
class Span:
    """One timed operation in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_unix: float
    seconds: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix": round(self.start_unix, 6),
            "seconds": round(self.seconds, 9),
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


#: ``(span name, QueryStats duration field)`` in execution order.  The
#: transfer span is the paper's pre-filter phase (Figure 5 left bar);
#: join+post+materialize make up the join phase (right bar).
_PHASE_FIELDS: tuple[tuple[str, str], ...] = (
    ("scan", "scan_seconds"),
    ("transfer", "transfer_seconds"),
    ("join", "join_seconds"),
    ("post", "post_seconds"),
    ("materialize", "materialize_seconds"),
)


def _emit_stage(
    stats: QueryStats,
    *,
    trace_id: str,
    parent_id: str,
    start: float,
    out: list[Span],
) -> float:
    """Append spans for one stage's phases; return the end offset."""
    cursor = start
    # Pre-stages (separately planned intermediate blocks) are drawn
    # before this stage's own scan, sharing the parent so the tree
    # mirrors the plan's stage nesting.  A deferred stage actually ran
    # after this stage's transfer phase; its span says so with
    # ``seeded``.
    for i, stage in enumerate(stats.stage_stats):
        stage_attrs: dict = {"output_rows": stage.output_rows}
        if stage.seeded:
            stage_attrs["seeded"] = True
        span = Span(
            trace_id=trace_id,
            span_id=mint_span_id(),
            parent_id=parent_id,
            name=f"stage[{i}]",
            start_unix=cursor,
            seconds=stage.total_seconds,
            attrs=stage_attrs,
        )
        out.append(span)
        cursor = _emit_stage(
            stage,
            trace_id=trace_id,
            parent_id=span.span_id,
            start=cursor,
            out=out,
        )
    for name, fld in _PHASE_FIELDS:
        seconds = getattr(stats, fld)
        attrs: dict = {}
        if name == "scan":
            attrs = {
                "partitions_total": stats.partitions_total,
                "partitions_pruned": stats.partitions_pruned,
            }
        elif name == "transfer":
            attrs = {
                "filters_built": stats.transfer.edges_traversed,
                "edges": [asdict(e) for e in stats.transfer.edges],
                "cache_hits": stats.filter_cache_hits,
                "cache_misses": stats.filter_cache_misses,
                "rows_reduction": round(stats.transfer.reduction(), 6),
            }
        elif name == "join":
            attrs = {"joins": len(stats.joins)}
        elif name == "materialize":
            attrs = {"bytes": stats.bytes_materialized}
        out.append(
            Span(
                trace_id=trace_id,
                span_id=mint_span_id(),
                parent_id=parent_id,
                name=name,
                start_unix=cursor,
                seconds=seconds,
                attrs=attrs,
            )
        )
        cursor += seconds
    return cursor


def spans_from_stats(
    stats: QueryStats,
    *,
    trace_id: str | None = None,
    parent_id: str | None = None,
) -> list[Span]:
    """Build the span tree of one completed query from its stats.

    The root ``query`` span covers the whole execution; phase children
    (and recursively, pre-stage children) are laid out sequentially
    from ``stats.started_unix`` because that is exactly how the runner
    executes them.  ``parent_id`` nests the tree under an enclosing
    span (the server's per-request span for wire queries).
    """
    tid = trace_id or stats.trace_id or mint_trace_id()
    t0 = stats.started_unix
    root = Span(
        trace_id=tid,
        span_id=mint_span_id(),
        parent_id=parent_id,
        name="query",
        start_unix=t0,
        seconds=stats.total_seconds,
        attrs={
            "query": stats.query,
            "strategy": stats.strategy,
            "outcome": stats.outcome,
            "output_rows": stats.output_rows,
            "cache_hits": stats.total("filter_cache_hits"),
            "cache_misses": stats.total("filter_cache_misses"),
        },
    )
    spans = [root]
    _emit_stage(
        stats, trace_id=tid, parent_id=root.span_id, start=t0, out=spans
    )
    return spans


def format_span_tree(spans: Iterable[Span]) -> str:
    """An indented, human-readable rendering (the ``repro trace`` CLI)."""
    spans = list(spans)
    by_parent: dict[str | None, list[Span]] = {}
    ids = {s.span_id for s in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)
    lines: list[str] = []

    def walk(parent: str | None, depth: int) -> None:
        for span in by_parent.get(parent, []):
            # Scalars ride the span's own line; a list-valued attribute
            # (the transfer phase's per-edge records) gets a line per item.
            scalars = {k: v for k, v in span.attrs.items() if not isinstance(v, list)}
            attrs = ""
            if scalars:
                attrs = "  " + " ".join(f"{k}={v}" for k, v in scalars.items())
            lines.append(
                f"{'  ' * depth}{span.name:<12s} {span.seconds * 1e3:9.3f} ms"
                f"{attrs}"
            )
            for key, items in span.attrs.items():
                if isinstance(items, list):
                    for item in items:
                        fields = " ".join(f"{k}={v}" for k, v in item.items())
                        lines.append(f"{'  ' * (depth + 1)}{key}: {fields}")
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


class TraceSink:
    """A thread-safe JSON-lines span exporter.

    One span per line, append-mode, flushed per batch so ``tail -f``
    on the trace file follows live traffic.  Pass a path (owned: the
    sink opens and closes it) or an open text stream (borrowed).
    """

    def __init__(self, target: str | IO[str]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self.emitted = 0

    def emit(self, spans: Iterable[Span]) -> None:
        lines = [json.dumps(s.to_dict(), sort_keys=True) for s in spans]
        if not lines:
            return
        with self._lock:
            for line in lines:
                self._fh.write(line + "\n")
            self._fh.flush()
            self.emitted += len(lines)

    def close(self) -> None:
        with self._lock:
            if self._owns and not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
