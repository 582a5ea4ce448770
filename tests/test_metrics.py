"""The observability primitives: metrics registry, Prometheus
exposition (golden escaping/ordering/cumulativity), bucket-percentile
math, trace span derivation, slow-query log rate limiting, and the
plan fingerprint.

Companion to ``test_observability.py``, which covers the wired-up
surfaces (server sidecar, METRICS frame, trace round-trip, scrape
atomicity under concurrency); this file tests the ``repro.obs``
package in isolation.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    TraceSink,
    format_span_tree,
    mint_span_id,
    mint_trace_id,
    parse_prometheus_text,
    render_prometheus,
    render_varz,
    spans_from_stats,
)
from repro.cache.fingerprint import plan_fingerprint
from repro.engine.stats import SKIPPED_COVERED, QueryStats
from repro.tpch.queries import get_query


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_monotonic():
    c = Counter()
    assert c.value == 0
    c.set_total(10)
    assert c.value == 10


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(5)
    assert g.value == 5
    g.set(3)
    assert g.value == 3


def test_bucket_ladder_is_strictly_increasing():
    assert list(LATENCY_BUCKETS) == sorted(set(LATENCY_BUCKETS))
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-4)
    assert LATENCY_BUCKETS[-1] == 60.0


def test_histogram_le_semantics_at_exact_bound():
    h = Histogram()
    h.observe(0.001)  # exactly a bound: belongs to the le=0.001 bucket
    snap = h.snapshot()
    cum = dict(snap.cumulative())
    assert cum[0.001] == 1
    assert cum[0.0005] == 0


def test_histogram_cumulative_ends_with_inf_and_total():
    h = Histogram()
    for v in (0.0002, 0.003, 0.003, 99.0):  # last one overflows
        h.observe(v)
    cum = h.snapshot().cumulative()
    les = [le for le, _ in cum]
    counts = [c for _, c in cum]
    assert les[-1] == math.inf
    assert counts == sorted(counts)  # cumulativity
    assert counts[-1] == 4
    assert h.snapshot().counts[-1] == 1  # the overflow bucket


def test_percentile_interpolates_and_caps_at_max():
    h = Histogram()
    for _ in range(100):
        h.observe(0.02)  # all in (0.01, 0.025]
    snap = h.snapshot()
    p50 = snap.percentile(50)
    assert 0.01 <= p50 <= 0.025
    # Overflow observations interpolate toward the observed max — the
    # estimate stays finite and never exceeds it.
    h2 = Histogram()
    h2.observe(120.0)
    assert 60.0 < h2.snapshot().percentile(99) <= 120.0
    assert h2.snapshot().percentile(100) == pytest.approx(120.0)
    assert Histogram().snapshot().percentile(50) == 0.0


# ----------------------------------------------------------------------
# Families and registry
# ----------------------------------------------------------------------
def test_family_label_children_are_cached():
    reg = MetricsRegistry()
    fam = reg.counter("x_total", "help", ("k",))
    fam.labels(k="a").set_total(2)
    assert fam.labels(k="a") is fam.labels(k="a")
    assert fam.labels(k="a").value == 2


def test_family_rejects_le_label_and_wrong_labels():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("h", "help", ("le",))
    fam = reg.counter("y_total", "help", ("k",))
    with pytest.raises(ValueError):
        fam.labels(wrong="a")


def test_registry_declare_is_idempotent_but_kind_checked():
    reg = MetricsRegistry()
    first = reg.counter("z_total", "help")
    assert reg.counter("z_total", "help") is first
    with pytest.raises(ValueError):
        reg.gauge("z_total", "help")


# ----------------------------------------------------------------------
# Prometheus exposition (golden)
# ----------------------------------------------------------------------
def test_empty_registry_renders_empty():
    assert render_prometheus(MetricsRegistry()) == ""


def test_exposition_help_type_and_escaping():
    reg = MetricsRegistry()
    fam = reg.counter('weird_total', 'help with \\ and\nnewline', ("q",))
    fam.labels(q='va"l\\ue\nx').set_total(3)
    text = render_prometheus(reg)
    lines = text.splitlines()
    assert '# HELP weird_total help with \\\\ and\\nnewline' in lines
    assert "# TYPE weird_total counter" in lines
    assert 'weird_total{q="va\\"l\\\\ue\\nx"} 3' in lines


def test_exposition_histogram_buckets_sum_count():
    reg = MetricsRegistry()
    fam = reg.histogram("lat_seconds", "latency", ("s",))
    fam.labels(s="a").observe(0.003)
    fam.labels(s="a").observe(0.07)
    text = render_prometheus(reg)
    parsed = parse_prometheus_text(text)
    buckets = {
        dict(labels)["le"]: v
        for labels, v in parsed["lat_seconds_bucket"].items()
    }
    assert buckets["+Inf"] == 2
    assert buckets["0.005"] == 1
    # Cumulativity across the rendered ladder.
    ordered = [
        v for _, v in sorted(
            (
                (math.inf if le == "+Inf" else float(le), v)
                for le, v in buckets.items()
            )
        )
    ]
    assert ordered == sorted(ordered)
    assert parsed["lat_seconds_count"][(("s", "a"),)] == 2
    assert parsed["lat_seconds_sum"][(("s", "a"),)] == pytest.approx(0.073)


def test_parse_round_trips_rendered_samples():
    reg = MetricsRegistry()
    reg.counter("a_total", "ha").labels().set_total(7)
    g = reg.gauge("b", "hb", ("k",))
    g.labels(k="v").set(2.5)
    parsed = parse_prometheus_text(render_prometheus(reg))
    assert parsed["a_total"][()] == 7
    assert parsed["b"][(("k", "v"),)] == 2.5


def test_varz_carries_percentiles():
    reg = MetricsRegistry()
    reg.histogram("h_seconds", "h").labels().observe(0.02)
    varz = render_varz(reg)
    sample = varz["h_seconds"]["samples"][0]
    assert sample["count"] == 1
    assert 0.01 <= sample["p50"] <= 0.025
    json.dumps(varz)  # must be JSON-clean


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _stats() -> QueryStats:
    s = QueryStats(strategy="predtrans", query="qX")
    s.started_unix = 1000.0
    s.scan_seconds = 0.1
    s.transfer_seconds = 0.2
    s.join_seconds = 0.3
    s.post_seconds = 0.05
    s.materialize_seconds = 0.05
    s.output_rows = 42
    shipped = s.transfer.new_edge(0, "n", "s", ("n.n_nationkey",))
    shipped.kind, shipped.provenance = "bloom", "built"
    shipped.keys_inserted, shipped.filter_bytes = 25, 64
    shipped.rows_probed, shipped.rows_passed = 100, 40
    s.transfer.new_edge(1, "s", "n", ("s.s_nationkey",)).decision = SKIPPED_COVERED
    return s


def test_spans_from_stats_lays_phases_out_sequentially():
    spans = spans_from_stats(_stats(), trace_id="t" * 32)
    root = spans[0]
    assert root.name == "query" and root.parent_id is None
    by_name = {s.name: s for s in spans}
    assert by_name["scan"].start_unix == pytest.approx(1000.0)
    assert by_name["transfer"].start_unix == pytest.approx(1000.1)
    assert by_name["join"].start_unix == pytest.approx(1000.3)
    assert all(
        s.parent_id == root.span_id for s in spans[1:]
    )
    assert all(s.trace_id == "t" * 32 for s in spans)


def test_spans_nest_under_given_parent():
    spans = spans_from_stats(_stats(), parent_id="feed" * 4)
    assert spans[0].parent_id == "feed" * 4


def test_trace_ids_are_fresh_hex():
    a, b = mint_trace_id(), mint_trace_id()
    assert a != b and len(a) == 32 and int(a, 16) >= 0
    assert len(mint_span_id()) == 16


def test_trace_sink_writes_json_lines():
    buf = io.StringIO()
    sink = TraceSink(buf)
    sink.emit(spans_from_stats(_stats()))
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == sink.emitted == 6
    parsed = [json.loads(line) for line in lines]
    assert {p["name"] for p in parsed} >= {"query", "scan", "join"}
    # The transfer phase carries the mechanism, edge by edge.
    (transfer,) = [p for p in parsed if p["name"] == "transfer"]
    assert transfer["attrs"]["filters_built"] == 1
    shipped, skipped = transfer["attrs"]["edges"]
    assert (shipped["src"], shipped["dst"], shipped["decision"]) == ("n", "s", "shipped")
    assert (shipped["keys_inserted"], shipped["rows_probed"], shipped["rows_passed"]) == (
        25, 100, 40,
    )
    assert (skipped["pass_index"], skipped["decision"]) == (1, "skipped: covered")
    sink.close()  # borrowed stream stays open
    assert not buf.closed


def test_format_span_tree_indents_children():
    text = format_span_tree(spans_from_stats(_stats()))
    assert text.splitlines()[0].startswith("query")
    assert any(line.startswith("  scan") for line in text.splitlines())
    # One line per transfer edge, under the transfer phase.
    edges = [line for line in text.splitlines() if line.startswith("    edges: ")]
    assert len(edges) == 2 and "decision=skipped: covered" in edges[1]


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
def _slow_record(log: SlowQueryLog, seconds: float = 1.0) -> bool:
    return log.maybe_record(
        seconds=seconds,
        stats=_stats(),
        query="qX",
        strategy="predtrans",
        trace_id="abc",
    )


def test_slow_log_fires_only_at_or_above_threshold():
    buf = io.StringIO()
    log = SlowQueryLog(buf, threshold_s=0.5)
    assert _slow_record(log, 0.4) is False
    assert _slow_record(log, 0.5) is True
    record = json.loads(buf.getvalue())
    assert record["query"] == "qX"
    assert record["trace_id"] == "abc"
    assert record["phases"]["prefilter_s"] == pytest.approx(0.3)
    assert record["phases"]["joinphase_s"] == pytest.approx(0.4)
    assert record["filters_built"] == 1
    assert [e["decision"] for e in record["edges"]] == ["shipped", "skipped: covered"]


def test_slow_log_rate_limit_fires_exactly_once_per_token():
    clock = [0.0]
    buf = io.StringIO()
    log = SlowQueryLog(
        buf, threshold_s=0.0, max_per_minute=2.0, clock=lambda: clock[0]
    )
    written = [_slow_record(log) for _ in range(5)]
    assert written.count(True) == 2  # the burst
    assert log.suppressed == 3
    clock[0] = 30.0  # one token refilled
    assert _slow_record(log) is True
    lines = [json.loads(x) for x in buf.getvalue().strip().splitlines()]
    assert len(lines) == 3
    # The suppression debt is carried on the next emitted line.
    assert lines[-1]["suppressed"] == 3
    assert log.suppressed == 0


# ----------------------------------------------------------------------
# Plan fingerprint
# ----------------------------------------------------------------------
def test_plan_fingerprint_is_stable_and_discriminates():
    q3, q5 = get_query(3, sf=0.01), get_query(5, sf=0.01)
    fp = plan_fingerprint(q3)
    assert fp == plan_fingerprint(q3)
    assert len(fp) == 16 and int(fp, 16) >= 0
    assert fp != plan_fingerprint(q5)
    # The fingerprint hashes plan *shape*, not the name label.
    assert plan_fingerprint(get_query(3, sf=0.02)) == fp
