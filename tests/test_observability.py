"""The wired-up observability surfaces: the metrics HTTP sidecar,
the ``METRICS`` wire frame, trace-id propagation over the wire,
engine-side slow-query logging and span export, and scrape atomicity
under a concurrent hammer (the torn-read regression).

Companion to ``test_metrics.py`` (the ``repro.obs`` package in
isolation) and ``test_server.py`` (wire semantics without obs).
"""

from __future__ import annotations

import dataclasses
import io
import json
import pathlib
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.runner import RunConfig, run_query
from repro.errors import PlanError, ReproError
from repro.obs.adapters import OUTCOME_LABELS
from repro.obs import (
    MetricsRegistry,
    ObsCollector,
    SlowQueryLog,
    TraceSink,
    parse_prometheus_text,
)
from repro.service import Engine, ReproClient, ServerThread
from repro.service.engine import EngineStats
from repro.service.protocol import HEADER, query_request, recv_frame
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002
PARTITION_ROWS = 64


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=SF, seed=0)


@pytest.fixture(scope="module")
def specs():
    return {s.name: s for s in (get_query(1, sf=SF), get_query(3, sf=SF))}


def _engine(catalog, **kw):
    kw.setdefault("config", RunConfig(partition_rows=PARTITION_ROWS))
    kw.setdefault("workers", 2)
    return Engine(catalog, **kw)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


# ----------------------------------------------------------------------
# HTTP sidecar
# ----------------------------------------------------------------------
def test_sidecar_serves_metrics_healthz_varz(catalog, specs):
    engine = _engine(catalog, registry=MetricsRegistry())
    try:
        with ServerThread(engine, specs, metrics_port=0) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                client.query_once("q3")
            base = f"http://127.0.0.1:{st.metrics_port}"
            status, text = _get(f"{base}/metrics")
            assert status == 200
            families = parse_prometheus_text(text)
            outcomes = {
                dict(labels)["outcome"]: v
                for labels, v in families["repro_queries_total"].items()
            }
            assert outcomes["ok"] == 1
            assert sum(
                v
                for labels, v in families["repro_query_seconds_count"].items()
            ) == 1
            assert "repro_prefilter_phase_seconds_bucket" in families
            assert "repro_join_phase_seconds_bucket" in families
            assert families["repro_filter_cache_hits_total"][()] >= 0
            assert families["repro_engine_slots_in_use"][()] == 0
            assert families["repro_server_inflight"][()] == 0
            assert families["repro_server_connections_total"][()] >= 1
            status, _ = _get(f"{base}/healthz")
            assert status == 200
            status, body = _get(f"{base}/varz")
            assert status == 200
            assert "repro_queries_total" in json.loads(body)
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/nope")
            assert err.value.code == 404
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_engine_exports_no_intra_query_chunk_counter(catalog, specs):
    """Queries run on one thread, so the engine exports no counter of
    chunks handed to an intra-query pool; its scan-partition counters
    stay."""
    registry = MetricsRegistry()
    engine = _engine(catalog, registry=registry)
    try:
        engine.execute(specs["q3"])
        families = parse_prometheus_text(
            ObsCollector(registry, engine=engine).prometheus()
        )
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert "repro_parallel_chunks_total" not in families
    assert families["repro_partitions_scanned_total"][()] > 0


def test_healthz_flips_to_503_during_drain(catalog, specs):
    engine = _engine(catalog, registry=MetricsRegistry())
    try:
        with ServerThread(engine, specs, metrics_port=0) as st:
            base = f"http://127.0.0.1:{st.metrics_port}"
            assert _get(f"{base}/healthz")[0] == 200
            st.drain(grace=1.0)
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{base}/healthz")
            assert err.value.code == 503
            # /metrics keeps answering while draining — a scraper must
            # be able to watch the drain itself.
            status, text = _get(f"{base}/metrics")
            assert status == 200
            assert parse_prometheus_text(text)["repro_server_draining"][()] == 1
    finally:
        engine.shutdown(wait=True, cancel=True)


# ----------------------------------------------------------------------
# METRICS wire frame
# ----------------------------------------------------------------------
def test_metrics_frame_over_the_wire(catalog, specs):
    registry = MetricsRegistry()
    engine = _engine(catalog, registry=registry)
    try:
        collector = ObsCollector(registry, engine=engine)
        with ServerThread(engine, specs, collector=collector) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                client.query_once("q1")
                frame = client.metrics()
            assert frame["type"] == "METRICS"
            families = parse_prometheus_text(frame["text"])
            outcomes = {
                dict(labels)["outcome"]: v
                for labels, v in families["repro_queries_total"].items()
            }
            assert outcomes["ok"] == 1
            assert frame["varz"]["repro_queries_total"]["type"] == "counter"
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_metrics_frame_without_collector_is_typed_unavailable(catalog, specs):
    engine = _engine(catalog)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                with pytest.raises(ReproError):
                    client.metrics()
                # The connection survives the typed error.
                assert client.ping()["ready"] is True
    finally:
        engine.shutdown(wait=True, cancel=True)


# ----------------------------------------------------------------------
# Trace-id round trips
# ----------------------------------------------------------------------
def test_trace_id_round_trips_on_result_and_error(catalog, specs):
    engine = _engine(catalog)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                frame = client.query_once("q3", trace_id="deadbeef01")
                assert frame["trace_id"] == "deadbeef01"
                # ERROR echo: raw request so the typed error frame is
                # observable instead of raised.
                err = client.request(
                    query_request(999, "nope", trace_id="deadbeef02")
                )
                assert err["type"] == "ERROR"
                assert err["code"] == "bad_request"
                assert err["trace_id"] == "deadbeef02"
                with pytest.raises(PlanError):
                    client.query_once("nope", trace_id="deadbeef03")
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_server_mints_trace_id_when_client_sends_none(catalog, specs):
    engine = _engine(catalog)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                a = client.query_once("q3")["trace_id"]
                b = client.query_once("q3")["trace_id"]
            assert a != b
            assert len(a) == 32 and int(a, 16) >= 0
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_invalid_trace_id_is_a_protocol_error(catalog, specs):
    engine = _engine(catalog)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                frame = client.request(
                    query_request(7, "q3", trace_id=123)  # type: ignore[arg-type]
                )
                assert frame["type"] == "ERROR"
                assert frame["code"] == "protocol"
                # Connection still serves.
                assert client.query_once("q3")["rows"] >= 0
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_wire_spans_nest_under_request_span(catalog, specs):
    buf = io.StringIO()
    sink = TraceSink(buf)
    engine = _engine(catalog, trace_sink=sink)
    try:
        with ServerThread(engine, specs, trace_sink=sink) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                client.query_once("q3", trace_id="f00d" * 8)
    finally:
        engine.shutdown(wait=True, cancel=True)
    spans = [json.loads(x) for x in buf.getvalue().strip().splitlines()]
    assert all(s["trace_id"] == "f00d" * 8 for s in spans)
    request = next(s for s in spans if s["name"] == "request")
    query = next(s for s in spans if s["name"] == "query")
    assert query["parent_id"] == request["span_id"]
    assert request["attrs"]["outcome"] == "ok"
    phases = {s["name"] for s in spans if s["parent_id"] == query["span_id"]}
    assert {"scan", "transfer", "join"} <= phases


def _catalogue_rows() -> list[list[str]]:
    """The cells of README's metrics catalogue rows."""
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("Metrics catalogue (all families prefixed `repro_`):")
    rows = []
    for line in lines[start + 4 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.split("|")[1:-1]])
    return rows


def _catalogue() -> dict[str, str]:
    """README's metrics catalogue: family name -> type, braces expanded."""
    out: dict[str, str] = {}
    for names, kind, *_ in _catalogue_rows():
        for name in re.findall(r"`([^`]+)`", names):
            match = re.fullmatch(r"(\w*)(?:\{([\w,]+)\})?(\w*)", name)
            assert match, name
            head, braces, tail = match.groups()
            out.update({head + part + tail: kind for part in (braces or "").split(",")})
    return out


def test_readme_catalogue_names_exactly_the_exported_families(catalog, specs):
    registry = MetricsRegistry()
    engine = _engine(catalog, registry=registry)
    collector = ObsCollector(registry, engine=engine)
    try:
        with ServerThread(engine, specs, collector=collector):
            collector.refresh()
    finally:
        engine.shutdown(wait=True, cancel=True)
    exported = {f.name.removeprefix("repro_"): f.kind for f in registry.families()}
    assert _catalogue() == exported
    (labels,) = [row[2] for row in _catalogue_rows() if row[0] == "`queries_total`"]
    assert re.findall(r"`(\w+)`", labels) == ["outcome", *OUTCOME_LABELS]


# ----------------------------------------------------------------------
# The exposition and the STATS frame, pinned on a fixed serial scenario
# ----------------------------------------------------------------------
#: Every counter and gauge family: HELP text, type, samples.  Serial
#: requests on one connection make every value deterministic; the
#: histograms time queries, so only their sample counts are pinned.
PINNED_FAMILIES = {
    "repro_queries_total": (
        "Resolved queries by outcome (typed-error taxonomy)", "counter",
        {
            (("outcome", "ok"),): 2, (("outcome", "degraded"),): 0,
            (("outcome", "timeout"),): 0, (("outcome", "cancelled"),): 0,
            (("outcome", "rejected"),): 0,
            (("outcome", "budget"),): 0, (("outcome", "failure"),): 0,
        },
    ),
    "repro_queries_by_strategy_total": (
        "Successful queries by execution strategy", "counter",
        {(("strategy", "predtrans"),): 2},
    ),
    "repro_engine_submitted_total": (
        "Queries that entered admission control (admitted + rejected)",
        "counter", {(): 2},
    ),
    "repro_rows_returned_total": (
        "Result rows returned to callers", "counter", {(): 20},
    ),
    "repro_filters_degraded_total": (
        "Exact-set filters degraded to Bloom under a memory budget",
        "counter", {(): 0},
    ),
    "repro_partitions_scanned_total": (
        "Scan partitions considered across all queries", "counter",
        {(): 240},
    ),
    "repro_partitions_pruned_total": (
        "Scan partitions eliminated by zone maps", "counter", {(): 109},
    ),
    "repro_ingests_total": (
        "Committed transactional ingest batches", "counter", {(): 1},
    ),
    "repro_ingest_failures_total": (
        "Ingest batches that failed before commit (catalog untouched)",
        "counter", {(): 0},
    ),
    "repro_rows_ingested_total": (
        "Delta rows appended through committed ingest batches", "counter",
        {(): 3},
    ),
    "repro_engine_slots_in_use": (
        "Admitted, unresolved queries (queued + running)", "gauge", {(): 0},
    ),
    "repro_engine_slots": (
        "Admission limit (workers + max_pending)", "gauge", {(): 258},
    ),
    "repro_engine_workers": ("Worker-pool threads", "gauge", {(): 2}),
    "repro_filter_cache_hits_total": ("Filter-cache hits", "counter", {(): 4}),
    "repro_filter_cache_misses_total": (
        "Filter-cache misses", "counter", {(): 5},
    ),
    "repro_filter_cache_insertions_total": (
        "Filter-cache insertions", "counter", {(): 5},
    ),
    "repro_filter_cache_evictions_total": (
        "LRU evictions under the byte budget", "counter", {(): 0},
    ),
    "repro_filter_cache_invalidations_total": (
        "Entries dropped by table re-registration", "counter", {(): 0},
    ),
    "repro_filter_cache_rejected_total": (
        "Payloads too large for the byte budget", "counter", {(): 0},
    ),
    "repro_filter_cache_corruptions_total": (
        "Checksum failures handled as misses", "counter", {(): 0},
    ),
    "repro_filter_cache_entries": (
        "Cached filter payloads resident", "gauge", {(): 5},
    ),
    "repro_filter_cache_bytes": (
        "Filter-cache bytes resident", "gauge", {(): 62269},
    ),
    "repro_filter_cache_max_bytes": (
        "Filter-cache byte budget", "gauge", {(): 256 << 20},
    ),
    "repro_filter_cache_hit_ratio": (
        "Lifetime hits / lookups", "gauge", {(): 4 / 9},
    ),
    "repro_server_connections_total": (
        "Connections accepted", "counter", {(): 1},
    ),
    "repro_server_wire_queries_total": (
        "QUERY frames dispatched", "counter", {(): 2},
    ),
    "repro_server_wire_ingests_total": (
        "INGEST frames dispatched", "counter", {(): 1},
    ),
    "repro_server_protocol_errors_total": (
        "Malformed/oversized/unknown frames answered with typed errors",
        "counter", {(): 1},
    ),
    "repro_server_cancelled_by_disconnect_total": (
        "In-flight queries aborted because their connection died",
        "counter", {(): 0},
    ),
    "repro_server_connections": ("Live connections", "gauge", {(): 1}),
    "repro_server_inflight": (
        "QUERY and INGEST tasks currently being served", "gauge", {(): 0},
    ),
    "repro_server_draining": (
        "1 while draining (graceful shutdown)", "gauge", {(): 0},
    ),
}

PINNED_HISTOGRAMS = {
    "repro_query_seconds": "End-to-end wall clock of completed queries",
    "repro_prefilter_phase_seconds": (
        "Pre-filter phase (scan + transfer) seconds — Figure 5 left"
    ),
    "repro_join_phase_seconds": (
        "Join phase (join + post + materialize) seconds — Figure 5 right"
    ),
}

PINNED_STATS_KEYS = {
    "engine": {
        "queries", "seconds", "rows_returned", "by_strategy", "submitted",
        "rejected", "timeouts", "cancellations", "budget_exceeded",
        "failures", "degraded", "filters_degraded", "partitions_total",
        "partitions_pruned", "ingests", "ingest_failures", "rows_ingested",
    },
    "cache": {
        "hits", "misses", "insertions", "evictions", "invalidations",
        "rejected", "entries", "bytes", "max_bytes", "corruptions",
        "extensions", "extension_rebuilds", "hit_rate",
    },
    "server": {
        "draining", "connections", "connections_total", "queries_total",
        "ingests_total", "protocol_errors", "cancelled_by_disconnect",
        "inflight", "pending_jobs", "queries",
    },
}


def test_exposition_and_stats_frame_are_pinned():
    """q3 twice, one INGEST and one garbage frame, serially on one
    connection; then the exposition and the ``STATS`` sections are
    compared family by family and key by key."""
    catalog = generate_tpch(sf=SF, seed=0)  # private: the INGEST appends
    specs = {"q3": get_query(3, sf=SF)}
    registry = MetricsRegistry()
    engine = _engine(catalog, registry=registry)
    try:
        collector = ObsCollector(registry, engine=engine)
        with ServerThread(engine, specs, collector=collector) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                client.query_once("q3")
                client.query_once("q3")
                orders = catalog.get("orders").head(3)
                client.ingest({"orders": {
                    name: orders.column(name).to_pylist()
                    for name in orders.column_names
                }})
                garbage = b"\xffnot json"
                client._sock.sendall(HEADER.pack(len(garbage)) + garbage)
                assert recv_frame(client._sock)["code"] == "protocol"
                stats = client.stats()
                text = client.metrics()["text"]
    finally:
        engine.shutdown(wait=True, cancel=True)

    help_type = {
        f"{word} {name}": rest
        for word, name, rest in re.findall(
            r"^# (HELP|TYPE) (\w+) (.*)$", text, re.M
        )
    }
    expected = {}
    for name, (help_text, kind, _) in PINNED_FAMILIES.items():
        expected[f"HELP {name}"] = help_text
        expected[f"TYPE {name}"] = kind
    for name, help_text in PINNED_HISTOGRAMS.items():
        expected[f"HELP {name}"] = help_text
        expected[f"TYPE {name}"] = "histogram"
    assert help_type == expected

    families = parse_prometheus_text(text)
    for name, (_, _, samples) in PINNED_FAMILIES.items():
        assert families[name] == pytest.approx(samples), name
    # Timings vary run to run: pin the shape (one strategy, 18 bounds
    # plus +Inf) and the observation count, never a bucket or a sum.
    for name in PINNED_HISTOGRAMS:
        assert len(families[f"{name}_bucket"]) == 19
        assert families[f"{name}_count"] == {(("strategy", "predtrans"),): 2}
        assert len(families[f"{name}_sum"]) == 1
    assert set(families) == set(PINNED_FAMILIES) | {
        f"{name}_{part}"
        for name in PINNED_HISTOGRAMS
        for part in ("bucket", "sum", "count")
    }
    for section, keys in PINNED_STATS_KEYS.items():
        assert set(stats[section]) == keys, section


def test_outcome_labels_are_the_declared_outcome_fields():
    declared = [
        f.metadata["outcome"]
        for f in dataclasses.fields(EngineStats)
        if "outcome" in f.metadata
    ]
    assert declared == list(OUTCOME_LABELS)


def test_disabled_cache_exports_its_families_as_zeros(catalog, specs):
    registry = MetricsRegistry()
    engine = _engine(catalog, registry=registry, cache_bytes=None)
    try:
        engine.execute(specs["q3"])
        families = parse_prometheus_text(
            ObsCollector(registry, engine=engine).prometheus()
        )
    finally:
        engine.shutdown(wait=True, cancel=True)
    cache = {n: v for n, v in families.items() if "_filter_cache_" in n}
    assert len(cache) == 11
    assert all(samples == {(): 0} for samples in cache.values())


# ----------------------------------------------------------------------
# Engine-side slow log
# ----------------------------------------------------------------------
def test_engine_slow_log_records_wire_queries(catalog, specs):
    buf = io.StringIO()
    slow = SlowQueryLog(buf, threshold_s=0.0)
    engine = _engine(catalog, slow_log=slow)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port, io_timeout=30.0) as client:
                frame = client.query_once("q3", trace_id="beef" * 8)
    finally:
        engine.shutdown(wait=True, cancel=True)
    records = [json.loads(x) for x in buf.getvalue().strip().splitlines()]
    assert len(records) == 1
    record = records[0]
    assert record["query"] == "q3"
    assert record["trace_id"] == "beef" * 8 == frame["trace_id"]
    assert record["outcome"] == "ok"
    assert len(record["plan_fp"]) == 16
    assert record["phases"]["prefilter_s"] >= 0.0


@pytest.mark.parametrize("qid", [18, 21])
def test_slow_log_phases_add_up_across_pre_stages(qid):
    """Every phase covers the pre-stages, so the split adds up to the
    Figure-5 totals it refines."""
    catalog = generate_tpch(sf=0.01, seed=1)
    stats = run_query(get_query(qid, sf=0.01), catalog).stats
    assert len(list(stats.blocks())) > 1  # pre-stages ran
    buf = io.StringIO()
    SlowQueryLog(buf, threshold_s=0.0).maybe_record(
        seconds=stats.total_seconds, stats=stats, query=stats.query,
        strategy=stats.strategy,
    )
    phases = json.loads(buf.getvalue())["phases"]
    assert phases["scan_s"] + phases["transfer_s"] == pytest.approx(
        phases["prefilter_s"], abs=1e-5
    )
    assert phases["join_s"] + phases["post_s"] + phases["materialize_s"] == (
        pytest.approx(phases["joinphase_s"], abs=1e-5)
    )


# ----------------------------------------------------------------------
# Scrape atomicity (the torn-read regression)
# ----------------------------------------------------------------------
def test_snapshot_stays_consistent_under_hammer(catalog):
    spec = get_query(1, sf=SF)
    engine = _engine(catalog, workers=4, max_pending=64)
    stop = threading.Event()
    torn: list = []

    def scrape() -> None:
        while not stop.is_set():
            snap = engine.snapshot()
            if not snap.consistent:
                torn.append(snap)
                return

    scrapers = [
        threading.Thread(target=scrape, name=f"scraper-{i}")
        for i in range(3)
    ]
    for t in scrapers:
        t.start()
    try:
        futures = [engine.submit(spec) for _ in range(40)]
        for future in futures:
            future.result(timeout=60)
    finally:
        stop.set()
        for t in scrapers:
            t.join(timeout=10)
        engine.shutdown(wait=True, cancel=True)
    assert not torn, (
        "torn scrape: submitted != rejected + resolved + pending in "
        f"{torn[0]}"
    )
    snap = engine.snapshot()
    assert snap.consistent
    assert snap.stats.queries == 40
    assert snap.pending == 0
