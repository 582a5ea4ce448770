"""Tests for the benchmark harness (small inputs, fast settings)."""

import pytest

from repro.bench.harness import (
    SuiteResult,
    breakdown,
    format_breakdown,
    format_fig4,
    format_join_orders,
    format_join_sizes,
    join_order_runtimes,
    join_size_table,
    normalized_runtimes,
    run_suite,
    speedup_summary,
    time_query,
    total_join_input_reduction,
    variance_ratio,
)
from repro.bench.report import format_bar_chart
from repro.engine.stats import (
    SKIPPED_COVERED,
    JoinStat,
    QueryStats,
    format_edges,
    format_joins,
    format_table,
)
from repro.tpch.queries import Q5_JOIN_ORDERS, get_query

from .conftest import TINY_SF


def test_time_query_measurement(tiny_catalog):
    spec = get_query(5, sf=TINY_SF)
    m = time_query(spec, tiny_catalog, "predtrans", repeats=1)
    assert m.query == "q5" and m.strategy == "predtrans"
    assert m.seconds > 0
    assert m.output_rows == m.stats.output_rows


@pytest.fixture(scope="module")
def suite(tiny_catalog):
    return run_suite(
        tiny_catalog, sf=TINY_SF, query_ids=(3, 5), repeats=1
    )


def test_run_suite_covers_grid(suite):
    assert suite.queries() == ["q3", "q5"]
    assert len(suite.measurements) == 8  # 2 queries x 4 strategies
    assert suite.get("q5", "yannakakis").seconds > 0
    with pytest.raises(KeyError):
        suite.get("q5", "turbo")


def test_normalized_runtimes(suite):
    norm = normalized_runtimes(suite)
    assert norm["q5"]["nopredtrans"] == pytest.approx(1.0)
    assert "geomean" in norm
    assert norm["geomean"]["nopredtrans"] == pytest.approx(1.0)


def test_speedup_summary(suite):
    speedups = speedup_summary(suite)
    assert set(speedups) == {"nopredtrans", "bloomjoin", "yannakakis"}
    assert all(v > 0 for v in speedups.values())


def test_format_fig4(suite):
    text = format_fig4(suite, title="Figure 4 (test)")
    assert "Figure 4" in text and "q5" in text and "geomean" in text


def test_join_size_table_and_reduction(tiny_catalog):
    sizes = join_size_table(tiny_catalog, sf=TINY_SF)
    assert set(sizes) == {"nopredtrans", "bloomjoin", "yannakakis", "predtrans"}
    assert len(sizes["predtrans"]) == 5  # Q5 has five joins
    red = total_join_input_reduction(sizes, "nopredtrans", "predtrans")
    assert 0.0 < red < 1.0
    text = format_join_sizes(sizes, title="Table 1 (test)")
    assert "predtrans.HT" in text


def test_breakdown(tiny_catalog):
    parts = breakdown(tiny_catalog, sf=TINY_SF, repeats=1)
    assert set(parts) == {"nopredtrans", "bloomjoin", "yannakakis", "predtrans"}
    prefilter, join = parts["predtrans"]
    assert prefilter >= 0 and join >= 0
    text = format_breakdown(parts, title="Figure 5 (test)")
    assert "prefilter_s" in text


def test_join_order_runtimes(tiny_catalog):
    times = join_order_runtimes(
        tiny_catalog,
        sf=TINY_SF,
        join_orders=Q5_JOIN_ORDERS,
        strategies=("nopredtrans", "predtrans"),
        repeats=1,
    )
    assert set(times) == set(Q5_JOIN_ORDERS)
    assert variance_ratio(times, "predtrans") >= 1.0
    text = format_join_orders(times, title="Figure 6 (test)")
    assert "max/min" in text


def test_format_table_alignment():
    text = format_table(["a", "bee"], [[1, 2], [30, 40]], title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "bee" in lines[1]


def test_format_edges_reports_ns_per_key_and_per_row():
    stats = QueryStats(query="q8")
    shipped = stats.transfer.new_edge(0, "p", "l", ("p.p_partkey",))
    shipped.kind, shipped.provenance = "bitmap", "built"
    shipped.keys_inserted, shipped.build_seconds = 2_000, 50e-6
    shipped.rows_probed, shipped.probe_seconds = 400_000, 1e-3
    empty = stats.transfer.new_edge(1, "l", "p", ("l.l_partkey",))
    empty.kind, empty.provenance = "bitmap", "built"
    stats.transfer.new_edge(0, "n", "s", ("n.n_nationkey",)).decision = SKIPPED_COVERED
    lines = format_edges(stats, title="edges").splitlines()
    header = [c.strip() for c in lines[1].split("|")]
    assert header[-2:] == ["build_ns/key", "probe_ns/row"]
    cells = [[c.strip() for c in line.split("|")] for line in lines[3:]]
    assert cells[0][-2:] == ["25.0", "2.5"]  # 50 µs / 2 000, 1 ms / 400 000
    assert cells[1][-2:] == ["-", "-"]  # built from nothing, probed nothing
    assert cells[2][-2:] == ["-", "-"]  # skipped
    assert {len(row) for row in cells} == {len(header)}


def test_format_joins_reports_estimates_against_actual_rows_and_the_order():
    stage = QueryStats(query="q17_avgqty", join_order=["l"])
    stats = QueryStats(query="q17", join_order=["p", "l", "a"], stage_stats=[stage])
    stats.joins = [
        JoinStat("Join 1", 6, 1_000, 180, est_rows=90.0, probe_kept=True),
        JoinStat("Cross 1", 2, 3, 6),
    ]
    lines = format_joins(stats, title="joins").splitlines()
    header = [c.strip() for c in lines[1].split("|")]
    assert header[-4:] == ["est_rows", "out_rows", "out/est", "kept"]
    cells = [[c.strip() for c in line.split("|")] for line in lines[3:5]]
    assert cells[0] == ["q17", "Join 1", "6", "1000", "90.0", "180", "2.00", "yes"]
    assert cells[1][-4:] == ["-", "6", "-", ""]  # a cross join has no estimate
    assert lines[5:] == ["  join order of q17_avgqty: l", "  join order of q17: p l a"]


def test_format_bar_chart():
    text = format_bar_chart(["x", "yy"], [1.0, 2.0], title="chart")
    assert text.startswith("chart")
    assert text.count("#") > 0


def test_empty_suite_result():
    suite = SuiteResult(sf=1.0)
    assert suite.queries() == []


def test_suite_to_json_roundtrip(suite, tiny_catalog):
    """Each measurement carries a positive time, non-negative phase
    times and the digest of the result it timed."""
    from repro.core.runner import run_query
    from repro.service.workload import result_digest

    specs = {s.name: s for s in (get_query(q, sf=TINY_SF) for q in (3, 5))}
    for m in suite.measurements:
        assert m.seconds > 0
        s = m.stats
        for phase in (
            s.scan_seconds_total, s.transfer_seconds, s.join_seconds,
            s.post_seconds, s.materialize_seconds_total,
        ):
            assert phase >= 0
        fresh = run_query(specs[m.query], tiny_catalog, strategy=m.strategy)
        assert m.digest == result_digest(fresh.table)


def test_write_bench_json(tmp_path, suite):
    """A measurement's per-query record is its span tree, written as
    JSON lines by the trace sink (what ``repro trace --out`` appends)."""
    import json

    from repro.obs.trace import TraceSink, spans_from_stats

    path = tmp_path / "spans.jsonl"
    emitted = []
    with TraceSink(str(path)) as sink:
        for m in suite.measurements:
            spans = spans_from_stats(m.stats)
            sink.emit(spans)
            emitted.extend((span.span_id, span.name) for span in spans)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(d["span_id"], d["name"]) for d in lines] == emitted
    roots = [(d["attrs"]["query"], d["attrs"]["strategy"])
             for d in lines if d["name"] == "query"]
    assert roots == [(m.query, m.strategy) for m in suite.measurements]

