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
from repro.bench.report import format_bar_chart, format_table
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


def test_format_bar_chart():
    text = format_bar_chart(["x", "yy"], [1.0, 2.0], title="chart")
    assert text.startswith("chart")
    assert text.count("#") > 0


def test_empty_suite_result():
    suite = SuiteResult(sf=1.0)
    assert suite.queries() == []


def test_suite_to_json_roundtrip(suite):
    import json

    from repro.bench.harness import suite_to_json, write_bench_json

    doc = suite_to_json(suite, repeats=1, seed=0)
    assert doc["schema"] == "repro-bench/v5"
    assert doc["meta"]["sf"] == TINY_SF
    assert len(doc["measurements"]) == len(suite.measurements)
    record = doc["measurements"][0]
    for key in (
        "query", "strategy", "seconds", "transfer_seconds", "join_seconds",
        "scan_seconds", "materialize_seconds", "bytes_materialized",
        "filter_bytes", "prefilter_reduction", "join_input_rows",
    ):
        assert key in record
    # Document is valid JSON end to end.
    json.loads(json.dumps(doc))


def test_write_bench_json(tmp_path, suite):
    import json

    from repro.bench.harness import suite_to_json, write_bench_json

    path = tmp_path / "out.json"
    write_bench_json(str(path), suite_to_json(suite, repeats=1))
    assert json.loads(path.read_text())["schema"] == "repro-bench/v5"

