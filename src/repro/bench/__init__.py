"""Benchmark harness: regenerates every table and figure of the paper."""

from .harness import (
    Measurement,
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
from .report import format_bar_chart, format_ratio

__all__ = [
    "Measurement",
    "SuiteResult",
    "breakdown",
    "format_bar_chart",
    "format_breakdown",
    "format_fig4",
    "format_join_orders",
    "format_join_sizes",
    "format_ratio",
    "join_order_runtimes",
    "join_size_table",
    "normalized_runtimes",
    "run_suite",
    "speedup_summary",
    "time_query",
    "total_join_input_reduction",
    "variance_ratio",
]
