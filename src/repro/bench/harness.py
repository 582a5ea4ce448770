"""Benchmark harness reproducing the paper's evaluation artifacts.

The entry points mirror the paper's figures and tables:

* :func:`run_suite` + :func:`normalized_runtimes` + :func:`format_fig4`
  — Figure 4 (normalized runtime over TPC-H, geomean column included);
* :func:`join_size_table` + :func:`format_join_sizes` — Tables 1–2
  (per-join HT/PR rows on Q5);
* :func:`breakdown` + :func:`format_breakdown` — Figure 5 (pre-filter
  versus join-phase time);
* :func:`join_order_runtimes` + :func:`format_join_orders` — Figure 6
  (robustness across join orders).

Timing protocol: as in the paper, tables are in memory and each query
is run ``repeats`` times with the minimum kept (the paper runs twice
and keeps the warm second run).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..core.runner import STRATEGIES, RunConfig, run_query
from ..engine.stats import QueryStats, format_table
from ..plan.query import QuerySpec
from ..service.workload import result_digest
from ..storage.catalog import Catalog
from ..tpch.queries import BENCH_QUERY_IDS, get_query
from .report import format_bar_chart, format_ratio


@dataclass
class Measurement:
    """One (query, strategy) measurement.

    ``digest`` is the byte-level result digest of the (fastest) run —
    the identity handle result comparisons check.
    """

    query: str
    strategy: str
    seconds: float
    stats: QueryStats
    output_rows: int
    digest: str = ""


@dataclass
class SuiteResult:
    """All measurements of a benchmark sweep."""

    sf: float
    measurements: list[Measurement] = field(default_factory=list)

    def get(self, query: str, strategy: str) -> Measurement:
        """Look up one measurement."""
        for m in self.measurements:
            if m.query == query and m.strategy == strategy:
                return m
        raise KeyError((query, strategy))

    def queries(self) -> list[str]:
        """Distinct query names in insertion order."""
        seen: dict[str, None] = {}
        for m in self.measurements:
            seen.setdefault(m.query, None)
        return list(seen)


def time_query(
    spec: QuerySpec,
    catalog: Catalog,
    strategy: str,
    repeats: int = 2,
    config: RunConfig | None = None,
    join_order: list[str] | None = None,
) -> Measurement:
    """Run one query/strategy pair, keeping the fastest of ``repeats``."""
    best = math.inf
    result = None
    stats = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        out = run_query(spec, catalog, strategy=strategy, config=config,
                        join_order=join_order)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, result, stats = elapsed, out, out.stats
    return Measurement(
        query=spec.name,
        strategy=stats.strategy,
        seconds=best,
        stats=stats,
        output_rows=result.table.num_rows,
        digest=result_digest(result.table),
    )


def run_suite(
    catalog: Catalog,
    sf: float,
    query_ids: tuple[int, ...] = BENCH_QUERY_IDS,
    strategies: tuple[str, ...] = STRATEGIES,
    repeats: int = 2,
    config: RunConfig | None = None,
) -> SuiteResult:
    """Run the Figure-4 sweep: every query under every strategy.

    ``config`` threads execution options (e.g. a cross-query filter
    cache) through every measurement; with a cache and ``repeats >= 2``
    the kept minimum is a warm-cache run.
    """
    suite = SuiteResult(sf=sf)
    for qid in query_ids:
        spec = get_query(qid, sf=sf)
        for strategy in strategies:
            suite.measurements.append(
                time_query(spec, catalog, strategy, repeats=repeats, config=config)
            )
    return suite


# ----------------------------------------------------------------------
# Figure 4: normalized runtimes
# ----------------------------------------------------------------------
def normalized_runtimes(
    suite: SuiteResult, baseline: str = "nopredtrans"
) -> dict[str, dict[str, float]]:
    """Per-query runtimes normalized to ``baseline`` plus a geomean row."""
    table: dict[str, dict[str, float]] = {}
    strategies = sorted({m.strategy for m in suite.measurements})
    for query in suite.queries():
        base = suite.get(query, baseline).seconds
        table[query] = {
            s: suite.get(query, s).seconds / base for s in strategies
        }
    geo = {
        s: math.exp(
            sum(math.log(row[s]) for row in table.values()) / len(table)
        )
        for s in strategies
    }
    table["geomean"] = geo
    return table


def speedup_summary(suite: SuiteResult) -> dict[str, float]:
    """Geomean speedup of predtrans over each other strategy (the
    paper's headline "3.3× over Bloom join" style numbers)."""
    norm = normalized_runtimes(suite)
    geo = norm["geomean"]
    return {
        s: geo[s] / geo["predtrans"] for s in geo if s != "predtrans"
    }


def format_fig4(suite: SuiteResult, title: str) -> str:
    """Render the Figure-4 table (normalized runtime per query)."""
    norm = normalized_runtimes(suite)
    strategies = sorted(next(iter(norm.values())))
    headers = ["query"] + strategies
    rows = [
        [query] + [format_ratio(norm[query][s]) for s in strategies]
        for query in norm
    ]
    return format_table(headers, rows, title=title)


# ----------------------------------------------------------------------
# Tables 1-2: Q5 per-join input sizes
# ----------------------------------------------------------------------
def join_size_table(
    catalog: Catalog,
    sf: float,
    strategies: tuple[str, ...] = STRATEGIES,
    query_id: int = 5,
) -> dict[str, list[tuple[str, int, int]]]:
    """HT/PR rows per join for each strategy (paper Tables 1–2)."""
    spec = get_query(query_id, sf=sf)
    out: dict[str, list[tuple[str, int, int]]] = {}
    for strategy in strategies:
        result = run_query(spec, catalog, strategy=strategy)
        out[strategy] = [
            (j.label, j.ht_rows, j.pr_rows) for j in result.stats.joins
        ]
    return out


def format_join_sizes(
    sizes: dict[str, list[tuple[str, int, int]]], title: str
) -> str:
    """Render the Tables 1–2 layout: one HT/PR column pair per strategy."""
    strategies = list(sizes)
    n_joins = len(next(iter(sizes.values())))
    headers = ["join"]
    for s in strategies:
        headers.extend([f"{s}.HT", f"{s}.PR"])
    rows = []
    for i in range(n_joins):
        row: list[object] = [sizes[strategies[0]][i][0]]
        for s in strategies:
            _, ht, pr = sizes[s][i]
            row.extend([ht, pr])
        rows.append(row)
    return format_table(headers, rows, title=title)


def total_join_input_reduction(
    sizes: dict[str, list[tuple[str, int, int]]], baseline: str, strategy: str
) -> float:
    """Fractional reduction of total join input rows vs a baseline
    (the paper's "98% over NoPredTrans" style claims)."""
    total = lambda s: sum(ht + pr for _, ht, pr in sizes[s])  # noqa: E731
    return 1.0 - total(strategy) / total(baseline)


# ----------------------------------------------------------------------
# Figure 5: phase breakdown
# ----------------------------------------------------------------------
def breakdown(
    catalog: Catalog,
    sf: float,
    strategies: tuple[str, ...] = STRATEGIES,
    query_id: int = 5,
    repeats: int = 2,
) -> dict[str, tuple[float, float]]:
    """(pre-filter seconds, join-phase seconds) per strategy."""
    spec = get_query(query_id, sf=sf)
    out = {}
    for strategy in strategies:
        m = time_query(spec, catalog, strategy, repeats=repeats)
        out[strategy] = (m.stats.prefilter_seconds, m.stats.joinphase_seconds)
    return out


def format_breakdown(parts: dict[str, tuple[float, float]], title: str) -> str:
    """Render the Figure-5 stacked bars as a table + bar chart."""
    headers = ["strategy", "prefilter_s", "join_s", "total_s"]
    rows = [
        [s, f"{p:.4f}", f"{j:.4f}", f"{p + j:.4f}"]
        for s, (p, j) in parts.items()
    ]
    table = format_table(headers, rows, title=title)
    chart = format_bar_chart(
        list(parts), [p + j for p, j in parts.values()], title="total time"
    )
    return f"{table}\n\n{chart}"


# ----------------------------------------------------------------------
# Figure 6: join-order robustness
# ----------------------------------------------------------------------
def join_order_runtimes(
    catalog: Catalog,
    sf: float,
    join_orders: dict[str, list[str]],
    strategies: tuple[str, ...] = STRATEGIES,
    query_id: int = 5,
    repeats: int = 2,
) -> dict[str, dict[str, float]]:
    """Runtime per (join order, strategy) — paper Figure 6."""
    spec = get_query(query_id, sf=sf)
    out: dict[str, dict[str, float]] = {}
    for name, order in join_orders.items():
        out[name] = {}
        for strategy in strategies:
            m = time_query(
                spec, catalog, strategy, repeats=repeats, join_order=list(order)
            )
            out[name][strategy] = m.seconds
    return out


def variance_ratio(times: dict[str, dict[str, float]], strategy: str) -> float:
    """max/min runtime over join orders for one strategy (robustness)."""
    values = [row[strategy] for row in times.values()]
    return max(values) / min(values)


def format_join_orders(times: dict[str, dict[str, float]], title: str) -> str:
    """Render the Figure-6 grid."""
    strategies = sorted(next(iter(times.values())))
    headers = ["join_order"] + strategies
    rows = [
        [name] + [f"{times[name][s]:.4f}" for s in strategies]
        for name in times
    ]
    rows.append(
        ["max/min"] + [f"{variance_ratio(times, s):.2f}x" for s in strategies]
    )
    return format_table(headers, rows, title=title)
