"""TPC-H Q5 case study (paper §4.3, Figures 1, 5 and 6, Tables 1–2).

Generates a TPC-H instance, prints the Q5 join graph and predicate
transfer graph (Figure 1), what every transfer edge did — for Q5 as
written, and with its local predicates stripped, where most edges carry
no information and the schedule's gate skips them — the per-join HT/PR
table (Tables 1–2), the phase breakdown (Figure 5), and the join-order
robustness grid (Figure 6).

Run:  python examples/tpch_q5_case_study.py [scale_factor]
"""

from __future__ import annotations

import dataclasses
import sys

from repro.bench.harness import (
    breakdown,
    format_breakdown,
    format_join_orders,
    format_join_sizes,
    join_order_runtimes,
    join_size_table,
    total_join_input_reduction,
)
from repro.core.ptgraph import build_pt_graph
from repro.core.runner import (
    RunConfig,
    _scan,  # noqa: SLF001 - example introspection
    run_query,
)
from repro.core.transfer import ExecContext
from repro.engine.stats import format_edges
from repro.plan.joingraph import build_join_graph
from repro.tpch import generate_tpch
from repro.tpch.queries import Q5_JOIN_ORDERS, get_query


def print_graphs(catalog, sf: float) -> None:
    """Figure 1: the Q5 join graph and its transfer-graph orientation."""
    spec = get_query(5, sf=sf)
    join_graph = build_join_graph(spec)
    print("Join graph (Figure 1a):")
    for u, v, data in join_graph.edges(data=True):
        keys = ", ".join(f"{a}={b}" for a, b in data["keys"])
        print(f"  {u} -- {v}  on {keys}")
    ctx = ExecContext()
    _scan(ctx, spec, catalog, RunConfig())
    sizes = ctx.row_counts()
    pt = build_pt_graph(join_graph, sizes)
    print("\nPredicate transfer graph (Figure 1b; small table -> big table):")
    for src, dst in sorted(pt.digraph.edges):
        print(f"  {src} ({sizes[src]} rows) -> {dst} ({sizes[dst]} rows)")


def print_edges(catalog, sf: float) -> None:
    """The mechanism, edge by edge (``repro tpch --query 5 --analyze``)."""
    spec = get_query(5, sf=sf)
    stripped = dataclasses.replace(
        spec,
        name="q5_stripped",
        relations=[dataclasses.replace(r, predicate=None) for r in spec.relations],
    )
    for variant in (spec, stripped):
        stats = run_query(variant, catalog, strategy="predtrans").stats
        print()
        print(format_edges(stats, title=f"Transfer edges of {variant.name}"))
        print(
            f"{stats.transfer.edges_traversed} filters shipped, "
            f"{stats.transfer.edges_pruned} edges skipped, "
            f"{stats.transfer.reduction():.1%} of rows pre-filtered"
        )


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.05
    print(f"Generating TPC-H at SF={sf} ...")
    catalog = generate_tpch(sf=sf, seed=0)

    print_graphs(catalog, sf)
    print_edges(catalog, sf)

    sizes = join_size_table(catalog, sf=sf)
    print()
    print(format_join_sizes(sizes, title=f"Q5 join sizes (Tables 1-2, SF={sf})"))
    reduction = total_join_input_reduction(sizes, "nopredtrans", "predtrans")
    print(f"\nPredTrans cuts total join input rows by {reduction:.1%}")

    parts = breakdown(catalog, sf=sf)
    print()
    print(format_breakdown(parts, title="Q5 phase breakdown (Figure 5)"))

    times = join_order_runtimes(catalog, sf=sf, join_orders=Q5_JOIN_ORDERS)
    print()
    print(format_join_orders(times, title="Q5 join-order robustness (Figure 6)"))


if __name__ == "__main__":
    main()
