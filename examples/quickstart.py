"""Quickstart: predicate transfer on the paper's Figure 3 example.

Builds the three-table join R ⋈ S ⋈ T, runs it under all four
strategies, and prints how many rows each strategy fed to the join
phase — the essence of the paper in thirty lines of API.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Catalog, Table
from repro.core import run_query
from repro.expr import col, lit
from repro.plan import QuerySpec, Relation, edge


def build_catalog() -> Catalog:
    """Three tables joined in a chain on B and C (paper Fig. 3)."""
    catalog = Catalog()
    catalog.register(
        Table.from_pydict("r", {"a": [10, 20, 30], "b": [1, 2, 3]})
    )
    catalog.register(
        Table.from_pydict(
            "s", {"b": [1, 4, 2, 5, 3], "c": [100, 200, 300, 400, 500]}
        )
    )
    catalog.register(
        Table.from_pydict(
            "t",
            {
                "c": [100, 300, 600, 700, 800, 900],
                "d": [7, 8, 9, 0, 1, 2],
            },
        )
    )
    return catalog


def build_query() -> QuerySpec:
    """SELECT * FROM r, s, t WHERE r.b = s.b AND s.c = t.c AND r.a < 30."""
    return QuerySpec(
        name="fig3",
        relations=[
            Relation("r", "r", col("r.a").lt(lit(30))),
            Relation("s", "s"),
            Relation("t", "t"),
        ],
        edges=[
            edge("r", "s", ("b", "b")),
            edge("s", "t", ("c", "c")),
        ],
    )


def main() -> None:
    catalog = build_catalog()
    spec = build_query()
    print("Join result (identical under every strategy):\n")
    for strategy in ("nopredtrans", "bloomjoin", "yannakakis", "predtrans"):
        result = run_query(spec, catalog, strategy=strategy)
        transfer = result.stats.transfer
        join_inputs = sum(
            j.ht_rows + j.pr_rows
            for block in result.stats.blocks()
            for j in block.joins
        )
        print(
            f"{strategy:12s}: {result.table.num_rows} result rows, "
            f"{transfer.total_rows_after():3d}/{transfer.total_rows_before():3d} "
            f"rows survive pre-filtering, {join_inputs} join-input rows"
        )
    print()
    print(run_query(spec, catalog, strategy="predtrans").table.format())


if __name__ == "__main__":
    main()
