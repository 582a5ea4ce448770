"""Beyond-Figure-4 query shapes: cyclic, self-join and cross-product.

The paper's central claim is that predicate transfer generalizes
Bloom-filter pre-filtering beyond the acyclic queries Yannakakis
handles well; these three queries exercise exactly the shapes a
spanning-tree plan struggles with, over the small TPC-H dimension
tables so they stay cheap at any scale factor:

* ``c1`` — a **triangle cycle**: supplier–customer pairs in the same
  nation, with the supplier–customer nationkey edge closing the
  supplier–nation–customer triangle.  Both sides repeat the nation key,
  so as written the join builds every pair (15 M with the predicates
  stripped at SF 0.5); the runner aggregates supplier and customer per
  nation key first (:func:`repro.plan.rewrite.eager_aggregation`), and
  every join reads at most 25 rows.
* ``c2`` — a **self-join cycle**: two alias occurrences of ``nation``
  joined to each other and both to ``region`` (another triangle), with
  a residual ordering predicate producing unordered nation pairs.
* ``c3`` — a **cross product** (disconnected join graph): a filtered
  nation⋈region component combined with an independently filtered
  supplier component.

They run under every strategy with results byte-identical to the eager
executor (``tests/test_cyclic_queries.py``) and are registered in the
bench/CLI/workload layers under ``CYCLIC_QUERY_IDS``.
"""

from __future__ import annotations

from ...engine.aggregate import AggSpec, GroupKey
from ...expr.nodes import col, lit
from ...plan.query import Aggregate, QuerySpec, Relation, Sort, edge


def build_c1(sf: float = 1.0) -> QuerySpec:
    """Triangle: suppliers and customers co-located per nation.

    ``pairs`` counts the supplier–customer pairs per nation and
    ``supplier_acctbal`` sums each supplier's balance once per pair.
    Runs as pre-stages ``c1_s_counts`` (suppliers, their balance sum
    per nation key) and ``c1_c_counts`` (customers per nation key)
    joined to nation.  At SF 0.5 each sum is within 1e-15 relative of
    its exact integer-cent total; the pairwise plan's were off by up to
    1.6e-12.
    """
    return QuerySpec(
        name="c1",
        relations=[
            Relation("s", "supplier", col("s.s_acctbal").gt(lit(0.0))),
            Relation("c", "customer", col("c.c_mktsegment").eq(lit("BUILDING"))),
            Relation("n", "nation"),
        ],
        edges=[
            edge("s", "n", ("s_nationkey", "n_nationkey")),
            edge("c", "n", ("c_nationkey", "n_nationkey")),
            # Transitively implied, but it closes the cycle — exactly
            # the Fig. 1 pattern on a dimension-only footprint.
            edge("s", "c", ("s_nationkey", "c_nationkey")),
        ],
        post=[
            Aggregate(
                keys=(GroupKey("n_name", col("n.n_name")),),
                aggs=(
                    AggSpec("count", col("n.n_nationkey"), "pairs"),
                    AggSpec("sum", col("s.s_acctbal"), "supplier_acctbal"),
                ),
            ),
            Sort((("n_name", "asc"),)),
        ],
    )


def build_c2(sf: float = 1.0) -> QuerySpec:
    """Self-join cycle: unordered nation pairs within a region."""
    return QuerySpec(
        name="c2",
        relations=[
            Relation("n1", "nation"),
            Relation("n2", "nation"),
            Relation(
                "r", "region", col("r.r_name").isin(("ASIA", "EUROPE"))
            ),
        ],
        edges=[
            edge("n1", "r", ("n_regionkey", "r_regionkey")),
            edge("n2", "r", ("n_regionkey", "r_regionkey")),
            edge(
                "n1",
                "n2",
                ("n_regionkey", "n_regionkey"),
                residual=col("n1.n_nationkey").lt(col("n2.n_nationkey")),
            ),
        ],
        post=[
            Aggregate(
                keys=(GroupKey("r_name", col("r.r_name")),),
                aggs=(AggSpec("count", col("r.r_regionkey"), "nation_pairs"),),
            ),
            Sort((("r_name", "asc"),)),
        ],
    )


def build_c3(sf: float = 1.0) -> QuerySpec:
    """Cross product: African nations × top-balance suppliers."""
    return QuerySpec(
        name="c3",
        relations=[
            Relation("n", "nation"),
            Relation("r", "region", col("r.r_name").eq(lit("AFRICA"))),
            Relation("s", "supplier", col("s.s_acctbal").gt(lit(9000.0))),
        ],
        edges=[
            edge("n", "r", ("n_regionkey", "r_regionkey")),
            # No edge to "s": two connected components, combined by the
            # runner's cross join.
        ],
        post=[
            Aggregate(
                keys=(GroupKey("n_name", col("n.n_name")),),
                aggs=(
                    AggSpec("count", col("s.s_suppkey"), "suppliers"),
                    AggSpec("sum", col("s.s_acctbal"), "acctbal"),
                ),
            ),
            Sort((("n_name", "asc"),)),
        ],
    )
