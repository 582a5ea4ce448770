"""TPC-H Q13 — customer distribution.

A left outer join (customers without orders must survive), so predicate
transfer is blocked in the orders→customer direction; the paper lists
Q13 among the queries whose speedup is limited by direction blocking.

The runner counts the orders before the join instead
(:func:`repro.plan.rewrite.eager_counts`): a stage ``q13_o_counts``
groups the qualifying orders by ``o_custkey``, the customers left-join
its one row per customer, and ``count(o.o_orderkey)`` becomes a sum of
those partial counts, NULL adding 0.  At SF 0.1 the join reads 25 000
rows instead of 163 048, under every strategy.
"""

from __future__ import annotations

from ...engine.aggregate import AggSpec, GroupKey
from ...expr.nodes import col
from ...plan.query import Aggregate, QuerySpec, Relation, Sort, edge


def build(sf: float = 1.0) -> QuerySpec:
    """Build the Q13 specification."""
    return QuerySpec(
        name="q13",
        relations=[
            Relation("c", "customer"),
            Relation(
                "o", "orders", col("o.o_comment").not_like("%special%requests%")
            ),
        ],
        edges=[edge("c", "o", ("c_custkey", "o_custkey"), how="left")],
        post=[
            Aggregate(
                keys=(GroupKey("c_custkey", col("c.c_custkey")),),
                aggs=(AggSpec("count", col("o.o_orderkey"), "c_count"),),
            ),
            Aggregate(
                keys=(GroupKey("c_count", col("c_count")),),
                aggs=(AggSpec("count_star", None, "custdist"),),
            ),
            Sort((("custdist", "desc"), ("c_count", "desc"))),
        ],
    )
