"""TPC-H Q20 — potential part promotion.

The nested IN subqueries decorrelate into nested pre-stages: the
qualifying-supplier key set (partsupp of forest parts with availqty
above half the shipped quantity) is the main block's stage, and the
per-(part,supplier) shipped-quantity aggregate over 1994 lineitems is
a stage of that stage, its only reader.  The main block semi-joins
supplier against the key set.  Nested this way, each grouped stage is
read only by its consumer's join, so predicate transfer can run it
after the consumer's transfer phase, pre-filtered on its group key
(:mod:`repro.core.prestage`).
"""

from __future__ import annotations

from ...engine.aggregate import AggSpec, GroupKey
from ...expr.nodes import col, date, lit
from ...plan.query import Aggregate, Project, QuerySpec, Relation, Sort, Stage, edge


def _shipped_stage() -> Stage:
    spec = QuerySpec(
        name="q20_shipped",
        relations=[
            Relation(
                "l",
                "lineitem",
                col("l.l_shipdate").ge(date("1994-01-01"))
                & col("l.l_shipdate").lt(date("1995-01-01")),
            )
        ],
        post=[
            Aggregate(
                keys=(
                    GroupKey("partkey", col("l.l_partkey")),
                    GroupKey("suppkey", col("l.l_suppkey")),
                ),
                aggs=(AggSpec("sum", col("l.l_quantity"), "sum_qty"),),
            )
        ],
    )
    return Stage(spec, "q20_shipped")


def _suppkeys_stage() -> Stage:
    spec = QuerySpec(
        name="q20_suppkeys",
        pre_stages=[_shipped_stage()],
        relations=[
            Relation("ps", "partsupp"),
            Relation("fp", "part", col("fp.p_name").like("forest%")),
            Relation("lq", "q20_shipped"),
        ],
        edges=[
            edge("ps", "fp", ("ps_partkey", "p_partkey"), how="semi"),
            edge(
                "ps",
                "lq",
                [("ps_partkey", "partkey"), ("ps_suppkey", "suppkey")],
            ),
        ],
        residuals=[
            col("ps.ps_availqty").gt(lit(0.5) * col("lq.sum_qty")),
        ],
        post=[
            Aggregate(
                keys=(GroupKey("suppkey", col("ps.ps_suppkey")),), aggs=()
            )
        ],
    )
    return Stage(spec, "q20_suppkeys")


def build(sf: float = 1.0) -> QuerySpec:
    """Build the Q20 specification."""
    return QuerySpec(
        name="q20",
        pre_stages=[_suppkeys_stage()],
        relations=[
            Relation("s", "supplier"),
            Relation("n", "nation", col("n.n_name").eq(lit("CANADA"))),
            Relation("k", "q20_suppkeys"),
        ],
        edges=[
            edge("s", "n", ("s_nationkey", "n_nationkey")),
            edge("s", "k", ("s_suppkey", "suppkey"), how="semi"),
        ],
        post=[
            Project(
                (("s_name", col("s.s_name")), ("s_address", col("s.s_address")))
            ),
            Sort((("s_name", "asc"),)),
        ],
    )
