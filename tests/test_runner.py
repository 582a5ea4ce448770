"""Unit tests for the query runner across all four strategies."""

import numpy as np
import pytest

from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.core.transfer import TransferConfig
from repro.engine.aggregate import AggSpec, GroupKey
from repro.errors import PlanError
from repro.expr.nodes import ScalarRef, col, lit
from repro.plan.query import (
    Aggregate,
    Filter,
    Limit,
    Project,
    QuerySpec,
    Relation,
    Sort,
    Stage,
    edge,
)
from repro.storage.catalog import Catalog
from repro.storage.table import Table


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        Table.from_pydict(
            "emp",
            {
                "eid": [1, 2, 3, 4],
                "dept": [10, 10, 20, 30],
                "salary": [100.0, 200.0, 300.0, 400.0],
            },
        )
    )
    cat.register(
        Table.from_pydict(
            "dept", {"did": [10, 20, 40], "dname": ["eng", "ops", "empty"]}
        )
    )
    cat.register(
        Table.from_pydict("bonus", {"beid": [1, 1, 3], "amount": [5.0, 6.0, 7.0]})
    )
    return cat


def _spec(**kwargs):
    defaults = dict(
        name="q",
        relations=[Relation("e", "emp"), Relation("d", "dept")],
        edges=[edge("e", "d", ("dept", "did"))],
    )
    defaults.update(kwargs)
    return QuerySpec(**defaults)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_inner_join_all_strategies(catalog, strategy):
    res = run_query(_spec(), catalog, strategy=strategy)
    got = sorted(
        (r[0], r[4]) for r in res.table.to_rows()
    )  # (eid, dname)
    assert got == [(1, "eng"), (2, "eng"), (3, "ops")]
    assert res.stats.strategy == strategy
    assert len(res.stats.joins) == 1
    # Every strategy accounts its shipped filters through the one
    # kernel: a filter per traversed edge, sized, none without a phase.
    transfer = res.stats.transfer
    # predtrans' gate skips neither edge: dept 40 has no employee and
    # department 30 no dept row, so neither side covers the other.
    shipped = {"nopredtrans": 0, "bloomjoin": 1, "yannakakis": 2, "predtrans": 2}
    assert transfer.edges_traversed == shipped[strategy], [
        (e.src, e.dst, e.decision) for e in transfer.edges
    ]
    assert transfer.edges_pruned == 0
    assert (transfer.filter_bytes > 0) == (shipped[strategy] > 0)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_left_join_all_strategies(catalog, strategy):
    spec = _spec(edges=[edge("e", "d", ("dept", "did"), how="left")])
    res = run_query(spec, catalog, strategy=strategy)
    by_eid = {r[0]: r[4] for r in res.table.to_rows()}
    assert by_eid == {1: "eng", 2: "eng", 3: "ops", 4: None}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_semi_join_all_strategies(catalog, strategy):
    spec = _spec(
        relations=[Relation("e", "emp"), Relation("b", "bonus")],
        edges=[edge("e", "b", ("eid", "beid"), how="semi")],
    )
    res = run_query(spec, catalog, strategy=strategy)
    assert sorted(r[0] for r in res.table.to_rows()) == [1, 3]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_anti_join_all_strategies(catalog, strategy):
    spec = _spec(
        relations=[Relation("e", "emp"), Relation("b", "bonus")],
        edges=[edge("e", "b", ("eid", "beid"), how="anti")],
    )
    res = run_query(spec, catalog, strategy=strategy)
    assert sorted(r[0] for r in res.table.to_rows()) == [2, 4]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_local_predicates_applied(catalog, strategy):
    spec = _spec(
        relations=[
            Relation("e", "emp", col("e.salary").gt(lit(150.0))),
            Relation("d", "dept"),
        ]
    )
    res = run_query(spec, catalog, strategy=strategy)
    assert sorted(res.table.column("e.eid").to_pylist()) == [2, 3]


def test_single_relation_query(catalog):
    spec = QuerySpec(
        "q",
        relations=[Relation("e", "emp", col("e.dept").eq(lit(10)))],
        post=[
            Aggregate(
                keys=(), aggs=(AggSpec("sum", col("e.salary"), "total"),)
            )
        ],
    )
    res = run_query(spec, catalog, strategy="predtrans")
    assert res.table.to_rows() == [(300.0,)]


def test_post_pipeline(catalog):
    spec = _spec(
        post=[
            Aggregate(
                keys=(GroupKey("dname", col("d.dname")),),
                aggs=(AggSpec("sum", col("e.salary"), "total"),),
            ),
            Filter(col("total").gt(lit(250.0))),
            Project((("dname", col("dname")), ("total", col("total")))),
            Sort((("total", "desc"),)),
            Limit(5),
        ]
    )
    res = run_query(spec, catalog, strategy="predtrans")
    assert res.table.to_rows() == [("eng", 300.0), ("ops", 300.0)]


def test_pre_stage_and_scalar_ref(catalog):
    stage = Stage(
        QuerySpec(
            "avg_salary",
            relations=[Relation("e", "emp")],
            post=[
                Aggregate(
                    keys=(), aggs=(AggSpec("avg", col("e.salary"), "a"),)
                )
            ],
        ),
        "avg_salary",
    )
    spec = _spec(
        relations=[
            Relation(
                "e", "emp", col("e.salary").gt(ScalarRef("avg_salary", "a"))
            ),
            Relation("d", "dept"),
        ],
        pre_stages=[stage],
    )
    res = run_query(spec, catalog, strategy="predtrans")
    # avg salary 250 -> employees 3 and 4; eid 4 has no dept -> only 3.
    assert [r[0] for r in res.table.to_rows()] == [3]
    assert len(list(res.stats.blocks())) == 2  # one pre-stage


def test_derived_table_as_relation(catalog):
    stage = Stage(
        QuerySpec(
            "dept_total",
            relations=[Relation("e", "emp")],
            post=[
                Aggregate(
                    keys=(GroupKey("dept", col("e.dept")),),
                    aggs=(AggSpec("sum", col("e.salary"), "total"),),
                )
            ],
        ),
        "dept_total",
    )
    spec = QuerySpec(
        "q",
        relations=[Relation("d", "dept"), Relation("t", "dept_total")],
        edges=[edge("d", "t", ("did", "dept"))],
        pre_stages=[stage],
    )
    res = run_query(spec, catalog, strategy="predtrans")
    got = sorted((r[1], r[3]) for r in res.table.to_rows())
    assert got == [("eng", 300.0), ("ops", 300.0)]


def test_global_residual_applied_when_available(catalog):
    spec = _spec(
        relations=[Relation("e", "emp"), Relation("d", "dept")],
        residuals=[col("e.salary").gt(lit(150.0)) & col("d.dname").eq(lit("eng"))],
    )
    res = run_query(spec, catalog, strategy="nopredtrans")
    assert [r[0] for r in res.table.to_rows()] == [2]


def test_join_order_override(catalog):
    res = run_query(_spec(), catalog, strategy="predtrans", join_order=["d", "e"])
    assert res.table.num_rows == 3
    with pytest.raises(PlanError):
        run_query(_spec(), catalog, strategy="predtrans", join_order=["d"])


def test_cross_product_executes_components_independently(catalog):
    spec = QuerySpec(
        "q",
        relations=[
            Relation("e", "emp"),
            Relation("d", "dept"),
            Relation("b", "bonus"),
        ],
        edges=[edge("e", "d", ("dept", "did"))],
    )
    for strategy in STRATEGIES:
        res = run_query(spec, catalog, strategy=strategy)
        # emp ⋈ dept = 3 rows (depts 10, 10, 20), × 3 bonus rows.
        assert res.table.num_rows == 9
        assert any(j.label.startswith("Cross") for j in res.stats.joins)


def test_cross_product_residual_applies_after_cross_join(catalog):
    spec = QuerySpec(
        "q",
        relations=[Relation("e", "emp"), Relation("b", "bonus")],
        edges=[],
        residuals=[col("e.eid").eq(col("b.beid"))],
    )
    for strategy in STRATEGIES:
        res = run_query(spec, catalog, strategy=strategy)
        # The residual turns the cross product back into an equi-match:
        # eid 1 has two bonus rows, eid 3 one.
        assert res.table.num_rows == 3


def test_bad_join_order_within_component_rejected(catalog):
    spec = QuerySpec(
        "q",
        relations=[
            Relation("e", "emp"),
            Relation("d", "dept"),
            Relation("b", "bonus"),
        ],
        edges=[edge("e", "d", ("dept", "did")), edge("e", "b", ("eid", "beid"))],
    )
    # d and b are not adjacent: joining them before e breaks the
    # component's connectivity, which is a planning error (a genuine
    # cross product would be a disconnected *graph*, not a bad order).
    with pytest.raises(PlanError, match="disconnects component"):
        run_query(spec, catalog, strategy="nopredtrans", join_order=["d", "b", "e"])


def test_exact_transfer_config(catalog):
    config = RunConfig(
        strategy="predtrans", transfer=TransferConfig(filter_type="exact")
    )
    res = run_query(_spec(), catalog, config=config)
    assert res.table.num_rows == 3
    # Exact filters over dense keys ship as bitmaps, never as Bloom.
    assert res.stats.transfer.inserted("bitmap") > 0
    assert res.stats.transfer.inserted("bloom") == 0


def test_unknown_strategy_rejected():
    with pytest.raises(PlanError):
        RunConfig(strategy="turbo")


def test_strategy_arg_overrides_config(catalog):
    config = RunConfig(strategy="nopredtrans")
    res = run_query(_spec(), catalog, strategy="predtrans", config=config)
    assert res.stats.strategy == "predtrans"


def test_phase_timers_populated(catalog):
    res = run_query(_spec(), catalog, strategy="predtrans")
    assert res.stats.transfer_seconds >= 0.0
    assert res.stats.join_seconds >= 0.0
    assert res.stats.total_seconds > 0.0


def test_transfer_reduces_inputs(catalog):
    spec = _spec(
        relations=[
            Relation("e", "emp", col("e.dept").eq(lit(10))),
            Relation("d", "dept"),
        ]
    )
    res = run_query(spec, catalog, strategy="predtrans")
    # dept must be reduced by the filter on emp (d=40 and d=20 dropped).
    assert res.stats.transfer.rows_after["d"] <= 1
