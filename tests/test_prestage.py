"""Deferred pre-stages: transfer into a grouped subquery.

Predicate transfer and Yannakakis run a grouped pre-stage after the
outer block's transfer phase and pre-filter its input on the group key
(:mod:`repro.core.prestage`).  These tests pin the rule, the exact
operation count it saves (``rows_aggregated``), that results are those
of the undeferred executor, and the shapes where pushing a key filter
would change the answer and the rule must leave the stage alone.
"""

from __future__ import annotations

import time

import pytest

from repro.cache.store import FilterCache
from repro.core import runner
from repro.core.prestage import plan_deferrals
from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.engine.aggregate import AggSpec, GroupKey
from repro.engine.stats import format_edges
from repro.expr.nodes import ScalarRef, col, lit
from repro.obs.trace import spans_from_stats
from repro.plan.query import (
    Aggregate,
    Filter,
    Limit,
    QuerySpec,
    Relation,
    Sort,
    Stage,
    edge,
)
from repro.service.workload import result_digest
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.tpch.queries import get_query

SF = 0.01


def _seed_edges(stats):
    return [e for block in stats.blocks() for e in block.transfer.edges if e.seeds]


def _seeded_stages(stats):
    return [block.query for block in stats.blocks() if block.seeded]


def _rows(table):
    """Rows as column-name -> value maps, in a canonical order: the
    join phase may pick other build sides once a stage output shrinks,
    which reorders the columns and rows of an unprojected result."""
    names = table.column_names
    return sorted(
        (sorted(zip(names, row)) for row in table.to_rows()), key=repr
    )


def _undeferred(monkeypatch, spec, catalog, strategy):
    """The same strategy with no stage deferred: the executor before
    deferral existed."""
    with monkeypatch.context() as patch:
        patch.setattr(runner, "plan_deferrals", lambda spec, strategy: [])
        return run_query(spec, catalog, strategy=strategy)


# ----------------------------------------------------------------------
# The rule on the TPC-H stage queries
# ----------------------------------------------------------------------
def test_rule_on_tpch_stages():
    deferred = {
        q: [d.stage.output for d in plan_deferrals(get_query(q), "predtrans")]
        for q in (2, 11, 15, 17, 18, 20, 21, 22)
    }
    assert deferred == {
        2: ["q2_mincost"],
        11: [],  # scalar, read by a ScalarRef
        15: [],  # read by a later stage and a ScalarRef
        17: ["q17_avgqty"],
        18: [],  # c, o and l carry no predicate
        20: ["q20_suppkeys"],
        21: ["q21_nsupp", "q21_nlate"],
        22: [],  # scalar
    }
    # Q20's shipped-quantity stage is deferred inside its only reader,
    # seeded by partsupp on both group keys.
    (inner,) = plan_deferrals(get_query(20).pre_stages[0].spec, "yannakakis")
    assert inner.stage.output == "q20_shipped"
    (seed,) = inner.edges
    assert (seed.neighbour, seed.stage_alias) == ("ps", "l")
    assert seed.stage_keys == ("l.l_partkey", "l.l_suppkey")
    for strategy in ("nopredtrans", "bloomjoin"):
        assert plan_deferrals(get_query(21), strategy) == []


@pytest.mark.parametrize("qid", [17, 20, 21])
def test_rows_aggregated_fall(small_catalog, qid):
    spec = get_query(qid, sf=SF)
    base = run_query(spec, small_catalog, strategy="nopredtrans").stats
    seeded = run_query(spec, small_catalog, strategy="predtrans").stats
    assert seeded.total("rows_aggregated") < base.total("rows_aggregated")
    assert _seeded_stages(seeded) and _seed_edges(seeded)
    assert not _seeded_stages(base) and not _seed_edges(base)
    for edge_stat in _seed_edges(seeded):
        assert edge_stat.shipped and edge_stat.rows_probed > 0


def test_rows_aggregated_equal_when_nothing_is_deferred(small_catalog):
    spec = get_query(18, sf=SF)
    base = run_query(spec, small_catalog, strategy="nopredtrans").stats
    ran = run_query(spec, small_catalog, strategy="predtrans").stats
    assert ran.total("rows_aggregated") == base.total("rows_aggregated") > 0
    assert not _seeded_stages(ran) and not _seed_edges(ran)


@pytest.mark.parametrize("qid", [2, 17, 18, 20, 21])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_results_equal_undeferred(monkeypatch, small_catalog, qid, strategy):
    spec = get_query(qid, sf=SF)
    got = run_query(spec, small_catalog, strategy=strategy)
    want = _undeferred(monkeypatch, spec, small_catalog, strategy)
    assert result_digest(got.table) == result_digest(want.table)
    if strategy in ("nopredtrans", "bloomjoin"):
        assert not _seeded_stages(got.stats) and not _seed_edges(got.stats)


def test_warm_cache_run_equals_cold(small_catalog):
    """The stage's scan, filter and whole-prefilter artifacts are an
    unseeded run's, so a warm run returns the cold run's bytes."""
    spec = get_query(21, sf=SF)
    cold = result_digest(run_query(spec, small_catalog).table)
    config = RunConfig(filter_cache=FilterCache())
    first = run_query(spec, small_catalog, config=config)
    second = run_query(spec, small_catalog, config=config)
    assert result_digest(first.table) == result_digest(second.table) == cold
    assert second.stats.total("filter_cache_hits") > 0


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_seed_edges_are_reported_and_timed_once(small_catalog):
    spec = get_query(21, sf=SF)
    start = time.perf_counter()
    result = run_query(spec, small_catalog, strategy="predtrans")
    wall = time.perf_counter() - start
    stats = result.stats
    # The consumer's transfer phase stops its clock while the deferred
    # stages run: nothing is counted twice.
    assert stats.total_seconds <= wall
    table = format_edges(stats, title="edges")
    assert "l1 -> a (seeds q21_nsupp)" in table
    assert "l1 -> b (seeds q21_nlate)" in table
    stage_spans = [s for s in spans_from_stats(stats) if s.name.startswith("stage[")]
    assert [s.attrs.get("seeded") for s in stage_spans] == [True, True]


# ----------------------------------------------------------------------
# Shapes where a key filter would change the answer
# ----------------------------------------------------------------------
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
    return cat


def _totals(*post) -> Stage:
    """Salary per department, then ``post``."""
    spec = QuerySpec(
        "totals",
        relations=[Relation("e", "emp")],
        post=[
            Aggregate(
                keys=(GroupKey("dept", col("e.dept")),),
                aggs=(AggSpec("sum", col("e.salary"), "total"),),
            ),
            *post,
        ],
    )
    return Stage(spec, "totals")


_ENG = col("d.dname").eq(lit("eng"))


def _outer(stage: Stage, how: str = "inner", **extra) -> QuerySpec:
    relations = extra.pop(
        "relations", [Relation("t", "totals"), Relation("d", "dept", _ENG)]
    )
    return QuerySpec(
        "q",
        relations=relations,
        edges=[edge("t", "d", ("dept", "did"), how=how)],
        pre_stages=[stage],
        **extra,
    )


def test_deferred_stage_with_having(catalog):
    """The positive twin of the shapes below: a grouped stage with a
    HAVING filter, read by an inner join to a filtered relation."""
    spec = _outer(_totals(Filter(col("total").gt(lit(250.0)))))
    assert [d.relation for d in plan_deferrals(spec, "predtrans")] == ["t"]
    base = run_query(spec, catalog, strategy="nopredtrans")
    for strategy in ("predtrans", "yannakakis"):
        got = run_query(spec, catalog, strategy=strategy)
        assert _rows(got.table) == _rows(base.table)
        assert got.table.num_rows == 1
        (seed,) = _seed_edges(got.stats)
        assert (seed.src, seed.dst, seed.seeds) == ("d", "t", "totals")
        assert (seed.rows_probed, seed.rows_passed) == (4, 2)
        assert got.stats.total("rows_aggregated") == 2


@pytest.mark.parametrize(
    "spec",
    [
        # Top-k groups: seeded with dept 10, the top group would be 10.
        _outer(_totals(Sort((("total", "desc"),)), Limit(1))),
        # The stage output is the preserved side of an outer join ...
        _outer(_totals(), how="left"),
        # ... or of an anti join: dropping groups would keep more rows.
        _outer(_totals(), how="anti"),
        # Read by a ScalarRef too: the one-row table must stay whole.
        _outer(
            _totals(Filter(col("total").ge(lit(400.0)))),
            relations=[
                Relation("t", "totals"),
                Relation("d", "dept", _ENG),
                Relation("e", "emp", col("e.salary").ge(ScalarRef("totals", "total"))),
            ],
        ),
    ],
    ids=["top-k", "left", "anti", "scalar-ref"],
)
@pytest.mark.parametrize("strategy", ["predtrans", "yannakakis"])
def test_rule_leaves_unsafe_shapes_alone(catalog, spec, strategy):
    assert plan_deferrals(spec, strategy) == []
    got = run_query(spec, catalog, strategy=strategy)
    assert not _seed_edges(got.stats)
    assert not _seeded_stages(got.stats)
    want = run_query(spec, catalog, strategy="nopredtrans")
    assert _rows(got.table) == _rows(want.table)
