"""Late-materialization oracle tests.

The eager executor (``RunConfig(materialize="eager")``) is kept for
exactly one purpose: it is the equivalence oracle for the
late-materialized pipeline.  Every bench query under every strategy
must produce **byte-identical** output tables — same column names in
the same order, same physical buffers, same null masks — under both
executors.  Join edge cases the view layer must preserve (outer-join
null extension, semi/anti with residuals, empty selection vectors) get
dedicated runner-level coverage.
"""

import numpy as np
import pytest

from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.expr.nodes import col, lit
from repro.plan.pruning import live_columns
from repro.plan.query import Project, QuerySpec, Relation, edge
from repro.ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
from repro.storage.catalog import Catalog
from repro.storage.column import DType
from repro.storage.table import Table
from repro.tpch.queries import BENCH_QUERY_IDS, get_query

from .conftest import SMALL_SF


def assert_tables_identical(lazy: Table, eager: Table, label: str) -> None:
    """Byte-level equality: schema, order, buffers and null masks."""
    assert lazy.column_names == eager.column_names, f"{label}: column order"
    assert lazy.num_rows == eager.num_rows, f"{label}: row count"
    for name in lazy.column_names:
        a, b = lazy.column(name), eager.column(name)
        assert a.dtype is b.dtype, f"{label}.{name}: dtype"
        assert np.array_equal(
            a.validity(), b.validity()
        ), f"{label}.{name}: null masks"
        if a.dtype is DType.STRING:
            # Dictionaries may differ in unused entries; decoded values
            # must match exactly (nulls already checked above).
            ok = a.validity()
            assert np.array_equal(
                a.to_values()[ok], b.to_values()[ok]
            ), f"{label}.{name}: decoded strings"
        else:
            ok = a.validity()
            assert np.array_equal(
                a.data[ok], b.data[ok]
            ), f"{label}.{name}: physical values"


def _run_both(spec, catalog, strategy):
    lazy = run_query(
        spec, catalog, config=RunConfig(strategy=strategy, materialize="lazy")
    )
    eager = run_query(
        spec, catalog, config=RunConfig(strategy=strategy, materialize="eager")
    )
    return lazy, eager


# ----------------------------------------------------------------------
# The oracle sweep: every bench query x every strategy.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("qid", BENCH_QUERY_IDS)
def test_tpch_lazy_matches_eager_oracle(small_catalog, qid):
    spec = get_query(qid, sf=SMALL_SF)
    for strategy in STRATEGIES:
        lazy, eager = _run_both(spec, small_catalog, strategy)
        assert_tables_identical(
            lazy.table, eager.table, f"q{qid}/{strategy}"
        )


@pytest.mark.parametrize("qid", ALL_SSB_QUERY_IDS)
def test_ssb_lazy_matches_eager_oracle(qid):
    catalog = generate_ssb(sf=0.004, seed=11)
    spec = get_ssb_query(qid)
    for strategy in STRATEGIES:
        lazy, eager = _run_both(spec, catalog, strategy)
        assert_tables_identical(lazy.table, eager.table, f"Q{qid}/{strategy}")


# ----------------------------------------------------------------------
# Join edge cases the view layer must preserve.
# ----------------------------------------------------------------------
@pytest.fixture
def catalog():
    cat = Catalog()
    cat.register(
        Table.from_pydict(
            "emp",
            {
                "eid": [1, 2, 3, 4, 5],
                "dept": [10, 10, 20, 30, 40],
                "salary": [100.0, 200.0, 300.0, 400.0, 500.0],
            },
        )
    )
    cat.register(
        Table.from_pydict(
            "dept",
            {"did": [10, 20, 40], "dname": ["eng", "ops", "empty"],
             "budget": [250.0, 100.0, 900.0]},
        )
    )
    return cat


def _spec(name="q", **kwargs):
    defaults = dict(
        name=name,
        relations=[Relation("e", "emp"), Relation("d", "dept")],
        edges=[edge("e", "d", ("dept", "did"))],
    )
    defaults.update(kwargs)
    return QuerySpec(**defaults)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_left_join_null_extension_through_view(catalog, strategy):
    spec = _spec(edges=[edge("e", "d", ("dept", "did"), how="left")])
    lazy, eager = _run_both(spec, catalog, strategy)
    assert_tables_identical(lazy.table, eager.table, f"left/{strategy}")
    by_eid = {r[0]: r[4] for r in lazy.table.to_rows()}
    assert by_eid[4] is None  # dept 30 has no match: null-extended
    assert by_eid[1] == "eng"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("how", ["semi", "anti"])
def test_semi_anti_with_residual_through_view(catalog, strategy, how):
    # Residual participates in match semantics: a pair only counts when
    # the employee out-earns the department budget.
    spec = _spec(
        edges=[
            edge(
                "e",
                "d",
                ("dept", "did"),
                how=how,
                residual=col("e.salary").gt(col("d.budget")),
            )
        ]
    )
    lazy, eager = _run_both(spec, catalog, strategy)
    assert_tables_identical(lazy.table, eager.table, f"{how}/{strategy}")
    eids = sorted(r[0] for r in lazy.table.to_rows())
    # Matching pairs: e3 (300 > 100 for ops). e1/e2 fail 250, e5 fails
    # 900, e4 has no partner.
    assert eids == ([3] if how == "semi" else [1, 2, 4, 5])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_left_join_with_residual_through_view(catalog, strategy):
    spec = _spec(
        edges=[
            edge(
                "e",
                "d",
                ("dept", "did"),
                how="left",
                residual=col("e.salary").gt(col("d.budget")),
            )
        ]
    )
    lazy, eager = _run_both(spec, catalog, strategy)
    assert_tables_identical(lazy.table, eager.table, f"left+res/{strategy}")
    by_eid = {r[0]: r[4] for r in lazy.table.to_rows()}
    assert by_eid == {1: None, 2: None, 3: "ops", 4: None, 5: None}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_selection_vector_inputs(catalog, strategy):
    # The local predicate kills every emp row before the join phase:
    # every downstream selection vector is empty.
    spec = _spec(
        relations=[
            Relation("e", "emp", col("e.salary").gt(lit(10_000.0))),
            Relation("d", "dept"),
        ]
    )
    lazy, eager = _run_both(spec, catalog, strategy)
    assert_tables_identical(lazy.table, eager.table, f"empty/{strategy}")
    assert lazy.table.num_rows == 0
    # Schema must survive emptiness (all columns, qualified names).
    assert set(lazy.table.column_names) >= {"e.eid", "d.dname"}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_empty_build_side_left_join(catalog, strategy):
    spec = _spec(
        relations=[
            Relation("e", "emp"),
            Relation("d", "dept", col("d.budget").gt(lit(10_000.0))),
        ],
        edges=[edge("e", "d", ("dept", "did"), how="left")],
    )
    lazy, eager = _run_both(spec, catalog, strategy)
    assert_tables_identical(lazy.table, eager.table, f"emptybuild/{strategy}")
    assert lazy.table.num_rows == 5  # all probe rows survive, null-extended
    assert lazy.table.column("d.dname").null_count() == 5


# ----------------------------------------------------------------------
# Column pruning planner pass.
# ----------------------------------------------------------------------
def test_live_columns_without_schema_defining_op():
    assert live_columns(_spec()) is None  # raw join output: prune nothing


def test_live_columns_collects_keys_residuals_and_post_inputs(catalog):
    spec = QuerySpec(
        name="p",
        relations=[
            Relation("e", "emp", col("e.eid").gt(lit(0))),
            Relation("d", "dept"),
        ],
        edges=[edge("e", "d", ("dept", "did"))],
        residuals=[col("e.salary").lt(col("d.budget"))],
        post=[Project((("out", col("d.dname")),))],
    )
    live = live_columns(spec)
    assert live == {
        "e": {"eid", "dept", "salary"},
        "d": {"did", "budget", "dname"},
    }


def test_pruned_scan_still_produces_projected_output(catalog):
    spec = QuerySpec(
        name="p",
        relations=[Relation("e", "emp"), Relation("d", "dept")],
        edges=[edge("e", "d", ("dept", "did"))],
        post=[Project((("who", col("e.eid")), ("where", col("d.dname"))))],
    )
    lazy, eager = _run_both(spec, catalog, "predtrans")
    assert_tables_identical(lazy.table, eager.table, "pruned")
    assert lazy.table.column_names == ["who", "where"]
