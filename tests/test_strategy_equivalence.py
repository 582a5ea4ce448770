"""Integration tests: every TPC-H query must return the same result
under all four strategies (and all transfer-config variants).

This is the strongest end-to-end correctness check in the suite: the
four strategies share no pre-filtering code, so identical results mean
the Bloom transfer kept every contributing row (no false negatives) and
the join phase removed every false positive.
"""

import pytest

from repro.core import runner
from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.core.transfer import TransferConfig
from repro.core.yannakakis import run_semi_join_rows
from repro.optimizer.cardinality import catalog_ndv
from repro.optimizer.joinorder import greedy_join_order
from repro.plan.joingraph import build_join_graph
from repro.storage.partition import DEFAULT_PARTITION_ROWS
from repro.tpch.queries import ALL_QUERY_IDS, get_query

from .conftest import SMALL_SF


def _canonical(table):
    """Order-insensitive rows with float rounding (sum order varies)."""
    rows = []
    for row in table.to_rows():
        rows.append(
            tuple(
                round(v, 6) if isinstance(v, float) else v for v in row
            )
        )
    return sorted(map(repr, rows))


def _sorted_prefix(table, k=10):
    """The first k rows (for ORDER BY ... LIMIT queries the prefix set
    must agree after rounding)."""
    return _canonical(table.head(k))


@pytest.mark.parametrize("qid", ALL_QUERY_IDS)
def test_all_strategies_agree(small_catalog, qid):
    spec = get_query(qid, sf=SMALL_SF)
    reference = None
    for strategy in STRATEGIES:
        result = run_query(spec, small_catalog, strategy=strategy)
        canon = _canonical(result.table)
        if reference is None:
            reference = canon
        else:
            assert canon == reference, f"q{qid}: {strategy} diverged"


@pytest.mark.parametrize("qid", [2, 5, 9, 13, 16, 21, 22])
def test_exact_filter_transfer_agrees(small_catalog, qid):
    spec = get_query(qid, sf=SMALL_SF)
    bloom = run_query(spec, small_catalog, strategy="predtrans")
    exact = run_query(
        spec,
        small_catalog,
        config=RunConfig(
            strategy="predtrans", transfer=TransferConfig(filter_type="exact")
        ),
    )
    assert _canonical(exact.table) == _canonical(bloom.table)


def _post_transfer_order(spec, catalog, sizes):
    """The greedy order over post-transfer ``sizes``, with the distinct
    counts of the tables the query scans (pre-stage outputs included)."""
    scoped = catalog.scoped()
    for stage in spec.pre_stages:
        scoped.register(run_query(stage.spec, scoped).table, stage.output)
    bases = {r.alias: scoped.get(r.table) for r in spec.relations}
    ndv = catalog_ndv(bases, DEFAULT_PARTITION_ROWS)
    return greedy_join_order(build_join_graph(spec), sizes, ndv)


@pytest.mark.parametrize("qid", [3, 5, 10, 18])
def test_post_transfer_order_agrees(small_catalog, qid):
    """An order planned from post-transfer sizes returns the same rows
    as the one planned before transfer."""
    spec = get_query(qid, sf=SMALL_SF)
    plain = run_query(spec, small_catalog, strategy="predtrans")
    order = _post_transfer_order(spec, small_catalog, plain.stats.transfer.rows_after)
    reordered = run_query(
        spec, small_catalog, strategy="predtrans", join_order=order
    )
    assert reordered.stats.join_order == order
    assert _canonical(reordered.table) == _canonical(plain.table)


def test_q5_all_join_orders_agree(small_catalog):
    from repro.tpch.queries import Q5_JOIN_ORDERS

    spec = get_query(5, sf=SMALL_SF)
    reference = None
    for name, order in Q5_JOIN_ORDERS.items():
        for strategy in STRATEGIES:
            result = run_query(
                spec, small_catalog, strategy=strategy, join_order=list(order)
            )
            canon = _canonical(result.table)
            if reference is None:
                reference = canon
            else:
                assert canon == reference, (name, strategy)


def test_yannakakis_root_invariance(small_catalog, monkeypatch):
    """Q5 (cyclic: a spanning tree plus residual verification) returns
    the same rows whichever alias roots the join tree."""
    spec = get_query(5, sf=SMALL_SF)
    reference = None
    for root in ("l", "r", "c"):
        monkeypatch.setattr(
            runner,
            "run_semi_join_rows",
            lambda ctx, graph, root=root: run_semi_join_rows(ctx, graph, root),
        )
        result = run_query(spec, small_catalog, strategy="yannakakis")
        canon = _canonical(result.table)
        reference = reference or canon
        assert canon == reference


@pytest.mark.parametrize("qid", ALL_QUERY_IDS)
def test_predtrans_never_increases_join_inputs(small_catalog, qid):
    """Predicate transfer must never feed MORE rows to the join phase
    than no pre-filtering at all."""
    spec = get_query(qid, sf=SMALL_SF)
    baseline = run_query(spec, small_catalog, strategy="nopredtrans")
    predtrans = run_query(spec, small_catalog, strategy="predtrans")
    def join_input_rows(stats):
        return sum(j.ht_rows + j.pr_rows for b in stats.blocks() for j in b.joins)

    assert join_input_rows(predtrans.stats) <= join_input_rows(baseline.stats)
