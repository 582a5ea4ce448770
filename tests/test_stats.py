"""Unit tests for execution statistics containers."""

import pickle

import pytest

from repro.engine.stats import JoinStat, QueryStats, TransferStats


def test_transfer_reduction():
    stats = TransferStats(
        rows_before={"a": 100, "b": 100}, rows_after={"a": 10, "b": 40}
    )
    assert stats.total_rows_before() == 200
    assert stats.total_rows_after() == 50
    assert stats.reduction() == 0.75


def test_transfer_reduction_empty():
    assert TransferStats().reduction() == 0.0


def test_query_stats_phase_totals():
    stats = QueryStats(strategy="predtrans", query="q")
    stats.transfer_seconds = 1.0
    stats.join_seconds = 2.0
    stats.post_seconds = 0.5
    assert stats.total_seconds == 3.5
    assert stats.prefilter_seconds == 1.0
    assert stats.joinphase_seconds == 2.5


def test_query_stats_nested_stages():
    inner = QueryStats(strategy="predtrans", query="stage")
    inner.transfer_seconds = 0.25
    inner.join_seconds = 0.25
    inner.joins.append(JoinStat("Join 1", 10, 20, 5))
    outer = QueryStats(strategy="predtrans", query="main")
    outer.transfer_seconds = 1.0
    outer.join_seconds = 1.0
    outer.joins.append(JoinStat("Join 1", 100, 200, 50))
    outer.stage_stats.append(inner)
    assert outer.total_seconds == 2.5
    assert outer.prefilter_seconds == 1.25
    assert outer.joinphase_seconds == 1.25
    joins = [j for block in outer.blocks() for j in block.joins]
    assert [j.ht_rows for j in joins] == [10, 100]  # stage joins first
    assert sum(j.ht_rows + j.pr_rows for j in joins) == 10 + 20 + 100 + 200


def test_blocks_walk_pre_stages_depth_first_then_the_block():
    leaf = QueryStats(query="leaf")
    mid = QueryStats(query="mid", stage_stats=[leaf])
    side = QueryStats(query="side")
    top = QueryStats(query="top", stage_stats=[mid, side])
    assert [b.query for b in top.blocks()] == ["leaf", "mid", "side", "top"]


def test_total_rolls_up_own_block_fields_over_every_block():
    leaf = QueryStats(rows_aggregated=3, filter_cache_hits=1)
    top = QueryStats(
        rows_aggregated=5,
        filter_cache_hits=2,
        stage_stats=[QueryStats(rows_aggregated=7, stage_stats=[leaf])],
    )
    assert top.total("rows_aggregated") == 15
    assert top.total("filter_cache_hits") == 3
    assert top.rows_aggregated == 5  # the block's own count is untouched


@pytest.mark.parametrize(
    "name",
    ["filters_degraded", "mem_peak_bytes", "memory_budget_bytes",
     "filter_cache_bytes", "output_rows", "joins", "no_such_field"],
)
def test_total_refuses_fields_that_do_not_add_up(name):
    with pytest.raises(ValueError, match="does not add up"):
        QueryStats().total(name)


def test_query_stats_with_pre_stages_pickle():
    inner = QueryStats(query="stage", rows_aggregated=4)
    inner.joins.append(JoinStat("Join 1", 1, 2, 3))
    outer = QueryStats(query="main", stage_stats=[inner])
    copy = pickle.loads(pickle.dumps(outer))
    assert copy == outer
    assert copy.total("rows_aggregated") == 4
