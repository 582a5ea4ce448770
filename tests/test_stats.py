"""Unit tests for execution statistics containers."""

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
    labels = [j.label for j in outer.all_joins()]
    assert labels == ["Join 1", "Join 1"]  # stage joins first
    assert outer.all_joins()[0].ht_rows == 10
    assert outer.total_join_input_rows() == 10 + 20 + 100 + 200

