"""``benchmarks/pair.py``'s statistics, on synthetic run records (no
worktrees, no child runs)."""

from __future__ import annotations

import argparse
import json
import pathlib

import pytest

from benchmarks import pair

CONTRACT = json.loads(
    (pathlib.Path(__file__).parents[1] / "BENCHMARK.json").read_text()
)


def _record(**values: float) -> dict:
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    return {
        "metrics": {name: {"value": values.get(name, 1.0), "unit": units[name]}
                    for name in units},
        "failed": 0,
    }


def test_seeds_are_an_inclusive_range():
    assert pair.parse_seeds("3..7") == [3, 4, 5, 6, 7]
    assert pair.parse_seeds("4") == [4]
    with pytest.raises(argparse.ArgumentTypeError):
        pair.parse_seeds("5..4")


def test_lower_is_better_wins_ratio_and_sign_test():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]
    change = [50.0, 51.0, 49.0, 52.0, 48.0, 50.0, 50.0, 49.0, 51.0, 100.0]
    row = pair.pair_stats(parent, change, "lower", 0.2)
    assert row["parent_median"] == 100.0
    assert row["change_median"] == 50.0
    assert row["ratio"] == pytest.approx(0.5, abs=0.01)
    # The tie is neither a win nor a loss: 9 wins of 9 decided pairs.
    assert (row["wins"], row["pairs"]) == (9, 10)
    assert row["p"] == pytest.approx(2 * 0.5**9)
    assert not row["unresolved"]


def test_higher_is_better_counts_the_other_way():
    row = pair.pair_stats([10.0, 10.0, 10.0], [9.0, 11.0, 12.0], "higher", 0.25)
    assert (row["wins"], row["pairs"]) == (2, 3)
    assert row["ratio"] == pytest.approx(1.1)
    assert row["p"] == pytest.approx(1.0)


def test_unresolved_when_the_parent_spreads_past_the_bound():
    # Quartiles 90 and 140 (exclusive method) around a median of 100: 50 %.
    parent = [80.0, 100.0, 100.0, 140.0, 140.0]
    assert pair.iqr_share(parent) == pytest.approx(0.5)
    row = pair.pair_stats(parent, parent, "lower", 0.25)
    assert row["unresolved"]
    assert (row["wins"], row["p"]) == (0, 1.0)
    assert not pair.pair_stats([100.0] * 5, [90.0] * 5, "lower", 0.25)["unresolved"]


def test_summary_has_one_row_per_end_to_end_metric():
    pairs = [
        (_record(heavy_ms=200.0 + i, ops_per_s=5.0), _record(heavy_ms=100.0 + i,
                                                            ops_per_s=6.0))
        for i in range(5)
    ]
    rows = pair.summarize(pairs, CONTRACT)
    assert [r["metric"] for r in rows] == [m["name"] for m in CONTRACT["end_to_end"]]
    heavy = next(r for r in rows if r["metric"] == "heavy_ms")
    assert (heavy["parent_median"], heavy["change_median"]) == (202.0, 102.0)
    assert (heavy["wins"], heavy["pairs"]) == (5, 5)
    ops = next(r for r in rows if r["metric"] == "ops_per_s")
    assert ops["wins"] == 5 and ops["ratio"] == pytest.approx(1.2)
    table = pair.format_rows(rows)
    assert len(table.splitlines()) == 1 + len(rows)
    assert "5/5" in table


def test_mismatched_pairs_are_refused():
    with pytest.raises(ValueError):
        pair.pair_stats([1.0, 2.0], [1.0], "lower", 0.2)
