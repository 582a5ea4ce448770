"""Cost-model validation bench (paper §3.5).

Instantiates the unit-cost model from measured operation counts and
checks that the model's predicted strategy ordering matches the
measured wall-clock ordering on the heavy queries — the paper's cost
analysis is qualitative, and this bench is the quantitative check that
the analysis holds on this substrate.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import time_query
from repro.core.costmodel import CostParams, cost_from_stats
from repro.core.runner import STRATEGIES
from repro.engine.stats import format_table
from repro.tpch.queries import get_query

from .conftest import SF_LARGE


@pytest.fixture(scope="module")
def measurements(catalog_large):
    out = {}
    for qid in (3, 5, 9):
        spec = get_query(qid, sf=SF_LARGE)
        out[qid] = {
            s: time_query(spec, catalog_large, s, repeats=2) for s in STRATEGIES
        }
    return out


def test_costmodel_report(measurements, benchmark, artifact):
    params = CostParams(beta=0.1, epsilon=0.01)

    def build_report() -> str:
        rows = []
        for qid, by_strategy in measurements.items():
            for strategy, m in by_strategy.items():
                rows.append(
                    [
                        f"q{qid}",
                        strategy,
                        f"{cost_from_stats(m.stats, params):.0f}",
                        f"{m.seconds:.4f}",
                    ]
                )
        return format_table(
            ["query", "strategy", "model_cost_units", "measured_s"],
            rows,
            title="Cost model (§3.5) vs measurement",
        )

    artifact("costmodel.txt", benchmark(build_report))


def test_model_predicts_predtrans_wins(measurements):
    """On every heavy query, the strategy the model ranks cheapest must
    be predtrans, and predtrans must also measure fastest.

    The wall-clock half is only asserted when the queries are slow
    enough for phase costs to dominate fixed per-query overhead
    (sub-5ms runs under toy ``REPRO_SF_LARGE`` overrides measure
    noise, not the paper's effect).
    """
    params = CostParams(beta=0.1, epsilon=0.01)
    for qid, by_strategy in measurements.items():
        model = {
            s: cost_from_stats(m.stats, params) for s, m in by_strategy.items()
        }
        wall = {s: m.seconds for s, m in by_strategy.items()}
        assert min(model, key=model.get) == "predtrans", qid
        if min(wall.values()) >= 0.005:
            assert min(wall, key=wall.get) == "predtrans", qid


def test_model_cost_correlates_with_join_reduction(measurements):
    """Lower model cost must coincide with fewer join-input rows for
    the Bloom-based strategies (sanity of the β accounting)."""
    for qid, by_strategy in measurements.items():
        pred, base = (
            sum(j.ht_rows + j.pr_rows for b in m.stats.blocks() for j in b.joins)
            for m in (by_strategy["predtrans"], by_strategy["nopredtrans"])
        )
        assert pred < base, qid
