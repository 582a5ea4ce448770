"""SSB star-schema bench (context experiment, paper §2.1 related work).

The paper positions prior work (LIP [39]) as one-hop transfer on star
schemas; on SSB's pure stars, full predicate transfer and BloomJoin
should be close (the backward pass adds little on a star), while on
TPC-H's multi-hop graphs PredTrans pulls ahead.  This bench verifies
the convergence half of that claim.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.harness import time_query
from repro.core.runner import STRATEGIES
from repro.engine.stats import format_table
from repro.ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query

SSB_SF = float(os.environ.get("REPRO_SSB_SF", "0.05"))


@pytest.fixture(scope="module")
def ssb_catalog():
    return generate_ssb(sf=SSB_SF, seed=0)


@pytest.fixture(scope="module")
def measurements(ssb_catalog):
    out = {}
    for qid in ALL_SSB_QUERY_IDS:
        spec = get_ssb_query(qid)
        out[qid] = {
            s: time_query(spec, ssb_catalog, s, repeats=2) for s in STRATEGIES
        }
    return out


def test_ssb_report(measurements, benchmark, artifact):
    def build() -> str:
        rows = []
        for qid, per in measurements.items():
            base = per["nopredtrans"].seconds
            rows.append(
                [f"Q{qid}"]
                + [f"{per[s].seconds / base:.2f}" for s in STRATEGIES]
            )
        return format_table(
            ["query", *STRATEGIES],
            rows,
            title=f"SSB normalized runtime (SF={SSB_SF})",
        )

    artifact("ssb.txt", benchmark(build))


def test_ssb_predtrans_close_to_bloomjoin(measurements):
    """On pure stars the two techniques coincide up to the (cheap)
    backward pass: total suite time within 40%."""
    pred = sum(per["predtrans"].seconds for per in measurements.values())
    bloom = sum(per["bloomjoin"].seconds for per in measurements.values())
    assert pred < bloom * 1.4


def test_ssb_prefilter_reduces_fact(measurements):
    """Selective flights (1.x, 3.3) must cut the fact table hard."""
    for qid in ("1.2", "1.3", "3.3"):
        transfer = measurements[qid]["predtrans"].stats.transfer
        assert transfer.rows_after["lo"] < transfer.rows_before["lo"] * 0.25, qid


def test_ssb_flight2_runtime(benchmark, ssb_catalog):
    from repro.core.runner import run_query

    spec = get_ssb_query("2.1")

    def measure():
        run_query(spec, ssb_catalog, strategy="predtrans")

    benchmark.pedantic(measure, rounds=3, iterations=1, warmup_rounds=1)
