"""Ablation benches for the design choices DESIGN.md §7 calls out:

* filter type (Bloom vs exact/semi-join transfer) — §3.2 "Filter Type";
* Bloom false-positive-rate sweep — the §3.5 β-vs-ε tradeoff;
* transfer-path pruning — §3.2 "Transfer Path Pruning" (future work);
* single-pass vs two-pass schedules.

These are extensions beyond the paper's measured prototype; each test
prints its comparison so EXPERIMENTS.md can cite the numbers.  A
schedule variant is code over :func:`~repro.core.transfer.run_pass`
on one scanned query, not a configuration of the shipped schedule.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import time_query
from repro.core.ptgraph import build_pt_graph
from repro.core.runner import RunConfig, _scan  # noqa: SLF001 - the scan alone
from repro.core.transfer import (
    ExecContext,
    TransferConfig,
    proven_cover,
    run_pass,
)
from repro.engine.stats import format_table
from repro.plan.joingraph import build_join_graph
from repro.tpch.queries import get_query

from .conftest import SF_LARGE


def _run(catalog, qid, config, repeats=2):
    spec = get_query(qid, sf=SF_LARGE)
    return time_query(spec, catalog, config.strategy, repeats=repeats, config=config)


def _kinds(measurement) -> set[str]:
    return {e.kind for e in measurement.stats.transfer.shipped()}


def test_ablation_filter_type(catalog_large_sparse):
    """Bloom vs exact transfer on Q5/Q9: exact filters reduce more rows
    but cost hash-table traffic; Bloom must win on time (the paper's
    core argument vs Yannakakis).  Run on sparse keys: on TPC-H's dense
    ones both arms would ship the same presence bitmaps."""
    rows = []
    for qid in (5, 9):
        bloom = _run(
            catalog_large_sparse, qid, RunConfig(strategy="predtrans")
        )
        exact = _run(
            catalog_large_sparse,
            qid,
            RunConfig(
                strategy="predtrans", transfer=TransferConfig(filter_type="exact")
            ),
        )
        # Each arm ships the filter type it compares; only a relation cut
        # to one key (Q5's region) still ships a one-bit bitmap.
        assert _kinds(bloom) - {"bitmap"} == {"bloom"}
        assert _kinds(exact) - {"bitmap"} == {"exact"}
        rows.append(
            [
                f"q{qid}",
                f"{bloom.seconds:.4f}",
                f"{exact.seconds:.4f}",
                bloom.stats.transfer.total_rows_after(),
                exact.stats.transfer.total_rows_after(),
            ]
        )
        # Exact transfer never leaves MORE rows than Bloom.
        assert (
            exact.stats.transfer.total_rows_after()
            <= bloom.stats.transfer.total_rows_after()
        )
    print()
    print(
        format_table(
            ["query", "bloom_s", "exact_s", "bloom_rows", "exact_rows"],
            rows,
            title="Ablation: filter type",
        )
    )


def test_ablation_fpp_sweep(catalog_large):
    """ε sweep: looser filters leave more surviving rows (never fewer).

    Wall-clock is non-monotonic in ε (bit-array size vs survivor count),
    so only the row-count relationship is asserted."""
    rows = []
    survivors = []
    for fpp in (0.001, 0.01, 0.1, 0.5):
        m = _run(
            catalog_large,
            5,
            RunConfig(strategy="predtrans", transfer=TransferConfig(fpp=fpp)),
        )
        survivors.append(m.stats.transfer.total_rows_after())
        rows.append([fpp, f"{m.seconds:.4f}", survivors[-1]])
    print()
    print(
        format_table(
            ["fpp", "seconds", "surviving_rows"], rows, title="Ablation: Bloom fpp"
        )
    )
    assert survivors == sorted(survivors)


def _scanned(catalog, qid):
    """Q``qid``'s local-predicate survivors and its PT graph."""
    spec = get_query(qid, sf=SF_LARGE)
    state = ExecContext()
    _scan(state, spec, catalog, RunConfig())
    return state, build_pt_graph(build_join_graph(spec), state.row_counts())


def test_ablation_pruning(catalog_large):
    """Transfer-path pruning as shipped: the proven-cover gate against
    the ungated ``run_pass`` (every edge ships, as in the paper) on Q9.
    The gate skips the edges out of ``nation``, ``supplier`` and
    ``orders`` — complete relations whose keys cover their neighbours' —
    and leaves exactly the same survivors."""
    outcomes = {}
    for label, gate in (("ungated", None), ("gated", proven_cover)):
        state, ptgraph = _scanned(catalog_large, 9)
        order = ptgraph.topological_order()
        started = time.perf_counter()
        run_pass(state, order, ptgraph.forward_edges(), TransferConfig(), gate)
        run_pass(state, order[::-1], ptgraph.backward_edges(), TransferConfig(), gate)
        outcomes[label] = (
            time.perf_counter() - started, state.stats.transfer, state.row_counts()
        )
    (plain_s, plain, plain_rows), (gated_s, gated, gated_rows) = (
        outcomes["ungated"], outcomes["gated"],
    )
    print(
        f"\nAblation pruning (q9): ungated {plain_s:.4f}s "
        f"({plain.edges_traversed} filters) vs gated {gated_s:.4f}s "
        f"({gated.edges_traversed} filters, {gated.edges_pruned} skipped: "
        f"{[f'{e.src}->{e.dst}' for e in gated.edges if not e.shipped]})"
    )
    assert gated_rows == plain_rows
    assert (plain.edges_traversed, plain.edges_pruned) == (14, 0)
    assert (gated.edges_traversed, gated.edges_pruned) == (10, 4)


def test_ablation_passes(catalog_large):
    """Forward-only vs two passes: the backward pass buys extra
    reduction on Q5 (the paper's schedule uses both)."""
    state, ptgraph = _scanned(catalog_large, 5)
    order, config = ptgraph.topological_order(), TransferConfig()
    run_pass(state, order, ptgraph.forward_edges(), config, proven_cover)
    fwd_only = sum(state.row_counts().values())
    run_pass(state, order[::-1], ptgraph.backward_edges(), config, proven_cover)
    both = sum(state.row_counts().values())
    print(f"\nAblation passes (q5): both {both} rows, forward-only {fwd_only} rows")
    assert both < fwd_only


@pytest.mark.parametrize("fpp", (0.01, 0.1))
def test_ablation_fpp_benchmark(benchmark, catalog_large, fpp):
    from repro.core.runner import run_query

    spec = get_query(5, sf=SF_LARGE)
    config = RunConfig(strategy="predtrans", transfer=TransferConfig(fpp=fpp))

    def measure():
        run_query(spec, catalog_large, config=config)

    benchmark.pedantic(measure, rounds=3, iterations=1, warmup_rounds=1)
