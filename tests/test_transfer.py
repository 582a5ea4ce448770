"""Unit tests for the predicate transfer engine, including the paper's
Figure 3 example worked by hand."""

import sys
import threading

import numpy as np
import pytest

from repro.core import transfer
from repro.core.ptgraph import build_pt_graph
from repro.core.transfer import (
    ExecContext,
    TransferConfig,
    identity_rows,
    proven_cover,
    run_pass,
    run_transfer_rows,
)
from repro.errors import FilterError
from repro.filters.bitmap import CACHE_BITS
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.column import Column
from repro.storage.table import Table


def _setup(tables, edges, predicates=None):
    """A PT graph and an uncached context over scanned (prefixed)
    tables, every row alive unless ``predicates`` masks some out."""
    spec = QuerySpec(
        "q",
        relations=[Relation(a, a) for a in tables],
        edges=edges,
    )
    jg = build_join_graph(spec)
    scanned = {a: t.prefixed(a) for a, t in tables.items()}
    rows = {a: np.arange(t.num_rows) for a, t in tables.items()}
    for alias, mask in (predicates or {}).items():
        rows[alias] = np.flatnonzero(mask)
    pt = build_pt_graph(jg, {a: len(r) for a, r in rows.items()})
    return pt, ExecContext(tables=scanned, rows=rows)


def _fig3_setup(**overrides):
    """The R ⋈ S ⋈ T chain of the paper's Figure 3.

    R(B): {1,2,3};  S(B,C): rows (1,x1),(4,x2),(2,x3),(5,x4),(3,x5) with
    C values chosen so T can filter; T(C): subset.
    """
    r = Table.from_pydict("r", {"a": [10, 20, 30], "b": [1, 2, 3]})
    s = Table.from_pydict(
        "s", {"b": [1, 4, 2, 5, 3], "c": [100, 200, 300, 400, 500]}
    )
    # t is the largest table so the PT DAG orients r -> s -> t (Fig. 3).
    t = Table.from_pydict(
        "t",
        {"c": [100, 300, 600, 700, 800, 900], "d": [7, 8, 9, 0, 1, 2]},
    )
    tables = {"r": r, "s": s, "t": t}
    edges = [edge("r", "s", ("b", "b")), edge("s", "t", ("c", "c"))]
    return _setup(tables, edges, **overrides)


def _survivors(state):
    """Surviving row ids per alias, as lists."""
    return {alias: rows.tolist() for alias, rows in state.rows.items()}


@pytest.mark.parametrize("filter_type", ["bloom", "exact"])
def test_fig3_chain_reduction(filter_type):
    pt, state = _fig3_setup()
    config = TransferConfig(filter_type=filter_type, fpp=0.001)
    run_transfer_rows(state, pt, config)
    reduced, stats = _survivors(state), state.stats.transfer
    # Forward: R keys {1,2,3} reach S -> S rows with b in {1,2,3};
    # surviving S has c in {100,300,500} -> T keeps {100,300}.
    # Backward: T keys {100,300} -> S keeps b in {1,2} -> R keeps {1,2}.
    assert reduced["t"] == [0, 1]
    if filter_type == "exact":  # bloom may keep false positives
        assert reduced["s"] == [0, 2]
        assert reduced["r"] == [0, 1]
    else:
        # No false negatives ever: the truly-joining rows survive.
        assert {0, 2} <= set(reduced["s"])
        assert {0, 1} <= set(reduced["r"])
    # Two per pass on a 2-edge chain; the gate skips none: S holds keys
    # R lacks and T keys S lacks, and the backward sources lost rows.
    assert (stats.edges_traversed, stats.edges_pruned) == (4, 0), [
        (e.src, e.dst, e.decision) for e in stats.edges
    ]


def test_transfer_never_drops_contributing_rows():
    pt, state = _fig3_setup()
    run_transfer_rows(state, pt, TransferConfig(fpp=0.25))
    reduced = _survivors(state)
    # Rows participating in the full join: r.b in {1,2} etc.
    assert {0, 1} <= set(reduced["r"])
    assert {0, 2} <= set(reduced["s"])
    assert {0, 1} <= set(reduced["t"])


def test_local_predicates_respected():
    # Pre-filter R to b=1 only; transfer must narrow S and T accordingly.
    pt, state = _fig3_setup(predicates={"r": [True, False, False]})
    run_transfer_rows(state, pt, TransferConfig(filter_type="exact"))
    assert _survivors(state) == {"r": [0], "s": [0], "t": [0]}


def test_forward_only_pass():
    # One pass of the schedule alone is a composition over run_pass.
    pt, state = _fig3_setup()
    order = pt.topological_order()
    run_pass(
        state, order, pt.forward_edges(), TransferConfig("exact"), proven_cover
    )
    # T is reduced (end of forward chain) but R is untouched.
    assert state.rows["t"].tolist() == [0, 1]
    assert state.rows["r"].tolist() == [0, 1, 2]


def test_backward_only_pass():
    pt, state = _fig3_setup()
    order = pt.topological_order()[::-1]
    run_pass(
        state, order, pt.backward_edges(), TransferConfig("exact"), proven_cover
    )
    # Backward pass alone: T's keys flow back to S then R, but T itself
    # is never reduced.
    assert state.rows["t"].tolist() == list(range(6))
    assert state.rows["s"].tolist() == [0, 2]
    assert state.rows["r"].tolist() == [0, 1]


def test_exact_mode_is_subset_of_bloom_mode():
    pt, bloom = _fig3_setup()
    run_transfer_rows(bloom, pt, TransferConfig(filter_type="bloom", fpp=0.3))
    pt, exact = _fig3_setup()
    run_transfer_rows(exact, pt, TransferConfig(filter_type="exact"))
    for alias in bloom.rows:
        assert set(exact.rows[alias]) <= set(bloom.rows[alias])


def test_input_masks_not_mutated():
    """The survivor vectors bound on entry are rebound, never written."""
    pt, state = _fig3_setup()
    inputs = dict(state.rows)
    before = {a: r.copy() for a, r in inputs.items()}
    run_transfer_rows(state, pt, TransferConfig(filter_type="exact"))
    for alias in inputs:
        assert np.array_equal(inputs[alias], before[alias])
    assert state.rows["s"].tolist() == [0, 2]  # rebound, not written through


def _rekeyed_fig3_setup(rekey):
    """Figure 3's chain with its join keys ``b`` and ``c`` mapped
    through ``rekey(column, keys)``, injective so every join matches as
    before."""
    pt, state = _fig3_setup()
    state.tables = {
        alias: Table(
            table.name,
            {
                name: Column.from_ints(rekey(col, table.column(name).data))
                if (col := name.split(".")[1]) in ("b", "c")
                else table.column(name)
                for name in table.columns
            },
        )
        for alias, table in state.tables.items()
    }
    return pt, state


def _sparse_fig3_setup():
    """Every key times ``CACHE_BITS + 1``: two distinct keys span more
    than the cache-sized limit, a one-block Bloom filter and a 16-slot
    hash set, so no edge ships a presence bitmap."""
    return _rekeyed_fig3_setup(lambda _, keys: keys * (CACHE_BITS + 1))


def _dense_fig3_setup():
    """``c`` over 1..9 instead of 100..900: every span fits a 16-slot
    hash set's bytes, so every edge ships a presence bitmap."""
    return _rekeyed_fig3_setup(lambda col, keys: keys // 100 if col == "c" else keys)


def test_stats_op_counts_populated():
    for filter_type, kind in (("bloom", "bloom"), ("exact", "exact")):
        pt, state = _sparse_fig3_setup()
        run_transfer_rows(state, pt, TransferConfig(filter_type=filter_type))
        stats = state.stats.transfer
        assert stats.inserted(kind) > 0 and stats.probed(kind) > 0
        others = {"bloom", "exact", "bitmap"} - {kind}
        assert all(stats.inserted(o) == stats.probed(o) == 0 for o in others)


@pytest.mark.parametrize("filter_type", ["bloom", "exact"])
def test_stats_op_counts_populated_bitmap(filter_type):
    # Dense keys ship bitmaps whichever kind was asked for, and count
    # as bitmap operations only.
    pt, state = _dense_fig3_setup()
    run_transfer_rows(state, pt, TransferConfig(filter_type=filter_type))
    stats = state.stats.transfer
    assert {e.kind for e in stats.shipped()} == {"bitmap"}
    assert stats.inserted("bitmap") > 0 and stats.probed("bitmap") > 0
    assert stats.inserted("bloom") == stats.probed("bloom") == 0
    assert stats.inserted("exact") == stats.probed("exact") == 0


def test_sparse_fig3_chain_reduction_matches_dense():
    # Same chain, same survivors: only the filter representation moved.
    for setup in (_fig3_setup, _sparse_fig3_setup, _dense_fig3_setup):
        pt, state = setup()
        run_transfer_rows(state, pt, TransferConfig(filter_type="exact"))
        assert state.rows["s"].tolist() == [0, 2]
        assert state.rows["r"].tolist() == [0, 1]


def test_reduction_metric():
    pt, state = _fig3_setup(predicates={"r": [True, False, False]})
    stats = state.stats.transfer
    stats.rows_before = state.row_counts()
    run_transfer_rows(state, pt, TransferConfig(filter_type="exact"))
    stats.rows_after = state.row_counts()
    assert 0.0 < stats.reduction() < 1.0
    assert stats.total_rows_after() < stats.total_rows_before()


def test_bad_filter_type_rejected():
    with pytest.raises(FilterError):
        TransferConfig(filter_type="cuckoo")


def test_lip_probes_most_selective_filter_first():
    # Two filters park at ``c``.  ``a`` (3 of 4 rows kept) is visited
    # first, but ``b`` (1 of 4) is the more selective producer, so its
    # filter is probed first, over all of ``c``, and ``a``'s only over
    # the rows ``b``'s let through.
    tables = {
        "a": Table.from_pydict("a", {"x": [1, 2, 3, 4]}),
        "b": Table.from_pydict("b", {"y": [1, 2, 3, 4]}),
        "c": Table.from_pydict(
            "c", {"x": [1, 2, 3, 4, 1, 2, 3, 4], "y": [1, 1, 2, 2, 3, 3, 4, 4]}
        ),
    }
    pt, state = _setup(
        tables,
        [edge("a", "c", ("x", "x")), edge("b", "c", ("y", "y"))],
        predicates={"a": [True, True, True, False], "b": [True, False, False, False]},
    )
    run_transfer_rows(state, pt, TransferConfig("exact"))
    first, second = (
        next(e for e in state.stats.transfer.edges if (e.src, e.dst) == (src, "c"))
        for src in ("b", "a")
    )
    assert first.rows_probed == 8 and first.rows_passed == 2
    assert second.rows_probed == first.rows_passed
    assert state.rows["c"].tolist() == [0, 1]


def test_identity_rows_are_read_only_slices_of_one_vector():
    rows = identity_rows(5)
    assert rows.tolist() == list(range(5))
    with pytest.raises(ValueError):
        rows[0] = 1
    with pytest.raises(ValueError):
        rows += 1
    bigger = identity_rows(1000)
    assert np.array_equal(bigger, np.arange(1000)) and not bigger.flags.writeable
    assert np.shares_memory(identity_rows(10), bigger)


def test_identity_rows_under_racing_growth(monkeypatch):
    """Threads that grow the shared vector while others slice it each
    see a complete, read-only identity."""
    monkeypatch.setattr(transfer, "_IDENTITY", transfer._IDENTITY[:0])
    wrong: list[int] = []

    def worker(seed: int) -> None:
        for n in np.random.default_rng(seed).integers(1, 100_000, 40):
            rows = transfer.identity_rows(int(n))
            if rows.flags.writeable or not np.array_equal(rows, np.arange(n)):
                wrong.append(int(n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
