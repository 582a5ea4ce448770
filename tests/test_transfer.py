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
    masks_to_rows,
    proven_cover,
    run_pass,
    run_transfer,
)
from repro.errors import FilterError
from repro.filters.bitmap import CACHE_BITS
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.storage.column import Column
from repro.storage.table import Table


def _setup(tables, edges, predicates=None):
    """Build scanned tables (prefixed) + all-true masks + a PT graph."""
    spec = QuerySpec(
        "q",
        relations=[Relation(a, a) for a in tables],
        edges=edges,
    )
    jg = build_join_graph(spec)
    scanned = {a: t.prefixed(a) for a, t in tables.items()}
    masks = {a: np.ones(t.num_rows, dtype=np.bool_) for a, t in tables.items()}
    if predicates:
        for alias, mask in predicates.items():
            masks[alias] = np.asarray(mask, dtype=np.bool_)
    sizes = {a: int(m.sum()) for a, m in masks.items()}
    return build_pt_graph(jg, sizes), scanned, masks


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


@pytest.mark.parametrize("filter_type", ["bloom", "exact"])
def test_fig3_chain_reduction(filter_type):
    pt, scanned, masks = _fig3_setup()
    config = TransferConfig(filter_type=filter_type, fpp=0.001)
    reduced, stats = run_transfer(pt, scanned, masks, config)
    # Forward: R keys {1,2,3} reach S -> S rows with b in {1,2,3};
    # surviving S has c in {100,300,500} -> T keeps {100,300}.
    # Backward: T keys {100,300} -> S keeps b in {1,2} -> R keeps {1,2}.
    assert reduced["t"].tolist() == [True, True, False, False, False, False]
    if filter_type == "exact":  # bloom may keep false positives
        assert reduced["s"].tolist() == [True, False, True, False, False]
        assert reduced["r"].tolist() == [True, True, False]
    else:
        # No false negatives ever: the truly-joining rows survive.
        assert reduced["s"][0] and reduced["s"][2]
        assert reduced["r"][0] and reduced["r"][1]
    # Two per pass on a 2-edge chain; the gate skips none: S holds keys
    # R lacks and T keys S lacks, and the backward sources lost rows.
    assert (stats.edges_traversed, stats.edges_pruned) == (4, 0), [
        (e.src, e.dst, e.decision) for e in stats.edges
    ]


def test_transfer_never_drops_contributing_rows():
    pt, scanned, masks = _fig3_setup()
    reduced, _ = run_transfer(pt, scanned, masks, TransferConfig(fpp=0.25))
    # Rows participating in the full join: r.b in {1,2} etc.
    assert reduced["r"][0] and reduced["r"][1]
    assert reduced["s"][0] and reduced["s"][2]
    assert reduced["t"][0] and reduced["t"][1]


def test_local_predicates_respected():
    # Pre-filter R to b=1 only; transfer must narrow S and T accordingly.
    pt, scanned, masks = _fig3_setup(
        predicates={"r": [True, False, False]}
    )
    reduced, stats = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact")
    )
    assert reduced["s"].tolist() == [True, False, False, False, False]
    assert reduced["t"].tolist() == [True, False, False, False, False, False]
    assert stats.rows_before["r"] == 1
    assert stats.rows_after["s"] == 1


def _fig3_state():
    """Figure 3's PT graph and an uncached context over its tables."""
    pt, scanned, masks = _fig3_setup()
    return pt, ExecContext(tables=scanned, rows=masks_to_rows(masks))


def test_forward_only_pass():
    # One pass of the schedule alone is a composition over run_pass.
    pt, state = _fig3_state()
    order = pt.topological_order()
    run_pass(
        state, order, pt.forward_edges(), TransferConfig("exact"), proven_cover
    )
    # T is reduced (end of forward chain) but R is untouched.
    assert state.rows["t"].tolist() == [0, 1]
    assert state.rows["r"].tolist() == [0, 1, 2]


def test_backward_only_pass():
    pt, state = _fig3_state()
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
    pt, scanned, masks = _fig3_setup()
    bloom, _ = run_transfer(
        pt, scanned, {k: m.copy() for k, m in masks.items()},
        TransferConfig(filter_type="bloom", fpp=0.3),
    )
    exact, _ = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact")
    )
    for alias in bloom:
        assert (bloom[alias] | ~exact[alias]).all()  # exact ⊆ bloom


def test_input_masks_not_mutated():
    pt, scanned, masks = _fig3_setup()
    before = {a: m.copy() for a, m in masks.items()}
    run_transfer(pt, scanned, masks, TransferConfig(filter_type="exact"))
    for alias in masks:
        assert np.array_equal(masks[alias], before[alias])


def _rekeyed_fig3_setup(rekey):
    """Figure 3's chain with its join keys ``b`` and ``c`` mapped
    through ``rekey(column, keys)``, injective so every join matches as
    before."""
    pt, scanned, masks = _fig3_setup()
    rekeyed = {
        alias: Table(
            table.name,
            {
                name: Column.from_ints(rekey(col, table.column(name).data))
                if (col := name.split(".")[1]) in ("b", "c")
                else table.column(name)
                for name in table.columns
            },
        )
        for alias, table in scanned.items()
    }
    return pt, rekeyed, masks


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
    pt, scanned, masks = _sparse_fig3_setup()
    _, bloom_stats = run_transfer(pt, scanned, masks, TransferConfig())
    assert bloom_stats.inserted("bloom") > 0 and bloom_stats.probed("bloom") > 0
    assert bloom_stats.inserted("exact") == bloom_stats.inserted("bitmap") == 0
    _, exact_stats = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact")
    )
    assert exact_stats.inserted("exact") > 0 and exact_stats.probed("exact") > 0
    assert exact_stats.inserted("bloom") == exact_stats.inserted("bitmap") == 0


@pytest.mark.parametrize("filter_type", ["bloom", "exact"])
def test_stats_op_counts_populated_bitmap(filter_type):
    # Dense keys ship bitmaps whichever kind was asked for, and count
    # as bitmap operations only.
    pt, scanned, masks = _dense_fig3_setup()
    _, stats = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type=filter_type)
    )
    assert {e.kind for e in stats.shipped()} == {"bitmap"}
    assert stats.inserted("bitmap") > 0 and stats.probed("bitmap") > 0
    assert stats.inserted("bloom") == stats.probed("bloom") == 0
    assert stats.inserted("exact") == stats.probed("exact") == 0


def test_sparse_fig3_chain_reduction_matches_dense():
    # Same chain, same survivors: only the filter representation moved.
    for setup in (_fig3_setup, _sparse_fig3_setup, _dense_fig3_setup):
        pt, scanned, masks = setup()
        reduced, _ = run_transfer(
            pt, scanned, masks, TransferConfig(filter_type="exact")
        )
        assert reduced["s"].tolist() == [True, False, True, False, False]
        assert reduced["r"].tolist() == [True, True, False]


def test_reduction_metric():
    pt, scanned, masks = _fig3_setup(predicates={"r": [True, False, False]})
    _, stats = run_transfer(pt, scanned, masks, TransferConfig(filter_type="exact"))
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
    pt, scanned, masks = _setup(
        tables,
        [edge("a", "c", ("x", "x")), edge("b", "c", ("y", "y"))],
        predicates={"a": [True, True, True, False], "b": [True, False, False, False]},
    )
    reduced, stats = run_transfer(pt, scanned, masks, TransferConfig("exact"))
    first, second = (
        next(e for e in stats.edges if (e.src, e.dst) == (src, "c"))
        for src in ("b", "a")
    )
    assert first.rows_probed == 8 and first.rows_passed == 2
    assert second.rows_probed == first.rows_passed
    assert reduced["c"].tolist() == [True, True] + [False] * 6



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
    scanned = masks_to_rows({"a": np.ones(7, dtype=np.bool_)})["a"]
    assert scanned.tolist() == list(range(7))
    with pytest.raises(ValueError):
        scanned[1:] = 0


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
