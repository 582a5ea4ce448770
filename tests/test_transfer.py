"""Unit tests for the predicate transfer engine, including the paper's
Figure 3 example worked by hand."""

import numpy as np
import pytest

from repro.core.ptgraph import build_pt_graph
from repro.core.transfer import TransferConfig, run_transfer
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
    assert (stats.filters_built, stats.edges_pruned) == (4, 0), [
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


def test_forward_only_pass():
    pt, scanned, masks = _fig3_setup()
    config = TransferConfig(filter_type="exact", backward=False)
    reduced, _ = run_transfer(pt, scanned, masks, config)
    # T is reduced (end of forward chain) but R is untouched.
    assert reduced["t"].tolist() == [True, True, False, False, False, False]
    assert reduced["r"].all()


def test_backward_only_pass():
    pt, scanned, masks = _fig3_setup()
    config = TransferConfig(filter_type="exact", forward=False)
    reduced, _ = run_transfer(pt, scanned, masks, config)
    # Backward pass alone: T's keys flow back to S then R, but T itself
    # is never reduced.
    assert reduced["t"].all()
    assert reduced["s"].tolist() == [True, False, True, False, False]


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
    assert bloom_stats.bloom_inserts > 0 and bloom_stats.bloom_probes > 0
    assert bloom_stats.hash_inserts == bloom_stats.bitmap_inserts == 0
    _, exact_stats = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact")
    )
    assert exact_stats.hash_inserts > 0 and exact_stats.hash_probes > 0
    assert exact_stats.bloom_inserts == exact_stats.bitmap_inserts == 0


@pytest.mark.parametrize("filter_type", ["bloom", "exact"])
def test_stats_op_counts_populated_bitmap(filter_type):
    # Dense keys ship bitmaps whichever kind was asked for, and count
    # as bitmap operations only.
    pt, scanned, masks = _dense_fig3_setup()
    _, stats = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type=filter_type)
    )
    assert {e.kind for e in stats.shipped()} == {"bitmap"}
    assert stats.bitmap_inserts > 0 and stats.bitmap_probes > 0
    assert stats.bloom_inserts == stats.bloom_probes == 0
    assert stats.hash_inserts == stats.hash_probes == 0


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


def test_lip_reorder_toggle_same_result():
    pt, scanned, masks = _fig3_setup()
    with_lip, _ = run_transfer(
        pt, scanned, {k: m.copy() for k, m in masks.items()},
        TransferConfig(filter_type="exact", lip_reorder=True),
    )
    without, _ = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact", lip_reorder=False)
    )
    for alias in with_lip:
        assert np.array_equal(with_lip[alias], without[alias])


def test_multi_round_transfer_monotone_and_convergent():
    # On a cyclic graph, a second round can propagate reductions that
    # the first round's DAG orientation could not.
    r = Table.from_pydict("r", {"k": [1, 2], "j": [5, 6]})
    s = Table.from_pydict("s", {"k": [1, 2, 3], "m": [7, 8, 9]})
    t = Table.from_pydict("t", {"j": [5, 9, 9, 9], "m": [7, 8, 8, 8]})
    spec = QuerySpec(
        "cyc",
        relations=[Relation(a, a) for a in ("r", "s", "t")],
        edges=[
            edge("r", "s", ("k", "k")),
            edge("r", "t", ("j", "j")),
            edge("s", "t", ("m", "m")),
        ],
    )
    jg = build_join_graph(spec)
    scanned = {a: tb.prefixed(a) for a, tb in {"r": r, "s": s, "t": t}.items()}
    masks = {a: np.ones(tb.num_rows, dtype=np.bool_) for a, tb in
             {"r": r, "s": s, "t": t}.items()}
    pt = build_pt_graph(jg, {a: int(m.sum()) for a, m in masks.items()})
    one, _ = run_transfer(
        pt, scanned, {a: m.copy() for a, m in masks.items()},
        TransferConfig(filter_type="exact", rounds=1),
    )
    many, _ = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact", rounds=5),
    )
    for alias in one:
        # more rounds never resurrect rows
        assert (~many[alias] | one[alias]).all()
    total_one = sum(m.sum() for m in one.values())
    total_many = sum(m.sum() for m in many.values())
    assert total_many <= total_one


def test_rounds_validation():
    with pytest.raises(FilterError):
        TransferConfig(rounds=0)


def test_extra_rounds_noop_on_chain():
    pt, scanned, masks = _fig3_setup()
    one, stats_one = run_transfer(
        pt, scanned, {a: m.copy() for a, m in masks.items()},
        TransferConfig(filter_type="exact", rounds=1),
    )
    three, _ = run_transfer(
        pt, scanned, masks, TransferConfig(filter_type="exact", rounds=3),
    )
    for alias in one:
        assert np.array_equal(one[alias], three[alias])
