"""The proven-cover gate of the predicate transfer schedule.

``run_pass`` with ``proven_cover`` skips an edge whose filter provably
passes every row it would probe; ``run_pass`` without a gate — what
Yannakakis runs — ships every edge and is the oracle here.  Everything
is asserted on rows, digests and operation counts; nothing on time.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transfer
from repro.core.ptgraph import PTEdge, build_pt_graph
from repro.core.runner import RunConfig, run_query
from repro.core.transfer import (
    ExecContext,
    TransferConfig,
    proven_cover,
    run_pass,
    run_transfer_rows,
)
from repro.engine.stats import SHIPPED, SKIPPED_COVERED
from repro.expr.nodes import col, lit
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge
from repro.service.engine import Engine
from repro.service.server import build_default_registry
from repro.service.workload import result_digest
from repro.storage import (
    Catalog,
    Column,
    DType,
    PartitionLayout,
    Table,
    extend_layout,
    get_layout,
)
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.02


def never(state, edge):  # the ungated schedule, at query level
    return False


def schedule(state: ExecContext, ptgraph, config: TransferConfig, gate) -> None:
    """Predicate transfer's two passes (what ``run_transfer_rows`` runs)."""
    order = ptgraph.topological_order()
    run_pass(state, order, ptgraph.forward_edges(), config, gate)
    run_pass(state, order[::-1], ptgraph.backward_edges(), config, gate)


# ----------------------------------------------------------------------
# (1) Random small graphs: the gate never changes a survivor
# ----------------------------------------------------------------------
@st.composite
def small_graphs(draw):
    """2–5 relations joined as a chain, a star or one cycle.  Each join
    edge has its own key column pair over a small integer domain — dense,
    sparse (step 2) or offset, INT64 or DATE, a side sometimes holding
    NULLs — and every relation a random survivor mask (sometimes all
    true: a tautology)."""
    n = draw(st.integers(2, 5))
    shape = draw(st.sampled_from(["chain", "star", "cycle"]))
    if shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(i, i + 1) for i in range(n - 1)]
        if shape == "cycle" and n > 2:
            pairs.append((n - 1, 0))
    sizes = [draw(st.integers(0, 8)) for _ in range(n)]
    columns: list[dict[str, Column]] = [
        {"id": Column.from_ints(np.arange(size))} for size in sizes
    ]
    edges = []
    for k, (i, j) in enumerate(pairs):
        low = draw(st.sampled_from([0, 1, -3, 9000]))
        step = draw(st.sampled_from([1, 1, 2]))
        domain = [low + step * v for v in range(draw(st.integers(1, 5)))]
        as_date = draw(st.booleans())
        for side in (i, j):
            values = draw(
                st.lists(st.sampled_from(domain), min_size=sizes[side], max_size=sizes[side])
            )
            data = np.asarray(values, dtype=np.int64)
            valid = None
            if sizes[side] and draw(st.integers(0, 4)) == 0:
                valid = np.ones(sizes[side], dtype=np.bool_)
                valid[draw(st.integers(0, sizes[side] - 1))] = False
            columns[side][f"k{k}"] = Column(
                data.astype(np.int32) if as_date else data,
                DType.DATE if as_date else DType.INT64,
                valid=valid,
            )
        edges.append(edge(f"t{i}", f"t{j}", (f"k{k}", f"k{k}")))
    tables = {f"t{i}": Table(f"t{i}", cols) for i, cols in enumerate(columns)}
    masks = {
        alias: np.asarray(
            draw(
                st.one_of(
                    st.just([True] * t.num_rows),
                    st.lists(st.booleans(), min_size=t.num_rows, max_size=t.num_rows),
                )
            ),
            dtype=np.bool_,
        )
        for alias, t in tables.items()
    }
    return tables, edges, masks


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.sampled_from(["bloom", "exact"]))
def test_gated_and_ungated_passes_leave_the_same_rows(graph, filter_type):
    tables, edges, masks = graph
    spec = QuerySpec("g", [Relation(a, a) for a in tables], edges)
    scanned = {a: t.prefixed(a) for a, t in tables.items()}
    rows = {alias: np.flatnonzero(mask) for alias, mask in masks.items()}
    ptgraph = build_pt_graph(
        build_join_graph(spec), {a: len(r) for a, r in rows.items()}
    )
    config = TransferConfig(filter_type=filter_type)

    gated = ExecContext(tables=scanned, rows=dict(rows))
    ungated = ExecContext(tables=scanned, rows=dict(rows))
    shipped = ExecContext(tables=scanned, rows=dict(rows))
    schedule(gated, ptgraph, config, proven_cover)
    schedule(ungated, ptgraph, config, None)
    run_transfer_rows(shipped, ptgraph, config)

    for alias in tables:
        assert np.array_equal(gated.rows[alias], ungated.rows[alias]), alias
        assert np.array_equal(shipped.rows[alias], gated.rows[alias]), alias
    # Same edges in the same order; a skipped one's twin removed nothing.
    pairs = list(zip(gated.stats.transfer.edges, ungated.stats.transfer.edges))
    assert len(pairs) == len(ungated.stats.transfer.edges)
    for mine, twin in pairs:
        assert (mine.pass_index, mine.src, mine.dst) == (
            twin.pass_index, twin.src, twin.dst,
        )
        assert twin.decision == SHIPPED
        if mine.decision == SKIPPED_COVERED:
            assert twin.rows_passed == twin.rows_probed, (mine.src, mine.dst)
        else:
            assert (mine.rows_probed, mine.rows_passed) == (
                twin.rows_probed, twin.rows_passed,
            )
    # The schedule a query runs is the gated one.
    assert [e.decision for e in shipped.stats.transfer.edges] == [
        e.decision for e in gated.stats.transfer.edges
    ]


# ----------------------------------------------------------------------
# (2) The proof's boundary, one case each
# ----------------------------------------------------------------------
PARENT_KEYS = [0, 1, 2, 3, 4]
CHILD_KEYS = [0, 0, 1, 2, 2, 3, 4, 4, 1, 3]


def _forward_decision(
    parent: dict,
    child: dict,
    on=("k", "k"),
    predicate=None,
    how: str = "inner",
    extra: tuple[dict, tuple[str, str]] | None = None,
):
    """Run ``p ⋈ c`` under predtrans and return the ``p → c`` edge."""
    catalog = Catalog()
    catalog.register(Table.from_pydict("p", parent))
    catalog.register(Table.from_pydict("c", child))
    relations = [Relation("p", "p", predicate=predicate), Relation("c", "c")]
    edges = [edge("p", "c", on, how=how)]
    if extra is not None:
        catalog.register(Table.from_pydict("g", extra[0]))
        relations.append(Relation("g", "g"))
        edges.append(edge("g", "p", extra[1]))
    stats = run_query(QuerySpec("q", relations, edges), catalog, "predtrans").stats
    (found,) = [
        e for e in stats.transfer.edges if (e.src, e.dst) == ("p", "c")
    ]
    return found


def test_gate_skips_a_covering_parent():
    found = _forward_decision({"k": PARENT_KEYS}, {"k": CHILD_KEYS})
    assert found.decision == SKIPPED_COVERED
    assert (found.keys_inserted, found.rows_probed, found.filter_bytes) == (0, 0, 0)


@pytest.mark.parametrize(
    "case, kwargs",
    [
        ("one key missing from src's domain",
         dict(parent={"k": [0, 1, 3, 4, 4]}, child={"k": CHILD_KEYS})),
        ("dst max = src max + 1",
         dict(parent={"k": PARENT_KEYS}, child={"k": CHILD_KEYS[:-1] + [5]})),
        ("a NULL in dst's key",
         dict(parent={"k": PARENT_KEYS},
              child={"k": Column(
                  np.asarray(CHILD_KEYS, dtype=np.int64), DType.INT64,
                  valid=np.arange(len(CHILD_KEYS)) != 3)})),
        ("src lost one row to a predicate",
         dict(parent={"k": PARENT_KEYS, "v": [1, 1, 1, 1, 0]},
              child={"k": CHILD_KEYS}, predicate=col("p.v").gt(lit(0)))),
        ("src shrunk by an incoming filter",
         dict(parent={"k": PARENT_KEYS, "g": [7, 7, 7, 7, 8]},
              child={"k": CHILD_KEYS}, extra=({"g": [7]}, ("g", "g")))),
        ("a two-column key",
         dict(parent={"k": PARENT_KEYS, "j": PARENT_KEYS},
              child={"k": CHILD_KEYS, "j": CHILD_KEYS},
              on=[("k", "k"), ("j", "j")])),
        ("a STRING key",
         dict(parent={"k": [f"v{i}" for i in PARENT_KEYS]},
              child={"k": [f"v{i}" for i in CHILD_KEYS]})),
    ],
)
def test_gate_ships_outside_the_proof(case, kwargs):
    assert _forward_decision(**kwargs).decision == SHIPPED, case


@pytest.mark.parametrize(
    "case, kwargs",
    [
        ("a tautological predicate on src",
         dict(parent={"k": PARENT_KEYS, "v": [1, 1, 1, 1, 1]},
              child={"k": CHILD_KEYS}, predicate=col("p.v").gt(lit(0)))),
        ("a DATE key",
         dict(parent={"k": Column.from_days(np.asarray(PARENT_KEYS) + 9000)},
              child={"k": Column.from_days(np.asarray(CHILD_KEYS) + 9000)})),
        # A left join ships p → c only, so nothing empties p first.
        ("an empty dst",
         dict(parent={"k": PARENT_KEYS},
              child={"k": Column.from_ints([])}, how="left")),
    ],
)
def test_gate_skips_inside_the_proof(case, kwargs):
    assert _forward_decision(**kwargs).decision == SKIPPED_COVERED, case


def test_run_pass_without_a_gate_ships_a_covered_edge():
    """What Yannakakis calls: no gate, every edge ships."""
    tables = {
        "p": Table.from_pydict("p", {"k": PARENT_KEYS}).prefixed("p"),
        "c": Table.from_pydict("c", {"k": CHILD_KEYS}).prefixed("c"),
    }
    edges = [PTEdge("p", "c", ("p.k",), ("c.k",), True)]
    for gate, decision in ((None, SHIPPED), (proven_cover, SKIPPED_COVERED)):
        state = ExecContext(
            tables=tables,
            rows={a: np.arange(t.num_rows) for a, t in tables.items()},
        )
        run_pass(state, ["p", "c"], edges, TransferConfig(), gate)
        (recorded,) = state.stats.transfer.edges
        assert recorded.decision == decision
        assert len(state.rows["c"]) == len(CHILD_KEYS)


# ----------------------------------------------------------------------
# (3) The statistics follow the data
# ----------------------------------------------------------------------
def _orders_lineitem() -> QuerySpec:
    return QuerySpec(
        "ol",
        [Relation("o", "orders"), Relation("l", "lineitem")],
        [edge("o", "l", ("o_orderkey", "l_orderkey"))],
    )


def _decisions(stats) -> dict[tuple[str, str], str]:
    return {(e.src, e.dst): e.decision for e in stats.transfer.edges}


def test_gate_follows_an_ingest(monkeypatch):
    base = generate_tpch(sf=0.003, seed=42)
    catalog = Catalog({name: base.get(name) for name in base.names()})
    engine = Engine(catalog, cache_bytes=None, workers=1)
    try:
        before = engine.execute(_orders_lineitem()).stats
        assert _decisions(before) == {
            ("o", "l"): SKIPPED_COVERED, ("l", "o"): SKIPPED_COVERED,
        }
        orders = catalog.get("orders")
        assert get_layout(orders).gap_free("o_orderkey")

        # One more order, with no lineitem.  The commit carries the
        # layouts over but counts nothing: the statistics are taken by
        # the first query that asks, outside the catalog's lock.
        lonely = orders.take(np.array([0]))
        lonely.columns["o_orderkey"] = Column.from_ints(
            [int(orders.column("o_orderkey").data.max()) + 1]
        )
        counted_under_lock = []
        real = PartitionLayout._count

        def spying(layout, column, inherit):
            counted_under_lock.append(catalog._lock.locked())
            return real(layout, column, inherit)

        monkeypatch.setattr(PartitionLayout, "_count", spying)
        engine.ingest({"orders": lonely})
        assert counted_under_lock == []
        grown = get_layout(catalog.get("orders"))
        assert grown is not get_layout(orders) and grown._distinct == {}

        after = engine.execute(_orders_lineitem()).stats
        assert counted_under_lock and not any(counted_under_lock)
        # orders still covers lineitem; lineitem no longer covers orders.
        assert _decisions(after) == {
            ("o", "l"): SKIPPED_COVERED, ("l", "o"): SHIPPED,
        }
        (shipped,) = after.transfer.shipped()
        assert shipped.rows_probed - shipped.rows_passed == 1
        assert after.transfer.rows_after["o"] == orders.num_rows
        # The appended layout answered from the appended row alone.
        assert grown.gap_free("o_orderkey")
    finally:
        engine.shutdown()


def test_gap_free_is_recounted_from_the_appended_rows_only():
    old = Table.from_pydict("t", {"k": [3, 1, 2, 2]})
    layout = get_layout(old, 2)
    assert layout.key_range("k") == (1, 3) and layout.gap_free("k")
    for tail, expected in (([4, 0], True), ([5], False), ([2, 3], True)):
        new = old.concat(Table.from_pydict("t", {"k": tail}))
        extended = extend_layout(layout, new)
        assert extended._inherited_distinct == ({"k": (3, 1, 3, True)}, 4)
        assert extended.gap_free("k") is expected, tail
        assert get_layout(new, 2).gap_free("k") is expected  # from scratch


# ----------------------------------------------------------------------
# (4) Robustness: the stripped graphs of the adverse workload
# ----------------------------------------------------------------------
ADVERSE_IDS = (3, 5, 7, 12, 14, "c1")


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(sf=SF, seed=1)


@pytest.mark.parametrize("qid", ADVERSE_IDS)
def test_stripped_graphs_ship_a_tenth_of_the_bloom_work(tpch, qid, monkeypatch):
    spec = get_query(qid, sf=SF)
    spec = dataclasses.replace(
        spec,
        relations=[dataclasses.replace(r, predicate=None) for r in spec.relations],
    )
    gated = run_query(spec, tpch, "predtrans")
    baseline = run_query(spec, tpch, "nopredtrans")
    monkeypatch.setattr(transfer, "proven_cover", never)
    ungated = run_query(spec, tpch, "predtrans")

    def bloom_ops(result) -> int:
        t = result.stats.transfer
        return t.inserted("bloom") + t.probed("bloom")

    assert ungated.stats.transfer.edges_pruned == 0
    assert bloom_ops(gated) <= 0.10 * bloom_ops(ungated), (
        [(e.src, e.dst) for e in gated.stats.transfer.shipped()]
    )
    assert gated.stats.transfer.rows_after == ungated.stats.transfer.rows_after
    assert result_digest(gated.table) == result_digest(ungated.table)
    assert len(gated.table.to_rows()) == len(baseline.table.to_rows())
    for got, want in zip(gated.table.to_rows(), baseline.table.to_rows()):
        assert got == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------
# (5) Every registered query: exact under predtrans, untouched elsewhere
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registry():
    return build_default_registry(SF, seed=1)


def _fingerprint(result):
    stats = result.stats
    return (
        result_digest(result.table),
        [b.transfer.rows_after for b in stats.blocks()],
        [(j.ht_rows, j.pr_rows, j.out_rows) for b in stats.blocks() for j in b.joins],
    )


@pytest.mark.parametrize("materialize", ["lazy", "eager"])
def test_every_registered_query_matches_the_ungated_schedule(
    registry, materialize, monkeypatch
):
    catalog, specs = registry
    assert len(specs) == 39
    config = RunConfig(strategy="predtrans", materialize=materialize)
    gated = {name: run_query(spec, catalog, config=config) for name, spec in specs.items()}
    monkeypatch.setattr(transfer, "proven_cover", never)
    skipped = 0
    for name, spec in specs.items():
        ungated = run_query(spec, catalog, config=config)
        assert ungated.stats.transfer.edges_pruned == 0
        assert _fingerprint(gated[name]) == _fingerprint(ungated), name
        mine, theirs = gated[name].stats.transfer, ungated.stats.transfer
        assert mine.edges_traversed + mine.edges_pruned == theirs.edges_traversed
        skipped += mine.edges_pruned
    assert skipped > 0  # Q9, Q13, Q17, Q18 ... have covered edges


@pytest.mark.parametrize("strategy", ["yannakakis", "bloomjoin"])
def test_other_strategies_never_consult_the_gate(registry, strategy, monkeypatch):
    catalog, specs = registry

    def poisoned(state, edge):
        raise AssertionError(f"{strategy} consulted the gate")

    monkeypatch.setattr(transfer, "proven_cover", poisoned)
    for name, spec in specs.items():
        stats = run_query(spec, catalog, strategy).stats
        for stage in stats.blocks():
            t = stage.transfer
            assert t.edges_pruned == 0, name
            assert t.edges_traversed == len(t.edges), name
