"""Unit tests for join-graph construction."""

import networkx as nx
import pytest

from repro.errors import PlanError
from repro.plan.joingraph import build_join_graph, edge_keys_for
from repro.plan.query import QuerySpec, Relation, edge


def _spec(edges, aliases=("a", "b", "c")):
    return QuerySpec(
        "q", relations=[Relation(x, f"t_{x}") for x in aliases], edges=edges
    )


def test_vertices_and_edges():
    g = build_join_graph(_spec([edge("a", "b", ("k", "k2"))]))
    assert set(g.nodes) == {"a", "b", "c"}
    assert g.has_edge("a", "b")
    assert g.nodes["a"]["table"] == "t_a"


def test_edge_keys_orientation():
    g = build_join_graph(_spec([edge("b", "a", ("bk", "ak"))]))
    assert edge_keys_for(g, "a", "b") == [("a.ak", "b.bk")]
    assert edge_keys_for(g, "b", "a") == [("b.bk", "a.ak")]


def test_parallel_inner_edges_merge_into_composite():
    g = build_join_graph(
        _spec([edge("a", "b", ("k1", "j1")), edge("a", "b", ("k2", "j2"))])
    )
    assert edge_keys_for(g, "a", "b") == [("a.k1", "b.j1"), ("a.k2", "b.j2")]


def test_duplicate_key_pair_not_repeated():
    g = build_join_graph(
        _spec([edge("a", "b", ("k", "j")), edge("a", "b", ("k", "j"))])
    )
    assert len(edge_keys_for(g, "a", "b")) == 1


def test_parallel_non_inner_edges_rejected():
    with pytest.raises(PlanError):
        build_join_graph(
            _spec(
                [
                    edge("a", "b", ("k", "j"), how="semi"),
                    edge("a", "b", ("k2", "j2"), how="semi"),
                ]
            )
        )


def test_right_join_normalized_to_left():
    g = build_join_graph(_spec([edge("a", "b", ("k", "j"), how="right")]))
    data = g.edges["a", "b"]
    assert data["how"] == "left"
    assert data["syntactic_left"] == "b"


def test_left_join_keeps_syntactic_left():
    g = build_join_graph(_spec([edge("b", "a", ("k", "j"), how="left")]))
    assert g.edges["a", "b"]["syntactic_left"] == "b"


def test_acyclicity_detection():
    chain = build_join_graph(
        _spec([edge("a", "b", ("k", "k")), edge("b", "c", ("k", "k"))])
    )
    assert nx.is_forest(chain)
    cycle = build_join_graph(
        _spec(
            [
                edge("a", "b", ("k", "k")),
                edge("b", "c", ("k", "k")),
                edge("c", "a", ("k", "k")),
            ]
        )
    )
    assert not nx.is_forest(cycle)


def test_connected_components_and_validation():
    g = build_join_graph(_spec([edge("a", "b", ("k", "k"))]))
    comps = nx.connected_components(g)
    assert {frozenset(c) for c in comps} == {
        frozenset({"a", "b"}),
        frozenset({"c"}),
    }
    full = build_join_graph(
        _spec([edge("a", "b", ("k", "k")), edge("b", "c", ("k", "k"))])
    )
    assert nx.is_connected(full) and not nx.is_connected(g)


def test_self_loop_edge_rejected_with_precise_error():
    spec = QuerySpec(
        "q", relations=[Relation("a", "t_a")], edges=[edge("a", "a", ("x", "y"))]
    )
    with pytest.raises(PlanError, match="self-loop join edge on alias 'a'"):
        build_join_graph(spec)


def test_parallel_inner_edges_merge_residuals_conjunctively():
    from repro.expr.nodes import col, lit

    r1 = col("a.x").gt(lit(1))
    r2 = col("b.y").lt(lit(9))
    g = build_join_graph(
        _spec(
            [
                edge("a", "b", ("k1", "j1"), residual=r1),
                edge("a", "b", ("k2", "j2"), residual=r2),
            ]
        )
    )
    merged = g.edges["a", "b"]["residual"]
    from repro.expr.nodes import And

    assert isinstance(merged, And)
    assert merged.left is r1 and merged.right is r2
    # Key pairs still merge into the composite key.
    assert len(edge_keys_for(g, "a", "b")) == 2
