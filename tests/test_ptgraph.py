"""Unit tests for predicate-transfer-graph construction."""

import networkx as nx

from repro.core.ptgraph import allowed_directions, build_pt_graph
from repro.plan.joingraph import build_join_graph
from repro.plan.query import QuerySpec, Relation, edge


def _graph(edges, aliases):
    spec = QuerySpec(
        "q", relations=[Relation(a, f"t_{a}") for a in aliases], edges=edges
    )
    return build_join_graph(spec)


def test_small_to_large_orientation():
    jg = _graph([edge("big", "small", ("k", "k"))], ("big", "small"))
    pt = build_pt_graph(jg, {"big": 1000, "small": 5})
    assert list(pt.digraph.edges) == [("small", "big")]


def test_size_tie_broken_by_alias():
    jg = _graph([edge("b", "a", ("k", "k"))], ("a", "b"))
    pt = build_pt_graph(jg, {"a": 10, "b": 10})
    assert list(pt.digraph.edges) == [("a", "b")]


def test_total_order_gives_dag_on_cycles():
    # Triangle join graph: orientation by size must stay acyclic.
    jg = _graph(
        [
            edge("a", "b", ("k", "k")),
            edge("b", "c", ("k", "k")),
            edge("c", "a", ("k", "k")),
        ],
        ("a", "b", "c"),
    )
    pt = build_pt_graph(jg, {"a": 1, "b": 2, "c": 3})
    assert nx.is_directed_acyclic_graph(pt.digraph)
    assert pt.digraph.number_of_edges() == 3  # no edge dropped
    assert pt.dropped_edges == []


def test_keys_oriented_source_to_dest():
    jg = _graph([edge("big", "small", ("bk", "sk"))], ("big", "small"))
    pt = build_pt_graph(jg, {"big": 100, "small": 1})
    data = pt.digraph.edges["small", "big"]
    assert data["src_keys"] == ("small.sk",)
    assert data["dst_keys"] == ("big.bk",)


def test_left_join_direction_forced_and_irreversible():
    # customer LEFT JOIN orders: only customer->orders is allowed, even
    # though orders is bigger (direction matches) AND even if customer
    # were bigger (force overrides size).
    jg = _graph([edge("c", "o", ("k", "k"), how="left")], ("c", "o"))
    pt = build_pt_graph(jg, {"c": 1000, "o": 10})
    assert list(pt.digraph.edges) == [("c", "o")]
    assert pt.digraph.edges["c", "o"]["reversible"] is False
    assert pt.backward_edges() == []


def test_anti_join_direction_forced():
    jg = _graph([edge("ps", "sc", ("k", "k"), how="anti")], ("ps", "sc"))
    pt = build_pt_graph(jg, {"ps": 5, "sc": 50})
    assert list(pt.digraph.edges) == [("ps", "sc")]
    assert not pt.digraph.edges["ps", "sc"]["reversible"]


def test_semi_join_is_reversible():
    jg = _graph([edge("o", "l", ("k", "k"), how="semi")], ("o", "l"))
    pt = build_pt_graph(jg, {"o": 10, "l": 100})
    assert pt.digraph.edges["o", "l"]["reversible"] is True
    back = pt.backward_edges()
    assert len(back) == 1 and back[0].src == "l" and back[0].dst == "o"


def test_forward_and_backward_edge_sets():
    jg = _graph(
        [edge("a", "b", ("k", "k")), edge("b", "c", ("k", "k"))],
        ("a", "b", "c"),
    )
    pt = build_pt_graph(jg, {"a": 1, "b": 2, "c": 3})
    fwd = {(e.src, e.dst) for e in pt.forward_edges()}
    bwd = {(e.src, e.dst) for e in pt.backward_edges()}
    assert fwd == {("a", "b"), ("b", "c")}
    assert bwd == {("b", "a"), ("c", "b")}


def test_topological_order_and_sources():
    jg = _graph(
        [edge("a", "b", ("k", "k")), edge("b", "c", ("k", "k"))],
        ("a", "b", "c"),
    )
    pt = build_pt_graph(jg, {"a": 1, "b": 2, "c": 3})
    order = pt.topological_order()
    assert order.index("a") < order.index("b") < order.index("c")
    assert pt.sources() == ["a"]


def test_forced_cycle_broken_by_dropping_forced_edge():
    # Forced directions that contradict sizes can create a directed
    # cycle; a forced edge must be dropped, never an unrestricted one.
    jg = _graph(
        [
            edge("a", "b", ("k", "k"), how="left"),   # force a->b
            edge("b", "c", ("k", "k"), how="left"),   # force b->c
            edge("c", "a", ("k", "k"), how="left"),   # force c->a  (cycle!)
        ],
        ("a", "b", "c"),
    )
    pt = build_pt_graph(jg, {"a": 1, "b": 2, "c": 3})
    assert nx.is_directed_acyclic_graph(pt.digraph)
    assert len(pt.dropped_edges) == 1


def test_allowed_directions_matrix():
    assert allowed_directions({"how": "inner"}) == (True, True)
    assert allowed_directions({"how": "semi"}) == (True, True)
    assert allowed_directions({"how": "left"}) == (True, False)
    assert allowed_directions({"how": "anti"}) == (True, False)


def test_q5_pt_graph_matches_paper_figure(small_catalog):
    """The Q5 transfer graph must match Fig. 1b: region->nation->
    {supplier, customer}, supplier->{customer, lineitem},
    customer->orders->lineitem."""
    from repro.core.runner import RunConfig, _scan
    from repro.core.transfer import ExecContext
    from repro.tpch.queries import get_query

    spec = get_query(5, sf=0.01)
    jg = build_join_graph(spec)
    ctx = ExecContext()
    _scan(ctx, spec, small_catalog, RunConfig())
    sizes = ctx.row_counts()
    pt = build_pt_graph(jg, sizes)
    expected = {
        ("r", "n"), ("n", "s"), ("n", "c"), ("s", "c"),
        ("s", "l"), ("c", "o"), ("o", "l"),
    }
    assert set(pt.digraph.edges) == expected
