"""Structural tests for the 22 TPC-H query specifications."""

import networkx as nx
import pytest

from repro.plan.joingraph import build_join_graph
from repro.tpch.queries import (
    ALL_QUERY_IDS,
    BENCH_QUERY_IDS,
    Q5_JOIN_ORDERS,
    get_query,
)


def test_all_queries_build():
    for qid in ALL_QUERY_IDS:
        spec = get_query(qid, sf=0.01)
        assert spec.name == f"q{qid}"
        build_join_graph(spec)  # must not raise


def test_bench_set_excludes_no_join_queries():
    assert 1 not in BENCH_QUERY_IDS and 6 not in BENCH_QUERY_IDS
    assert len(BENCH_QUERY_IDS) == 20


def test_unknown_query_rejected():
    with pytest.raises(ValueError):
        get_query(23)


def test_q1_q6_have_no_joins():
    for qid in (1, 6):
        spec = get_query(qid)
        assert len(spec.relations) == 1
        assert spec.edges == []


def test_q2_has_nine_relation_occurrences():
    """The paper describes Q2 as joining across nine tables; five in the
    main block plus the aggregate, and five inside the pre-stage."""
    spec = get_query(2)
    stage_rels = spec.pre_stages[0].spec.relations
    assert len(spec.relations) + len(stage_rels) == 11  # incl. derived + part twice
    assert len([r for r in spec.relations if r.table != "q2_mincost"]) == 5
    assert len(stage_rels) == 5


def test_q5_join_graph_is_cyclic_with_seven_edges():
    spec = get_query(5)
    graph = build_join_graph(spec)
    assert graph.number_of_nodes() == 6
    assert graph.number_of_edges() == 7
    assert not nx.is_forest(graph)


def test_q5_join_orders_cover_all_relations():
    spec = get_query(5)
    for order in Q5_JOIN_ORDERS.values():
        spec.validate_join_order(list(order))
    assert spec.join_order == Q5_JOIN_ORDERS["order1"]


def test_q9_join_graph_is_cyclic():
    graph = build_join_graph(get_query(9))
    assert not nx.is_forest(graph)


def test_outer_and_anti_edges_where_paper_says():
    q13 = build_join_graph(get_query(13))
    assert q13.edges["c", "o"]["how"] == "left"
    q16 = build_join_graph(get_query(16))
    assert q16.edges["ps", "sc"]["how"] == "anti"
    q22 = build_join_graph(get_query(22))
    assert q22.edges["c", "o"]["how"] == "anti"


def test_semi_edges_where_expected():
    q4 = build_join_graph(get_query(4))
    assert q4.edges["o", "l"]["how"] == "semi"
    q20 = get_query(20)
    main = build_join_graph(q20)
    assert main.edges["s", "k"]["how"] == "semi"


def test_pre_stage_structure():
    assert [s.output for s in get_query(15).pre_stages] == [
        "q15_revenue",
        "q15_max",
    ]
    assert [s.output for s in get_query(21).pre_stages] == [
        "q21_nsupp",
        "q21_nlate",
    ]
    assert [s.output for s in get_query(17).pre_stages] == ["q17_avgqty"]


def test_q11_threshold_scales_with_sf():
    # The HAVING literal is 0.0001/SF per the TPC-H spec.
    from repro.expr.nodes import Arithmetic, Literal

    spec = get_query(11, sf=0.01)
    having = spec.post[1].predicate
    threshold = having.right
    assert isinstance(threshold, Arithmetic)
    assert threshold.right == Literal(0.0001 / 0.01)


def test_q7_residual_pair_condition_present():
    spec = get_query(7)
    assert len(spec.residuals) == 1
    cols = spec.residuals[0].columns()
    assert cols == {"n1.n_name", "n2.n_name"}


def test_q19_residual_references_both_tables():
    spec = get_query(19)
    cols = spec.residuals[0].columns()
    assert any(c.startswith("l.") for c in cols)
    assert any(c.startswith("p.") for c in cols)


def test_multi_key_edges_q9_q20():
    q9 = build_join_graph(get_query(9))
    assert len(q9.edges["l", "ps"]["keys"]) == 2
    stage = get_query(20).pre_stages[0].spec
    graph = build_join_graph(stage)
    assert len(graph.edges["ps", "lq"]["keys"]) == 2
