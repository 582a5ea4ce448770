"""Join graph construction and inspection.

The join graph (paper Fig. 1a) has one vertex per relation occurrence
and one edge per equi-join.  Multiple key pairs between the same alias
pair are merged into a single composite-key edge (conjunctive equi-join
semantics; residual conditions of parallel inner edges AND together the
same way).  Edge attributes carry everything downstream phases need:
key pairs oriented by endpoint, the join kind, the residual condition
and which endpoint is the syntactic left (for direction-restricted
kinds).

Self-loop edges (``left == right``) are rejected with a precise error:
they denote row-local comparisons, which
:func:`repro.plan.rewrite.fold_self_edges` folds into local predicates
before the graph is built.
"""

from __future__ import annotations

import networkx as nx

from ..errors import PlanError
from ..expr.nodes import And
from .query import JoinEdge, QuerySpec


def build_join_graph(spec: QuerySpec) -> nx.Graph:
    """Build an undirected join graph from a query spec.

    Edge data keys:

    * ``keys`` — list of ``(u_col, v_col)`` *qualified* column pairs,
      oriented so the first element belongs to the lexically smaller
      endpoint stored in ``u_of_keys``;
    * ``how`` — join kind;
    * ``syntactic_left`` — the alias that was the left side of the
      original :class:`JoinEdge` (meaningful for left/anti kinds);
    * ``residual`` — non-equi condition or ``None``.
    """
    graph = nx.Graph()
    for relation in spec.relations:
        graph.add_node(relation.alias, table=relation.table)
    for e in spec.edges:
        _add_edge(graph, e, spec.name)
    return graph


def _add_edge(graph: nx.Graph, e: JoinEdge, query_name: str) -> None:
    if e.left == e.right:
        # A self-loop would silently corrupt every downstream consumer
        # (spanning trees skip it, the PT-DAG cycle breaker drops it,
        # the join phase never applies it).  The runner folds such
        # edges into local predicates before graph construction
        # (:func:`repro.plan.rewrite.fold_self_edges`); reaching here
        # means a caller built the graph from an unfolded spec.
        raise PlanError(
            f"self-loop join edge on alias {e.left!r} in {query_name!r}: "
            "a join of an alias with itself is a row-local comparison — "
            "fold it with fold_self_edges(), or introduce a second alias "
            "occurrence of the table"
        )
    how, syntactic_left = e.how, e.left
    if how == "right":
        # Normalize: (L right-outer R) executes and transfers as
        # (R left-outer L).
        how, syntactic_left = "left", e.right
    u, v = sorted((e.left, e.right))
    pairs = list(zip(e.qualified_left(), e.qualified_right()))
    if u != e.left:
        pairs = [(b, a) for a, b in pairs]
    if graph.has_edge(u, v):
        data = graph.edges[u, v]
        if data["how"] != how or how != "inner":
            raise PlanError(
                f"cannot merge parallel non-inner edges {u}-{v} in {query_name!r}"
            )
        for pair in pairs:
            if pair not in data["keys"]:
                data["keys"].append(pair)
        if e.residual is not None:
            # Parallel inner edges merge conjunctively: the combined
            # edge matches a pair iff every contributing edge does, so
            # residual conditions AND together like the key pairs.
            if data["residual"] is None:
                data["residual"] = e.residual
            else:
                data["residual"] = And(data["residual"], e.residual)
        return
    graph.add_edge(
        u,
        v,
        keys=pairs,
        how=how,
        syntactic_left=syntactic_left,
        residual=e.residual,
        u_of_keys=u,
    )


def edge_keys_for(graph: nx.Graph, a: str, b: str) -> list[tuple[str, str]]:
    """Key pairs of edge ``a``–``b`` oriented as ``(a_col, b_col)``."""
    try:
        data = graph.edges[a, b]
    except KeyError:
        # Same code the static analyzer assigns to invalid join steps
        # (REP116), so runtime and `repro check` report identically.
        raise PlanError(
            f"REP116: no join edge between {a!r} and {b!r}; the join "
            f"order requests a step the graph cannot serve"
        ) from None
    pairs = data["keys"]
    if data["u_of_keys"] == a:
        return list(pairs)
    return [(q, p) for p, q in pairs]
