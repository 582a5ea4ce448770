"""Query representation: specs, join graphs, scalar-subquery rewriting."""

from .joingraph import build_join_graph, edge_keys_for
from .pruning import live_columns
from .query import (
    Aggregate,
    Filter,
    JoinEdge,
    Limit,
    Project,
    QuerySpec,
    Relation,
    Sort,
    Stage,
    edge,
)
from .rewrite import resolve_scalars

__all__ = [
    "Aggregate",
    "Filter",
    "JoinEdge",
    "Limit",
    "Project",
    "QuerySpec",
    "Relation",
    "Sort",
    "Stage",
    "build_join_graph",
    "edge",
    "edge_keys_for",
    "live_columns",
    "resolve_scalars",
]
