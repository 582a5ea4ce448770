"""Query representation: specs, join graphs, scalar-subquery rewriting."""

from .joingraph import (
    build_join_graph,
    connected_components,
    edge_keys_for,
    is_acyclic_graph,
    validate_connected,
)
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
    "connected_components",
    "edge",
    "edge_keys_for",
    "is_acyclic_graph",
    "live_columns",
    "resolve_scalars",
    "validate_connected",
]
