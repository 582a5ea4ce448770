"""Predicate transfer core: PT graph, transfer engine, strategies."""

from .costmodel import (
    CostParams,
    blowup_factor,
    cost_from_stats,
    epsilon_prime,
    predicted_ranking,
    predtrans_cost,
    yannakakis_cost,
)
from .ptgraph import PTEdge, PTGraph, allowed_directions, build_pt_graph
from .runner import STRATEGIES, QueryResult, RunConfig, run_query
from .transfer import TransferConfig, run_transfer_rows
from .yannakakis import JoinTree, build_join_tree, run_semi_join_rows

__all__ = [
    "CostParams",
    "JoinTree",
    "blowup_factor",
    "cost_from_stats",
    "epsilon_prime",
    "predicted_ranking",
    "predtrans_cost",
    "yannakakis_cost",
    "PTEdge",
    "PTGraph",
    "QueryResult",
    "RunConfig",
    "STRATEGIES",
    "TransferConfig",
    "allowed_directions",
    "build_join_tree",
    "build_pt_graph",
    "run_query",
    "run_semi_join_rows",
    "run_transfer_rows",
]
