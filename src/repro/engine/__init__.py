"""Vectorized execution engine: joins, aggregation, sorting, statistics."""

from .aggregate import AggSpec, GroupKey, distinct, group_aggregate
from .hashjoin import hash_join, join_indices
from .keys import normalize_join_keys, single_key_i64
from .sort import limit, sort_table
from .stats import JoinStat, QueryStats, TransferStats

__all__ = [
    "AggSpec",
    "GroupKey",
    "JoinStat",
    "QueryStats",
    "TransferStats",
    "distinct",
    "group_aggregate",
    "hash_join",
    "join_indices",
    "limit",
    "normalize_join_keys",
    "single_key_i64",
    "sort_table",
]
