"""Join-order optimization substrate (stand-in for Apache Calcite)."""

from .cardinality import catalog_ndv, estimate_join_rows
from .joinorder import greedy_join_order, step_estimates

__all__ = ["catalog_ndv", "estimate_join_rows", "greedy_join_order", "step_estimates"]
