"""Cardinality estimation.

The textbook equi-join estimator: ``|A ⋈ B| ≈ |A|·|B| / max(V(A,k), V(B,k))``
with independence across composite key columns.  Distinct counts are
computed exactly over the (already scanned, possibly filtered) inputs —
the engine is in-memory, so an exact NDV pass is cheap and keeps the
optimizer deterministic.
"""

from __future__ import annotations

import numpy as np

from ..engine.factorize import count_distinct
from ..storage.column import Column
from ..storage.table import Table


def ndv(column: Column, rows: np.ndarray | None = None) -> int:
    """Exact number of distinct values in a column (or a row subset)."""
    return count_distinct(column.data if rows is None else column.data[rows])


class NdvCache:
    """Memoized per-(alias, column) distinct counts over reduced tables."""

    def __init__(self, tables: dict[str, Table]) -> None:
        self._tables = tables
        self._cache: dict[tuple[str, str], int] = {}

    def get(self, alias: str, column: str) -> int:
        """NDV of ``alias.column`` (qualified name) in the reduced table."""
        key = (alias, column)
        if key not in self._cache:
            self._cache[key] = ndv(self._tables[alias].column(column))
        return self._cache[key]


def estimate_join_rows(
    left_rows: float,
    right_rows: float,
    key_ndvs: list[tuple[int, int]],
) -> float:
    """Estimate inner-join output size for one or more key equalities.

    ``key_ndvs`` holds ``(ndv_left, ndv_right)`` per key column;
    independence is assumed across columns.
    """
    est = left_rows * right_rows
    for ndv_l, ndv_r in key_ndvs:
        denom = max(ndv_l, ndv_r, 1)
        est /= denom
    return max(est, 0.0)
