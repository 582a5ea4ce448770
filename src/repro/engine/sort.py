"""Sorting, top-K and limit operators.

**Top-k.**  ``ORDER BY … LIMIT k`` over more than ``k`` rows selects
before it sorts: the primary sort key is partitioned around its
``k``-th smallest value, every row at or below that value is a
candidate (ties included, in row order), and only the candidates are
lexsorted.  The first ``k`` rows of that sort are the first ``k`` of
the full one, because a stable sort restricted to a superset of the
top ``k`` keeps their order.  When the primary key holds a NULL, or
its ``k``-th value is a NaN, every row is a candidate.
"""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column, DType, strictly_increasing
from ..storage.table import Table
from .stats import QueryStats


def _sort_key(column: Column, descending: bool) -> np.ndarray:
    """One ``lexsort`` key for a column, in its own physical width.

    Integer, date and boolean keys stay integers (a detour through
    ``float64`` misorders INT64 values above 2**53); strings sort by
    the rank of their dictionary entry in Python ``str`` order (the codes
    themselves when the dictionary is strictly increasing).  Descending order
    is ``~key`` for integers, which reverses them without the overflow
    negation has at the minimum value.  The value under a NULL is
    replaced by a constant so that NULL rows tie and fall through to the
    next key; :func:`sort_table` places them last.
    """
    key = column.data
    if column.dtype is DType.STRING:
        assert column.dictionary is not None
        if not strictly_increasing(column.dictionary):
            # An unsorted pool (``from_codes``) may repeat an entry: rank
            # equal strings equally so that they tie.
            _, ranks = np.unique(column.dictionary, return_inverse=True)
            key = ranks[key]
    if descending:
        key = -key if column.dtype is DType.FLOAT64 else ~key
    if column.valid is not None:
        key = np.where(column.valid, key, key.dtype.type(0))
    return key


def _top_candidates(column: Column, descending: bool, k: int) -> np.ndarray | None:
    """Rows whose primary key is at most the ``k``-th smallest (``0 < k
    < len(column)``), in row order; ``None`` when that cannot be told
    from the key alone (a NULL, or a NaN ``k``-th value)."""
    if column.valid is not None and not column.valid.all():
        return None
    key = _sort_key(column, descending)
    kth = np.partition(key, k - 1)[k - 1]
    if kth != kth:  # NaN sorts last: the candidates are not bounded
        return None
    return np.flatnonzero(key <= kth)


def sort_table(
    table: Table,
    by: list[tuple[str, str]],
    k: int | None = None,
    stats: QueryStats | None = None,
) -> Table:
    """Sort by a list of ``(column, "asc"|"desc")`` specs (stable).

    The first spec is the primary key, as in SQL ``ORDER BY``.  NULLs
    sort last in either direction.  With ``k`` only the first ``k``
    rows are returned, and only the top-k candidates (see the module
    docstring) are sorted.  ``stats.rows_sorted`` counts the rows that
    entered the sort.
    """
    rows: np.ndarray | None = None  # the top-k candidates, when only they are sorted
    if k is not None and k < table.num_rows:
        if k <= 0:
            return table.head(0)
        if by:
            name, direction = by[0]
            rows = _top_candidates(table.column(name), direction == "desc", k)
    if table.num_rows == 0 or not by:
        return table if k is None else table.head(k)
    keys = []
    for name, direction in reversed(by):  # lexsort: last key is primary
        if direction not in ("asc", "desc"):
            raise ExecutionError(f"bad sort direction {direction!r}")
        column = table.column(name)
        if rows is not None:
            column = column.take(rows)
        keys.append(_sort_key(column, direction == "desc"))
        if column.valid is not None:
            keys.append(~column.valid)  # outranks the key itself: NULLs last
    order = np.lexsort(keys)
    if stats is not None:
        stats.rows_sorted += len(order)
    if k is not None:
        order = order[:k]
    return table.take(order if rows is None else rows[order])


def limit(table: Table, k: int) -> Table:
    """Keep the first ``k`` rows in current order."""
    return table.head(k)
