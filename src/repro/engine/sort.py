"""Sorting, top-K and limit operators."""

from __future__ import annotations

import numpy as np

from ..errors import ExecutionError
from ..storage.column import Column, DType, strictly_increasing
from ..storage.table import Table


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


def sort_table(table: Table, by: list[tuple[str, str]]) -> Table:
    """Sort by a list of ``(column, "asc"|"desc")`` specs (stable).

    The first spec is the primary key, as in SQL ``ORDER BY``.  NULLs
    sort last in either direction.
    """
    if table.num_rows == 0 or not by:
        return table
    keys = []
    for name, direction in reversed(by):  # lexsort: last key is primary
        if direction not in ("asc", "desc"):
            raise ExecutionError(f"bad sort direction {direction!r}")
        column = table.column(name)
        keys.append(_sort_key(column, direction == "desc"))
        if column.valid is not None:
            keys.append(~column.valid)  # outranks the key itself: NULLs last
    return table.take(np.lexsort(keys))


def top_k(table: Table, by: list[tuple[str, str]], k: int) -> Table:
    """Sort and keep the first ``k`` rows (SQL ORDER BY ... LIMIT k)."""
    return sort_table(table, by).head(k)


def limit(table: Table, k: int) -> Table:
    """Keep the first ``k`` rows in current order."""
    return table.head(k)
