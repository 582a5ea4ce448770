"""Cardinality estimation.

The textbook equi-join estimator: ``|A ⋈ B| ≈ |A|·|B| / max(V(A,k),
V(B,k))``, where ``k`` is the whole join key — all the equalities that
join the two inputs, as one composite key — and ``V`` a side's number
of distinct keys (:mod:`repro.optimizer.joinorder` composes it).

Distinct counts are catalog statistics: one count per base column and
table version, memoized beside the zone maps
(:meth:`~repro.storage.partition.PartitionLayout.distinct_count`), so
ordering a query reads no rows once its key columns have been counted.
The estimator caps a relation's count at its rows, so a filtered
relation's NDV is ``min(catalog NDV, local rows)``.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Mapping

from ..storage.partition import get_layout
from ..storage.table import Table

#: ``(alias, "alias.column")`` → distinct count of the base column.
NdvLookup = Callable[[str, str], int]


def catalog_ndv(bases: Mapping[str, Table], partition_rows: int) -> NdvLookup:
    """Distinct counts of the relations' columns, from the catalog.

    ``bases`` maps each alias to the base table it scans; a column is
    named as the scan exposes it (``alias.short``, see
    :meth:`~repro.storage.table.Table.prefixed`).  Answers are memoized
    for the lookup's lifetime: one query's planning.
    """

    @cache
    def lookup(alias: str, column: str) -> int:
        base = bases[alias]
        names = {f"{alias}.{name.split('.', 1)[-1]}": name for name in base.columns}
        return get_layout(base, partition_rows).distinct_count(names[column])

    return lookup


def estimate_join_rows(
    left_rows: float, right_rows: float, ndv_left: int, ndv_right: int
) -> float:
    """Estimated inner-join output of two inputs whose join keys take
    ``ndv_left`` and ``ndv_right`` distinct values."""
    return max(left_rows * right_rows / max(ndv_left, ndv_right, 1), 0.0)
