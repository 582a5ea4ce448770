"""Vectorized grouped and scalar aggregation.

``GROUP BY``, ``COUNT(DISTINCT)`` and ``DISTINCT`` all group rows with one
kernel, :func:`repro.engine.factorize.group_rows`, and compute their
aggregates over its dense group ids with ``bincount`` / ``ufunc.at``
scatters.

**The kernel.**  Key columns are folded left to right into ``(gid,
first)``: a dense group id per row and the first row of each group.  For
each column it takes the cheapest step its input allows:

1. *Skip.*  A column that is constant within every group so far (one
   gather and one compare, after a 1 024-row sample) cannot split a
   group and is not factorized at all -- the ``c_custkey, c_name,
   c_acctbal, ...`` shape of Q3/Q10/Q18.  Once every row is its own
   group, every remaining column is skipped.
2. *Codes without a sort.*  Dictionary codes for STRING, 0/1 for BOOL,
   ``value - min`` for INT64/DATE (the value itself when it is small and
   non-negative).  Codes are order-preserving and packed with the groups
   so far as ``gid * cardinality + code``.
3. *Runs.*  Packed codes that never decrease (Q18's stage sums
   lineitem by ``l_orderkey``, which arrives in order) are already
   grouped: the run heads' ``cumsum`` is the group id and their
   positions the first rows.  The endpoints and a 1 024-row sample
   reject unsorted input before the full compare pass.
4. *Direct address.*  When the packed space has at most
   ``DIRECT_ADDRESS_SLOTS_PER_ROW`` (4) slots per input row, a presence
   bitmap over it, its ``cumsum`` as the remap table and a
   ``minimum.at`` scatter for the first rows densify it in a few linear
   passes.
5. *Sort.*  A sparser space is sorted: integers with their row number in
   the low bits, so a plain in-place sort is stable and carries its own
   permutation; ``np.unique`` only where no row tag fits beside the key
   or no integer code exists (FLOAT64, INT64 spanning over 62 bits).

Which step runs depends only on what the kernel observes in the column
(type, span, validity, row and group counts); the result does not.

**The bound.**  Direct-address tables cost one presence byte and one
remap word per slot, so at 4 slots per row they stay under 36 bytes per
input row -- what ``np.unique`` spends on its argsort, sorted copy and
inverse -- and are freed before any aggregate runs.  A 100-row input
with keys up to 10**9 therefore sorts 100 rows; it never allocates 10**9
slots.

**Ordering.**  Groups come out in ascending key order, column by column
(dictionary-code order for strings, NaN after every number, ``-0.0``
with ``0.0``), and each output key is the value at the group's first
row.

**NULLs.**  A NULL key is one more code of its column, after every
value: NULL rows form their own group, sorted last (like
:func:`~repro.engine.sort.sort_table`), and the output key is NULL.
What sits in the data slot under a NULL is never read.  NULL aggregate
inputs (which arise only after outer joins) are excluded from every
aggregate, matching SQL; ``COUNT(*)`` counts rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ExecutionError
from ..expr.eval import evaluate
from ..expr.nodes import ColumnRef, Expr
from ..storage.column import Column
from ..storage.table import Table
from .factorize import group_rows

_AGG_FUNCS = ("sum", "count", "count_star", "avg", "min", "max", "count_distinct")

#: Aggregates only plan rewrites produce; no query spells them, and the
#: analyzer, which accepts ``_AGG_FUNCS``, rejects them.  ``sum_counts``
#: adds up partial counts, a NULL one (an outer join's missing partner)
#: adding 0, into an INT64 count: the upper half of an eager ``COUNT``
#: or ``COUNT(*)`` (:func:`repro.plan.rewrite.eager_aggregation`; its
#: partial sums add up under plain ``sum``).
_INTERNAL_FUNCS = ("sum_counts",)


@dataclass(frozen=True)
class GroupKey:
    """One grouping key: an output name plus the expression producing it."""

    name: str
    expr: Expr = field(default=None)  # type: ignore[assignment]

    def resolved_expr(self) -> Expr:
        """The key expression (defaults to a reference to ``name``)."""
        return self.expr if self.expr is not None else ColumnRef(self.name)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: function, input expression, output column name."""

    func: str
    input: Expr | None
    name: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS + _INTERNAL_FUNCS:
            raise ExecutionError(f"unknown aggregate {self.func!r}")
        if self.func != "count_star" and self.input is None:
            raise ExecutionError(f"aggregate {self.func!r} needs an input")


def group_aggregate(
    table: Table,
    keys: list[GroupKey],
    aggs: list[AggSpec],
    result_name: str = "agg",
) -> Table:
    """Group ``table`` by ``keys`` and compute ``aggs`` per group.

    With no keys this is a scalar aggregation producing exactly one row
    (even over empty input, matching SQL).
    """
    key_columns = [evaluate(k.resolved_expr(), table) for k in keys]
    gid, first = group_rows(key_columns, table.num_rows)
    n_groups = len(first) if keys else 1

    out: dict[str, Column] = {}
    for key, column in zip(keys, key_columns):
        out[key.name] = column.take(first)

    # Aggregates over one expression (Q1's three uses of the discounted
    # price) share its evaluation.  Keyed by ``repr`` because node
    # equality conflates ``lit(1)``, ``lit(1.0)`` and ``lit(True)``.
    inputs: dict[str, Column] = {}
    for agg in aggs:
        column: Column | None = None
        if agg.input is not None:
            memo = repr(agg.input)
            if memo not in inputs:
                inputs[memo] = evaluate(agg.input, table)
            column = inputs[memo]
        out[agg.name] = _compute_agg(agg.func, column, gid, first, n_groups)
    return Table(result_name, out)


def _compute_agg(
    func: str,
    column: Column | None,
    gid: np.ndarray,
    first: np.ndarray,
    n_groups: int,
) -> Column:
    if column is None:  # count_star
        return Column.from_ints(np.bincount(gid, minlength=n_groups))
    valid = column.valid
    row_gid = gid if valid is None else gid[valid]

    if func == "count":
        return Column.from_ints(np.bincount(row_gid, minlength=n_groups))
    if func == "count_distinct":
        # Distinct (group, value) pairs are the groups of a finer
        # grouping; each is counted once, at its first row.
        _, pair_first = group_rows([column], len(gid), within=(gid, first))
        if valid is not None:
            pair_first = pair_first[valid[pair_first]]
        return Column.from_ints(np.bincount(gid[pair_first], minlength=n_groups))
    if func == "sum_counts":
        counts = column.data if valid is None else column.data[valid]
        # Float weights are exact here: a count stays far below 2**53.
        sums = np.bincount(row_gid, weights=counts, minlength=n_groups)
        return Column.from_ints(sums.astype(np.int64))

    values = column.data.astype(np.float64, copy=False)
    row_vals = values if valid is None else values[valid]
    if func == "sum":
        sums = np.bincount(row_gid, weights=row_vals, minlength=n_groups)
        return Column.from_floats(sums)
    if func == "avg":
        sums = np.bincount(row_gid, weights=row_vals, minlength=n_groups)
        counts = np.bincount(row_gid, minlength=n_groups)
        with np.errstate(invalid="ignore", divide="ignore"):
            return Column.from_floats(sums / counts)
    if func in ("min", "max"):
        init = np.inf if func == "min" else -np.inf
        acc = np.full(n_groups, init, dtype=np.float64)
        scatter = np.minimum if func == "min" else np.maximum
        scatter.at(acc, row_gid, row_vals)
        return Column.from_floats(acc)
    raise ExecutionError(f"unknown aggregate {func!r}")  # pragma: no cover


def distinct(table: Table, columns: list[str], result_name: str = "distinct") -> Table:
    """Distinct rows over the given columns (a group-by with no aggregates)."""
    keys = [GroupKey(name) for name in columns]
    return group_aggregate(table, keys, [], result_name=result_name)
