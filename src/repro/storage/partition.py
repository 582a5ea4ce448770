"""Horizontal partition layouts with per-partition zone maps.

Every base :class:`~repro.storage.table.Table` can be viewed as a
sequence of fixed-size row chunks (**partitions**).  The layout carries
one **zone map** per numeric/date column: the per-partition minimum,
maximum, null count and valid-row count.  Scans consult the zone maps
to skip entire partitions whose value range provably cannot satisfy a
local predicate and evaluate the rest one partition at a time
(:func:`repro.core.runner._scan_selection`).

This module also owns the **value ranges** a predicate admits.
:func:`read_leaf` turns a leaf — a comparison, ``BETWEEN`` or ``IN`` of
a column or ``YEAR(column)`` against numbers or dates, in either
operand order — into :class:`Admits`: bounds with open or closed ends,
a point set, or an excluded point (``!=``).  :meth:`PartitionLayout.prune`
tests them against each partition's min/max (and ``IS [NOT] NULL``
against its null counts); the analyzer's ``REP112`` warning intersects
them per operand across a conjunction (:func:`empty_operand`).

Beside the zone maps the layout keeps **column statistics**.  Every
column has a distinct count (:meth:`PartitionLayout.distinct_count`,
over its valid rows: NULLs are not a value), the join-order estimator's
input.  NULL-free ``INT64``/``DATE`` columns also have a value range
(:meth:`PartitionLayout.key_range`, read off the zone map) and a gap
test (:meth:`PartitionLayout.gap_free`: the distinct count equals
max − min + 1).  The predicate transfer schedule uses the last two to
prove that a filter over the column would pass every key of another
column and need not be built (:func:`repro.core.transfer.proven_cover`).
Like a zone map, a statistic is computed on first request — by the
query that asks, never by an ingest commit, so never under the
catalog's lock — and remembered for the table's lifetime; a range wider
than the table has rows is answered without reading the column.

Determinism and invalidation guarantees
---------------------------------------
* Pruning is **conservative**: a partition is skipped only when its
  zone map proves that *no valid row* in it can satisfy the predicate
  (null rows never satisfy a value predicate under the engine's SQL
  WHERE semantics, and float min/max are computed NaN-ignoring via
  ``fmin``/``fmax`` — a NaN row never satisfies an ordering/equality
  comparison, while ``!=``, which NaN *does* satisfy, is never pruned
  on float columns).  The surviving-row selection vector is therefore
  byte-identical to an unpruned full scan, whatever the partition size.
* Layouts are **memoized on the table object** (a private slot, so a
  layout lives exactly as long as its table).  A layout keeps the
  table's column mapping and row count, never the table itself, so the
  memo forms no reference cycle: a superseded table is freed by
  refcount the moment its last reader lets go, not at the next full
  cycle collection.  Tables are immutable:
  ``concat``/replace-style mutation produces a *new* ``Table`` object,
  which naturally gets a fresh layout while the old one stays
  collectable — together with the catalog's monotonic data-version
  bump (which orphans cached selection vectors), stale zone maps can
  never be consulted for new data.
* Appends are the exception to "fresh layout": the old table's rows
  are an unchanged prefix of the new table's, so
  :func:`carry_layouts` (called by ingest commits) seeds the new
  object's layout with the old one's already-built zone maps for
  every *full* prefix chunk, and only the partial tail chunk plus the
  delta chunks are computed.  This is sound because zone maps exist
  only for ``INT64``/``FLOAT64``/``DATE`` columns, and their
  ``concat`` never changes a row the old table shows: it writes the
  delta past them in the same buffer or copies them unchanged into a
  new one, so prefix values are byte-identical (``STRING`` concat may
  re-encode codes, but strings are never zoned).  The
  distinct count of an ``INT64``/``DATE`` column carries over the same
  way: the old count plus the distinct appended values outside the old
  range, O(appended rows).  An appended value inside the old range may
  be one the old rows lacked, so an inherited count is a lower bound,
  exact when the old rows held every integer of their range.  That is
  enough for an estimate, and for the gap test a lower bound equal to
  the span is still a proof; a smaller inexact count is recounted when
  the gap test next asks.
* Zone maps are a pure function of table contents; nothing about the
  layout (partition size, partition count) participates in cross-query
  cache fingerprints, so cached artifacts stay valid across partition
  sizes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from ..expr import nodes as N
from .column import Column, DType
from .dates import date_to_days, years_of
from .table import Table

#: Default partition chunk size (rows).  Small enough that a one-year
#: date predicate over the ~7-year TPC-H range prunes chunks even at
#: bench scale factors, large enough that the per-partition overhead of
#: a pruned scan stays negligible.
DEFAULT_PARTITION_ROWS = 32768

#: Column types that carry zone maps (min/max are meaningful and cheap).
_ZONED = (DType.INT64, DType.FLOAT64, DType.DATE)

#: Column types whose values are integers of a key domain.
_KEYED = (DType.INT64, DType.DATE)


@dataclass(frozen=True)
class ZoneMap:
    """Per-partition statistics of one column.

    ``mins``/``maxs`` are computed over **valid** rows only (native
    dtype; partitions with no valid row hold the dtype's
    max/min sentinels, so every value-satisfiability test fails and
    the ``valid_counts > 0`` guard in :meth:`PartitionLayout.prune`
    makes them prunable for any value predicate).
    """

    column: str
    mins: np.ndarray
    maxs: np.ndarray
    null_counts: np.ndarray
    valid_counts: np.ndarray


class _Distinct(NamedTuple):
    """A column's number of distinct valid values; for an ``INT64``/
    ``DATE`` column also the range they span (``(0, -1)`` otherwise, and
    when there are none).  ``exact`` is False for a count inherited
    across an append that may have missed appended values: a lower
    bound."""

    count: int
    low: int
    high: int
    exact: bool


class PartitionLayout:
    """A fixed-size horizontal chunking of one table, with zone maps.

    Zone maps are built lazily per column on first use and cached on
    the layout (which is itself cached per table object via
    :func:`get_layout`); building is O(rows) per column, vectorized
    with ``reduceat``.
    """

    __slots__ = (
        "columns", "num_rows", "partition_rows", "starts", "stops",
        "_zones", "_inherited", "reused_chunks", "_lock",
        "_distinct", "_inherited_distinct",
    )

    def __init__(self, table: Table, partition_rows: int = DEFAULT_PARTITION_ROWS) -> None:
        if partition_rows < 1:
            raise ValueError("partition_rows must be >= 1")
        # The table's column mapping and row count, not the table: the
        # table memoizes this layout, so a back-reference would make a
        # cycle and keep every superseded table alive until a full GC.
        self.columns: Mapping[str, Column] = table.columns
        self.num_rows = n = table.num_rows
        self.partition_rows = int(partition_rows)
        self.starts = np.arange(0, n, self.partition_rows, dtype=np.int64)
        self.stops = np.minimum(self.starts + self.partition_rows, n)
        self._zones: dict[str, ZoneMap | None] = {}  # guarded-by: _lock
        # Zone maps inherited from a pre-append layout: (built zones of
        # the old layout, number of full prefix chunks they remain
        # valid for).  Set only by extend_layout(); see module
        # docstring for why prefix reuse is sound.
        self._inherited: tuple[dict[str, ZoneMap], int] | None = None
        self.reused_chunks = 0  # guarded-by: _lock
        # Distinct counts (see distinct_count()), per column asked about.
        self._distinct: dict[str, _Distinct] = {}  # guarded-by: _lock
        # From a pre-append layout: (its key columns' counts, its row
        # count).  Set only by extend_layout().
        self._inherited_distinct: tuple[dict[str, _Distinct], int] | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        """Number of row chunks (0 for an empty table)."""
        return len(self.starts)

    def bounds(self, i: int) -> tuple[int, int]:
        """Half-open row range ``[start, stop)`` of partition ``i``."""
        return int(self.starts[i]), int(self.stops[i])

    # ------------------------------------------------------------------
    def zone(self, column: str) -> ZoneMap | None:
        """The zone map of ``column`` (``None`` for unzoned types)."""
        with self._lock:
            if column in self._zones:
                return self._zones[column]
        built = self._build_zone(column)
        with self._lock:
            return self._zones.setdefault(column, built)

    def _build_zone(self, column: str) -> ZoneMap | None:
        col = self.columns[column]
        if col.dtype not in _ZONED or self.num_partitions == 0:
            return None
        if self._inherited is not None:
            zones, reusable = self._inherited
            old = zones.get(column)
            if old is not None and reusable > 0:
                n = min(reusable, self.num_partitions)
                with self._lock:
                    # Racing builders of the same column may both count
                    # here; the counter is observability, not
                    # correctness (zone() still installs exactly one).
                    self.reused_chunks += n
                if n == self.num_partitions:
                    return ZoneMap(
                        column=column,
                        mins=old.mins[:n],
                        maxs=old.maxs[:n],
                        null_counts=old.null_counts[:n],
                        valid_counts=old.valid_counts[:n],
                    )
                tail = self._build_zone_range(column, col, n)
                return ZoneMap(
                    column=column,
                    mins=np.concatenate([old.mins[:n], tail.mins]),
                    maxs=np.concatenate([old.maxs[:n], tail.maxs]),
                    null_counts=np.concatenate(
                        [old.null_counts[:n], tail.null_counts]
                    ),
                    valid_counts=np.concatenate(
                        [old.valid_counts[:n], tail.valid_counts]
                    ),
                )
        return self._build_zone_range(column, col, 0)

    def _build_zone_range(self, column: str, col: Column, first: int) -> ZoneMap:
        """Zone statistics for partitions ``[first, num_partitions)``.

        ``reduceat`` over the **full** column with the tail of the
        start offsets reduces exactly the requested chunks — the last
        reduction always runs to the end of the array, matching the
        final chunk's stop.  Callers guarantee ``first <
        num_partitions``.
        """
        data = col.data
        starts = self.starts[first:]
        sizes = (self.stops - self.starts)[first:]
        if data.dtype.kind == "f":
            lo_sent, hi_sent = -np.inf, np.inf
        else:
            info = np.iinfo(data.dtype)
            lo_sent, hi_sent = info.min, info.max
        if col.valid is None:
            nulls = np.zeros(len(starts), dtype=np.int64)
            valid_counts = sizes.astype(np.int64)
            # fmin/fmax skip NaNs (all-NaN chunks yield NaN sentinels,
            # which fail every satisfiability test — sound, see module
            # docstring); for integer dtypes they equal minimum/maximum.
            mins = np.fmin.reduceat(data, starts)
            maxs = np.fmax.reduceat(data, starts)
        else:
            nulls = np.add.reduceat((~col.valid).astype(np.int64), starts)
            valid_counts = sizes - nulls
            mins = np.fmin.reduceat(np.where(col.valid, data, hi_sent), starts)
            maxs = np.fmax.reduceat(np.where(col.valid, data, lo_sent), starts)
        return ZoneMap(
            column=column,
            mins=mins,
            maxs=maxs,
            null_counts=nulls,
            valid_counts=valid_counts,
        )

    # ------------------------------------------------------------------
    # Key-domain statistics
    # ------------------------------------------------------------------
    def key_range(self, column: str) -> tuple[int, int] | None:
        """``(min, max)`` of a NULL-free ``INT64``/``DATE`` column, read
        off its zone map; ``None`` for any other column.  A column with
        no rows has the empty range ``(0, -1)``."""
        if self.columns[column].dtype not in _KEYED:
            return None
        if self.num_partitions == 0:
            return 0, -1
        zone = self.zone(column)
        if zone is None or zone.null_counts.any():
            return None
        return int(zone.mins.min()), int(zone.maxs.max())

    def gap_free(self, column: str) -> bool:
        """Does ``column`` hold *every* integer of its :meth:`key_range`
        (number of distinct values = max − min + 1)?

        False for a column that has no key range.  Reads
        :meth:`distinct_count`'s statistic; an inherited count below the
        span may have missed an appended value that filled the gap, so
        it is recounted — the answer is always a proof.
        """
        bounds = self.key_range(column)
        if bounds is None:
            return False
        span = bounds[1] - bounds[0] + 1
        if span > self.num_rows:
            return False  # fewer rows than integers to cover
        stat = self._distinct_stat(column)
        if stat.count < span and not stat.exact:
            stat = self._count(column, inherit=False)
            with self._lock:
                self._distinct[column] = stat
        return stat.count == span

    def distinct_count(self, column: str) -> int:
        """Number of distinct values among ``column``'s valid rows.

        Counted once per table version — O(rows) — and then remembered
        beside the zone maps.  A layout extended by an append inherits
        an ``INT64``/``DATE`` column's count in O(appended rows): the
        old count plus the distinct appended values outside the old
        range, a lower bound (see the module docstring).
        """
        return self._distinct_stat(column).count

    def _distinct_stat(self, column: str) -> _Distinct:
        with self._lock:
            stat = self._distinct.get(column)
        if stat is None:
            counted = self._count(column, inherit=True)
            with self._lock:
                stat = self._distinct.setdefault(column, counted)
        return stat

    def _count(self, column: str, inherit: bool) -> _Distinct:
        """Count ``column``'s distinct valid values, from the inherited
        statistic and the appended rows when ``inherit`` allows it."""
        from ..engine.factorize import count_distinct

        col = self.columns[column]
        inherited = self._inherited_distinct
        if inherit and inherited is not None and column in inherited[0]:
            old, old_rows = inherited[0][column], inherited[1]
            tail = _valid_values(col, old_rows)
            beyond = tail[(tail < old.low) | (tail > old.high)]
            if len(beyond) == 0:
                low, high = old.low, old.high
            elif old.count == 0:
                low, high = int(beyond.min()), int(beyond.max())
            else:
                low = min(old.low, int(beyond.min()))
                high = max(old.high, int(beyond.max()))
            # Appended values inside the old range are counted only
            # when the old rows already held every one of them.
            exact = old.exact and (
                len(beyond) == len(tail) or old.count == old.high - old.low + 1
            )
            return _Distinct(old.count + count_distinct(beyond), low, high, exact)
        values = _valid_values(col, 0)
        if col.dtype in _KEYED and len(values):
            low, high = int(values.min()), int(values.max())
        else:
            low, high = 0, -1
        return _Distinct(count_distinct(values), low, high, True)

    # ------------------------------------------------------------------
    # Predicate pruning
    # ------------------------------------------------------------------
    def prune(
        self, predicate: N.Expr, columns: Mapping[str, str] | None = None
    ) -> np.ndarray:
        """Keep-mask over partitions for a local predicate.

        ``columns`` maps the predicate's (usually alias-qualified)
        column references to this table's column names; ``None`` means
        references are already table-relative.  ``keep[i]`` is False
        only when partition ``i`` provably contains no qualifying row;
        unsupported predicate shapes conservatively keep everything.
        """
        keep = self._prune_expr(predicate, columns or {})
        if keep is None:
            return np.ones(self.num_partitions, dtype=np.bool_)
        return keep

    def _resolve(self, name: str, columns: Mapping[str, str]) -> ZoneMap | None:
        resolved = columns.get(name, name)
        if resolved not in self.columns:
            return None
        return self.zone(resolved)

    def _prune_expr(
        self, expr: N.Expr, columns: Mapping[str, str]
    ) -> np.ndarray | None:
        """Recursive keep-mask; ``None`` = cannot reason about this node."""
        if isinstance(expr, N.And):
            left = self._prune_expr(expr.left, columns)
            right = self._prune_expr(expr.right, columns)
            if left is None:
                return right
            if right is None:
                return left
            return left & right
        if isinstance(expr, N.Or):
            left = self._prune_expr(expr.left, columns)
            right = self._prune_expr(expr.right, columns)
            if left is None or right is None:
                return None
            return left | right
        if isinstance(expr, N.IsNull):
            if not isinstance(expr.operand, N.ColumnRef):
                return None
            zone = self._resolve(expr.operand.name, columns)
            if zone is None:
                return None
            if expr.negate:
                return zone.valid_counts > 0
            return zone.null_counts > 0
        leaf = read_leaf(expr)
        if leaf is None:
            return None
        (name, to_years), admits = leaf
        zone = self._resolve(name, columns)
        if zone is None or (to_years and zone.mins.dtype != np.int32):
            return None  # YEAR() only prunes DATE columns
        if admits.excluded and zone.mins.dtype.kind == "f":
            # A NaN row *satisfies* ``!=`` under the evaluator's NumPy
            # semantics, but NaN-skipping fmin/fmax would report
            # mins == maxs == value for a [value, NaN] partition —
            # pruning it would drop the NaN survivor.
            return None
        mins, maxs = _zone_bounds(zone, to_years)
        return admits.keep(mins, maxs) & (zone.valid_counts > 0)


def _valid_values(col: Column, start: int) -> np.ndarray:
    """The values of ``col``'s valid rows from row ``start`` on."""
    if col.valid is None:
        return col.data[start:]
    return col.data[start:][col.valid[start:]]


def _zone_bounds(zone: ZoneMap, to_years: bool) -> tuple[np.ndarray, np.ndarray]:
    """Min/max arrays, optionally mapped day-counts → calendar years.

    The day→year mapping is monotonic, so per-partition year bounds are
    exactly the years of the day bounds.  All-null sentinel partitions
    are excluded by the callers' ``valid_counts > 0`` guard before the
    (meaningless) sentinel years could matter.
    """
    if not to_years:
        return zone.mins, zone.maxs
    return years_of(zone.mins.astype(np.int64)), years_of(zone.maxs.astype(np.int64))


# ----------------------------------------------------------------------
# Value ranges: what a local predicate's leaves admit
# ----------------------------------------------------------------------
#: An operand a leaf constrains: a column name, and whether the leaf
#: reads ``YEAR(column)`` rather than the column itself.
Operand = tuple[str, bool]

#: The comparison that holds with its operands swapped.
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Admits:
    """The values a leaf (or a conjunction of leaves) admits of one
    operand: those between ``low`` and ``high`` (an ``*_open`` end
    excludes the bound itself), within ``points`` when that is a set,
    other than ``excluded``.

    A leaf fills one part: a range comparison or ``BETWEEN`` the
    bounds, ``=`` or ``IN`` the points, ``!=`` the excluded point.  No
    NULL satisfies any leaf, and no NaN any leaf but ``!=``.
    """

    low: float = -math.inf
    low_open: bool = False
    high: float = math.inf
    high_open: bool = False
    points: frozenset | None = None
    excluded: frozenset = frozenset()

    def keep(self, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
        """Which ``[mins[i], maxs[i]]`` ranges may hold an admitted value."""
        keep = (maxs > self.low) if self.low_open else (maxs >= self.low)
        keep &= (mins < self.high) if self.high_open else (mins <= self.high)
        if self.points is not None:
            hit = np.zeros(len(mins), dtype=np.bool_)
            for value in self.points:
                hit |= (mins <= value) & (value <= maxs)
            keep &= hit
        for value in self.excluded:
            keep &= ~((mins == value) & (maxs == value))
        return keep

    def __and__(self, other: "Admits") -> "Admits":
        """The values both admit."""
        # At an equal bound the open end is the tighter one.
        low = max((self.low, self.low_open), (other.low, other.low_open))
        high = min((self.high, not self.high_open), (other.high, not other.high_open))
        points = self.points
        if other.points is not None:
            points = other.points if points is None else points & other.points
        return Admits(
            low[0], low[1], high[0], not high[1], points, self.excluded | other.excluded
        )

    def _within(self, value: float) -> bool:
        """Is ``value`` within the bounds and not excluded?"""
        above = self.low < value or (value == self.low and not self.low_open)
        below = value < self.high or (value == self.high and not self.high_open)
        return above and below and value not in self.excluded

    def empty(self) -> bool:
        """Is no value admitted?  ``False`` unless provable: an
        excluded point is not known to empty a range wider than it."""
        if self.points is not None:
            return not any(self._within(value) for value in self.points)
        return self.low > self.high or (
            self.low == self.high and not self._within(self.low)
        )


def read_leaf(expr: N.Expr) -> tuple[Operand, Admits] | None:
    """The operand a leaf constrains and the values it admits; ``None``
    for any other node.

    A leaf is a comparison, ``BETWEEN`` or ``IN`` over a column or
    ``YEAR(column)`` against constants (:func:`const_value`: numbers
    and dates; a string constant is not ordered here), in either
    operand order.  A ``BETWEEN`` with one constant bound admits the
    one-sided range that bound gives; an ``IN`` list needs every value
    to be a number.
    """
    if isinstance(expr, N.Comparison):
        operand, op, value = _operand(expr.left), expr.op, const_value(expr.right)
        if operand is None or value is None:
            operand, value = _operand(expr.right), const_value(expr.left)
            op = _MIRRORED.get(op, op)
            if operand is None or value is None:
                return None
        if op == "==":
            return operand, Admits(points=frozenset((value,)))
        if op == "!=":
            return operand, Admits(excluded=frozenset((value,)))
        if op in ("<", "<="):
            return operand, Admits(high=value, high_open=op == "<")
        if op in (">", ">="):
            return operand, Admits(low=value, low_open=op == ">")
        return None
    if isinstance(expr, N.Between):
        operand = _operand(expr.operand)
        low, high = const_value(expr.low), const_value(expr.high)
        if operand is None or (low is None and high is None):
            return None
        return operand, Admits(
            low=-math.inf if low is None else low,
            high=math.inf if high is None else high,
        )
    if isinstance(expr, N.InSet):
        operand = _operand(expr.operand)
        values = [_number(v) for v in expr.values]
        if operand is None or None in values:
            return None
        return operand, Admits(points=frozenset(values))
    return None


def empty_operand(predicate: N.Expr) -> str | None:
    """An operand whose admitted values intersect to nothing across
    ``predicate``'s AND-conjuncts (``"col"`` or ``"year(col)"``), so the
    predicate selects no row; ``None`` when no emptiness is provable
    (OR-branches and other shapes constrain nothing)."""
    admitted: dict[Operand, Admits] = {}
    stack = [predicate]
    while stack:
        node = stack.pop()
        if isinstance(node, N.And):
            stack += (node.right, node.left)
            continue
        leaf = read_leaf(node)
        if leaf is not None:
            operand, admits = leaf
            seen = admitted.get(operand)
            admitted[operand] = admits if seen is None else seen & admits
    for (name, year), admits in admitted.items():
        if admits.empty():
            return f"year({name})" if year else name
    return None


def _operand(expr: N.Expr) -> Operand | None:
    if isinstance(expr, N.ColumnRef):
        return expr.name, False
    if isinstance(expr, N.Year) and isinstance(expr.operand, N.ColumnRef):
        return expr.operand.name, True
    return None


def _number(value: object) -> int | float | None:
    """A comparable numeric constant, or ``None`` (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def const_value(expr: N.Expr) -> int | float | None:
    """Numeric constant of an expression leaf: a numeric literal (bools
    excluded) or a date literal as epoch days; ``None`` otherwise, and
    for a malformed date, which the type checker reports."""
    if isinstance(expr, N.Literal):
        return _number(expr.value)
    if isinstance(expr, N.DateLiteral):
        try:
            return date_to_days(expr.iso)
        except ValueError:
            return None
    return None


# ----------------------------------------------------------------------
# Chunk slicing
# ----------------------------------------------------------------------
def slice_table(
    table: Table,
    start: int,
    stop: int,
    columns: Mapping[str, str] | None = None,
    name: str | None = None,
) -> Table:
    """Zero-copy row-range slice of a table.

    ``columns`` maps exposed name → source column name (pruning and
    renaming in one step, mirroring scan views); ``None`` keeps every
    column under its own name.  Column buffers are NumPy slices of the
    originals — no data is copied.
    """
    if columns is None:
        columns = {n: n for n in table.columns}
    sliced = {
        exposed: table.column(src).slice(start, stop)
        for exposed, src in columns.items()
    }
    return Table(name or table.name, sliced)


# ----------------------------------------------------------------------
# Per-table layout cache
# ----------------------------------------------------------------------
# Layouts memoize directly on the table object (a private slot, like a
# view's gathered-column memo): the layout lives exactly as long as its
# table, so a replaced/concat-extended table — a *new* object, tables
# being immutable — carries a fresh empty memo and the old table's
# layouts are collected with it.  No global registry exists to pin
# retired tables.
_LAYOUTS_LOCK = threading.Lock()


def get_layout(
    table: Table, partition_rows: int = DEFAULT_PARTITION_ROWS
) -> PartitionLayout:
    """The (cached) partition layout of a table at a given chunk size."""
    with _LAYOUTS_LOCK:
        per_table = table._layouts
        if per_table is None:
            per_table = table._layouts = {}
        layout = per_table.get(partition_rows)
        if layout is None:
            layout = PartitionLayout(table, partition_rows)
            per_table[partition_rows] = layout
        return layout


# ----------------------------------------------------------------------
# Append-aware layout inheritance
# ----------------------------------------------------------------------
def extend_layout(old: PartitionLayout, table: Table) -> PartitionLayout:
    """A layout for the appended-to ``table`` inheriting ``old``'s zones.

    ``table`` must extend ``old``'s table by appended rows.  Every chunk
    that was *full* in the old layout covers the same rows with the
    same values in the new one, so its zone statistics carry over
    verbatim; the old partial tail chunk (if any) and the delta chunks
    are built on demand.  The distinct counts of ``old``'s key columns
    carry over too, for :meth:`PartitionLayout.distinct_count` to
    extend over the appended rows.  Only statistics already built on
    ``old`` are inherited — unbuilt columns cost nothing either way.
    """
    new = PartitionLayout(table, old.partition_rows)
    reusable = old.num_rows // old.partition_rows
    with old._lock:
        zones = {name: z for name, z in old._zones.items() if z is not None}
        counts = {
            name: c
            for name, c in old._distinct.items()
            if table.columns[name].dtype in _KEYED
        }
    if reusable > 0 and zones:
        new._inherited = (zones, reusable)
    if counts:
        new._inherited_distinct = (counts, old.num_rows)
    return new


def carry_layouts(old: Table, new: Table) -> None:
    """Seed ``new``'s layout memo from ``old``'s after an append.

    For every chunk size ``old`` has a layout at, ``new`` gets an
    extended layout reusing the built zone maps of unchanged full
    chunks.  ``old``'s own layouts are untouched — queries pinned to
    the pre-append snapshot keep pruning against them.
    """
    with _LAYOUTS_LOCK:
        per_old = old._layouts
        if not per_old:
            return
        per_new = new._layouts
        if per_new is None:
            per_new = new._layouts = {}
        for partition_rows, layout in per_old.items():
            if partition_rows not in per_new:
                per_new[partition_rows] = extend_layout(layout, new)
