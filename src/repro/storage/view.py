"""Late-materialization table views.

A :class:`TableView` is the executor's zero-copy intermediate: it
represents a (possibly multi-source) row selection over base
:class:`~repro.storage.table.Table` objects without gathering any data
columns.  Three ingredients make the whole pipeline lazy:

* **Rename/prune views** — a scan exposes only the live columns of a
  base table under their qualified ``alias.column`` names; the mapping
  is pure metadata, no column buffer is touched.
* **Selection vectors** — each source carries an optional sorted
  ``int`` row-index vector (``None`` means "all rows").  The predicate
  transfer / semi-join phases emit exactly this form, so their output
  plugs into the join phase without a full-table filter copy.
* **Take-of-take composition** — a join result is a view over the
  *base* tables of both inputs with composed index vectors.  An N-way
  left-deep join therefore performs one ``int`` gather per source per
  join to maintain the vectors, and exactly one data gather per
  *output* column at materialization time, instead of N cascading
  gathers per carried column.  A join in which every probe row found
  exactly one partner composes nothing on the probe side: its sources
  pass into the result as they are (the very arrays, and ``None`` for
  a whole table, whose columns are then read without a gather), and
  only the build side's vectors are composed.

Null extension (outer joins) is represented by ``-1`` entries in a
source's index vector plus a ``nullable`` flag; materialization routes
such sources through :meth:`Column.take_nullable`.

``column()`` memoizes gathered columns on the view instance: a
residual and a join key touching the same column pay for one gather.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Union

import numpy as np

from ..errors import SchemaError
from .column import Column
from .table import Table


class _Source(NamedTuple):
    """One base table plus the row selection this view applies to it."""

    table: Table
    rows: np.ndarray | None  # None = identity (all rows, in order)
    nullable: bool  # rows may contain -1 (null-extended rows)


class TableView:
    """A lazy row selection + column rename over one or more tables."""

    __slots__ = ("name", "_sources", "_fields", "_num_rows", "_gathered")

    def __init__(
        self,
        name: str,
        sources: list[_Source],
        fields: dict[str, tuple[int, str]],
        num_rows: int,
    ) -> None:
        self.name = name
        self._sources = sources
        # exposed column name -> (source index, source column name)
        self._fields = fields
        self._num_rows = num_rows
        self._gathered: dict[str, Column] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def over(
        table: Table,
        name: str | None = None,
        columns: Mapping[str, str] | None = None,
        rows: np.ndarray | None = None,
    ) -> "TableView":
        """View a single table, optionally renaming/pruning columns.

        ``columns`` maps exposed name -> source column name; ``None``
        exposes every column under its own name.  ``rows`` is a row
        selection (``None`` = all rows).
        """
        if columns is None:
            fields = {n: (0, n) for n in table.columns}
        else:
            for src_name in columns.values():
                if src_name not in table:
                    raise SchemaError(
                        f"no column {src_name!r} in table {table.name!r}; "
                        f"available: {sorted(table.columns)}"
                    )
            fields = {exposed: (0, src) for exposed, src in columns.items()}
        num_rows = table.num_rows if rows is None else len(rows)
        return TableView(
            name or table.name, [_Source(table, rows, False)], fields, num_rows
        )

    def with_rows(self, rows: np.ndarray) -> "TableView":
        """Re-select rows of a whole-table view (post-transfer hookup)."""
        return self.take(rows)

    # ------------------------------------------------------------------
    # Introspection (duck-compatible with Table)
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of selected rows."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Exposed column names in declaration order."""
        return list(self._fields)

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column: str) -> bool:
        return column in self._fields

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableView({self.name!r}, rows={self._num_rows}, "
            f"cols={len(self._fields)}, sources={len(self._sources)})"
        )

    # ------------------------------------------------------------------
    # Column access (the only place data is gathered)
    # ------------------------------------------------------------------
    def column(self, name: str) -> Column:
        """Materialize one column through the selection vector (memoized)."""
        got = self._gathered.get(name)
        if got is not None:
            return got
        try:
            src_i, src_name = self._fields[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in view {self.name!r}; "
                f"available: {sorted(self._fields)}"
            ) from None
        table, rows, nullable = self._sources[src_i]
        base = table.column(src_name)
        if rows is None:
            col = base
        elif nullable:
            col = base.take_nullable(rows)
        else:
            col = base.take(rows)
        self._gathered[name] = col
        return col

    def base_column(self, name: str) -> tuple[Table, str] | None:
        """The base table and column behind ``name`` when this view
        exposes every row of that table in order — where per-table
        statistics about the column live — else ``None``."""
        src_i, src_name = self._fields[name]
        table, rows, _ = self._sources[src_i]
        return (table, src_name) if rows is None else None

    # ------------------------------------------------------------------
    # Row selection (index-vector composition only; zero data movement)
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "TableView":
        """Select rows by position (``indices`` must be >= 0)."""
        indices = np.asarray(indices, dtype=np.intp)
        sources = [
            _Source(t, _compose(rows, indices), nullable)
            for t, rows, nullable in self._sources
        ]
        return TableView(self.name, sources, dict(self._fields), len(indices))

    def filter(self, mask: np.ndarray) -> "TableView":
        """Select rows where ``mask`` is true."""
        return self.take(np.flatnonzero(mask))

    def head(self, n: int) -> "TableView":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._num_rows)))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, names: Iterable[str] | None = None) -> Table:
        """Gather the selected rows into a concrete :class:`Table`.

        One gather per output column; ``names`` restricts/reorders the
        output (default: every exposed column).
        """
        wanted = self.column_names if names is None else list(names)
        return Table(self.name, {n: self.column(n) for n in wanted})


AnyTable = Union[Table, TableView]


def as_view(table: AnyTable, name: str | None = None) -> TableView:
    """Wrap a concrete table as a whole-table view (views pass through)."""
    if isinstance(table, TableView):
        return table
    return TableView.over(table, name=name)


def materialize(table: AnyTable) -> Table:
    """Force a view to a concrete table (concrete tables pass through)."""
    if isinstance(table, TableView):
        return table.materialize()
    return table


def _compose(rows: np.ndarray | None, indices: np.ndarray) -> np.ndarray:
    """Compose a source selection with a non-negative outer gather."""
    if rows is None:
        return indices
    return rows[indices]


def _compose_nullable(
    rows: np.ndarray | None, indices: np.ndarray
) -> np.ndarray:
    """Compose where ``indices`` may hold -1 (null-extended output rows).

    A ``-1`` outer index stays ``-1``; existing ``-1`` entries inside
    ``rows`` (an already null-extended source) propagate unchanged.
    """
    if rows is None:
        return indices
    if len(rows) == 0:
        # Nothing selectable: every outer index is necessarily -1.
        return np.full(len(indices), -1, dtype=np.intp)
    safe = np.maximum(indices, 0)
    return np.where(indices < 0, np.intp(-1), rows[safe])


def join_views(
    probe: AnyTable,
    build: AnyTable,
    probe_idx: np.ndarray | None,
    build_idx: np.ndarray,
    build_nullable: bool,
) -> TableView:
    """Compose a join result view from matched index pairs.

    ``probe_idx`` selects probe rows (always >= 0); ``None`` means
    output row ``i`` is probe row ``i``, and the probe-side sources are
    kept as they are.  ``build_idx`` selects build rows and may contain
    ``-1`` when ``build_nullable`` is set (left-outer unmatched rows).
    """
    pv, bv = as_view(probe), as_view(build)
    build_idx = np.asarray(build_idx, dtype=np.intp)
    if probe_idx is None:
        sources = list(pv._sources)
    else:
        probe_idx = np.asarray(probe_idx, dtype=np.intp)
        sources = [
            _Source(t, _compose(rows, probe_idx), nullable)
            for t, rows, nullable in pv._sources
        ]
    offset = len(sources)
    for t, rows, nullable in bv._sources:
        if build_nullable:
            sources.append(
                _Source(t, _compose_nullable(rows, build_idx), True)
            )
        else:
            sources.append(_Source(t, _compose(rows, build_idx), nullable))
    fields = dict(pv._fields)
    for name, (src_i, src_name) in bv._fields.items():
        if name in fields:
            raise SchemaError(f"duplicate column {name!r} across join sides")
        fields[name] = (src_i + offset, src_name)
    return TableView(
        f"({pv.name}x{bv.name})", sources, fields, len(build_idx)
    )
