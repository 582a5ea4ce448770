"""In-memory columnar tables.

A :class:`Table` is an ordered mapping of column names to equal-length
:class:`~repro.storage.column.Column` vectors.  Tables are immutable; all
operators return new tables that share column buffers where possible.

Column naming convention: inside a query, every column is qualified as
``"<alias>.<column>"`` at scan time, so joins can merge tables without
name clashes and expressions always reference unambiguous names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from ..errors import SchemaError
from .column import Column, DType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .partition import PartitionLayout


class Table:
    """An immutable bag of named, equal-length columns."""

    # ``_layouts`` memoizes partition layouts per chunk size (see
    # :func:`repro.storage.partition.get_layout`) — private caching
    # only, never part of logical table state.
    __slots__ = ("name", "columns", "_num_rows", "_layouts")

    def __init__(self, name: str, columns: Mapping[str, Column]) -> None:
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns in table {name!r}: {lengths}")
        self.name = name
        self.columns: dict[str, Column] = dict(columns)
        self._num_rows = lengths.pop() if lengths else 0
        self._layouts: dict[int, PartitionLayout] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_pydict(name: str, data: Mapping[str, Iterable]) -> "Table":
        """Build a table from Python sequences, inferring column types.

        Strings become dictionary-encoded STRING columns; ISO-looking
        date strings must be converted explicitly via
        :meth:`Column.from_dates` by the caller (no guessing).
        """
        columns: dict[str, Column] = {}
        for col_name, values in data.items():
            if isinstance(values, Column):
                columns[col_name] = values
                continue
            arr = np.asarray(values)
            if arr.dtype.kind in "iu":
                columns[col_name] = Column.from_ints(arr)
            elif arr.dtype.kind == "f":
                columns[col_name] = Column.from_floats(arr)
            elif arr.dtype.kind == "b":
                columns[col_name] = Column.from_bools(arr)
            elif arr.dtype.kind in "UO":
                # An array passes whole: list() of a ``U`` array would
                # hand over ``np.str_`` elements, where from_strings'
                # object conversion yields plain ``str``.
                columns[col_name] = Column.from_strings(
                    values if isinstance(values, np.ndarray) else list(values)
                )
            else:
                raise SchemaError(
                    f"cannot infer column type for {col_name!r} ({arr.dtype})"
                )
        return Table(name, columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        """Column names in declaration order."""
        return list(self.columns)

    def __len__(self) -> int:
        return self._num_rows

    def __contains__(self, column: str) -> bool:
        return column in self.columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._num_rows}, cols={len(self.columns)})"

    def column(self, name: str) -> Column:
        """Look up a column, raising :class:`SchemaError` when absent."""
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}; "
                f"available: {sorted(self.columns)}"
            ) from None

    def base_column(self, name: str) -> "tuple[Table, str] | None":
        """Where per-table statistics about column ``name`` live: here
        (duck-compatible with :meth:`TableView.base_column`)."""
        return self, name

    def schema(self) -> dict[str, DType]:
        """Mapping of column name to logical type."""
        return {name: col.dtype for name, col in self.columns.items()}

    # ------------------------------------------------------------------
    # Row selection & projection
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by integer index."""
        return Table(
            self.name, {name: col.take(indices) for name, col in self.columns.items()}
        )

    def filter(self, mask: np.ndarray) -> "Table":
        """Select rows where ``mask`` is true."""
        return Table(
            self.name, {name: col.filter(mask) for name, col in self.columns.items()}
        )

    def select(self, names: Iterable[str]) -> "Table":
        """Project to the given columns (in the given order)."""
        return Table(self.name, {name: self.column(name) for name in names})

    def prefixed(self, alias: str) -> "Table":
        """Qualify every column name as ``"<alias>.<name>"``.

        Already-qualified names (containing a dot) are left untouched so
        derived tables can be re-aliased safely.
        """
        renamed = {}
        for name, col in self.columns.items():
            base = name.split(".", 1)[1] if "." in name else name
            renamed[f"{alias}.{base}"] = col
        return Table(alias, renamed)

    def head(self, n: int) -> "Table":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._num_rows)))

    def concat(self, other: "Table") -> "Table":
        """Row-wise concatenation with an identically-named table.

        The append path of catalog mutation: an ingest commit
        (:class:`~repro.storage.catalog.IngestBatch`) concatenates each
        staged delta onto the live table and publishes the result under
        a bumped *delta* version: cached artifacts of the table miss and
        are rebuilt under the same lineage.  Appended at the tip of each
        column's buffer, with STRING values the columns already hold, the
        cost is the delta's; otherwise a column is copied, or its
        dictionary merged without decoding a row (:meth:`Column.concat`).
        """
        if set(self.columns) != set(other.columns):
            raise SchemaError(
                f"cannot concat tables with different columns: "
                f"{sorted(self.columns)} vs {sorted(other.columns)}"
            )
        return Table(
            self.name,
            {
                name: col.concat(other.columns[name])
                for name, col in self.columns.items()
            },
        )

    # ------------------------------------------------------------------
    # Interop / debugging
    # ------------------------------------------------------------------
    def to_rows(self) -> list[tuple]:
        """Materialize as a list of row tuples (order-sensitive tests)."""
        lists = [col.to_pylist() for col in self.columns.values()]
        return list(zip(*lists)) if lists else []

    def format(self, max_rows: int = 20) -> str:
        """Render a small ASCII preview of the table."""
        names = self.column_names
        rows = self.head(max_rows).to_rows()
        cells = [[str(v) for v in row] for row in rows]
        widths = [
            max(len(name), *(len(r[i]) for r in cells)) if cells else len(name)
            for i, name in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells
        )
        footer = "" if self._num_rows <= max_rows else f"\n... ({self._num_rows} rows)"
        return f"{header}\n{sep}\n{body}{footer}"
