"""Columnar in-memory storage substrate.

This package provides the storage layer the paper's testbed (FPDB on
Apache Arrow) supplied: dictionary-encoded columnar tables, a catalog,
and epoch-day date handling.
"""

from .catalog import Catalog, DataVersion, IngestBatch
from .column import Column, DType
from .partition import (
    DEFAULT_PARTITION_ROWS,
    PartitionLayout,
    ZoneMap,
    carry_layouts,
    extend_layout,
    get_layout,
    slice_table,
)
from .dates import date_to_days, days_to_date, years_of
from .table import Table
from .view import TableView, as_view, join_views, materialize

__all__ = [
    "Catalog",
    "Column",
    "DEFAULT_PARTITION_ROWS",
    "DType",
    "DataVersion",
    "IngestBatch",
    "PartitionLayout",
    "ZoneMap",
    "carry_layouts",
    "extend_layout",
    "get_layout",
    "slice_table",
    "Table",
    "TableView",
    "as_view",
    "join_views",
    "materialize",
    "date_to_days",
    "days_to_date",
    "years_of",
]
