"""repro — a reproduction of *Predicate Transfer: Efficient Pre-Filtering
on Multi-Join Queries* (Yang, Zhao, Yu, Koutris; CIDR 2024).

Quick start::

    from repro import Catalog, Table
    from repro.plan import QuerySpec, Relation, edge
    from repro.core import run_query

    catalog = Catalog()
    catalog.register(Table.from_pydict("r", {"a": [1, 2, 3], "b": [1, 1, 2]}))
    catalog.register(Table.from_pydict("s", {"b": [1, 2], "c": [10, 20]}))
    spec = QuerySpec(
        name="demo",
        relations=[Relation("r", "r"), Relation("s", "s")],
        edges=[edge("r", "s", ("b", "b"))],
    )
    result = run_query(spec, catalog, strategy="predtrans")
    print(result.table.format())
"""

from .allocator import pin_thresholds
from .core import (
    STRATEGIES,
    QueryResult,
    RunConfig,
    TransferConfig,
    run_query,
)
from .engine import AggSpec, GroupKey
from .expr import col, date, lit
from .plan import (
    Aggregate,
    Filter,
    JoinEdge,
    Limit,
    Project,
    QuerySpec,
    Relation,
    Sort,
    Stage,
    edge,
)
from .storage import Catalog, Column, DType, Table

__version__ = "1.0.0"

pin_thresholds()  # before any column is allocated; see repro.allocator

__all__ = [
    "AggSpec",
    "Aggregate",
    "Catalog",
    "Column",
    "DType",
    "Filter",
    "GroupKey",
    "JoinEdge",
    "Limit",
    "Project",
    "QueryResult",
    "QuerySpec",
    "Relation",
    "RunConfig",
    "STRATEGIES",
    "Sort",
    "Stage",
    "Table",
    "TransferConfig",
    "col",
    "date",
    "edge",
    "lit",
    "run_query",
    "__version__",
]
