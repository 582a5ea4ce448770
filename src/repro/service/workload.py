"""Serving-workload plumbing: the merged catalog, spec rewrites and
the result digest.

Timed serving runs are the benchmark's ``serve_mixed``/``serve_ingest``
workloads; this module supplies their pieces and the tests' oracles:

* :func:`build_catalog` merges a TPC-H and an SSB instance into one
  catalog (SSB tables registered under ``ssb.<name>`` to avoid the
  ``part``/``supplier``/``customer`` name clashes), and
  :func:`prefix_tables` re-points an SSB spec at them;
* :func:`vary_spec` shifts a spec's date literals, changing cache
  fingerprints exactly the way distinct user parameters would;
* :func:`result_digest` is the value-level identity handle every result
  comparison uses.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace as dc_replace

import numpy as np

from ..expr.nodes import DateLiteral, Expr
from ..plan.query import QuerySpec
from ..ssb import generate_ssb
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.dates import date_to_days, days_to_date
from ..storage.table import Table
from ..tpch import generate_tpch

#: SSB tables are registered under this prefix in the merged catalog.
SSB_PREFIX = "ssb."

#: Tables receiving delta rows in append-mixed workloads (staged per
#: batch: every commit is a multi-table transaction).
INGEST_TABLES = ("orders", "lineitem")


# ----------------------------------------------------------------------
# Catalog & spec plumbing
# ----------------------------------------------------------------------
def build_catalog(sf: float = 0.01, seed: int = 0) -> Catalog:
    """One catalog holding TPC-H tables plus ``ssb.``-prefixed SSB tables."""
    catalog = generate_tpch(sf=sf, seed=seed)
    ssb = generate_ssb(sf=sf, seed=seed)
    for name in ssb.names():
        catalog.register(ssb.get(name), f"{SSB_PREFIX}{name}")
    return catalog


def prefix_tables(
    spec: QuerySpec, prefix: str, derived: frozenset[str] = frozenset()
) -> QuerySpec:
    """Re-point a spec's base-table references at ``prefix<name>``.

    Stage outputs are left alone — only names *not* emitted by a
    pre-stage get prefixed.  ``derived`` holds the outputs of the
    enclosing specs' stages, which a nested stage can read as well
    (a sibling's output, say).
    """
    derived = derived | {stage.output for stage in spec.pre_stages}

    relations = [
        r if r.table in derived else dc_replace(r, table=f"{prefix}{r.table}")
        for r in spec.relations
    ]
    stages = [
        dc_replace(stage, spec=prefix_tables(stage.spec, prefix, derived))
        for stage in spec.pre_stages
    ]
    return dc_replace(spec, relations=relations, pre_stages=stages)


def vary_spec(spec: QuerySpec, delta_days: int, tag: str) -> QuerySpec | None:
    """A parameter-varied copy: local-predicate dates shifted by
    ``delta_days``.  Returns ``None`` when the spec has no date
    parameters to vary (no point emitting a duplicate)."""

    def shift(node: Expr) -> Expr:
        if isinstance(node, DateLiteral):
            return DateLiteral(days_to_date(date_to_days(node.iso) + delta_days))
        return node

    relations = [
        r if r.predicate is None else dc_replace(r, predicate=r.predicate.map(shift))
        for r in spec.relations
    ]
    if relations == spec.relations:
        return None
    return dc_replace(spec, name=f"{spec.name}{tag}", relations=relations)


# ----------------------------------------------------------------------
# Result identity
# ----------------------------------------------------------------------
def result_digest(table: Table) -> str:
    """A value-level digest of a result table (order-sensitive).

    Two tables digest equal iff their column names, logical types,
    validity masks and decoded values agree in row order.  A STRING
    column's physical encoding does not enter: the distinct values its
    valid rows use are hashed in value order, length-prefixed, and then
    each row's rank among them, so dictionary order, unused entries and
    repeated entries are all invisible.  Other columns hash their
    buffers; null placeholders there are canonical zeros (see
    :meth:`Column.take_nullable`).  An all-valid column digests the same
    whether it carries no mask or an explicit all-true one.

    Cost is linear in the result: per STRING column, a set insert and
    a dict lookup per valid row, then a sort and a UTF-8 encode of the
    distinct values in use.  No dictionary entry the rows do not use is
    ever read.
    """
    h = hashlib.sha256()
    for name in table.column_names:
        col = table.column(name)
        _frame(h, name.encode("utf-8", "surrogatepass"))
        _frame(h, col.dtype.value.encode())
        data = col.data
        if col.dictionary is not None:
            values, data = _ranked_values(col)
            _frame(h, values)
        _frame(h, np.ascontiguousarray(data))
        if col.null_count():
            _frame(h, np.ascontiguousarray(col.valid))
    return h.hexdigest()


def _frame(h: hashlib._Hash, buf: bytes | np.ndarray) -> None:
    """Feed ``buf`` to ``h`` behind its byte length, so no two field
    sequences hash the same stream."""
    h.update(memoryview(buf).nbytes.to_bytes(8, "little"))
    h.update(buf)


def _ranked_values(col: Column) -> tuple[bytes, np.ndarray]:
    """A STRING column as its distinct used values in value order (their
    count and UTF-8 lengths as int64, then their bytes) and each row's
    int64 rank among them (0 under NULL)."""
    codes = col.data if col.valid is None else col.data[col.valid]
    # Decoding gathers references to the rows' entries only; a set of
    # them costs one cached str hash per row.
    values = col.dictionary[codes].tolist()
    distinct = sorted(set(values))
    rank_of = {value: rank for rank, value in enumerate(distinct)}
    ranks = np.fromiter(map(rank_of.__getitem__, values), np.int64, len(values))
    if col.valid is not None:
        valid_ranks, ranks = ranks, np.zeros(len(col.data), dtype=np.int64)
        ranks[col.valid] = valid_ranks
    encoded = [v.encode("utf-8", "surrogatepass") for v in distinct]
    lengths = np.array([len(encoded), *map(len, encoded)], dtype=np.int64)
    return lengths.tobytes() + b"".join(encoded), ranks
