"""Workload plumbing: mixed query streams replayed against an Engine.

Models the serving scenario — many clients repeatedly issuing a mix of
TPC-H and SSB queries — to exercise the cross-query filter cache's
warm-path behavior.  Timed serving runs are the benchmark's
``serve_mixed``/``serve_ingest`` workloads; this module supplies their
pieces and the tests' oracles:

* :func:`build_catalog` merges a TPC-H and an SSB instance into one
  catalog (SSB tables registered under ``ssb.<name>`` to avoid the
  ``part``/``supplier``/``customer`` name clashes);
* :func:`build_stream` produces a deterministic stream of query specs:
  every query repeated, optionally **parameter-varied** (date literals
  shifted by per-variant offsets, changing cache fingerprints exactly
  the way distinct user parameters would, see :func:`vary_spec`), then
  shuffled;
* :func:`replay` runs a stream through an :class:`Engine` in order,
  recording per-item stats, the typed outcome and a result digest;
* :func:`result_digest` is the value-level identity handle every result
  comparison uses.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from ..core.runner import RunConfig
from ..errors import QueryAborted
from ..expr.nodes import DateLiteral, Expr
from ..plan.query import QuerySpec
from ..ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.dates import date_to_days, days_to_date
from ..storage.table import Table
from ..tpch import generate_tpch
from ..tpch.queries import get_query
from .engine import Engine

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
# Stream construction
# ----------------------------------------------------------------------
def build_stream(
    sf: float,
    tpch_ids: tuple[int | str, ...],
    ssb_ids: tuple[str, ...],
    *,
    repeats: int = 2,
    variants: int = 1,
    seed: int = 0,
) -> list[QuerySpec]:
    """A deterministic repeated/shuffled/parameter-varied query stream.

    Every base query appears ``repeats`` times; each also contributes
    up to ``variants`` date-shifted copies (one occurrence each), so a
    warm replay sees a mix of exact repeats (whole-prefilter hits) and
    near misses (per-table filter/scan hits only).
    """
    rng = random.Random(seed)
    # get_query rejects an unknown TPC-H id itself.
    base: list[QuerySpec] = [get_query(qid, sf=sf) for qid in tpch_ids]
    bad = [q for q in ssb_ids if q not in ALL_SSB_QUERY_IDS]
    if bad:
        raise ValueError(
            f"no SSB query {bad[0]!r}; valid: {', '.join(ALL_SSB_QUERY_IDS)}"
        )
    base += [prefix_tables(get_ssb_query(qid), SSB_PREFIX) for qid in ssb_ids]
    stream: list[QuerySpec] = []
    for spec in base:
        stream.extend([spec] * max(1, repeats))
        for v in range(variants):
            delta = rng.randrange(-60, 61)
            varied = vary_spec(spec, delta, f"#v{v + 1}")
            if varied is not None:
                stream.append(varied)
    rng.shuffle(stream)
    return stream


# ----------------------------------------------------------------------
# Replay
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


@dataclass
class ReplayResult:
    """One pass over a stream: one record per item, in stream order."""

    items: list[dict]


def replay(
    engine: Engine,
    stream: list[QuerySpec],
    *,
    config: RunConfig | None = None,
) -> ReplayResult:
    """Run a stream through the engine, one query after another.

    Per-item records keep stats-attributed seconds, cache counters,
    the typed ``outcome`` label and a result digest for identity
    checks.

    A per-query :class:`~repro.errors.QueryAborted` (timeout,
    cancellation, admission rejection, memory budget) is a clean,
    recorded outcome — the replay keeps going and the item carries the
    error's ``outcome``/message instead of stats.  Anything else
    (a genuine execution bug) still propagates.
    """
    outcomes: list[object] = []
    for spec in stream:
        try:
            outcomes.append(engine.execute(spec, config))
        except QueryAborted as exc:
            outcomes.append(exc)
    items = []
    for spec, result in zip(stream, outcomes):
        if isinstance(result, QueryAborted):
            items.append(
                {
                    "query": spec.name,
                    "strategy": None,
                    "outcome": result.outcome,
                    "error": str(result),
                    "seconds": 0.0,
                    "output_rows": 0,
                    "filter_cache_hits": 0,
                    "filter_cache_misses": 0,
                    "digest": None,
                }
            )
            continue
        items.append(
            {
                "query": spec.name,
                "strategy": result.stats.strategy,
                "outcome": result.stats.outcome,
                "seconds": result.stats.total_seconds,
                "output_rows": result.table.num_rows,
                "filter_cache_hits": result.stats.total("filter_cache_hits"),
                "filter_cache_misses": result.stats.total("filter_cache_misses"),
                "digest": result_digest(result.table),
            }
        )
    return ReplayResult(items=items)
