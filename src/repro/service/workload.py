"""Workload driver: replay mixed query streams against an Engine.

Models the ROADMAP's serving scenario — many clients repeatedly issuing
a mix of TPC-H and SSB queries — to exercise the cross-query filter
cache's warm-path behavior:

* :func:`build_catalog` merges a TPC-H and an SSB instance into one
  catalog (SSB tables registered under ``ssb.<name>`` to avoid the
  ``part``/``supplier``/``customer`` name clashes);
* :func:`build_stream` produces a deterministic stream of query specs:
  every query repeated, optionally **parameter-varied** (date literals
  shifted by per-variant offsets, changing cache fingerprints exactly
  the way distinct user parameters would), then shuffled;
* :func:`replay` runs a stream through an :class:`Engine`, sequentially
  or via its worker pool, recording per-item stats, wall time and a
  result digest;
* :func:`cold_warm` replays the same stream twice against a fresh
  engine — cold (empty cache) then warm — and emits a JSON payload
  including a per-query cold/warm comparison and a byte-identity
  verdict.
"""

from __future__ import annotations

import hashlib
import platform
import random
import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from ..core.runner import RunConfig
from ..errors import QueryAborted
from ..expr.nodes import (
    And,
    Arithmetic,
    Between,
    Case,
    ColumnRef,
    Comparison,
    DateLiteral,
    Expr,
    InSet,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    ScalarRef,
    Substr,
    Year,
)
from ..plan.query import QuerySpec, Relation
from ..ssb import ALL_SSB_QUERY_IDS, generate_ssb, get_ssb_query
from ..storage.catalog import Catalog
from ..storage.dates import date_to_days, days_to_date
from ..storage.table import Table
from ..tpch import generate_tpch
from ..tpch.queries import CYCLIC_QUERY_IDS, get_query
from .engine import Engine

#: SSB tables are registered under this prefix in the merged catalog.
SSB_PREFIX = "ssb."

#: Tables receiving delta rows in append-mixed workloads and the
#: ingest bench (both are staged per batch: every commit is a
#: multi-table transaction).
INGEST_TABLES = ("orders", "lineitem")

#: Default query mixes (kept modest so smoke runs stay fast).  The
#: cyclic extras ("c1" triangle, SSB "c.1") keep general-graph shapes
#: exercised by every service/bench replay.
DEFAULT_TPCH_IDS: tuple[int | str, ...] = (3, 5, 9, 10, 12, "c1")
DEFAULT_SSB_IDS: tuple[str, ...] = ("1.1", "2.1", "3.2", "4.1", "c.1")


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


def prefix_tables(spec: QuerySpec, prefix: str) -> QuerySpec:
    """Re-point a spec's base-table references at ``prefix<name>``.

    Stage outputs (derived-table names produced by the spec itself) are
    left alone — only names *not* emitted by a pre-stage get prefixed.
    """
    derived = {stage.output for stage in spec.pre_stages}

    def fix(relations: list[Relation]) -> list[Relation]:
        return [
            r if r.table in derived else dc_replace(r, table=f"{prefix}{r.table}")
            for r in relations
        ]

    stages = [
        dc_replace(stage, spec=prefix_tables(stage.spec, prefix))
        for stage in spec.pre_stages
    ]
    return QuerySpec(
        name=spec.name,
        relations=fix(spec.relations),
        edges=spec.edges,
        residuals=spec.residuals,
        post=spec.post,
        pre_stages=stages,
        join_order=spec.join_order,
    )


def _shift_dates(expr: Expr, delta_days: int) -> Expr:
    """Rewrite every date literal in a predicate by ``delta_days``."""
    if isinstance(expr, DateLiteral):
        return DateLiteral(days_to_date(date_to_days(expr.iso) + delta_days))
    if isinstance(expr, (ColumnRef, Literal, ScalarRef)):
        return expr
    if isinstance(expr, Comparison):
        return Comparison(
            expr.op,
            _shift_dates(expr.left, delta_days),
            _shift_dates(expr.right, delta_days),
        )
    if isinstance(expr, Between):
        return Between(
            _shift_dates(expr.operand, delta_days),
            _shift_dates(expr.low, delta_days),
            _shift_dates(expr.high, delta_days),
        )
    if isinstance(expr, InSet):
        return InSet(_shift_dates(expr.operand, delta_days), expr.values)
    if isinstance(expr, Like):
        return Like(_shift_dates(expr.operand, delta_days), expr.pattern, expr.negate)
    if isinstance(expr, IsNull):
        return IsNull(_shift_dates(expr.operand, delta_days), expr.negate)
    if isinstance(expr, And):
        return And(
            _shift_dates(expr.left, delta_days), _shift_dates(expr.right, delta_days)
        )
    if isinstance(expr, Or):
        return Or(
            _shift_dates(expr.left, delta_days), _shift_dates(expr.right, delta_days)
        )
    if isinstance(expr, Not):
        return Not(_shift_dates(expr.operand, delta_days))
    if isinstance(expr, Arithmetic):
        return Arithmetic(
            expr.op,
            _shift_dates(expr.left, delta_days),
            _shift_dates(expr.right, delta_days),
        )
    if isinstance(expr, Case):
        return Case(
            tuple(
                (_shift_dates(c, delta_days), _shift_dates(v, delta_days))
                for c, v in expr.whens
            ),
            _shift_dates(expr.default, delta_days),
        )
    if isinstance(expr, Year):
        return Year(_shift_dates(expr.operand, delta_days))
    if isinstance(expr, Substr):
        return Substr(_shift_dates(expr.operand, delta_days), expr.start, expr.length)
    # Fail loudly like canonical_expr: silently passing an unknown node
    # through would emit "varied" workload queries that didn't change.
    raise TypeError(f"unknown expression node: {type(expr).__name__}")


def vary_spec(spec: QuerySpec, delta_days: int, tag: str) -> QuerySpec | None:
    """A parameter-varied copy: local-predicate dates shifted by
    ``delta_days``.  Returns ``None`` when the spec has no date
    parameters to vary (no point emitting a duplicate)."""
    changed = False
    relations = []
    for r in spec.relations:
        if r.predicate is None:
            relations.append(r)
            continue
        shifted = _shift_dates(r.predicate, delta_days)
        if shifted != r.predicate:
            changed = True
        relations.append(dc_replace(r, predicate=shifted))
    if not changed:
        return None
    return QuerySpec(
        name=f"{spec.name}{tag}",
        relations=relations,
        edges=spec.edges,
        residuals=spec.residuals,
        post=spec.post,
        pre_stages=spec.pre_stages,
        join_order=spec.join_order,
    )


# ----------------------------------------------------------------------
# Stream construction
# ----------------------------------------------------------------------
def build_stream(
    sf: float,
    tpch_ids: tuple[int | str, ...] = DEFAULT_TPCH_IDS,
    ssb_ids: tuple[str, ...] = DEFAULT_SSB_IDS,
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
    bad = [
        q
        for q in tpch_ids
        if q not in range(1, 23) and q not in CYCLIC_QUERY_IDS
    ]
    if bad:
        raise ValueError(
            f"no TPC-H query {bad[0]!r}; valid: 1..22 and "
            f"{', '.join(CYCLIC_QUERY_IDS)}"
        )
    bad = [q for q in ssb_ids if q not in ALL_SSB_QUERY_IDS]
    if bad:
        raise ValueError(
            f"no SSB query {bad[0]!r}; valid: {', '.join(ALL_SSB_QUERY_IDS)}"
        )
    base: list[QuerySpec] = [get_query(qid, sf=sf) for qid in tpch_ids]
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
    """A byte-level digest of a result table (order-sensitive).

    Hashes column names, physical buffers, decoded dictionaries and
    validity, so two digests match iff the results are byte-identical.
    An all-valid column digests the same whether it carries no mask or
    an explicit all-true one — different execution paths are free to
    drop a mask that no longer flags anything (null placeholders are
    already canonical zeros, see :meth:`Column.take_nullable`).
    """
    h = hashlib.sha256()
    for name in table.column_names:
        col = table.column(name)
        h.update(name.encode())
        h.update(np.ascontiguousarray(col.data).tobytes())
        if col.dictionary is not None:
            h.update("\x1f".join(map(str, col.dictionary)).encode())
        if col.null_count():
            h.update(np.ascontiguousarray(col.valid).tobytes())
    return h.hexdigest()


@dataclass
class ReplayResult:
    """One pass over a stream: wall time plus per-item records."""

    wall_seconds: float
    items: list[dict]

    def per_query_seconds(self) -> dict[str, float]:
        """Total stats-attributed seconds per query name."""
        out: dict[str, float] = {}
        for item in self.items:
            out[item["query"]] = out.get(item["query"], 0.0) + item["seconds"]
        return out

    def outcome_counts(self) -> dict[str, int]:
        """Per-item outcome histogram (``ok``/``degraded``/``timeout``/...)."""
        out: dict[str, int] = {}
        for item in self.items:
            out[item["outcome"]] = out.get(item["outcome"], 0) + 1
        return out


def replay(
    engine: Engine,
    stream: list[QuerySpec],
    *,
    config: RunConfig | None = None,
    workers: int = 1,
    digest: bool = True,
) -> ReplayResult:
    """Run a stream through the engine, sequentially or concurrently.

    ``workers > 1`` submits everything to the engine's pool (which
    bounds actual parallelism); wall time then measures the whole
    batch.  Per-item records keep stats-attributed seconds, cache
    counters, the ``repro-bench/v5`` ``outcome`` label, and
    (optionally) a result digest for identity checks.

    A per-query :class:`~repro.errors.QueryAborted` (timeout,
    cancellation, admission rejection, memory budget) is a clean,
    recorded outcome — the replay keeps going and the item carries the
    error's ``outcome``/message instead of stats.  Anything else
    (a genuine execution bug) still propagates.
    """
    t0 = time.perf_counter()
    outcomes: list[object] = []
    if workers <= 1:
        for spec in stream:
            try:
                outcomes.append(engine.execute(spec, config))
            except QueryAborted as exc:
                outcomes.append(exc)
    else:
        futures: list[object] = []
        for spec in stream:
            try:
                futures.append(engine.submit(spec, config))
            except QueryAborted as exc:  # synchronous admission rejection
                futures.append(exc)
        for f in futures:
            if isinstance(f, QueryAborted):
                outcomes.append(f)
                continue
            try:
                outcomes.append(f.result())
            except QueryAborted as exc:
                outcomes.append(exc)
    wall = time.perf_counter() - t0
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
                "filter_cache_hits": result.stats.filter_cache_hits_total,
                "filter_cache_misses": result.stats.filter_cache_misses_total,
                "digest": result_digest(result.table) if digest else None,
            }
        )
    return ReplayResult(wall_seconds=wall, items=items)


# ----------------------------------------------------------------------
# Cold/warm artifact
# ----------------------------------------------------------------------
def cold_warm(
    sf: float = 0.01,
    seed: int = 0,
    tpch_ids: tuple[int | str, ...] = DEFAULT_TPCH_IDS,
    ssb_ids: tuple[str, ...] = DEFAULT_SSB_IDS,
    *,
    repeats: int = 2,
    variants: int = 1,
    workers: int = 1,
    strategy: str = "predtrans",
    cache_bytes: int | None = None,
    partition_rows: int | None = None,
    timeout: float | None = None,
    memory_budget: int | None = None,
    append_mix: int = 0,
    append_rows: int = 64,
) -> dict:
    """Replay one stream cold then warm; return the JSON-ready payload.

    The comparison block records suite-wide and per-query cold/warm
    ratios, the final cache snapshot, an outcome histogram per pass,
    and whether every warm result was byte-identical to its cold
    counterpart (same stream order, so the check is positional; items
    that aborted in either pass are excluded — they have no digest).
    ``workers`` is the inter-query concurrency knob;
    ``partition_rows`` overrides the storage chunk size, which does not
    affect results or digests.  ``timeout`` (seconds) and
    ``memory_budget`` (bytes) apply per query; queries they abort are
    recorded as typed outcomes, not crashes.

    ``append_mix > 0`` turns the warm pass into a mixed read/append
    replay: after every ``append_mix`` warm items the driver commits a
    transactional ingest of ``append_rows`` delta rows into each of
    :data:`INGEST_TABLES`.  The payload then carries the
    ``repro-bench/v8`` schema with an ``ingest`` block (per-event
    versions, the engine's ingest counters, and the cache's
    extension/rebuild counters), and the byte-identity verdict covers
    only the warm items served *before the first append* — later items
    legitimately see grown tables.  ``append_mix=0`` (the default)
    emits the v5 payload unchanged.
    """
    catalog = build_catalog(sf=sf, seed=seed)
    stream = build_stream(
        sf, tpch_ids, ssb_ids, repeats=repeats, variants=variants, seed=seed
    )
    kwargs = {} if partition_rows is None else {"partition_rows": partition_rows}
    config = RunConfig(
        strategy=strategy,
        timeout=timeout,
        memory_budget=memory_budget,
        **kwargs,
    )
    kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
    ingest_events: list[dict] = []
    engine_stats = None
    with Engine(catalog, config=config, workers=max(1, workers), **kwargs) as engine:
        cold = replay(engine, stream, workers=workers)
        if append_mix > 0:
            # Deltas are sampled from the pre-append snapshot so every
            # event appends the same deterministic rows regardless of
            # how much the tables have grown.
            snapshot = {name: catalog.get(name) for name in INGEST_TABLES}
            warm_items: list[dict] = []
            t0 = time.perf_counter()
            pos = 0
            while pos < len(stream):
                segment = stream[pos : pos + append_mix]
                part = replay(engine, segment, workers=workers)
                warm_items.extend(part.items)
                pos += len(segment)
                if pos < len(stream):
                    deltas = {
                        name: table.head(append_rows)
                        for name, table in snapshot.items()
                    }
                    ti = time.perf_counter()
                    versions = engine.ingest(deltas)
                    ingest_events.append(
                        {
                            "after_item": pos,
                            "rows": sum(
                                d.num_rows for d in deltas.values()
                            ),
                            "versions": versions,
                            "seconds": time.perf_counter() - ti,
                        }
                    )
            warm = ReplayResult(
                wall_seconds=time.perf_counter() - t0, items=warm_items
            )
            engine_stats = engine.stats()
        else:
            warm = replay(engine, stream, workers=workers)
        cache_snapshot = engine.cache_stats()

    # With appends mixed in, only warm items served before the first
    # commit still answer against the cold snapshot.
    limit = append_mix if append_mix > 0 else len(cold.items)
    identical = all(
        c["digest"] == w["digest"]
        for c, w in list(zip(cold.items, warm.items))[:limit]
        if c["digest"] is not None and w["digest"] is not None
    )
    cold_by_query = cold.per_query_seconds()
    warm_by_query = warm.per_query_seconds()
    per_query = [
        {
            "query": name,
            "cold_seconds": cold_by_query[name],
            "warm_seconds": warm_by_query[name],
            "ratio": (
                cold_by_query[name] / warm_by_query[name]
                if warm_by_query[name]
                else float("inf")
            ),
        }
        for name in sorted(cold_by_query)
    ]
    payload = {
        "schema": "repro-bench/v5",
        "kind": "workload-cold-warm",
        "meta": {
            "sf": sf,
            "seed": seed,
            "repeats": repeats,
            "variants": variants,
            "workers": workers,
            "strategy": strategy,
            "timeout_seconds": timeout,
            "memory_budget_bytes": memory_budget,
            "tpch_queries": list(tpch_ids),
            "ssb_queries": list(ssb_ids),
            "stream_length": len(stream),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
        },
        "cold": {"wall_seconds": cold.wall_seconds, "measurements": cold.items},
        "warm": {"wall_seconds": warm.wall_seconds, "measurements": warm.items},
        "comparison": {
            "cold_seconds": cold.wall_seconds,
            "warm_seconds": warm.wall_seconds,
            "speedup": (
                cold.wall_seconds / warm.wall_seconds
                if warm.wall_seconds
                else float("inf")
            ),
            "results_identical": identical,
            "outcomes": {
                "cold": cold.outcome_counts(),
                "warm": warm.outcome_counts(),
            },
            "per_query": per_query,
            "cache": None if cache_snapshot is None else cache_snapshot.to_dict(),
        },
    }
    if append_mix > 0:
        # Keys are added, never reshaped: an append-free run emits the
        # v5 payload byte-for-byte so existing tooling keeps working.
        payload["schema"] = "repro-bench/v8"
        payload["meta"]["append_mix"] = append_mix
        payload["meta"]["append_rows"] = append_rows
        payload["comparison"]["ingest"] = {
            "events": ingest_events,
            "batches": engine_stats.ingests,
            "failures": engine_stats.ingest_failures,
            "rows_ingested": engine_stats.rows_ingested,
            "cache_extensions": (
                0 if cache_snapshot is None else cache_snapshot.extensions
            ),
            "cache_extension_rebuilds": (
                0 if cache_snapshot is None else cache_snapshot.extension_rebuilds
            ),
            "identical_prefix_items": limit,
        }
    return payload


# ----------------------------------------------------------------------
# Ingest bench artifact
# ----------------------------------------------------------------------
def ingest_bench(
    sf: float = 0.01,
    seed: int = 0,
    *,
    batches: int = 3,
    append_rows: int = 256,
    tpch_ids: tuple[int | str, ...] = (3, 5, 10),
    strategy: str = "predtrans",
    partition_rows: int | None = None,
) -> dict:
    """Measure re-query cost after transactional appends (``v8`` payload).

    Warm the filter cache once over ``tpch_ids``, then alternate *ingest a
    delta batch into each of* :data:`INGEST_TABLES` *and re-run the
    whole query mix*, ``batches`` times.  Each round records the commit
    latency, the re-query wall time, and the cache's cumulative
    hit/extension counters — the extension path is exactly what keeps
    warm latency flat while the tables grow.  Delta rows are head
    slices of the pre-append snapshot, so runs are deterministic.
    """
    catalog = generate_tpch(sf=sf, seed=seed)
    specs = [get_query(qid, sf=sf) for qid in tpch_ids]
    snapshot = {name: catalog.get(name) for name in INGEST_TABLES}
    kwargs = {} if partition_rows is None else {"partition_rows": partition_rows}
    config = RunConfig(strategy=strategy, **kwargs)
    rounds: list[dict] = []
    with Engine(catalog, config=config) as engine:
        t0 = time.perf_counter()
        for spec in specs:
            engine.execute(spec)
        warm_seconds = time.perf_counter() - t0
        for rnd in range(1, max(1, batches) + 1):
            deltas = {
                name: table.head(append_rows)
                for name, table in snapshot.items()
            }
            ti = time.perf_counter()
            versions = engine.ingest(deltas)
            ingest_seconds = time.perf_counter() - ti
            tq = time.perf_counter()
            for spec in specs:
                engine.execute(spec)
            requery_seconds = time.perf_counter() - tq
            cs = engine.cache_stats()
            rounds.append(
                {
                    "round": rnd,
                    "rows": sum(d.num_rows for d in deltas.values()),
                    "versions": versions,
                    "ingest_seconds": ingest_seconds,
                    "requery_seconds": requery_seconds,
                    "cache_extensions": cs.extensions,
                    "cache_extension_rebuilds": cs.extension_rebuilds,
                    "cache_hits": cs.hits,
                    "cache_misses": cs.misses,
                }
            )
        stats = engine.stats()
        cache_snapshot = engine.cache_stats()
    return {
        "schema": "repro-bench/v8",
        "kind": "ingest-bench",
        "meta": {
            "sf": sf,
            "seed": seed,
            "batches": batches,
            "append_rows": append_rows,
            "ingest_tables": list(INGEST_TABLES),
            "tpch_queries": list(tpch_ids),
            "strategy": strategy,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
        },
        "warm_seconds": warm_seconds,
        "rounds": rounds,
        "totals": {
            "ingests": stats.ingests,
            "ingest_failures": stats.ingest_failures,
            "rows_ingested": stats.rows_ingested,
            "cache_extensions": cache_snapshot.extensions,
            "cache_extension_rebuilds": cache_snapshot.extension_rebuilds,
            "cache_hit_rate": cache_snapshot.hit_rate,
        },
    }
