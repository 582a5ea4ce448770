"""Query runner: the four execution strategies of the paper's evaluation.

A strategy is a *schedule* — which filters are shipped along which join
edges, in what order, of what kind — over the one filter-shipping
kernel in :mod:`repro.core.transfer`:

* ``nopredtrans`` — the empty schedule: local predicates only.
* ``bloomjoin``  — one Bloom filter per join, shipped from the join's
  build side to its probe side as the join runs.
* ``yannakakis`` — a bottom-up and a top-down pass of exact key-set
  filters over a BFS join tree (:mod:`repro.core.yannakakis`).
* ``predtrans``  — the paper's contribution: a forward and a backward
  pass of Bloom filters over the whole predicate transfer graph.

All strategies share the scanner, the join phase (plain left-deep hash
joins) and the post-operator pipeline, and they join in the same order:
it is planned right after the scan, before any pre-filtering, from the
local-predicate sizes and the catalog's distinct counts (§3.3), and
recorded in ``QueryStats.join_order``.  Measured differences are
therefore attributable to pre-filtering alone — mirroring the paper's
single-executor methodology.  The one exception is a consumer of a
deferred pre-stage (below): the stage's output, which the consumer
scans, is smaller under the strategies that defer it, and the order
is planned from its size.

One :class:`~repro.core.transfer.ExecContext` is created per
:func:`run_query` call and handed to every phase.  It carries the
query's statistics, deadline/budget context, cross-query cache
binding and key-hash memo; all of them are always there, and an
unconfigured one does nothing (no deadline, no budget, nothing
cacheable).

Query shapes
------------
The executor accepts arbitrary join graphs:

* **acyclic** — the classical Yannakakis setting;
* **cyclic** — transfer keeps every cycle edge in the PT DAG;
  Yannakakis falls back to a spanning tree plus residual-edge
  post-verification of the off-tree edges;
* **self-joins** — distinct alias occurrences of one table are
  ordinary vertices; a *self-loop* edge (``left == right``) is folded
  into a row-local predicate before planning
  (:func:`repro.plan.rewrite.fold_self_edges`);
* **disconnected** (cross products) — each connected component is
  executed independently and the results are combined with cartesian
  joins, smallest component first.

Pre-stages
----------
A decorrelated subquery is a pre-stage (:class:`~repro.plan.query
.Stage`): a spec run first, its result registered as a derived table
the outer block joins.  ``predtrans`` and ``yannakakis`` *defer* a
grouped stage whose output only an inner or semi join of the outer
block reads (the rule in full: :mod:`repro.core.prestage`):

1. the other stages run, the other relations are scanned, and the
   strategy's schedule runs over the graph they induce;
2. each seed edge whose outer neighbour lost rows builds one filter of
   the neighbour's survivors on the key columns that map to group keys;
3. the stage runs and probes those filters on its group-key columns
   after its own pre-filter phase;
4. its output is scanned, and the schedule runs once more over the
   whole graph from the current survivors.

It is sound because a semi-join on a group key commutes with
``GROUP BY`` (removing the rows whose key is not in ``K`` removes
exactly the groups whose key is not in ``K``), and a group whose key no
surviving outer row carries joins nothing.  Transfer only shrinks
survivors, so the final schedule is still a full reduction for
Yannakakis.  With nothing deferred — every other strategy, and every
stage the rule leaves alone (Q18's) — steps 2–4 are empty and the
stages all run before the scan.  A deferred stage's time stays in its
own stats, never in the consumer's ``transfer_seconds``.

Materialization policy (``RunConfig.materialize``)
--------------------------------------------------
``"lazy"`` (default) runs the whole pipeline late-materialized:

* scans wrap only the live columns (:func:`repro.plan.pruning
  .live_columns`) of each base table in a zero-copy rename
  :class:`~repro.storage.view.TableView`;
* the pre-filter phase emits sorted row-index vectors that become the
  views' selection vectors directly — no filtered table copy;
* every join produces a composed view (index-vector arithmetic only);
  the only data gathers before the post phase are the key columns a
  join or Bloom probe actually touches, and the columns referenced by
  residual predicates — each memoized on its view;
* a gather is forced only by (a) the post pipeline reading a column
  (aggregation inputs, sort keys, projections — one column at a time,
  through the view) and (b) the final
  :func:`~repro.storage.view.materialize` of the query result, which
  performs exactly one gather per *output* column.

``"eager"`` restores the classical executor — full ``prefixed()``
tables, post-prefilter ``filter(mask)`` copies of every column, and
gather-everything joins.  It exists as the equivalence oracle for the
lazy path (see ``tests/test_late_materialization.py``) and as the
attribution baseline for ``materialize_seconds``/``bytes_materialized``.

Partitioned scans (``RunConfig.partition_rows``)
------------------------------------------------
Every base table carries a lazy, cached partition layout
(:mod:`repro.storage.partition`): fixed-size row chunks with
per-partition zone maps.  The scan consults zone maps to skip chunks
that provably cannot satisfy a local predicate (``partitions_pruned``
in :class:`~repro.engine.stats.QueryStats`) and evaluates the rest one
partition at a time, concatenating the survivors in partition order,
so results are **byte-identical** at any ``partition_rows``, which
does not enter cache fingerprints.  A query runs on one thread;
concurrency comes from running queries side by side in the service
:class:`~repro.service.engine.Engine`.

Cross-query caching (``RunConfig.filter_cache``)
------------------------------------------------
When a :class:`~repro.cache.store.FilterCache` is configured, three
artifact kinds are reused across queries, each keyed by deterministic
fingerprints over (table name, data version, canonical predicate, …):

* local-predicate **scan selection vectors** (skips predicate
  re-evaluation on warm runs);
* **pristine-vertex filters** shipped by any strategy's schedule
  (skips hash + build work; an exact filter is shared between
  ``yannakakis`` and ``predtrans`` with ``filter_type="exact"``, a
  Bloom filter between ``bloomjoin`` and ``predtrans``);
* the **whole pre-filter phase result** for an exactly repeated query
  shape (skips the transfer phase outright).

Every cached artifact is a pure function of base-table contents and
the query's predicate shape, so warm results are byte-identical to
cold runs and to the eager oracle; a catalog data-version bump (table
append/replace) orphans all stale entries.  Without a configured
cache the query's cache binding names no relation, so nothing is
looked up or stored.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, replace
from typing import AbstractSet, Sequence

import networkx as nx
import numpy as np

from ..cache.context import build_query_cache
from ..cache.store import FilterCache
from ..context import QueryContext
from ..engine.aggregate import group_aggregate
from ..engine.hashjoin import cross_join, hash_join
from ..engine.sort import limit, sort_table
from ..engine.stats import QueryStats
from ..errors import PlanError
from ..expr.eval import evaluate, evaluate_mask
from ..expr.nodes import Expr, all_of
from ..optimizer.cardinality import catalog_ndv
from ..optimizer.joinorder import greedy_join_order, step_estimates
from ..plan.joingraph import build_join_graph, edge_keys_for
from ..plan.pruning import live_columns
from ..plan.query import Aggregate, Filter, Limit, Project, QuerySpec, Sort, Stage
from ..plan.rewrite import eager_aggregation, fold_self_edges, resolve_scalars
from ..storage.catalog import Catalog
from ..storage.partition import DEFAULT_PARTITION_ROWS, get_layout, slice_table
from ..storage.table import Table
from ..storage.view import AnyTable, TableView, materialize
from ..testing.faults import fault_point
from .prestage import Seed, apply_seeds, build_seeds, plan_deferrals
from .ptgraph import build_pt_graph
from .transfer import (
    ExecContext,
    TransferConfig,
    build_filter,
    identity_rows,
    probe_filter,
    run_transfer_rows,
)
from .yannakakis import SEMI_JOIN, run_semi_join_rows

STRATEGIES = ("nopredtrans", "bloomjoin", "yannakakis", "predtrans")

MATERIALIZE_MODES = ("lazy", "eager")


@dataclass
class RunConfig:
    """Execution options shared by all strategies.

    ``transfer`` holds the filter kind and false-positive rate of the
    predicate-transfer schedule; its ``fpp`` is also the rate of
    BloomJoin's filters.  The schedule itself has no options: one
    forward and one backward pass, incoming filters applied
    most-selective-first.

    ``filter_cache`` switches on cross-query artifact reuse (see the
    module docstring).

    ``partition_rows`` sets the storage chunk size used for zone-map
    pruning and the scan's per-partition loop; it affects performance
    only, never results or cache fingerprints.

    ``threads`` is a constructor keyword, not a field, and only 1 is
    accepted: a query runs on one thread, and concurrency is
    :class:`~repro.service.engine.Engine`'s ``workers``.  Nothing reads
    it; it stays only because the benchmark harness under
    ``benchmarks/perf`` passes ``threads=1``, and goes when that
    harness stops passing it.

    Resilience knobs: ``timeout`` (seconds; the deadline starts when
    :func:`run_query` does) and ``memory_budget`` (bytes charged
    against query-built filters and materialized output, with
    exact→Bloom degradation before failure) create a per-query
    :class:`~repro.context.QueryContext` checked at every phase
    boundary and between scan partitions.  ``context`` lets an owner (the
    service Engine, or a test holding a cancellation token) pass a
    ready-made context instead — then ``timeout``/``memory_budget``
    here are ignored in favour of the context's own settings.
    """

    strategy: str = "predtrans"
    transfer: TransferConfig = field(default_factory=TransferConfig)
    materialize: str = "lazy"
    filter_cache: FilterCache | None = None
    partition_rows: int = DEFAULT_PARTITION_ROWS
    timeout: float | None = None
    memory_budget: int | None = None
    context: QueryContext | None = None
    threads: InitVar[int] = 1

    def __post_init__(self, threads: int) -> None:
        if threads != 1:
            raise PlanError(
                f"threads={threads!r}: a query runs on one thread; run "
                "queries concurrently with Engine(workers=N) instead"
            )
        if self.strategy not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        if self.materialize not in MATERIALIZE_MODES:
            raise PlanError(
                f"unknown materialize mode {self.materialize!r}; "
                f"choose from {MATERIALIZE_MODES}"
            )
        if self.partition_rows < 1:
            raise PlanError("partition_rows must be >= 1")
        if self.timeout is not None and self.timeout < 0:
            raise PlanError("timeout must be >= 0 seconds")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise PlanError("memory_budget must be positive bytes")


@dataclass
class QueryResult:
    """A query's output table plus execution statistics."""

    table: Table
    stats: QueryStats


def run_query(
    spec: QuerySpec,
    catalog: Catalog,
    strategy: str | None = None,
    config: RunConfig | None = None,
    join_order: list[str] | None = None,
    *,
    seeds: Sequence[Seed] = (),
) -> QueryResult:
    """Execute ``spec`` against ``catalog`` with the chosen strategy.

    ``join_order`` overrides both the spec's stored order and the
    optimizer (used by the Fig. 6 robustness experiment).  ``seeds``
    are the filters a consumer built for ``spec`` as its deferred
    pre-stage; they are probed after the pre-filter phase (see
    "Pre-stages" in the module docstring).
    """
    if config is None:
        config = RunConfig(strategy=strategy or "predtrans")
    elif strategy is not None and strategy != config.strategy:
        config = replace(config, strategy=strategy)

    # One resilience context per query: deadline / cancellation / memory
    # budget (all three absent = a context that never fires).  Built
    # here — the deadline starts at query start — unless the owner
    # passed one in; pre-stages share it, so the whole query runs under
    # one deadline and one budget instead of restarting them per stage.
    qctx = config.context or QueryContext.start(
        timeout=config.timeout, memory_budget=config.memory_budget
    )

    scoped = catalog.scoped()
    stats = QueryStats(strategy=config.strategy, query=spec.name)
    # Observability anchors: one wall-clock read per query, and the
    # trace id the context carries ("" when tracing is off).
    stats.started_unix = time.time()
    stats.trace_id = qctx.trace_id or ""

    ctx = ExecContext(stats=stats, qctx=qctx, partition_rows=config.partition_rows)
    spec = fold_self_edges(spec)
    deferrals = plan_deferrals(spec, config.strategy)
    held = {d.relation for d in deferrals}
    deferred_outputs = {d.stage.output for d in deferrals}
    stage_config = replace(config, context=qctx)
    for stage in spec.pre_stages:
        if stage.output not in deferred_outputs:
            _run_stage(ctx, scoped, stage, stage_config)

    resolved = _resolve_spec(spec, scoped)
    # The stages the resolved plan's rewrites added.
    for stage in resolved.pre_stages:
        _run_stage(ctx, scoped, stage, stage_config)
    graph = build_join_graph(resolved)

    # Bind the cross-query filter cache, from the *resolved* spec so
    # scalar subquery values participate in fingerprints as literals.
    if config.filter_cache is not None:
        ctx.cache = build_query_cache(resolved, scoped, config.filter_cache)

    # ------------------------------------------------------------------
    # Scan phase: wrap (pruned) base columns, apply local predicates.
    # ------------------------------------------------------------------
    # The join order is planned here, once, from the local sizes (after
    # the held scan when a stage is deferred), so every strategy joins
    # in the same order.
    qctx.check("scan")
    t0 = time.perf_counter()
    _scan(ctx, resolved, scoped, config, skip=held)
    local_sizes = ctx.row_counts()
    if not deferrals:
        plan = _choose_order(ctx, resolved, graph, scoped, local_sizes, config, join_order)
    stats.scan_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # Pre-filter phase: the strategy's schedule over the sorted
    # row-index vectors (BloomJoin's runs inside the join phase).  With
    # deferred stages it first runs over the graph the scanned
    # relations induce.
    # ------------------------------------------------------------------
    qctx.check("pre-filter")
    t1 = time.perf_counter()
    prefilter_fp = None
    cached_rows = None
    if config.strategy in ("yannakakis", "predtrans") and ctx.cache.covers(
        r.alias for r in resolved.relations
    ):
        prefilter_fp = ctx.cache.prefilter_fp(config.strategy, config.transfer)
        cached_rows = ctx.cache.get_prefilter(prefilter_fp)

    if cached_rows is not None:
        # Warm hit: the whole pre-filter phase is served from cache.
        ctx.rows = cached_rows
    else:
        scanned = graph.subgraph(ctx.rows) if held else graph
        _schedule(ctx, scanned, local_sizes, config)
    if prefilter_fp is not None and cached_rows is None:
        ctx.cache.put_prefilter(config.strategy, config.transfer, ctx.rows)

    if deferrals:
        # Seed filters from the survivors, then the deferred stages (on
        # their own clocks), their outputs' scan, and the schedule once
        # more over the whole graph.
        kind = SEMI_JOIN if config.strategy == "yannakakis" else config.transfer
        pass_index = stats.transfer.next_pass
        built = [
            build_seeds(ctx, d, kind.filter_type, kind.fpp, pass_index)
            for d in deferrals
        ]
        stats.transfer_seconds = time.perf_counter() - t1
        for deferral, stage_seeds in zip(deferrals, built):
            _run_stage(ctx, scoped, deferral.stage, stage_config, stage_seeds)
        t0 = time.perf_counter()
        _scan(ctx, resolved, scoped, config, skip=set(local_sizes))
        local_sizes.update({alias: len(ctx.rows[alias]) for alias in held})
        plan = _choose_order(
            ctx, resolved, graph, scoped, local_sizes, config, join_order
        )
        stats.scan_seconds += time.perf_counter() - t0
        t1 = time.perf_counter()
        _schedule(ctx, graph, ctx.row_counts(), config)
    # A deferred stage's own seeds: after its whole pre-filter phase, so
    # every artifact above is an unseeded run's.
    apply_seeds(ctx, seeds)
    stats.transfer.rows_before = local_sizes
    stats.transfer.rows_after = ctx.row_counts()
    stats.transfer_seconds += time.perf_counter() - t1

    # ------------------------------------------------------------------
    # Join phase: selection vectors become the views' row selections
    # (lazy) or full-width filtered copies (eager oracle).
    # ------------------------------------------------------------------
    qctx.check("join")
    t2 = time.perf_counter()
    reduced = _reduce(ctx, config)
    current = _execute_join_phase(ctx, resolved, graph, reduced, plan, config)
    stats.join_seconds = time.perf_counter() - t2

    # ------------------------------------------------------------------
    # Post-operator pipeline (aggregation, having, order by, ...).
    # ------------------------------------------------------------------
    qctx.check("post")
    t3 = time.perf_counter()
    result = _apply_post(resolved, current, stats)
    stats.post_seconds = time.perf_counter() - t3

    # ------------------------------------------------------------------
    # Output materialization: one gather per output column (no-op when
    # the post pipeline already produced a concrete table).
    # ------------------------------------------------------------------
    qctx.check("materialize")
    t4 = time.perf_counter()
    table = materialize(result)
    if table is not result:
        stats.materialize_seconds += time.perf_counter() - t4
        stats.bytes_materialized += _table_nbytes(table)
        qctx.charge(_table_nbytes(table), "output materialization")
    stats.output_rows = table.num_rows
    # Cumulative across pre-stages (which share the context): reported
    # on the outermost stats consumers actually read.
    stats.filters_degraded = qctx.filters_degraded
    stats.mem_peak_bytes = qctx.mem_peak
    stats.memory_budget_bytes = qctx.memory_budget or 0
    stats.filter_cache_hits = ctx.cache.hits
    stats.filter_cache_misses = ctx.cache.misses
    stats.filter_cache_errors = ctx.cache.errors
    stats.filter_cache_bytes = ctx.cache.cache.total_bytes
    return QueryResult(table, stats)


def _run_stage(
    ctx: ExecContext,
    scoped: Catalog,
    stage: Stage,
    config: RunConfig,
    seeds: Sequence[Seed] | None = None,
) -> None:
    """Run one pre-stage and register its output; ``seeds`` (possibly
    empty) marks a deferred stage."""
    ctx.qctx.check("pre-stage")
    sub = run_query(stage.spec, scoped, config=config, seeds=seeds or ())
    sub.stats.seeded = seeds is not None
    scoped.register(sub.table, stage.output)
    ctx.stats.stage_stats.append(sub.stats)


def _schedule(
    ctx: ExecContext, graph: nx.Graph, sizes: dict[str, int], config: RunConfig
) -> None:
    """The strategy's pre-filter schedule over ``graph`` (nothing for
    the strategies without one); ``sizes`` orient the PT graph."""
    if config.strategy == "yannakakis":
        run_semi_join_rows(ctx, graph)
    elif config.strategy == "predtrans":
        run_transfer_rows(ctx, build_pt_graph(graph, sizes), config.transfer)


# ----------------------------------------------------------------------
# Spec resolution & scanning
# ----------------------------------------------------------------------
def _resolve_spec(spec: QuerySpec, catalog: Catalog) -> QuerySpec:
    """Resolve scalar-subquery references to literals everywhere, then
    apply :func:`~repro.plan.rewrite.eager_aggregation`.

    The spec's own stages have run; the result's ``pre_stages`` are
    the ones the rewrite adds, for the caller to run before the scan.
    """
    resolved = replace(
        spec.map_expressions(lambda expr: resolve_scalars(expr, catalog)),
        pre_stages=[],
    )
    return eager_aggregation(resolved, catalog)


def _scan(
    ctx: ExecContext,
    spec: QuerySpec,
    catalog: Catalog,
    config: RunConfig,
    skip: AbstractSet[str] = frozenset(),
) -> None:
    """Scan every relation not in ``skip`` and apply local predicates.

    Fills ``ctx.tables`` and ``ctx.rows``.  Lazy mode wraps only each
    alias's live columns in a zero-copy rename view; eager mode keeps
    the classical full-width ``prefixed()`` table.  Either way the
    survivors are sorted row-index vectors.  Local predicates run
    through the base table's partition layout
    (:func:`_scan_selection`).  The selection vector of a versioned
    relation's local predicate is served from / stored into the
    cross-query cache (cached vectors are never mutated downstream,
    and are valid across partition sizes because selection vectors
    never depend on them).
    """
    lazy = config.materialize == "lazy"
    live = live_columns(spec) if lazy else None
    for relation in spec.relations:
        if relation.alias in skip:
            continue
        base = catalog.get(relation.table)
        if lazy:
            table = _scan_view(
                base, relation.alias, None if live is None else live[relation.alias]
            )
        else:
            table = base.prefixed(relation.alias)
        ctx.tables[relation.alias] = table
        if relation.predicate is None:
            ctx.rows[relation.alias] = identity_rows(table.num_rows)
            continue
        cacheable = ctx.cache.cacheable(relation.alias)
        selected = ctx.cache.get_scan(relation.alias) if cacheable else None
        if selected is None:
            selected = _scan_selection(
                ctx, base, relation.alias, relation.predicate, table
            )
            if cacheable:
                ctx.cache.put_scan(relation.alias, selected)
        ctx.rows[relation.alias] = selected


def _qualified_mapping(base: Table, alias: str) -> dict[str, str]:
    """Exposed ``alias.column`` name → base column name (scan naming)."""
    mapping: dict[str, str] = {}
    for name in base.columns:
        short = name.split(".", 1)[1] if "." in name else name
        mapping[f"{alias}.{short}"] = name
    return mapping


def _scan_selection(
    ctx: ExecContext, base: Table, alias: str, predicate: Expr, table: AnyTable
) -> np.ndarray:
    """Local-predicate survivors via zone-map pruning + per-partition eval.

    Consults the base table's (cached) partition layout: chunks whose
    zone maps prove no row can qualify are skipped before any predicate
    code runs; the rest evaluate one partition at a time and the
    per-partition index vectors concatenate in partition order.  The
    deadline/cancel check and the ``chunk.kernel`` fault point run
    before each partition, so a long scan aborts within one partition.
    When nothing prunes, the classical single-pass evaluation runs.
    """
    mapping = _qualified_mapping(base, alias)
    needed = predicate.columns()
    if base.num_rows == 0 or not needed <= set(mapping):
        return np.flatnonzero(evaluate_mask(predicate, table))
    layout = get_layout(base, ctx.partition_rows)
    keep = layout.prune(predicate, mapping)
    ctx.stats.partitions_total += layout.num_partitions
    pruned = layout.num_partitions - int(keep.sum())
    ctx.stats.partitions_pruned += pruned
    if pruned == 0:
        return np.flatnonzero(evaluate_mask(predicate, table))
    live = {name: mapping[name] for name in needed}
    vectors = []
    for part in np.flatnonzero(keep):
        ctx.qctx.check("chunk kernel")
        fault_point("chunk.kernel")
        start, stop = layout.bounds(int(part))
        chunk = slice_table(base, start, stop, live, name=alias)
        vectors.append(start + np.flatnonzero(evaluate_mask(predicate, chunk)))
    if not vectors:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(vectors)


def _scan_view(base: Table, alias: str, live: set[str] | None) -> TableView:
    """A pruned, ``alias.column``-qualified zero-copy view of ``base``.

    Scan naming (:func:`_qualified_mapping`), but wraps just the live
    columns — no column buffer is touched either way.
    """
    mapping = _qualified_mapping(base, alias)
    if live is not None:
        skip = len(alias) + 1
        mapping = {q: name for q, name in mapping.items() if q[skip:] in live}
    return TableView.over(base, name=alias, columns=mapping)


def _reduce(ctx: ExecContext, config: RunConfig) -> dict[str, AnyTable]:
    """Attach pre-filter survivors to the scanned relations.

    Lazy: the index vectors become the views' selection vectors (no
    data movement; an all-rows vector reuses the whole-table view so
    unfiltered columns are served without any gather).  Eager: the
    classical full-width ``filter()`` copy, timed and sized into the
    materialization stats it exists to attribute.
    """
    scanned = ctx.tables
    if config.materialize == "lazy":
        return {
            alias: scanned[alias]
            if len(r) == scanned[alias].num_rows
            else scanned[alias].with_rows(r)
            for alias, r in ctx.rows.items()
        }
    t0 = time.perf_counter()
    reduced: dict[str, AnyTable] = {}
    for alias, r in ctx.rows.items():
        ctx.qctx.check("reduce")
        mask = np.zeros(scanned[alias].num_rows, dtype=np.bool_)
        mask[r] = True
        reduced[alias] = scanned[alias].filter(mask)
        nbytes = _table_nbytes(reduced[alias])
        ctx.stats.bytes_materialized += nbytes
        ctx.qctx.charge(nbytes, f"eager reduction of {alias}")
    ctx.stats.materialize_seconds += time.perf_counter() - t0
    return reduced


def _table_nbytes(table: Table) -> int:
    """Bytes held by a table's physical column buffers."""
    total = 0
    for column in table.columns.values():
        total += column.data.nbytes
        if column.valid is not None:
            total += column.valid.nbytes
    return total


def _choose_order(
    ctx: ExecContext,
    spec: QuerySpec,
    graph: nx.Graph,
    catalog: Catalog,
    sizes: dict[str, int],
    config: RunConfig,
    override: list[str] | None,
) -> tuple[list[str], dict[str, float]]:
    """The join order and each joined relation's step estimate.

    An override wins, then the spec's pinned order, then
    :func:`greedy_join_order` over ``sizes`` and the catalog's distinct
    counts.  The order goes into the query's stats.
    """
    ndv = catalog_ndv(
        {r.alias: catalog.get(r.table) for r in spec.relations}, config.partition_rows
    )
    if override is not None:
        spec.validate_join_order(override)
        order = override
    elif spec.join_order is not None:
        order = spec.join_order
    else:
        order = greedy_join_order(graph, sizes, ndv)
    ctx.stats.join_order = list(order)
    return order, step_estimates(graph, sizes, ndv, order)


# ----------------------------------------------------------------------
# Join phase
# ----------------------------------------------------------------------
def _component_orders(graph, order: list[str]) -> list[list[str]]:
    """Partition a join order by connected component of the join graph.

    Relative order within each component is preserved; components are
    sequenced by their first appearance in ``order``.  A spec whose
    graph is connected yields a single partition (the common case).
    """
    component_of: dict[str, int] = {}
    for cid, component in enumerate(nx.connected_components(graph)):
        for alias in component:
            component_of[alias] = cid
    parts: dict[int, list[str]] = {}
    for alias in order:
        parts.setdefault(component_of[alias], []).append(alias)
    return list(parts.values())


def _execute_join_phase(
    ctx: ExecContext,
    spec: QuerySpec,
    graph,
    reduced: dict[str, AnyTable],
    plan: tuple[list[str], dict[str, float]],
    config: RunConfig,
) -> AnyTable:
    """Left-deep joins per connected component, then cross-join combine.

    Each component of the join graph is executed independently (its
    aliases in join-order sequence); a disconnected graph — a cross
    product — combines the per-component results with cartesian joins
    in component order.  Residual predicates apply as soon as their
    columns are available, which for cross-component residuals is right
    after the cross join that brings both sides together.
    """
    order, estimates = plan
    # Only these stable inputs go through the cross-query cache.
    ctx.alias_of = {id(t): a for a, t in reduced.items()}
    stats = ctx.stats
    pending = list(spec.residuals)
    join_index = 0

    results: list[AnyTable] = []
    for comp_order in _component_orders(graph, order):
        current = reduced[comp_order[0]]
        joined = {comp_order[0]}
        current = _apply_ready_residuals(current, pending)
        for alias in comp_order[1:]:
            ctx.qctx.check("join")
            neighbors = sorted(n for n in graph.neighbors(alias) if n in joined)
            if not neighbors:
                raise PlanError(
                    f"join order {order} disconnects component "
                    f"{sorted(comp_order)} at {alias!r}"
                )
            how, probe_on, build_on, residual = _gather_edges(
                graph, neighbors, alias
            )
            probe_table, build_table = current, reduced[alias]
            if how == "inner" and build_table.num_rows > probe_table.num_rows:
                probe_table, build_table = build_table, probe_table
                probe_on, build_on = build_on, probe_on

            probe_rows = None
            if config.strategy == "bloomjoin" and how in ("inner", "semi"):
                probe_rows = _bloom_prefilter(
                    ctx, probe_table, build_table, probe_on, build_on,
                    config.transfer.fpp,
                )

            join_index += 1
            current, jstat = hash_join(
                probe_table,
                build_table,
                probe_on,
                build_on,
                how=how,
                residual=residual,
                label=f"Join {join_index}",
                probe_rows=probe_rows,
            )
            jstat.est_rows = estimates[alias]
            stats.joins.append(jstat)
            joined.add(alias)
            current = _apply_ready_residuals(current, pending)
        results.append(current)

    current = results[0]
    for i, other in enumerate(results[1:], start=1):
        current, jstat = cross_join(current, other, label=f"Cross {i}")
        stats.joins.append(jstat)
        current = _apply_ready_residuals(current, pending)

    if pending:
        raise PlanError(
            f"residual predicates never became applicable: {pending}"
        )
    return current


def _apply_ready_residuals(current: AnyTable, pending: list[Expr]) -> AnyTable:
    """Apply every pending residual whose columns are now all available.

    On a view this gathers only the residual's own columns; the filter
    itself is index-vector composition.
    """
    available = set(current.column_names)
    still_pending = []
    for expr in pending:
        if expr.columns() <= available:
            current = current.filter(evaluate_mask(expr, current))
        else:
            still_pending.append(expr)
    pending[:] = still_pending
    return current


def _gather_edges(graph, neighbors: list[str], alias: str):
    """Combine all edges from the joined set to ``alias`` into one join."""
    probe_on: list[str] = []
    build_on: list[str] = []
    residuals: list[Expr] = []
    kinds: set[str] = set()
    for other in neighbors:
        data = graph.edges[other, alias]
        kinds.add(data["how"])
        for other_col, alias_col in edge_keys_for(graph, other, alias):
            probe_on.append(other_col)
            build_on.append(alias_col)
        if data["residual"] is not None:
            residuals.append(data["residual"])
    non_inner = kinds - {"inner"}
    if len(non_inner) > 1:
        raise PlanError(f"mixed non-inner edges connecting {alias!r}")
    how = non_inner.pop() if non_inner else "inner"
    return how, probe_on, build_on, all_of(*residuals) if residuals else None


def _bloom_prefilter(
    ctx: ExecContext,
    probe_table: AnyTable,
    build_table: AnyTable,
    probe_on: list[str],
    build_on: list[str],
    fpp: float,
) -> np.ndarray:
    """BloomJoin's schedule: one filter, from build side to probe side.

    Ships a Bloom filter over the build side's keys through the shared
    kernel and returns the surviving probe row indices, which the join
    consumes directly (no intermediate materialization — the Bloom
    test touches only the key columns, as a real engine's runtime
    filter would).  A build side that is one of the join phase's stable
    inputs has exactly its local-predicate survivors as rows, since no
    transfer phase ran, so its filter goes through the cross-query
    cache; an intermediate join result's does not.
    """
    alias = ctx.alias_of.get(id(build_table))
    transfer = ctx.stats.transfer
    # Each join's filter is a pass of its own, one edge long.
    edge = transfer.new_edge(
        transfer.next_pass, alias or build_table.name, probe_table.name,
        tuple(build_on),
    )
    bloom = build_filter(ctx, edge, alias, build_table, None, "bloom", fpp)
    keep = probe_filter(ctx, edge, bloom, probe_table, tuple(probe_on), None)
    return np.flatnonzero(keep)


# ----------------------------------------------------------------------
# Post-operator pipeline
# ----------------------------------------------------------------------
def _apply_post(spec: QuerySpec, table: AnyTable, stats: QueryStats) -> AnyTable:
    """Run the post pipeline; each operator pulls only the columns it
    reads through the (possibly lazy) input."""
    for op, following in zip(spec.post, [*spec.post[1:], None]):
        if isinstance(op, Aggregate):
            stats.rows_aggregated += table.num_rows
            table = group_aggregate(table, list(op.keys), list(op.aggs))
        elif isinstance(op, Filter):
            table = table.filter(evaluate_mask(op.predicate, table))
        elif isinstance(op, Project):
            table = Table(
                table.name,
                {name: evaluate(expr, table) for name, expr in op.outputs},
            )
        elif isinstance(op, Sort):
            # ORDER BY ... LIMIT k sorts only the top-k candidates.
            k = following.k if isinstance(following, Limit) else None
            table = sort_table(table, list(op.by), k, stats)
        elif isinstance(op, Limit):
            table = limit(table, op.k)
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown post operator {op!r}")
    return table
