"""The concurrent query service: one shared catalog + cache, many callers.

:class:`Engine` is the serving-layer owner of everything that outlives
a single query:

* the base :class:`~repro.storage.catalog.Catalog` (mutations go
  through :meth:`Engine.register`, which bumps the data version and
  invalidates cache entries derived from the table);
* one :class:`~repro.cache.store.FilterCache` shared by every query;
* a worker thread pool that bounds concurrent query execution.

Thread-safety and eviction guarantees
-------------------------------------
``Engine.submit`` / ``Engine.execute`` may be called from any number
of threads concurrently:

* query execution is read-only against the catalog — tables, columns
  and views are immutable, and every query runs against a scoped child
  catalog, so concurrent executions never observe partial state;
* the filter cache takes an internal lock on every operation; cached
  payloads are immutable by convention (selection vectors are never
  written through, filters are only probed after construction), so a
  hit can be shared by any number of in-flight queries;
* the cache's byte budget is enforced under that same lock: the store
  never exceeds ``max_bytes`` after a ``put`` returns, evicting
  least-recently-used entries first.  Eviction is always safe
  mid-flight — queries holding a reference to an evicted filter simply
  finish with it while new lookups rebuild;
* :meth:`register` serializes catalog mutations under the engine lock,
  bumps the table's monotonic data version (orphaning every stale
  fingerprint), eagerly drops the table's cache entries, and swaps in
  a fresh hash cache.  Queries already running keep the old (still
  correct, immutable) snapshot they started with.

One pool
--------
The engine's worker pool is the only one in the process: each query
runs start to finish on one worker thread, so total threads are
bounded by ``workers`` however many callers submit.  There is no
intra-query pool: chunked kernels fanned out over a second pool ran at
0.87–0.91× of one thread (TPC-H SF 0.5, two threads on two cores),
because every NumPy call drops and retakes the interpreter lock.

Results are byte-identical to the uncached single-query executor and
to the ``materialize="eager"`` oracle: every cached artifact is a pure
function of base-table contents and predicate shape.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from ..cache.fingerprint import plan_fingerprint
from ..cache.store import CacheStats, FilterCache
from ..context import CancelToken, QueryContext
from ..core.runner import QueryResult, RunConfig, run_query
from ..engine.stats import QueryStats, metric_field
from ..errors import EngineSaturated, QueryCancelled
from ..obs.adapters import EngineObserver
from ..obs.metrics import MetricsRegistry
from ..obs.slowlog import SlowQueryLog
from ..obs.trace import TraceSink, mint_trace_id, spans_from_stats
from ..plan.query import QuerySpec
from ..storage.catalog import Catalog
from ..storage.table import Table
from ..testing.faults import fault_point


#: One ``repro_queries_total`` sample per outcome field.
_outcome = partial(
    metric_field, "counter", "repro_queries_total",
    "Resolved queries by outcome (typed-error taxonomy)",
)


@dataclass
class EngineStats:
    """Aggregate serving statistics across all executed queries.

    Failed queries are counted by typed outcome (the resilience
    taxonomy of :mod:`repro.errors`): ``rejected`` at admission,
    ``timeouts`` / ``cancellations`` / ``budget_exceeded`` at
    execution, ``failures`` for everything else.  ``degraded`` counts
    *successful* queries that fell back exact→Bloom under a memory
    budget; ``filters_degraded`` counts the individual fallback
    events.

    ``submitted`` counts every submission that reached admission
    control, so scrapes can be reconciled: at any instant, under the
    engine lock, ``submitted == rejected + resolved + in-flight``
    where ``resolved = queries + timeouts + cancellations +
    budget_exceeded + failures`` (the invariant
    :meth:`Engine.snapshot` exposes and the observability hammer test
    asserts under concurrent load).

    ``ingests`` / ``ingest_failures`` / ``rows_ingested`` count
    :meth:`Engine.ingest` batches (committed / aborted) and the delta
    rows committed.  Ingests never consume a worker slot, so these sit
    outside the query reconciliation invariant too.

    Fields declare their metric families in exposition order; the last
    one, ``seconds``, is not exported.
    """

    queries: int = _outcome(outcome="ok")
    degraded: int = _outcome(outcome="degraded")
    timeouts: int = _outcome(outcome="timeout")
    cancellations: int = _outcome(outcome="cancelled")
    rejected: int = _outcome(outcome="rejected")
    budget_exceeded: int = _outcome(outcome="budget")
    failures: int = _outcome(outcome="failure")
    by_strategy: dict[str, int] = metric_field(
        "counter", "repro_queries_by_strategy_total",
        "Successful queries by execution strategy", by="strategy",
    )
    submitted: int = metric_field(
        "counter", "repro_engine_submitted_total",
        "Queries that entered admission control (admitted + rejected)",
    )
    rows_returned: int = metric_field(
        "counter", "repro_rows_returned_total",
        "Result rows returned to callers",
    )
    filters_degraded: int = metric_field(
        "counter", "repro_filters_degraded_total",
        "Exact-set filters degraded to Bloom under a memory budget",
    )
    partitions_total: int = metric_field(
        "counter", "repro_partitions_scanned_total",
        "Scan partitions considered across all queries",
    )
    partitions_pruned: int = metric_field(
        "counter", "repro_partitions_pruned_total",
        "Scan partitions eliminated by zone maps",
    )
    ingests: int = metric_field(
        "counter", "repro_ingests_total",
        "Committed transactional ingest batches",
    )
    ingest_failures: int = metric_field(
        "counter", "repro_ingest_failures_total",
        "Ingest batches that failed before commit (catalog untouched)",
    )
    rows_ingested: int = metric_field(
        "counter", "repro_rows_ingested_total",
        "Delta rows appended through committed ingest batches",
    )
    seconds: float = 0.0

    def record(self, stats: QueryStats, seconds: float, rows: int) -> None:
        self.queries += 1
        self.seconds += seconds
        self.rows_returned += rows
        self.by_strategy[stats.strategy] = (
            self.by_strategy.get(stats.strategy, 0) + 1
        )
        if stats.filters_degraded:
            self.degraded += 1
        self.filters_degraded += stats.filters_degraded
        self.partitions_total += stats.total("partitions_total")
        self.partitions_pruned += stats.total("partitions_pruned")

    def record_error(self, exc: BaseException) -> None:
        """Count a failed query under its typed outcome."""
        outcome = getattr(exc, "outcome", None)
        if outcome == "timeout":
            self.timeouts += 1
        elif outcome == "cancelled":
            self.cancellations += 1
        elif outcome == "budget":
            self.budget_exceeded += 1
        else:
            self.failures += 1

    @property
    def resolved(self) -> int:
        """Admitted queries that have reached a terminal outcome."""
        return (
            self.queries
            + self.timeouts
            + self.cancellations
            + self.budget_exceeded
            + self.failures
        )

    def snapshot(self) -> "EngineStats":
        return replace(self, by_strategy=dict(self.by_strategy))


@dataclass(frozen=True)
class EngineSnapshot:
    """One *atomic* observation of an engine: aggregate stats plus the
    in-flight gauge, captured under a single lock acquisition.

    Reading ``Engine.stats()`` and ``Engine.pending`` separately can
    tear — a query resolving between the two reads shows up in both
    the completed counters and the pending gauge (or in neither).
    Scrape paths (the metrics export, the ``STATS`` frame) read this
    instead; :attr:`consistent` is the reconciliation invariant.
    """

    stats: EngineStats
    pending: int = metric_field(
        "gauge", "repro_engine_slots_in_use",
        "Admitted, unresolved queries (queued + running)",
    )
    admission_limit: int = metric_field(
        "gauge", "repro_engine_slots",
        "Admission limit (workers + max_pending)",
    )
    workers: int = metric_field(
        "gauge", "repro_engine_workers", "Worker-pool threads"
    )

    @property
    def consistent(self) -> bool:
        """``submitted == rejected + resolved + pending`` — torn-read
        detector (must hold for every snapshot, under any load)."""
        return self.stats.submitted == (
            self.stats.rejected + self.stats.resolved + self.pending
        )


class _Job:
    """An admitted query: its outer future + resilience context.

    The engine hands callers a future *it* owns (not the pool's):
    pool futures cannot have an exception set externally once queued,
    but shutdown must be able to resolve never-started queries with a
    typed :class:`~repro.errors.QueryCancelled` instead of hanging or
    leaking ``CancelledError``.  ``started``/``done`` transitions are
    guarded by the engine lock.
    """

    __slots__ = ("future", "context", "started", "done")

    def __init__(self, context: QueryContext) -> None:
        self.future: Future[QueryResult] = Future()
        self.context = context
        self.started = False
        self.done = False


class Engine:
    """A concurrent query service over one catalog and one filter cache.

    Parameters
    ----------
    catalog:
        The base catalog to serve (mutate only via :meth:`register`).
    config:
        Default :class:`RunConfig` for queries that don't bring their
        own; its ``filter_cache`` field is always overridden with the
        engine's shared instance.
    cache_bytes:
        Filter-cache byte budget (``None`` disables caching entirely).
    workers:
        Worker-pool size bounding concurrent query execution.
    max_pending:
        Admission control: beyond ``workers + max_pending``
        unfinished queries, :meth:`submit` raises
        :class:`~repro.errors.EngineSaturated` (with a ``retry_after``
        hint) instead of queueing unboundedly.
    registry:
        Optional per-engine :class:`~repro.obs.metrics.MetricsRegistry`.
        When set, each completed query is observed into the shared
        latency histograms (total / prefilter / join-phase seconds by
        strategy); aggregate counters are exported at scrape time from
        :meth:`snapshot` — never pushed.  ``None`` (the default) is
        the zero-overhead fast path: no observer, no per-query work.
    slow_log:
        Optional :class:`~repro.obs.slowlog.SlowQueryLog`; completed
        queries at or above its threshold are logged (rate-limited).
    trace_sink:
        Optional :class:`~repro.obs.trace.TraceSink`; every completed
        query's span tree is exported as JSON-lines.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        config: RunConfig | None = None,
        cache_bytes: int | None = FilterCache.DEFAULT_MAX_BYTES,
        workers: int = 4,
        max_pending: int = 256,
        registry: MetricsRegistry | None = None,
        slow_log: SlowQueryLog | None = None,
        trace_sink: TraceSink | None = None,
    ) -> None:
        self.catalog = catalog
        self.filter_cache = (
            FilterCache(max_bytes=cache_bytes) if cache_bytes else None
        )
        self._default_config = config or RunConfig()
        self._workers = max(1, workers)
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self._admission_limit = self._workers + max_pending
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-engine"
        )
        self._lock = threading.Lock()
        self._stats = EngineStats()  # guarded-by: _lock
        self._jobs: set[_Job] = set()  # guarded-by: _lock
        self._pending = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        # Observability (all optional; None = the no-op fast path).
        self.registry = registry
        self._observer = EngineObserver(registry) if registry else None
        self._slow_log = slow_log
        self._trace_sink = trace_sink

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _build_context(
        self,
        config: RunConfig | None,
        timeout: float | None,
        token: CancelToken | None,
        trace_id: str | None,
        parent_span: str | None,
    ) -> QueryContext:
        """The per-query resilience context for one submission.

        An explicit ``context`` on the config wins (the caller manages
        it); otherwise a fresh one is opened from the ``timeout``
        argument (falling back to the config's) and the config's
        memory budget.  Every admitted job has a context, so shutdown
        can always cancel it.

        The context also carries the trace identity: an explicit
        ``trace_id`` (a wire client's or the server's) always wins;
        otherwise one is minted only when this engine actually traces
        or slow-logs — with observability off, no id is minted and the
        runner skips the stamp.
        """
        base = config or self._default_config
        if trace_id is None and (
            self._trace_sink is not None or self._slow_log is not None
        ):
            trace_id = mint_trace_id()
        if base.context is not None:
            ctx = base.context
            if trace_id is not None and ctx.trace_id is None:
                ctx.trace_id = trace_id
            if parent_span is not None and ctx.parent_span_id is None:
                ctx.parent_span_id = parent_span
            return ctx
        eff_timeout = timeout if timeout is not None else base.timeout
        return QueryContext.start(
            timeout=eff_timeout,
            token=token,
            memory_budget=base.memory_budget,
            trace_id=trace_id,
            parent_span_id=parent_span,
        )

    def _retry_hint_locked(self) -> float:
        """Seconds until a slot should free up (call under the lock).

        The estimate is ``avg_query_seconds × queue_depth / workers``,
        capped at 5 s; :class:`~repro.errors.EngineSaturated` floors it
        at :data:`~repro.errors.MIN_RETRY_AFTER`.
        """
        stats = self._stats  # lint: unguarded — only called under the lock
        avg = stats.seconds / stats.queries if stats.queries else 0.05
        queued = max(1, self._pending - self._workers + 1)  # lint: unguarded
        return min(5.0, avg * queued / self._workers)

    def _resolve(
        self,
        job: _Job,
        *,
        result: QueryResult | None = None,
        elapsed: float = 0.0,
        exc: BaseException | None = None,
        observe: Callable[[], None] | None = None,
    ) -> bool:
        """Resolve a job's future exactly once, releasing its slot.

        Outcome recording (success *and* error) shares the critical
        section with the slot release, keeping
        :attr:`EngineSnapshot.consistent` true at every instant.

        ``observe`` (the push-side obs hook) runs after the critical
        section but *before* the future resolves, so a caller that has
        its result and immediately scrapes sees the observation
        already landed.  A broken sink must never strand the caller,
        so observation failures are swallowed here.
        """
        with self._lock:
            if job.done:
                return False
            job.done = True
            self._pending -= 1
            self._jobs.discard(job)
            if exc is not None:
                self._stats.record_error(exc)
            else:
                self._stats.record(
                    result.stats, elapsed, result.table.num_rows
                )
        if observe is not None:
            with contextlib.suppress(Exception):
                observe()
        if exc is not None:
            job.future.set_exception(exc)
        else:
            job.future.set_result(result)
        return True

    def _observe_success(
        self,
        spec: QuerySpec,
        result: QueryResult,
        elapsed: float,
        qctx: QueryContext,
    ) -> None:
        """Push-side observability for one completed query (no engine
        lock held; every sink is internally synchronized).  Gated on
        each sink being configured — all ``None`` costs nothing."""
        stats = result.stats
        if self._observer is not None:
            self._observer.observe_query(stats, elapsed)
        if (
            self._slow_log is not None
            and elapsed >= self._slow_log.threshold_s
        ):
            self._slow_log.maybe_record(
                seconds=elapsed,
                stats=stats,
                query=stats.query or spec.name,
                strategy=stats.strategy,
                trace_id=stats.trace_id,
                plan_fp=plan_fingerprint(spec),
                outcome=stats.outcome,
            )
        if self._trace_sink is not None:
            self._trace_sink.emit(
                spans_from_stats(stats, parent_id=qctx.parent_span_id)
            )

    def _task(self, job: _Job, spec: QuerySpec, config: RunConfig | None) -> None:
        """Pool-side body: skip if shutdown already resolved the job,
        else run the query on the engine's cache and the job's context.
        :meth:`_resolve` records the outcome."""
        with self._lock:
            if job.done:
                return
            job.started = True
        try:
            effective = replace(
                config or self._default_config,
                filter_cache=self.filter_cache,
                context=job.context,
            )
            t0 = time.perf_counter()
            result = run_query(spec, self.catalog, config=effective)
            elapsed = time.perf_counter() - t0
        except BaseException as exc:
            self._resolve(job, exc=exc)
        else:
            self._resolve(
                job,
                result=result,
                elapsed=elapsed,
                observe=lambda: self._observe_success(
                    spec, result, elapsed, job.context
                ),
            )

    def submit(
        self,
        spec: QuerySpec,
        config: RunConfig | None = None,
        *,
        timeout: float | None = None,
        token: CancelToken | None = None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> "Future[QueryResult]":
        """Admit a query to the worker pool; returns its future.

        ``timeout`` (seconds, from now) and ``token`` open this
        query's :class:`~repro.context.QueryContext`; ``trace_id`` /
        ``parent_span`` thread an existing trace through it (the wire
        server propagates the client's).  Raises
        :class:`~repro.errors.EngineSaturated` when ``workers +
        max_pending`` queries are already unfinished; the error's
        ``retry_after`` estimates when to try again.  Typed errors
        raised by the query are preserved through the returned future.
        """
        qctx = self._build_context(config, timeout, token, trace_id, parent_span)
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            self._stats.submitted += 1
            if self._pending >= self._admission_limit:
                self._stats.rejected += 1
                raise EngineSaturated(retry_after=self._retry_hint_locked())
            job = _Job(qctx)
            self._pending += 1
            self._jobs.add(job)
        try:
            fault_point("worker.submit")
            self._pool.submit(self._task, job, spec, config)
        except BaseException:
            # Slot-leak-free admission: an injected submit fault (or a
            # pool shutdown race) releases the slot before propagating.
            # The submission is also uncounted — it reaches no outcome
            # bucket (the error propagates to the caller directly), so
            # leaving it in ``submitted`` would break the snapshot
            # reconciliation invariant forever after.
            with self._lock:
                job.done = True
                self._pending -= 1
                self._jobs.discard(job)
                self._stats.submitted -= 1
            raise
        return job.future

    def execute(
        self,
        spec: QuerySpec,
        config: RunConfig | None = None,
        *,
        timeout: float | None = None,
        token: CancelToken | None = None,
    ) -> QueryResult:
        """Run a query through the worker pool and wait for its result.

        Execution-time errors surface as typed
        :class:`~repro.errors.ReproError` subclasses.
        """
        return self.submit(spec, config, timeout=timeout, token=token).result()

    # ------------------------------------------------------------------
    # Catalog mutation & cache control
    # ------------------------------------------------------------------
    def register(self, table: Table, name: str | None = None) -> None:
        """Register/replace a table and invalidate derived state.

        Bumps the name's **base** data version (so every fingerprint
        minted against the old contents is orphaned) and eagerly drops
        the table's cache entries.  In-flight queries keep their
        immutable snapshot.
        Appends should use :meth:`ingest` instead: it invalidates
        nothing, and each cached artifact of the table misses once and
        is rebuilt in place under its lineage.
        """
        key = name or table.name
        with self._lock:
            self.catalog.register(table, key)
            if self.filter_cache is not None:
                self.filter_cache.invalidate_table(key)

    def ingest(self, deltas: dict[str, Table]) -> dict[str, str]:
        """Atomically append delta rows to one or more base tables.

        All deltas publish in one transactional catalog commit
        (:class:`~repro.storage.catalog.IngestBatch`): readers — and
        the pinned snapshots of in-flight queries — observe either none
        of them or all of them, and any failure (schema mismatch,
        injected ``ingest.*`` fault) leaves the catalog untouched.
        Returns the committed version string per table name.

        Unlike :meth:`register`, nothing is invalidated: an append only
        bumps the delta sequence, so each cached artifact of the table
        misses once and the read that rebuilds it replaces the stale
        entry (same lineage, see :mod:`repro.cache.context`).  The engine
        keeps no reference to a superseded table (cached artifacts are
        filters and row vectors, never columns): once the queries that
        pinned it finish, refcounting frees it, with no cycle
        collection needed.
        """
        batch = self.catalog.begin_ingest()
        try:
            for name, delta in deltas.items():
                batch.stage(name, delta)
            versions = batch.commit()
        except BaseException:
            with self._lock:
                self._stats.ingest_failures += 1
            raise
        with self._lock:
            self._stats.ingests += 1
            self._stats.rows_ingested += sum(
                d.num_rows for d in deltas.values()
            )
        return {name: str(v) for name, v in versions.items()}

    def cache_stats(self) -> CacheStats | None:
        """Filter-cache snapshot (``None`` when caching is disabled)."""
        return None if self.filter_cache is None else self.filter_cache.stats()

    def stats(self) -> EngineStats:
        """Aggregate serving statistics snapshot."""
        with self._lock:
            return self._stats.snapshot()

    def snapshot(self) -> EngineSnapshot:
        """Stats *and* the pending gauge under one lock acquisition.

        The scrape-safe read: :class:`EngineSnapshot.consistent` holds
        for every snapshot, which separate ``stats()`` + ``pending``
        reads cannot guarantee.  All observability exports go through
        here.
        """
        with self._lock:
            return EngineSnapshot(
                stats=self._stats.snapshot(),
                pending=self._pending,
                workers=self._workers,
                admission_limit=self._admission_limit,
            )

    @property
    def workers(self) -> int:
        """Worker-pool size (immutable after construction)."""
        return self._workers

    @property
    def pending(self) -> int:
        """Unfinished admitted queries (queued + running).

        Zero means every worker slot has been reclaimed — the leak
        check the chaos harnesses assert after every fault storm.
        """
        with self._lock:
            return self._pending

    @property
    def default_config(self) -> RunConfig:
        """The engine's default :class:`RunConfig` (shared caches not
        yet injected; :meth:`submit` applies those per query)."""
        return self._default_config

    # ------------------------------------------------------------------
    def shutdown(self, *, wait: bool = True, cancel: bool = False) -> None:
        """Stop the engine; every in-flight future resolves (idempotent).

        ``cancel=False`` (graceful): no new admissions, queued and
        running queries finish and their futures carry real results.
        ``cancel=True``: running queries abort at their next
        cooperative checkpoint and queries still waiting for a worker
        are resolved immediately — either way with a typed
        :class:`~repro.errors.QueryCancelled`, never a hang and never
        a bare ``CancelledError``.
        """
        with self._lock:
            self._closed = True
            jobs = list(self._jobs)
        if cancel:
            for job in jobs:
                job.context.cancel()
            for job in jobs:
                with self._lock:
                    unstarted = not job.started and not job.done
                if unstarted:
                    self._resolve(
                        job,
                        exc=QueryCancelled(
                            "engine shut down before the query started"
                        ),
                    )
        self._pool.shutdown(wait=wait)

    def close(self) -> None:
        """Graceful :meth:`shutdown` (in-flight queries finish)."""
        self.shutdown(wait=True, cancel=False)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
