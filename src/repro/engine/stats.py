"""Execution statistics.

The paper's evaluation reports three kinds of numbers; every one is
collected here so the benchmark harness can print paper-style tables:

* per-join input sizes — ``HT`` (rows inserted into the hash table,
  i.e. the build side) and ``PR`` (rows probing it), as in Tables 1–2;
* per-phase wall time — pre-filter (transfer / semi-join) time versus
  join-phase time, as in Figure 5;
* what every transfer edge did — shipped or skipped, keys inserted,
  rows probed and passed, bytes, seconds (:class:`EdgeStat`) — from
  which the filter operation counts (hash vs Bloom vs bitmap
  inserts/probes) backing the §3.5 cost-model ablations are derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class JoinStat:
    """Input/output sizes and timing of one join operator.

    ``est_rows`` is the optimizer's estimate of ``out_rows``: the step
    estimate of the relation this join brought in (``None`` for a
    cross join of two components, which has no step).  ``probe_kept``
    marks a join that left its probe side in place: every probe row
    had exactly one partner (``inner``), or all of them were kept
    (``semi``/``anti``), so no probe-side selection was composed (see
    :mod:`repro.engine.hashjoin`).
    """

    label: str
    ht_rows: int
    pr_rows: int
    out_rows: int
    seconds: float = 0.0
    est_rows: float | None = None
    probe_kept: bool = False


#: ``EdgeStat.decision`` values.
SHIPPED = "shipped"
SKIPPED_COVERED = "skipped: covered"


@dataclass
class EdgeStat:
    """One transfer edge of one pass: what was shipped and what it did.

    The schedule creates the record (which pass, from where to where,
    on which keys, shipped or skipped); :func:`repro.core.transfer
    .build_filter` and :func:`~repro.core.transfer.probe_filter` — the
    only places a filter is built or probed — fill in the rest.

    ``kind`` is the filter actually shipped: ``"bloom"``, ``"exact"``
    or ``"bitmap"`` (the presence bitmap a single dense integer key
    ships in place of either), and ``"bloom"`` for an exact filter
    degraded under a memory budget; ``keys_inserted`` is the
    number of keys it was built over, whatever its ``provenance``: ``"built"``
    by this query, fetched whole from the cross-query ``"cache"``, or
    ``"extended"`` there over appended rows.  A skipped edge (see the
    gate in :mod:`repro.core.transfer`) keeps the zero defaults, and so
    do the probe fields of a shipped filter whose destination was
    already empty.

    ``seeds`` names the deferred pre-stage a *seed* edge pre-filters
    (see :mod:`repro.core.prestage`): the filter is built here, from the
    consumer's survivors, and probed inside that stage on its group key,
    so ``dst`` is the consumer's alias of the stage output.  It is empty
    for every other edge.
    """

    pass_index: int
    src: str
    dst: str
    key_columns: tuple[str, ...]
    decision: str = SHIPPED
    kind: str = ""
    provenance: str = ""
    keys_inserted: int = 0
    filter_bytes: int = 0
    build_seconds: float = 0.0
    rows_probed: int = 0
    rows_passed: int = 0
    probe_seconds: float = 0.0
    seeds: str = ""

    @property
    def shipped(self) -> bool:
        return self.decision == SHIPPED

    @property
    def pass_rate(self) -> float:
        """Fraction of probed rows the filter let through (1 when it
        probed nothing)."""
        return self.rows_passed / self.rows_probed if self.rows_probed else 1.0


def _keys_built(edges: list[EdgeStat]) -> int:
    return sum(e.keys_inserted for e in edges if e.provenance == "built")


@dataclass
class TransferStats:
    """What the pre-filter phase did: one :class:`EdgeStat` per transfer
    edge and pass, in the order the schedule decided them.  Every
    query-level count is derived from that list."""

    edges: list[EdgeStat] = field(default_factory=list)
    rows_before: dict[str, int] = field(default_factory=dict)
    rows_after: dict[str, int] = field(default_factory=dict)
    # Off-tree (cycle) edges re-checked by Yannakakis' residual-edge
    # post-verification pass (0 for acyclic inputs and all other
    # strategies).
    edges_verified: int = 0

    def new_edge(
        self, pass_index: int, src: str, dst: str, key_columns: tuple[str, ...]
    ) -> EdgeStat:
        """Append and return the record of one more edge."""
        edge = EdgeStat(pass_index, src, dst, key_columns)
        self.edges.append(edge)
        return edge

    @property
    def next_pass(self) -> int:
        """The index of a pass starting now: passes are numbered in the
        order they decided their first edge."""
        return self.edges[-1].pass_index + 1 if self.edges else 0

    def shipped(self, kind: str | None = None) -> list[EdgeStat]:
        """Edges a filter (of ``kind``, when given) travelled along."""
        return [
            e for e in self.edges if e.shipped and (kind is None or e.kind == kind)
        ]

    @property
    def filters_built(self) -> int:
        """Filters shipped (built here or served from the cache)."""
        return len(self.shipped())

    @property
    def edges_traversed(self) -> int:
        """One per shipped filter."""
        return self.filters_built

    @property
    def edges_pruned(self) -> int:
        """Edges the schedule's gate skipped."""
        return len(self.edges) - self.filters_built

    @property
    def filter_bytes(self) -> int:
        return sum(e.filter_bytes for e in self.shipped())

    @property
    def bloom_inserts(self) -> int:
        """Keys this query inserted into Bloom filters (a filter served
        from the cache inserted none)."""
        return _keys_built(self.shipped("bloom"))

    @property
    def hash_inserts(self) -> int:
        """Keys this query inserted into exact key sets."""
        return _keys_built(self.shipped("exact"))

    @property
    def bitmap_inserts(self) -> int:
        """Keys this query scattered into presence bitmaps."""
        return _keys_built(self.shipped("bitmap"))

    @property
    def bloom_probes(self) -> int:
        return sum(e.rows_probed for e in self.shipped("bloom"))

    @property
    def hash_probes(self) -> int:
        return sum(e.rows_probed for e in self.shipped("exact"))

    @property
    def bitmap_probes(self) -> int:
        return sum(e.rows_probed for e in self.shipped("bitmap"))

    def total_rows_before(self) -> int:
        """Total base rows entering the pre-filter phase."""
        return sum(self.rows_before.values())

    def total_rows_after(self) -> int:
        """Total rows surviving the pre-filter phase."""
        return sum(self.rows_after.values())

    def reduction(self) -> float:
        """Fraction of rows removed by pre-filtering (0 when no input)."""
        before = self.total_rows_before()
        if before == 0:
            return 0.0
        return 1.0 - self.total_rows_after() / before


@dataclass
class QueryStats:
    """End-to-end statistics for one query execution.

    ``scan_seconds`` (scan + local predicates), ``materialize_seconds``
    (row gathers into concrete tables: the final output gather under
    late materialization, or the post-prefilter full-table copies under
    the eager fallback) and ``bytes_materialized`` attribute the time
    the paper's phase split leaves invisible — everything that is
    neither transfer nor join matching.

    ``filter_cache_hits`` / ``filter_cache_misses`` count this query's
    lookups against the cross-query filter cache (zero when no cache is
    configured); ``filter_cache_bytes`` snapshots the cache's occupancy
    at query end.

    ``partitions_total`` / ``partitions_pruned`` count the scan phase's
    partition traffic: chunks considered across all scanned base
    relations with local predicates, and how many of those zone maps
    eliminated outright.

    ``rows_aggregated`` counts the rows entering this block's
    ``Aggregate`` operators — an exact operation count, no clock — and
    ``rows_sorted`` the rows entering its sorts: all of them for an
    ``ORDER BY``, the top-k candidates for an ``ORDER BY … LIMIT k``.
    ``seeded`` marks a pre-stage that ran *deferred*, after its
    consumer's transfer phase and pre-filtered on its group key
    (:mod:`repro.core.prestage`).
    """

    strategy: str = ""
    query: str = ""
    # Observability anchors: the trace id travelling with this query
    # (minted by the service layer or propagated from the client; ""
    # when tracing is off) and the wall-clock instant execution began.
    # Phase *offsets* are reconstructed from the per-phase durations —
    # phases run strictly sequentially — so the runner's hot path pays
    # one clock read, not a span allocation per phase.
    trace_id: str = ""
    started_unix: float = 0.0
    scan_seconds: float = 0.0
    transfer_seconds: float = 0.0
    join_seconds: float = 0.0
    post_seconds: float = 0.0
    materialize_seconds: float = 0.0
    bytes_materialized: int = 0
    filter_cache_hits: int = 0
    filter_cache_misses: int = 0
    filter_cache_bytes: int = 0
    # Cache-backend failures degraded to misses (the cache is an
    # accelerator, never a dependency).
    filter_cache_errors: int = 0
    partitions_total: int = 0
    partitions_pruned: int = 0
    # Resilience: exact→Bloom filter degradations under a memory
    # budget, the budget itself (0 = unlimited), and the query's
    # charged high-water mark.  Cumulative across pre-stages (they
    # share one QueryContext), so read them on the top-level stats.
    filters_degraded: int = 0
    memory_budget_bytes: int = 0
    mem_peak_bytes: int = 0
    # The order the join phase brought the relations in (see
    # repro.core.runner), and one JoinStat per join it ran.
    join_order: list[str] = field(default_factory=list)
    joins: list[JoinStat] = field(default_factory=list)
    transfer: TransferStats = field(default_factory=TransferStats)
    rows_aggregated: int = 0
    rows_sorted: int = 0
    output_rows: int = 0
    seeded: bool = False
    stage_stats: list["QueryStats"] = field(default_factory=list)

    @property
    def outcome(self) -> str:
        """Outcome label of a *completed* query.

        ``"degraded"`` when any filter fell back exact→Bloom under the
        memory budget, else ``"ok"``.  Failed queries never produce a
        ``QueryStats``; their outcome comes from the typed error's own
        ``outcome`` attribute (:mod:`repro.errors`).
        """
        return "degraded" if self.filters_degraded else "ok"

    @property
    def total_seconds(self) -> float:
        """Total execution time including all pre-stages."""
        own = (
            self.scan_seconds
            + self.transfer_seconds
            + self.join_seconds
            + self.post_seconds
            + self.materialize_seconds
        )
        return own + sum(s.total_seconds for s in self.stage_stats)

    @property
    def prefilter_seconds(self) -> float:
        """Everything before the join phase (scan + transfer),
        including pre-stages' pre-filter time."""
        return (
            self.scan_seconds
            + self.transfer_seconds
            + sum(s.prefilter_seconds for s in self.stage_stats)
        )

    @property
    def joinphase_seconds(self) -> float:
        """Join+post+materialize phase time including pre-stages'."""
        own = self.join_seconds + self.post_seconds + self.materialize_seconds
        return own + sum(s.joinphase_seconds for s in self.stage_stats)

    @property
    def scan_seconds_total(self) -> float:
        """Scan time including pre-stages' scans."""
        return self.scan_seconds + sum(
            s.scan_seconds_total for s in self.stage_stats
        )

    @property
    def materialize_seconds_total(self) -> float:
        """Materialization time including pre-stages'."""
        return self.materialize_seconds + sum(
            s.materialize_seconds_total for s in self.stage_stats
        )

    @property
    def filter_cache_hits_total(self) -> int:
        """Filter-cache hits including pre-stages'."""
        return self.filter_cache_hits + sum(
            s.filter_cache_hits_total for s in self.stage_stats
        )

    @property
    def filter_cache_misses_total(self) -> int:
        """Filter-cache misses including pre-stages'."""
        return self.filter_cache_misses + sum(
            s.filter_cache_misses_total for s in self.stage_stats
        )

    @property
    def rows_aggregated_total(self) -> int:
        """Rows entering aggregates, including pre-stages'."""
        return self.rows_aggregated + sum(
            s.rows_aggregated_total for s in self.stage_stats
        )

    @property
    def rows_sorted_total(self) -> int:
        """Rows entering sorts, including pre-stages'."""
        return self.rows_sorted + sum(
            s.rows_sorted_total for s in self.stage_stats
        )

    @property
    def partitions_total_all(self) -> int:
        """Scan partitions considered, including pre-stages'."""
        return self.partitions_total + sum(
            s.partitions_total_all for s in self.stage_stats
        )

    @property
    def partitions_pruned_all(self) -> int:
        """Scan partitions zone-map-pruned, including pre-stages'."""
        return self.partitions_pruned + sum(
            s.partitions_pruned_all for s in self.stage_stats
        )

    def all_joins(self) -> list[JoinStat]:
        """Join stats across pre-stages and the main block, in order."""
        out: list[JoinStat] = []
        for stage in self.stage_stats:
            out.extend(stage.all_joins())
        out.extend(self.joins)
        return out

    def total_join_input_rows(self) -> int:
        """Sum of HT+PR rows over all joins (the Tables 1–2 reduction
        metric aggregates this)."""
        return sum(j.ht_rows + j.pr_rows for j in self.all_joins())
