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

A query with pre-stages (separately planned blocks whose output it
reads) keeps one :class:`QueryStats` per block.  A block's counts and
clocks cover that block only; :meth:`QueryStats.blocks` walks a
query's blocks and :meth:`QueryStats.total` rolls a field up over
them, so each query-level total has one definition.

The serving layer's aggregate stats objects ("books": ``EngineStats``,
``CacheStats``, ``ServerStats``) declare each exported counter and
gauge once, with :func:`metric_field`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Literal, get_args, overload


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
    number of keys it was built over, whatever its ``provenance``:
    ``"built"`` by this query, or fetched from the cross-query
    ``"cache"``.  A skipped edge (see the
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
    def edges_traversed(self) -> int:
        """One per shipped filter (built here or served from the cache)."""
        return len(self.shipped())

    @property
    def edges_pruned(self) -> int:
        """Edges the schedule's gate skipped."""
        return len(self.edges) - self.edges_traversed

    @property
    def filter_bytes(self) -> int:
        return sum(e.filter_bytes for e in self.shipped())

    def inserted(self, kind: str) -> int:
        """Keys this query inserted into filters of ``kind`` (a filter
        served from the cache inserted none)."""
        return sum(
            e.keys_inserted for e in self.shipped(kind) if e.provenance == "built"
        )

    def probed(self, kind: str) -> int:
        """Rows probed against filters of ``kind``."""
        return sum(e.rows_probed for e in self.shipped(kind))

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


#: The own-block fields of :class:`QueryStats` that add up over a
#: query's blocks, and so the only names :meth:`QueryStats.total`
#: accepts.  The others do not: ``filters_degraded``,
#: ``mem_peak_bytes`` and ``memory_budget_bytes`` are copied onto every
#: block from the query's shared ``QueryContext``,
#: ``filter_cache_bytes`` snapshots the store's occupancy, and
#: ``output_rows`` counts a different relation in each block.
Seconds = Literal[
    "scan_seconds",
    "transfer_seconds",
    "join_seconds",
    "post_seconds",
    "materialize_seconds",
]
Count = Literal[
    "bytes_materialized",
    "filter_cache_hits",
    "filter_cache_misses",
    "filter_cache_errors",
    "partitions_total",
    "partitions_pruned",
    "rows_aggregated",
    "rows_sorted",
]
_ADDITIVE = frozenset(get_args(Seconds) + get_args(Count))


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

    def blocks(self) -> Iterator[QueryStats]:
        """The query's blocks: its pre-stages depth-first, then this
        block — the order ``--analyze`` lists them in."""
        for stage in self.stage_stats:
            yield from stage.blocks()
        yield self

    @overload
    def total(self, name: Seconds) -> float:
        ...

    @overload
    def total(self, name: Count) -> int:
        ...

    def total(self, name: str) -> float:
        """Own-block field ``name`` summed over :meth:`blocks`; refuses
        a field that does not add up (see :data:`Seconds`)."""
        if name not in _ADDITIVE:
            raise ValueError(f"{name!r} does not add up over a query's blocks")
        return sum(getattr(block, name) for block in self.blocks())

    @property
    def total_seconds(self) -> float:
        """Total execution time including all pre-stages."""
        return self.prefilter_seconds + self.joinphase_seconds

    @property
    def prefilter_seconds(self) -> float:
        """Everything before the join phase (scan + transfer),
        including pre-stages' pre-filter time."""
        return self.total("scan_seconds") + self.total("transfer_seconds")

    @property
    def joinphase_seconds(self) -> float:
        """Join+post+materialize phase time including pre-stages'."""
        return (
            self.total("join_seconds")
            + self.total("post_seconds")
            + self.total("materialize_seconds")
        )

    @property
    def scan_seconds_total(self) -> float:
        """Scan time including pre-stages' scans."""
        return self.total("scan_seconds")

    @property
    def materialize_seconds_total(self) -> float:
        """Materialization time including pre-stages'."""
        return self.total("materialize_seconds")


def metric_field(
    kind: Literal["counter", "gauge"],
    name: str,
    help: str,
    *,
    outcome: str | None = None,
    by: str | None = None,
    default: Any = 0,
    init: bool = True,
) -> Any:
    """A book field that is also the metric family ``name``.

    The field's metadata carries the family's kind, name and HELP text
    as plain keys, which :func:`repro.obs.adapters.export_stats` reads,
    so a book imports nothing from :mod:`repro.obs`.  ``outcome``
    gives the field's sample that value of the family's ``outcome``
    label; ``by`` makes the field a dict (empty at first) whose keys
    are values of that label.
    """
    metadata = {"kind": kind, "metric": name, "help": help}
    if outcome is not None:
        metadata["outcome"] = outcome
    if by is None:
        return field(default=default, init=init, metadata=metadata)
    metadata["by"] = by
    return field(default_factory=dict, metadata=metadata)
