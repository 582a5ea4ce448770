"""The filter-shipping kernel and the predicate transfer schedule (§3.2).

Every pre-filtering strategy in this engine is a *schedule* over one
kernel.  The kernel is three functions:

* :func:`build_filter` — build, or fetch from the cross-query cache,
  the filter over one relation's surviving join keys (the choice of
  representation, exact→Bloom degradation under a memory budget, fault
  point, budget charge and cache commit all live here and nowhere
  else);
* :func:`probe_filter` — the chunked membership probe of a relation's
  keys against a shipped filter;
* :func:`run_pass` — visit vertices in a given order along a given set
  of directed edges: each vertex first applies every filter parked at
  it (the single-scan *filter transformation* of Fig. 2), then builds
  one outgoing filter per out-edge from its survivors — unless the
  schedule's *gate* vouches that the filter can remove no row.

Every edge of every pass leaves one
:class:`~repro.engine.stats.EdgeStat` in ``stats.transfer.edges`` —
shipped or skipped, keys inserted, rows probed and passed, bytes,
seconds, cache provenance — opened by the schedule that decides the
edge and filled in by :func:`build_filter` and :func:`probe_filter`;
the query-level counts are derived from that list.

A strategy picks the graph, the passes and the filter kind:

* **predicate transfer** (:func:`run_transfer_rows`, this module) — a
  forward pass in topological order of the PT DAG, then a backward
  pass over the flipped reversible edges in reverse order, starting
  from the rows the forward pass left behind (Fig. 3b); Bloom filters
  by default, exact key sets for the §3.2 "Filter Type" ablation.
* **Yannakakis** (:mod:`repro.core.yannakakis`) — a bottom-up and a
  top-down pass over a join tree with exact filters.
* **BloomJoin** (:mod:`repro.core.runner`) — one Bloom filter per
  join, shipped from its build side to its probe side.

The filter kind is what the strategy asks for; the representation is
what :func:`build_filter` observes.  When the edge's key is a single
``INT64``/``DATE`` column and the span ``max − min + 1`` of the
source's non-NULL surviving keys is at most
:func:`~repro.filters.bitmap.span_limit` (a cache-sized
:data:`~repro.filters.bitmap.CACHE_BITS`, or the size of the filter it
replaces when that is larger) and the memory budget admits its packed
bits, the edge ships a
:class:`~repro.filters.bitmap.BitmapFilter` instead: one bit per
integer of the span, built by one scatter, probed by one clipped
byte-table ``take``, no hash and no false positives — so it is never
less precise than what it replaces, and larger only within the cache.
Every TPC-H and SSB join key
is a dense integer, so most edges ship one; composite, ``STRING`` and
sparse keys ship what they asked for.  There is no knob: the rule is a
function of the source's keys, so the cross-query cache still stores
one deterministic artifact per fingerprint.

The proven-cover gate
---------------------
The paper ships a filter along every edge and leaves "pruning transfer
paths" to future work (§3.2).  Predicate transfer here passes
:func:`proven_cover` to :func:`run_pass`, which skips an edge
``src → dst`` *before the build* when all three hold:

1. ``src`` is **complete**: its surviving rows are all of its base
   rows — no local predicate removed one and no incoming filter has;
2. the edge has a single ``INT64``/``DATE`` key column on each side,
   and ``src``'s has no NULL and **no gap**: it holds every integer
   between its minimum and maximum (distinct values = max − min + 1);
3. ``dst``'s key column has no NULL and its minimum and maximum lie
   **inside** ``src``'s.

Then every key ``dst`` could probe with is an integer of ``src``'s
range, hence a key ``src`` would insert, and a filter — Bloom, exact
or bitmap, none has false negatives — passes every probed row.  Not
shipping it changes no survivor, so every later filter, every join
input and the query result are those of the ungated schedule: the gate
is exact, not a heuristic, and has no threshold.  The typical skipped
edge is a dimension table without a predicate feeding a foreign key
(``nation → supplier``), or a fact table reflecting nothing back
(``lineitem → orders`` when nothing filtered ``lineitem``).  Composite
and ``STRING`` keys, sparse key domains, NULL-bearing keys and any
vertex that lost a row ship as before; so does a filter that *does*
remove rows but costs more than it saves — that takes a cost model,
not a proof.

The three numbers come from the base table's partition layout
(:meth:`~repro.storage.partition.PartitionLayout.key_range`,
:meth:`~repro.storage.partition.PartitionLayout.gap_free`): the range
off the zone maps, the gap test counted once per table version, and
only for a complete *source*.  Pre-stage outputs are tables like any
other and get theirs on first use.

Yannakakis and BloomJoin pass no gate.  Yannakakis' full-reducer
guarantee is a statement about shipping every tree edge, and keeping
both byte-for-byte as they were makes the ungated :func:`run_pass`
the test oracle for the gated one, with no option to select it.

Incoming filters are applied most-selective-first (LIP-style ordering,
paper §3.2, citing [39]) using the observed reduction at the producing
vertex as the selectivity estimate.  The schedule has no switches: a
variant (one pass only, ungated) is code composed over :func:`run_pass`.

The state the kernel works on is one :class:`ExecContext` per query:
the scanned relations and their surviving rows, plus the statistics,
deadline/budget context, cross-query cache binding and key normalizer
every phase shares.  Each of those is always present — an
unconfigured one is a no-op (no deadline, no budget, nothing
cacheable) — so no phase tests for them.

Hot-path note: building and probing are one serial **morsel loop**.
Both walk the surviving row vector in slices of
:data:`~repro.filters.bloom.MORSEL_KEYS` keys; each slice is gathered,
normalized and hashed (:class:`_RowKeys` →
:meth:`~repro.filters.hashcache.KeyHashCache.bloom_keys`) and fed
straight to the filter's ``add_hashes`` / ``contains_hashes`` (or an
exact set's ``contains_keys``) while it is still cache-resident.  Only
rows a filter actually touches are hashed — a relation its local
predicate cut to 2 % costs 2 % of a column pass — and no hash array
outlives its morsel.  A bitmap's probe runs in the same loop over the
unhashed keys (:meth:`_RowKeys.probe_bitmap`), against the byte table
:meth:`~repro.filters.bitmap.BitmapFilter.membership` unpacks once per
probe; its build walks the survivors twice a morsel at a time, once
for the span (:func:`~repro.filters.bitmap.plan`) and once to scatter.

Cross-query caching: filters built at **pristine** vertices — vertices
whose surviving rows still equal the local-predicate survivors, i.e.
no incoming filter has shrunk them yet — are looked up / stored under
deterministic fingerprints.  A pristine build is a pure function of
(table contents, local predicate, key columns, filter kind, fpp), so a
cache hit returns a filter byte-identical to what this query would
have built; shrunk vertices always build from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from ..cache.context import QueryCache
from ..cache.store import FilterCache
from ..context import QueryContext
from ..engine.stats import SKIPPED_COVERED, EdgeStat, QueryStats
from ..errors import FilterError
from ..filters.bitmap import BitmapFilter, plan
from ..filters.bloom import BloomFilter, morsels
from ..filters.exact import ExactFilter
from ..filters.hashcache import KeyHashCache
from ..filters.hashing import column_to_u64
from ..filters.hashset import hash_set_bytes
from ..storage.partition import DEFAULT_PARTITION_ROWS, PartitionLayout, get_layout
from ..storage.view import AnyTable
from ..testing.faults import fault_point
from .ptgraph import PTEdge, PTGraph

#: A shipped filter.
Filter = Union[BloomFilter, ExactFilter, BitmapFilter]


@dataclass(frozen=True)
class TransferConfig:
    """The filters a pass ships.

    Attributes
    ----------
    filter_type:
        ``"bloom"`` (the paper's prototype) or ``"exact"`` (semi-join
        precise; §3.2 "Filter Type").
    fpp:
        Bloom filter target false-positive rate.
    """

    filter_type: str = "bloom"
    fpp: float = 0.01

    def __post_init__(self) -> None:
        if self.filter_type not in ("bloom", "exact"):
            raise FilterError(f"unknown filter type {self.filter_type!r}")


# Every all-rows selection vector is a prefix of this one array, so a
# predicate-less scan of lineitem allocates nothing.  It is read-only:
# a write into any selection vector raises instead of corrupting every
# query's.  It needs no lock because it is never changed in place:
# growing builds a complete new array and then rebinds the name in one
# (GIL-atomic) store, so a racing reader slices either the old or the
# new array, and both hold the same prefix.
_IDENTITY = np.arange(0)
_IDENTITY.flags.writeable = False


def identity_rows(n: int) -> np.ndarray:
    """``np.arange(n)``, as a read-only slice of a shared vector that
    grows geometrically."""
    global _IDENTITY
    identity = _IDENTITY
    if len(identity) < n:
        identity = np.arange(max(n, 2 * len(identity)))
        identity.flags.writeable = False
        _IDENTITY = identity
    return identity[:n]


@dataclass
class _IncomingFilter:
    """A filter parked at a vertex, waiting to be applied."""

    filt: Filter
    key_columns: tuple[str, ...]
    producer_selectivity: float
    edge: EdgeStat


@dataclass
class ExecContext:
    """Everything the phases of one query execution share.

    Created once per query by the runner (or by a test, with all
    defaults: uncached, no deadline, no budget) and handed to every
    phase, which reads its inputs from it and leaves
    its outputs on it: the scan fills ``tables`` and ``rows``, a
    pre-filter schedule shrinks ``rows``, every phase accounts into
    ``stats``.

    Survivors are tracked as **sorted row-index vectors** (not boolean
    masks): every consumer of the kernel needs the index form anyway
    (hash gathers, filter builds), and index vectors shrink with the
    survivors while masks would keep costing O(base rows) to scan, sum
    and rebuild on every touch.  The join phase consumes the vectors
    directly as selection vectors.
    """

    stats: QueryStats = field(default_factory=QueryStats)
    # Deadline / cancellation checks and memory-budget charging.
    qctx: QueryContext = field(default_factory=QueryContext)
    # This query's window onto the cross-query cache.  The default
    # binds no alias, so nothing is cacheable and its store is never
    # read or written: the uncached executor.
    cache: QueryCache = field(
        default_factory=lambda: QueryCache(FilterCache(), {})
    )
    hashes: KeyHashCache = field(default_factory=KeyHashCache)
    # Chunk size of the storage layouts the scan pruned with; the gate
    # reads its key statistics off the same layouts.
    partition_rows: int = DEFAULT_PARTITION_ROWS
    tables: dict[str, AnyTable] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(default_factory=dict)
    # Aliases an incoming filter has reduced below their
    # local-predicate survivors; filters built there are not cacheable.
    shrunk: set[str] = field(default_factory=set)
    # id(join-phase input relation) -> alias.  Join intermediates are
    # absent: their rows depend on the joins before them, so a filter
    # built from one is not cacheable.
    alias_of: dict[int, str] = field(default_factory=dict)

    def row_counts(self) -> dict[str, int]:
        """Rows currently surviving per alias."""
        return {alias: len(r) for alias, r in self.rows.items()}


class _RowKeys:
    """Mixed 64-bit join-key hashes of ``rows`` of ``table`` (``None``
    = all), computed per slice.

    Slicing ``[lo:hi]`` gathers, normalizes and hashes just those rows
    (a plain slice of the columns when every row is alive), which is
    what lets the morsel loops hash each morsel right before they use
    it.
    """

    __slots__ = ("_hashes", "_columns", "_rows", "_n")

    def __init__(
        self,
        hashes: KeyHashCache,
        table: AnyTable,
        key_columns: tuple[str, ...],
        rows: np.ndarray | None,
    ) -> None:
        if rows is not None and len(rows) == table.num_rows:
            rows = None  # a full sorted row vector is the identity
        self._hashes = hashes
        self._columns = [table.column(c) for c in key_columns]
        self._rows = rows
        self._n = table.num_rows if rows is None else len(rows)

    def __len__(self) -> int:
        return self._n

    def _slice(self, span: slice) -> slice | np.ndarray:
        return span if self._rows is None else self._rows[span]

    def __getitem__(self, span: slice) -> np.ndarray:
        return self._hashes.bloom_keys(self._columns, self._slice(span))

    def probe_bitmap(
        self, contains: Callable[[np.ndarray], np.ndarray], span: slice
    ) -> np.ndarray:
        """A bitmap's membership mask (``contains``, from
        :meth:`~repro.filters.bitmap.BitmapFilter.membership`) of the
        single key column's rows in ``span``, normalized as the hashed
        filters normalize them; NULL rows never pass."""
        (column,) = self._columns
        rows = self._slice(span)
        keys = column_to_u64(column, rows, self._hashes.dictionary_hashes(column))
        keep = contains(keys)
        if column.valid is not None:
            keep &= column.valid[rows]
        return keep


def run_transfer_rows(
    state: ExecContext, ptgraph: PTGraph, config: TransferConfig
) -> None:
    """Run the predicate transfer schedule over ``state.rows``: one
    gated forward pass in topological order of the PT DAG, then one
    gated backward pass in reverse order.

    This is the native entry point: survivors stay sorted row-index
    vectors throughout, which the late-materializing executor feeds
    straight into join-phase selection vectors — no boolean mask is
    ever materialized.  The vectors bound on entry are never mutated;
    ``state.rows`` is rebound to the reduced ones and the filter
    statistics land in ``state.stats.transfer``.
    """
    order = ptgraph.topological_order()
    run_pass(state, order, ptgraph.forward_edges(), config, proven_cover)
    run_pass(state, order[::-1], ptgraph.backward_edges(), config, proven_cover)


#: Decides, before the build, that an edge's filter need not be shipped.
Gate = Callable[[ExecContext, PTEdge], bool]


def run_pass(
    state: ExecContext,
    order: list[str],
    edges: list[PTEdge],
    config: TransferConfig,
    gate: Gate | None = None,
) -> None:
    """One pass: visit vertices in ``order`` along the given edges.

    Without a ``gate`` every edge ships its filter.  With one, an edge
    the gate vouches for is recorded as skipped and neither built nor
    probed.
    """
    stats = state.stats.transfer
    pass_index = stats.next_pass
    out_edges: dict[str, list[PTEdge]] = {}
    for e in edges:
        out_edges.setdefault(e.src, []).append(e)
    parked: dict[str, list[_IncomingFilter]] = {alias: [] for alias in order}

    for alias in order:
        state.qctx.check("transfer pass")
        rows = _apply_incoming(state, alias, parked[alias])
        emit = out_edges.get(alias, [])
        if not emit:
            continue
        table = state.tables[alias]
        selectivity = len(rows) / table.num_rows if table.num_rows else 1.0
        for e in sorted(emit, key=lambda x: x.dst):
            edge = stats.new_edge(pass_index, e.src, e.dst, e.src_keys)
            if gate is not None and gate(state, e):
                edge.decision = SKIPPED_COVERED
                continue
            filt = build_filter(
                state, edge, alias, table, rows, config.filter_type, config.fpp
            )
            parked[e.dst].append(_IncomingFilter(filt, e.dst_keys, selectivity, edge))


def _apply_incoming(
    state: ExecContext, alias: str, incoming: list[_IncomingFilter]
) -> np.ndarray:
    """Shrink ``alias``'s survivors by the filters parked at it, the
    most selective producer's first (LIP)."""
    incoming = sorted(incoming, key=lambda f: f.producer_selectivity)
    table = state.tables[alias]
    rows = state.rows[alias]
    for inc in incoming:
        if len(rows) == 0:
            break
        keep = probe_filter(state, inc.edge, inc.filt, table, inc.key_columns, rows)
        if inc.edge.rows_passed < len(rows):
            rows = rows[keep]
            state.shrunk.add(alias)
    state.rows[alias] = rows
    return rows


# ----------------------------------------------------------------------
# The proven-cover gate
# ----------------------------------------------------------------------
def _key_statistics(
    state: ExecContext, alias: str, column: str
) -> tuple[PartitionLayout, str] | None:
    """The storage layout holding the statistics of ``alias``'s key
    ``column``, and the column's name there (``None`` when the relation
    is not a whole base table)."""
    base = state.tables[alias].base_column(column)
    if base is None:
        return None
    return get_layout(base[0], state.partition_rows), base[1]


def proven_cover(state: ExecContext, edge: PTEdge) -> bool:
    """Is ``edge``'s filter proven to pass every row it would probe?

    True when the source still holds every base row, its single integer
    key column has no NULL and no gap, and the destination's NULL-free
    key column lies inside the source's value range: then every
    destination key is a source key (module docstring).  Cheapest test
    first; the source's distinct count is taken last, once per table
    version.
    """
    if (
        len(edge.src_keys) != 1
        or len(state.rows[edge.src]) != state.tables[edge.src].num_rows
    ):
        return False
    src = _key_statistics(state, edge.src, edge.src_keys[0])
    dst = _key_statistics(state, edge.dst, edge.dst_keys[0])
    if src is None or dst is None:
        return False
    (src_layout, src_key), (dst_layout, dst_key) = src, dst
    if (
        src_layout.columns[src_key].dtype
        != dst_layout.columns[dst_key].dtype
    ):
        return False
    src_range = src_layout.key_range(src_key)
    dst_range = dst_layout.key_range(dst_key)
    if src_range is None or dst_range is None:
        return False
    (src_low, src_high), (dst_low, dst_high) = src_range, dst_range
    inside = dst_low > dst_high or (src_low <= dst_low and dst_high <= src_high)
    return inside and src_layout.gap_free(src_key)


def build_filter(
    state: ExecContext,
    edge: EdgeStat,
    alias: str | None,
    table: AnyTable,
    rows: np.ndarray | None,
    kind: str,
    fpp: float,
) -> Filter:
    """The ``kind`` filter over ``edge``'s key columns of ``rows``.

    ``rows`` are ``table``'s surviving row indices (``None`` = all);
    ``alias`` names the relation for cross-query caching, and is
    ``None`` for a join intermediate.  The filter is
    fetched from the cache when ``alias`` is pristine and versioned,
    built (and committed back) otherwise; either way ``edge`` records
    what was shipped.  A single dense integer key ships a
    :class:`~repro.filters.bitmap.BitmapFilter` instead whenever
    :func:`~repro.filters.bitmap.plan` picks one and the memory budget
    admits it.
    """
    started = time.perf_counter()
    key_columns = edge.key_columns
    n_keys = table.num_rows if rows is None else len(rows)
    # The alias to cache under: a pristine, versioned relation's.
    cache_as = (
        alias
        if alias is not None
        and alias not in state.shrunk
        and state.cache.cacheable(alias)
        else None
    )
    params = f"fpp={fpp!r}" if kind == "bloom" else ""
    filt: Filter | None = None
    if cache_as is not None:
        cached = state.cache.get_filter(cache_as, key_columns, kind, params)
        if isinstance(cached, (BloomFilter, ExactFilter, BitmapFilter)):
            filt = cached
            edge.provenance = "cache"
    if filt is None:
        filt, degraded = _build(state, table, key_columns, rows, kind, fpp)
        if degraded:
            cache_as = None
        # The fault point sits between build and commit: an injected
        # build failure (or a budget overrun on the charge) propagates
        # before the put below, so a partially-trusted filter is never
        # committed to the shared cache.
        fault_point("filter.build")
        state.qctx.charge(filt.size_bytes(), f"filter at {alias or 'join input'}")
        if cache_as is not None:
            state.cache.put_filter(cache_as, key_columns, kind, params, filt)
        edge.provenance = "built"
    edge.kind = (
        "bitmap"
        if isinstance(filt, BitmapFilter)
        else "exact" if filt.exact else "bloom"
    )
    edge.keys_inserted = n_keys
    edge.filter_bytes = filt.size_bytes()
    edge.build_seconds = time.perf_counter() - started
    return filt


def _build(
    state: ExecContext,
    table: AnyTable,
    key_columns: tuple[str, ...],
    rows: np.ndarray | None,
    kind: str,
    fpp: float,
) -> tuple[Filter, bool]:
    """Build the filter :func:`build_filter` ships, and whether the
    memory budget made it differ from what an unbudgeted build ships —
    such a filter is never cached: it would poison the fingerprint for
    future queries."""
    n_keys = table.num_rows if rows is None else len(rows)
    if rows is not None and n_keys == table.num_rows:
        rows = None  # a full sorted row vector is the identity
    columns = [table.column(c) for c in key_columns]

    def affordable(rule: float | None) -> tuple[tuple[int, int] | None, bool]:
        # The bitmap under ``rule``, if the budget admits its packed
        # bits (the form that is kept and charged; the build's scatter
        # array is at most the larger of the cache-sized span and the
        # replaced filter's bytes), and whether the budget vetoed it.
        planned = plan(columns, rows, rule)
        if planned is not None and state.qctx.would_exceed(-(-planned[1] // 8)):
            return None, True
        return planned, False

    rule = None if kind == "exact" else fpp  # the size rule a bitmap obeys
    planned, degraded = affordable(rule)
    if (
        kind == "exact"
        and planned is None
        and state.qctx.would_exceed(hash_set_bytes(n_keys))
    ):
        # Graceful degradation: a Bloom filter is ~an order of
        # magnitude smaller and — having no false negatives — keeps
        # results byte-identical; it just pre-filters less precisely.
        kind, rule, degraded = "bloom", fpp, True
        state.qctx.note_degraded()
        planned, _ = affordable(rule)  # under the Bloom filter's rule
    if planned is not None:
        return BitmapFilter.build(columns[0], rows, rule, planned), degraded
    keys = _RowKeys(state.hashes, table, key_columns, rows)
    if kind == "bloom":
        bloom = BloomFilter(capacity=n_keys, fpp=fpp)
        for span in morsels(0, n_keys):
            bloom.add_hashes(keys[span])
        return bloom, degraded
    # The set dedups and sizes itself from all keys at once; the array
    # is survivor-sized and dies with this call.
    hashed = np.empty(n_keys, dtype=np.uint64)
    for span in morsels(0, n_keys):
        hashed[span] = keys[span]
    return ExactFilter.from_keys(hashed), degraded


def probe_filter(
    state: ExecContext,
    edge: EdgeStat,
    filt: Filter,
    table: AnyTable,
    key_columns: tuple[str, ...],
    rows: np.ndarray | None,
) -> np.ndarray:
    """Membership mask of ``rows``' join keys against a shipped filter.

    Same ``rows`` convention as :func:`build_filter`; the probe runs a
    morsel at a time, each writing its own slice of the mask, and
    ``edge`` records how many rows it saw and let through.
    """
    started = time.perf_counter()
    keys = _RowKeys(state.hashes, table, key_columns, rows)
    keep = np.empty(len(keys), dtype=np.bool_)
    if isinstance(filt, BitmapFilter):  # unhashed keys, NULLs never pass
        contains = filt.membership()
        for span in morsels(0, len(keys)):
            keep[span] = keys.probe_bitmap(contains, span)
    else:
        # Bloom filters take the pre-mixed hashes, exact sets the keys.
        probe = (
            filt.contains_hashes
            if isinstance(filt, BloomFilter)
            else filt.contains_keys
        )
        for span in morsels(0, len(keys)):
            keep[span] = probe(keys[span])
    edge.rows_probed = len(keys)
    edge.rows_passed = int(np.count_nonzero(keep))
    edge.probe_seconds = time.perf_counter() - started
    return keep
