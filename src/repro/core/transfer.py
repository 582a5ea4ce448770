"""The filter-shipping kernel and the predicate transfer schedule (§3.2).

Every pre-filtering strategy in this engine is a *schedule* over one
kernel.  The kernel is three functions:

* :func:`build_filter` — build, or fetch from the cross-query cache,
  the filter over one relation's surviving join keys (exact→Bloom
  degradation under a memory budget, fault point, budget charge and
  cache commit all live here and nowhere else);
* :func:`probe_filter` — the chunked membership probe of a relation's
  keys against a shipped filter;
* :func:`run_pass` — visit vertices in a given order along a given set
  of directed edges: each vertex first applies every filter parked at
  it (the single-scan *filter transformation* of Fig. 2), then builds
  one outgoing filter per out-edge from its survivors.

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

Incoming filters are applied most-selective-first (LIP-style ordering,
paper §3.2, citing [39]) using the observed reduction at the producing
vertex as the selectivity estimate; this is ablatable via
:class:`TransferConfig`.

The state the kernel works on is one :class:`ExecContext` per query:
the scanned relations and their surviving rows, plus the statistics,
deadline/budget context, cross-query cache binding, key normalizer
and worker pool every phase shares.  Each of those is
always present — an unconfigured one is a no-op (no deadline, no
budget, nothing cacheable, serial) — so no phase tests for them.

Hot-path note: building and probing are one **morsel loop**.  Both
walk the surviving row vector in slices of
:data:`~repro.filters.bloom.MORSEL_KEYS` keys; each slice is gathered,
normalized and hashed (:class:`_RowKeys` →
:meth:`~repro.filters.hashcache.KeyHashCache.bloom_keys`) and fed
straight to the filter's ``add_hashes`` / ``contains_hashes`` (or an
exact set's ``contains_keys``) while it is still cache-resident.  Only
rows a filter actually touches are hashed — a relation its local
predicate cut to 2 % costs 2 % of a column pass — and no hash array
outlives its morsel.  Worker-pool chunks
(:mod:`repro.engine.parallel`) each run the same loop over their range.

Cross-query caching: filters built at **pristine** vertices — vertices
whose surviving rows still equal the local-predicate survivors, i.e.
no incoming filter has shrunk them yet — are looked up / stored under
deterministic fingerprints.  A pristine build is a pure function of
(table contents, local predicate, key columns, filter kind, fpp), so a
cache hit returns a filter byte-identical to what this query would
have built; shrunk vertices always build from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cache.context import QueryCache
from ..cache.store import FilterCache
from ..context import QueryContext
from ..engine.parallel import (
    ParallelContext,
    morsels,
    parallel_bloom_build,
    parallel_membership,
)
from ..engine.stats import QueryStats, TransferStats
from ..errors import FilterError
from ..filters.bloom import BloomFilter
from ..filters.exact import ExactFilter
from ..filters.hashcache import KeyHashCache
from ..storage.view import AnyTable
from ..testing.faults import fault_point
from .ptgraph import PTEdge, PTGraph


@dataclass(frozen=True)
class TransferConfig:
    """Tuning knobs of the predicate transfer phase.

    Attributes
    ----------
    filter_type:
        ``"bloom"`` (the paper's prototype) or ``"exact"`` (semi-join
        precise; §3.2 "Filter Type").
    fpp:
        Bloom filter target false-positive rate.
    forward / backward:
        Enable the respective pass (both on in the paper).
    lip_reorder:
        Apply incoming filters most-selective-first.
    prune_selectivity:
        Transfer-path pruning threshold (extension; §3.2 lists pruning
        as future work and the paper's prototype uses ``None`` = never
        prune).  A vertex whose surviving-row fraction is above the
        threshold does not emit filters — its filter would remove
        little downstream but still cost probe time.
    rounds:
        Number of forward+backward round trips (extension; §3.2 notes
        transfers "can happen back and forth").  The paper's prototype
        uses one round; additional rounds can only shrink the masks
        further (at extra transfer cost) and converge to a fixpoint.
    """

    filter_type: str = "bloom"
    fpp: float = 0.01
    forward: bool = True
    backward: bool = True
    lip_reorder: bool = True
    prune_selectivity: float | None = None
    rounds: int = 1

    def __post_init__(self) -> None:
        if self.filter_type not in ("bloom", "exact"):
            raise FilterError(f"unknown filter type {self.filter_type!r}")
        if self.rounds < 1:
            raise FilterError("rounds must be >= 1")


def masks_to_rows(masks: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Boolean survivor masks -> sorted row-index vectors.

    arange for all-true masks (predicate-less scans) skips the
    flatnonzero scan over the largest tables.
    """
    return {
        a: np.arange(len(m)) if m.all() else np.flatnonzero(m)
        for a, m in masks.items()
    }


def rows_to_masks(
    rows: dict[str, np.ndarray], lengths: dict[str, int]
) -> dict[str, np.ndarray]:
    """Sorted row-index vectors -> boolean masks of the given lengths."""
    out = {}
    for alias, selected in rows.items():
        mask = np.zeros(lengths[alias], dtype=np.bool_)
        mask[selected] = True
        out[alias] = mask
    return out


@dataclass
class _IncomingFilter:
    """A filter parked at a vertex, waiting to be applied."""

    filt: object
    key_columns: tuple[str, ...]
    producer_selectivity: float


@dataclass
class ExecContext:
    """Everything the phases of one query execution share.

    Created once per query by the runner (or with all defaults by the
    mask-form wrappers: serial, uncached, no deadline, no budget) and
    handed to every phase, which reads its inputs from it and leaves
    its outputs on it: the scan fills ``tables`` and ``rows``, a
    pre-filter schedule shrinks ``rows``, every phase accounts into
    ``stats``.

    Survivors are tracked as **sorted row-index vectors** (not boolean
    masks): every consumer of the kernel needs the index form anyway
    (hash gathers, filter builds), and index vectors shrink with the
    survivors while masks would keep costing O(base rows) to scan, sum
    and rebuild on every touch.  The join phase consumes the vectors
    directly as selection vectors; masks exist only behind the
    mask-form wrappers.
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
    # Chunked kernels stay byte-identical to serial execution, so
    # cached filters remain valid across thread counts.
    parallel: ParallelContext = field(default_factory=ParallelContext)
    hashes: KeyHashCache = field(default_factory=KeyHashCache)
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
    what lets the chunked filter kernels hash each morsel right before
    they use it.
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

    def __getitem__(self, span: slice) -> np.ndarray:
        rows = span if self._rows is None else self._rows[span]
        return self._hashes.bloom_keys(self._columns, rows)


def run_transfer_rows(
    state: ExecContext, ptgraph: PTGraph, config: TransferConfig
) -> None:
    """Run the predicate transfer schedule over ``state.rows``.

    This is the native entry point: survivors stay sorted row-index
    vectors throughout, which the late-materializing executor feeds
    straight into join-phase selection vectors — no boolean mask is
    ever materialized.  The vectors bound on entry are never mutated;
    ``state.rows`` is rebound to the reduced ones and the filter
    statistics land in ``state.stats.transfer``.
    """
    order = ptgraph.topological_order()
    for round_index in range(config.rounds):
        survivors_before = sum(map(len, state.rows.values()))
        if config.forward:
            run_pass(state, order, ptgraph.forward_edges(), config)
        if config.backward:
            run_pass(state, list(reversed(order)), ptgraph.backward_edges(), config)
        # Extra rounds stop early once a fixpoint is reached.
        if round_index and survivors_before == sum(
            map(len, state.rows.values())
        ):
            break


def run_on_masks(
    schedule: Callable[[ExecContext], None],
    tables: dict[str, AnyTable],
    masks: dict[str, np.ndarray],
) -> tuple[dict[str, np.ndarray], TransferStats]:
    """Run a pre-filter schedule on boolean survivor masks.

    The body of the mask-form wrappers, kept for callers (and tests)
    that think in masks; the runner itself uses the row-vector form.
    The schedule runs under a default context — serial, uncached, no
    deadline, no budget.  ``masks`` (local predicates pre-applied) is
    not mutated; reduced copies come back with the phase statistics.
    """
    state = ExecContext(tables=tables, rows=masks_to_rows(masks))
    stats = state.stats.transfer
    stats.rows_before = state.row_counts()
    schedule(state)
    stats.rows_after = state.row_counts()
    lengths = {a: len(m) for a, m in masks.items()}
    return rows_to_masks(state.rows, lengths), stats


def run_transfer(
    ptgraph: PTGraph,
    tables: dict[str, AnyTable],
    masks: dict[str, np.ndarray],
    config: TransferConfig = TransferConfig(),
) -> tuple[dict[str, np.ndarray], TransferStats]:
    """Boolean-mask wrapper around :func:`run_transfer_rows`."""
    return run_on_masks(
        lambda state: run_transfer_rows(state, ptgraph, config), tables, masks
    )


def run_pass(
    state: ExecContext,
    order: list[str],
    edges: list[PTEdge],
    config: TransferConfig,
) -> None:
    """One pass: visit vertices in ``order`` along the given edges."""
    stats = state.stats.transfer
    out_edges: dict[str, list[PTEdge]] = {}
    for e in edges:
        out_edges.setdefault(e.src, []).append(e)
    parked: dict[str, list[_IncomingFilter]] = {alias: [] for alias in order}

    for alias in order:
        state.qctx.check("transfer pass")
        rows = _apply_incoming(state, alias, parked[alias], config.lip_reorder)
        emit = out_edges.get(alias, [])
        if not emit:
            continue
        table = state.tables[alias]
        selectivity = len(rows) / table.num_rows if table.num_rows else 1.0
        if (
            config.prune_selectivity is not None
            and selectivity >= config.prune_selectivity
        ):
            stats.edges_pruned += len(emit)
            continue
        for e in sorted(emit, key=lambda x: x.dst):
            filt = build_filter(
                state, alias, table, rows, e.src_keys, config.filter_type, config.fpp
            )
            parked[e.dst].append(_IncomingFilter(filt, e.dst_keys, selectivity))


def _apply_incoming(
    state: ExecContext, alias: str, incoming: list[_IncomingFilter], lip_reorder: bool
) -> np.ndarray:
    """Shrink ``alias``'s survivors by the filters parked at it."""
    if lip_reorder:
        incoming = sorted(incoming, key=lambda f: f.producer_selectivity)
    table = state.tables[alias]
    rows = state.rows[alias]
    for inc in incoming:
        if len(rows) == 0:
            break
        keep = probe_filter(state, inc.filt, table, inc.key_columns, rows)
        if not keep.all():
            rows = rows[keep]
            state.shrunk.add(alias)
    state.rows[alias] = rows
    return rows


def exact_bytes_estimate(n_keys: int) -> int:
    """Predicted :class:`VectorHashSet` footprint for ``n_keys`` keys.

    Mirrors the set's sizing rule (power-of-two slot array at ≤50%
    load, 8-byte slots + 1-byte occupancy), so the memory-budget
    degradation decision can run *before* the allocation it guards.
    """
    size = 1
    while size < max(2 * n_keys, 16):
        size <<= 1
    return size * 9


def build_filter(
    state: ExecContext,
    alias: str | None,
    table: AnyTable,
    rows: np.ndarray | None,
    key_columns: tuple[str, ...],
    kind: str,
    fpp: float,
):
    """The ``kind`` filter over the ``key_columns`` of ``rows``.

    ``rows`` are ``table``'s surviving row indices (``None`` = all);
    ``alias`` names the relation for cross-query caching, and is
    ``None`` for a join intermediate.  The filter is
    fetched from the cache when ``alias`` is pristine and versioned,
    built (and committed back) otherwise.
    """
    stats = state.stats.transfer
    n_keys = table.num_rows if rows is None else len(rows)
    cacheable = alias not in state.shrunk and state.cache.cacheable(alias)
    params = f"fpp={fpp!r}" if kind == "bloom" else ""
    filt = None
    if cacheable:
        filt = state.cache.get_filter(alias, key_columns, kind, params)
    if filt is None:
        build_kind = kind
        if kind == "exact" and state.qctx.would_exceed(
            exact_bytes_estimate(n_keys)
        ):
            # Graceful degradation: a Bloom filter is ~an order of
            # magnitude smaller and — having no false negatives — keeps
            # results byte-identical; it just pre-filters less
            # precisely.  Degraded filters are never cached: they would
            # poison the exact-kind fingerprint for future queries.
            build_kind = "bloom"
            cacheable = False
            state.qctx.note_degraded()
        keys = _RowKeys(state.hashes, table, key_columns, rows)
        if build_kind == "bloom":
            filt = parallel_bloom_build(
                state.parallel, keys, capacity=n_keys, fpp=fpp
            )
            stats.bloom_inserts += n_keys
        else:
            # The set dedups and sizes itself from all keys at once;
            # the array is survivor-sized and dies with this call.
            hashed = np.empty(n_keys, dtype=np.uint64)
            for span in morsels(0, n_keys):
                hashed[span] = keys[span]
            filt = ExactFilter.from_keys(hashed)
            stats.hash_inserts += n_keys
        # The fault point sits between build and commit: an injected
        # build failure (or a budget overrun on the charge) propagates
        # before the put below, so a partially-trusted filter is never
        # committed to the shared cache.
        fault_point("filter.build")
        state.qctx.charge(filt.size_bytes(), f"filter at {alias or 'join input'}")
        if cacheable:
            state.cache.put_filter(alias, key_columns, kind, params, filt)
    stats.filters_built += 1
    stats.filter_bytes += filt.size_bytes()
    stats.edges_traversed += 1
    return filt


def probe_filter(
    state: ExecContext,
    filt,
    table: AnyTable,
    key_columns: tuple[str, ...],
    rows: np.ndarray | None,
) -> np.ndarray:
    """Membership mask of ``rows``' join keys against a shipped filter.

    Same ``rows`` convention as :func:`build_filter`; the probe runs a
    morsel at a time, chunked over the context's worker pool.
    """
    stats = state.stats.transfer
    keys = _RowKeys(state.hashes, table, key_columns, rows)
    keep = parallel_membership(state.parallel, filt, keys)
    if isinstance(filt, BloomFilter):
        stats.bloom_probes += len(keys)
    else:
        stats.hash_probes += len(keys)
    return keep
