"""Vectorized equi-join: a bucket-addressed hash join.

The matching kernel (:class:`BuildIndex`, :func:`join_indices`) is a
hash table laid out as arrays.  ``HT`` = build rows inserted, ``PR`` =
probe rows looked up, exactly the paper's Tables 1–2 accounting.

**Bucket function.**  With ``low``/``span`` the build keys' minimum and
value range, ``bucket(key) = key - low`` when ``span`` is at most
:data:`~repro.engine.factorize.DIRECT_ADDRESS_SLOTS_PER_ROW` × (build +
probe rows) — surrogate keys, dates, packed composites of those: one
slot per possible key, so equal buckets mean equal keys.  Anything
sparser takes the top bits of :func:`~repro.filters.hashing.mix64` over
a power-of-two table of at least 2 × build rows; buckets then collide,
so candidate pairs are confirmed by comparing the keys themselves.  The
span is compared with the bound in Python ints before any ``key - low``
is formed; probe keys outside the span land (through the unsigned
wrap of that difference) on one extra, always-empty slot.  Either way
the tables hold at most that many slots per input row and die with the
call.

**Layout.**  One ``bincount`` of the build buckets gives every slot's
row count.  Existence probes (``semi``/``anti`` without a residual,
one-key-per-slot buckets) read that table and nothing else is built.
When no slot holds two rows the index is a slot → row scatter and a
probe is one gather.  Otherwise it is CSR: ``offsets`` (the counts'
prefix sum) and ``order``, the build rows sorted by bucket — left out
when the buckets already arrive non-decreasing (``lineitem`` by
``l_orderkey``), a row-tagged sort otherwise; a probe gathers its
slot's two offsets and expands the runs.

**Order.**  Pairs come out in ascending probe position and, within one
probe row, ascending build row — what a stable sort of the build side
followed by a binary search per probe key produces (the reference kept
in ``tests/test_hashjoin.py``).  Probing slices of the probe side
against one index and concatenating gives the same triple.

**One partner.**  When every probe row finds exactly one build row —
a key–foreign-key join, and after predicate transfer nearly every join
is one — the pairs are the probe side itself, in order: the probe
returns ``probe_idx = None`` ("probe row ``i`` pairs with
``build_idx[i]``") instead of an identity vector.  :func:`hash_join`
then leaves the probe side in place: an ``inner`` join composes only
the build side's selection vectors (:func:`~repro.storage.view
.join_views`), a whole-table probe source stays whole, so its columns
are later read without a gather, and a ``semi`` join that keeps every
row (an ``anti`` join that keeps every row) returns its probe input.
The slot → row layout detects the case with ``hit.all()`` after the key
compare; CSR with every count 1.  ``JoinStat.probe_kept`` records it.
``left`` joins are unchanged: null extension composes anyway.

The index is built per call and never kept.  A build side recurs within
a query only in self-join shapes, and then with other survivors: the
per-query memo of sorted build sides this module once carried measured
zero hits over the whole benchmark suite, while pinning full-size arrays
until the query ended.

Join kinds: ``inner``, ``left`` (null-extending), ``semi``, ``anti``.
``right`` joins are executed as mirrored ``left`` joins by the planner.
Residual (non-equi) predicates are applied to the matched pair block
before null extension, which matches SQL ``ON``-clause semantics for the
query shapes used here.

NULL join keys follow SQL semantics: a row whose key tuple contains a
null (e.g. the null-extended side of an upstream left join) **never**
matches anything.  Physically such rows carry a canonical zero
placeholder under a ``valid=False`` mask (:meth:`Column.take_nullable`)
— a perfectly matchable value — so :func:`hash_join` keeps them out of
the kernel altogether: null-keyed build rows are not inserted and
null-keyed probe rows are not looked up.  The latter count zero
matches — dropped by ``inner``/``semi``, kept by ``anti`` (SQL ``NOT
EXISTS``), null-extended by ``left``.  FLOAT64 keys compare by value
(``0.0 = -0.0``, see :func:`~repro.filters.hashing.column_to_u64`); a
NaN is just a bit pattern to the kernel, so a missing float must be a
NULL, which the rule above keeps from matching.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ExecutionError
from ..expr.eval import evaluate_mask
from ..expr.nodes import Expr
from ..filters.hashing import mix64
from ..storage.column import Column
from ..storage.table import Table
from ..storage.view import AnyTable, TableView, join_views
from .factorize import DIRECT_ADDRESS_SLOTS_PER_ROW, PACK_LIMIT, int_span, tagged_sort
from .keys import normalize_join_keys
from .stats import JoinStat

_JOIN_KINDS = ("inner", "left", "semi", "anti")


class BuildIndex:
    """The build side's keys indexed by bucket (see the module docstring).

    ``pairs=False`` asks for existence only; it is honoured when one
    bucket means one key, since colliding buckets have to be resolved
    pair by pair anyway.  Read-only once built.
    """

    __slots__ = ("keys", "low", "span", "shift", "counts", "rows", "offsets", "order")

    def __init__(self, keys: np.ndarray, n_probe: int, pairs: bool = True) -> None:
        n = len(keys)
        self.keys = keys
        self.low, self.span = int_span(keys)
        self.shift: int | None = None  # of a hashed key down to its bucket
        self.counts: np.ndarray | None = None  # slot -> rows, existence only
        self.rows: np.ndarray | None = None  # slot -> its one row, or -1
        self.offsets: np.ndarray | None = None  # slot -> start in `order`
        self.order: np.ndarray | None = None  # None = the build order itself
        bound = DIRECT_ADDRESS_SLOTS_PER_ROW * (n + n_probe)
        if 0 <= self.low and self.low + self.span <= bound:
            # Keys that address the table as they are need no offset pass.
            self.low, self.span = 0, self.low + self.span
        if self.span <= bound:
            slots = self.span + 1  # the last one takes out-of-span probes
        else:
            bits = (2 * n - 1).bit_length()
            self.shift, slots = 64 - bits, 1 << bits
        buckets = self._buckets(keys)
        counts = np.bincount(buckets, minlength=slots)
        if self.shift is None and not pairs:
            self.counts = counts
            return
        row_type = np.int32 if n < 2**31 else np.int64
        if counts.max() <= 1:
            self.rows = np.full(slots, -1, dtype=row_type)
            self.rows[buckets] = np.arange(n, dtype=row_type)
            return
        self.offsets = np.zeros(slots + 1, dtype=row_type)
        np.cumsum(counts, out=self.offsets[1:])
        if not (buckets[1:] >= buckets[:-1]).all():
            row_bits = n.bit_length()
            if slots << row_bits < 2 * PACK_LIMIT:
                self.order = tagged_sort(buckets, row_bits)
                self.order &= (1 << row_bits) - 1
            else:
                self.order = np.argsort(buckets, kind="stable")
            if self.shift is not None:
                self.keys = keys[self.order]  # candidates are confirmed in place

    def _buckets(self, keys: np.ndarray) -> np.ndarray:
        """Slot of every key, as non-negative ``int64``."""
        if self.shift is not None:
            hashed = mix64(keys.view(np.uint64))
            hashed >>= np.uint64(self.shift)
            return hashed.view(np.int64)
        if (
            self.low == 0
            and len(keys)
            and int(keys.min()) >= 0
            and int(keys.max()) < self.span
        ):
            return keys
        # key - low modulo 2**64, read unsigned, is below the span
        # exactly for the keys inside it — however far outside the
        # others lie.
        offset = keys - self.low
        unsigned = offset.view(np.uint64)
        np.minimum(unsigned, np.uint64(self.span), out=unsigned)
        return offset

    def matched(self, probe_keys: np.ndarray) -> np.ndarray:
        """Which probe keys have at least one match."""
        if self.counts is None:
            return self.probe(probe_keys)[2] > 0
        return self.counts[self._buckets(probe_keys)] > 0

    def probe(
        self, probe_keys: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
        """``(probe_idx, build_idx, counts)`` as :func:`join_indices`,
        except that ``probe_idx`` is ``None`` when every probe row has
        exactly one partner: probe row ``i`` pairs with ``build_idx[i]``."""
        buckets = self._buckets(probe_keys)
        verify = self.shift is not None
        if self.rows is not None:
            rows = self.rows[buckets]
            hit = rows >= 0
            if verify:
                hit &= self.keys[rows] == probe_keys
            if hit.all():
                return None, rows.astype(np.intp), hit.view(np.int8)
            probe_idx = np.flatnonzero(hit)
            return probe_idx, rows[probe_idx].astype(np.intp), hit.view(np.int8)

        assert self.offsets is not None
        starts = self.offsets[buckets]
        counts = self.offsets[1:][buckets]
        counts -= starts
        if not verify and (counts == 1).all():
            build_idx = starts.astype(np.intp)
            if self.order is not None:
                build_idx = self.order[build_idx]
            return None, build_idx, counts
        probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
        # Position in `order` of every pair: its probe row's run start
        # plus its rank within the run (global arange minus the
        # exclusive prefix sum of counts).
        run_shift = np.cumsum(counts)
        run_shift -= counts
        np.subtract(starts, run_shift, out=run_shift)
        build_idx = np.arange(len(probe_idx))
        build_idx += np.repeat(run_shift, counts)
        if verify:
            equal = self.keys[build_idx] == probe_keys[probe_idx]
            probe_idx, build_idx = probe_idx[equal], build_idx[equal]
            counts = np.bincount(probe_idx, minlength=len(probe_keys))
        if self.order is not None:
            build_idx = self.order[build_idx]
        if verify and len(build_idx) == len(probe_keys) and (counts == 1).all():
            return None, build_idx, counts
        return probe_idx, build_idx, counts


def join_indices(
    probe_keys: np.ndarray, build_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All matching (probe, build) index pairs plus per-probe match counts.

    Returns ``(probe_idx, build_idx, counts)`` where the first two arrays
    enumerate every matching pair — ascending probe position, then
    ascending build row — and ``counts[i]`` is the number of matches of
    probe row ``i`` (in whatever integer type the index produced).
    """
    probe_idx, build_idx, counts = BuildIndex(build_keys, len(probe_keys)).probe(
        probe_keys
    )
    if probe_idx is None:
        probe_idx = np.arange(len(probe_keys))
    return probe_idx, build_idx, counts


def _valid_rows(
    columns: list[Column], rows: np.ndarray | None
) -> np.ndarray | None:
    """``rows`` (``None`` = all) less those whose key tuple holds a NULL.

    Returned unchanged in the common case: no column carries a validity
    mask, or no masked row is among ``rows``.
    """
    valid: np.ndarray | None = None
    for column in columns:
        if column.valid is not None:
            valid = column.valid if valid is None else (valid & column.valid)
    if valid is None:
        return rows
    if rows is not None:
        valid = valid[rows]
    if valid.all():
        return rows
    return np.flatnonzero(valid) if rows is None else rows[valid]


def _merge_columns(
    probe: Table, build: Table, probe_idx: np.ndarray | None,
    build_idx: np.ndarray, null_extend_build: bool,
) -> Table:
    """Assemble the joined table from index vectors (eager path);
    ``probe_idx=None`` keeps the probe columns as they are."""
    columns: dict[str, Column] = {}
    for name, column in probe.columns.items():
        columns[name] = column if probe_idx is None else column.take(probe_idx)
    for name, column in build.columns.items():
        if name in columns:
            raise ExecutionError(f"duplicate column {name!r} across join sides")
        if null_extend_build:
            columns[name] = column.take_nullable(build_idx)
        else:
            columns[name] = column.take(build_idx)
    return Table(f"({probe.name}x{build.name})", columns)


def _merge(
    probe: AnyTable, build: AnyTable, probe_idx: np.ndarray | None,
    build_idx: np.ndarray, null_extend_build: bool,
) -> AnyTable:
    """Combine the join sides: lazily (views) or eagerly (tables);
    ``probe_idx=None`` pairs probe row ``i`` with ``build_idx[i]``.

    When either side is a :class:`TableView` the result is a composed
    view — index vectors only, no data columns gathered.  Two concrete
    tables keep the eager gather-everything behaviour (the
    ``materialize="eager"`` oracle path).
    """
    if isinstance(probe, TableView) or isinstance(build, TableView):
        return join_views(probe, build, probe_idx, build_idx, null_extend_build)
    return _merge_columns(probe, build, probe_idx, build_idx, null_extend_build)


def hash_join(
    probe: AnyTable,
    build: AnyTable,
    probe_on: list[str],
    build_on: list[str],
    how: str = "inner",
    residual: Expr | None = None,
    label: str | None = None,
    probe_rows: np.ndarray | None = None,
) -> tuple[AnyTable, JoinStat]:
    """Join ``probe`` against ``build`` on equality of the key columns.

    Parameters
    ----------
    probe, build:
        Input tables or :class:`TableView` lazy intermediates; ``build``
        is the hash-table side.  Key columns are gathered through the
        views' selection vectors (and memoized there); all non-key
        columns stay untouched when the inputs are views, because the
        result is then a composed view rather than a gathered table.
    probe_on, build_on:
        Equal-length lists of key column names.
    how:
        ``inner`` | ``left`` | ``semi`` | ``anti`` (left-side semantics).
    residual:
        Optional non-equi predicate evaluated on matched pairs.  For
        ``semi``/``anti``/``left`` it participates in match semantics
        (a pair failing the residual does not count as a match).
    label:
        Stat label (defaults to the table names).
    probe_rows:
        Optional sorted row indices restricting the probe side without
        materializing a filtered table (BloomJoin's one-hop prefilter
        passes the surviving rows here; the ``PR`` statistic then counts
        only them, as in the paper's Tables 1–2).  Only valid for
        ``inner`` and ``semi`` joins.
    """
    if how not in _JOIN_KINDS:
        raise ExecutionError(f"unknown join kind {how!r}")
    if probe_rows is not None and how not in ("inner", "semi"):
        raise ExecutionError("probe_rows restriction requires inner/semi join")
    start = time.perf_counter()
    probe_cols = [probe.column(c) for c in probe_on]
    build_cols = [build.column(c) for c in build_on]
    probe_keys, build_keys = normalize_join_keys(probe_cols, build_cols)
    pr_rows = probe.num_rows if probe_rows is None else len(probe_rows)
    # Null-keyed rows never match (SQL semantics): they stay out of the
    # kernel, which would compare their placeholder values.
    probe_rows = _valid_rows(probe_cols, probe_rows)
    build_rows = _valid_rows(build_cols, None)
    if probe_rows is not None:
        probe_keys = probe_keys[probe_rows]
    if build_rows is not None:
        build_keys = build_keys[build_rows]

    enumerate_pairs = how in ("inner", "left") or residual is not None
    index = BuildIndex(build_keys, len(probe_keys), pairs=enumerate_pairs)
    # None: probe row i pairs with build_idx[i] (one partner per row).
    probe_idx: np.ndarray | None = np.empty(0, dtype=np.intp)
    build_idx = np.empty(0, dtype=np.intp)
    if enumerate_pairs:
        probe_idx, build_idx, counts = index.probe(probe_keys)
        if build_rows is not None:
            build_idx = build_rows[build_idx]
    else:
        counts = index.matched(probe_keys)
    if probe_rows is not None:
        probe_idx = probe_rows if probe_idx is None else probe_rows[probe_idx]
        restricted, counts = counts, np.zeros(probe.num_rows, dtype=counts.dtype)
        counts[probe_rows] = restricted

    if residual is not None and len(build_idx) > 0:
        # On views this gathers only the columns the residual touches.
        pair_table = _merge(probe, build, probe_idx, build_idx, False)
        keep = evaluate_mask(residual, pair_table)
        if not keep.all():
            probe_idx = np.flatnonzero(keep) if probe_idx is None else probe_idx[keep]
            build_idx = build_idx[keep]
            counts = np.bincount(probe_idx, minlength=probe.num_rows)

    probe_kept = False
    if how == "inner":
        result = _merge(probe, build, probe_idx, build_idx, False)
        probe_kept = probe_idx is None
    elif how in ("semi", "anti"):
        keep = counts > 0 if how == "semi" else counts == 0
        probe_kept = bool(keep.all())
        result = probe if probe_kept else probe.filter(keep)
    else:
        # Left outer: max(count, 1) rows per probe row, the pairs (already
        # in probe order) written over the slots of the matched ones.
        slots = np.maximum(counts, 1)
        all_probe = np.repeat(np.arange(probe.num_rows), slots)
        all_build = np.full(len(all_probe), -1, dtype=np.intp)
        all_build[np.repeat(counts > 0, slots)] = build_idx
        result = _merge(probe, build, all_probe, all_build, True)

    stat = JoinStat(
        label=label or f"{build.name}->{probe.name}",
        ht_rows=build.num_rows,
        pr_rows=pr_rows,
        out_rows=result.num_rows,
        seconds=time.perf_counter() - start,
        probe_kept=probe_kept,
    )
    return result, stat


def cross_join(
    left: AnyTable, right: AnyTable, label: str | None = None
) -> tuple[AnyTable, JoinStat]:
    """Cartesian product of two inputs (no join keys).

    Used by the runner to combine independently executed connected
    components of a disconnected join graph.  Row order is
    deterministic: every ``left`` row paired with every ``right`` row,
    right side varying fastest.  On views this is pure index-vector
    composition; data is gathered only when columns are read.
    """
    start = time.perf_counter()
    n_left, n_right = left.num_rows, right.num_rows
    left_idx = np.repeat(np.arange(n_left, dtype=np.intp), n_right)
    right_idx = np.tile(np.arange(n_right, dtype=np.intp), n_left)
    result = _merge(left, right, left_idx, right_idx, False)
    stat = JoinStat(
        label=label or f"{left.name}x{right.name}",
        ht_rows=n_right,
        pr_rows=n_left,
        out_rows=result.num_rows,
        seconds=time.perf_counter() - start,
    )
    return result, stat
