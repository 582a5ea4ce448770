"""Per-query binding of the shared :class:`FilterCache`.

The runner builds one :class:`QueryCache` per execution from the
resolved spec and the catalog's data versions.  It precomputes each
alias's cache identity — ``(base table, data version, canonical local
predicate)`` — and offers typed get/put entry points for the three
artifact kinds, while counting this query's hits and misses so
:class:`~repro.engine.stats.QueryStats` can report them.

Aliases over unversioned tables (derived pre-stage outputs registered
on a scoped catalog) are simply absent from the context: every lookup
for them reports "not cacheable" and the phases fall back to building
from scratch, exactly as when no cache is configured.

Delta extension
---------------
Appends bump only a version's delta sequence
(:class:`~repro.storage.catalog.DataVersion`), and the appended rows
are strictly *after* every pre-existing row.  An artifact cached at
``(base, older_delta)`` is therefore not stale, merely incomplete: on
an exact-fingerprint miss, :meth:`QueryCache.get_scan` and
:meth:`QueryCache.get_filter` probe the version's recorded delta
history and, on a hit, **extend** the cached artifact over just the
delta rows — evaluating the local predicate on the delta slice,
appending qualifying indices to a cached selection vector, OR-merging
delta key hashes into a clone of a cached Bloom filter (at its cached
geometry, so the result is bit-identical to a from-scratch build with
that geometry), inserting them into a clone of a cached exact set, or
re-spanning a cached presence bitmap over them (bit-identical to a
from-scratch build over the merged rows, which is why a merged span the
bitmap's size rule no longer admits is a rebuild).
The extended artifact is published under the current fingerprint, so
later queries hit exactly, and under the artifact's *lineage* (the
fingerprint at the version's ``base``), so the store drops the entry it
was extended from: one entry per artifact survives any number of
commits.  Whole-query pre-filter entries are never extended but carry
a lineage too, so a re-run after a commit replaces the stale one.

Every extension is sound-or-rebuilt: any case the extension cannot
prove equivalent to a from-scratch build — predicate columns the base
table cannot supply, an unexpected payload shape, a geometry merge
failure, a saturated Bloom filter, a bitmap whose merged span outgrew
its size rule, or an injected ``cache.extend``
fault — returns a miss and the caller rebuilds in full (counted in
``extension_rebuilds``).  Replaces bump the base version, which no
probe matches, so full invalidation stays intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, cast

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Iterable, Iterator

    from ..expr.nodes import Expr
    from ..plan.query import QuerySpec
    from ..storage.catalog import Catalog, DataVersion
    from ..storage.column import Column
    from ..storage.table import Table

from ..errors import CacheCorruption, QueryAborted, ReproError
from ..expr.eval import evaluate_mask
from ..filters.bitmap import BitmapFilter
from ..filters.bloom import BloomFilter
from ..filters.exact import ExactFilter
from ..filters.hashing import bloom_keys
from ..storage.partition import slice_table
from ..testing.faults import fault_point
from .fingerprint import (
    canonical_expr,
    filter_fingerprint,
    prefilter_fingerprint,
    scan_fingerprint,
    strip_alias,
)
from .store import FilterCache

#: How far back in a version's delta history extension lookups probe.
#: Older entries than this simply miss (full rebuild) — bounding probe
#: cost per lookup under long append streams.
MAX_EXTENSION_PROBES = 8

#: Bloom filters whose word array is more than half ones after an
#: extension are rebuilt instead: the cached geometry was sized for the
#: pre-append row count and its false-positive rate has degraded past
#: usefulness.  (Saturation is a quality cliff, not a soundness issue —
#: Bloom filters never produce false negatives at any saturation.)
MAX_EXTENSION_SATURATION = 0.5


@dataclass(frozen=True)
class AliasKey:
    """Cache identity of one aliased base relation.

    ``expr`` and ``base`` carry the original predicate tree and the
    pinned snapshot's table object for delta extension; they are
    derived from the compared fields (via the catalog snapshot) and
    excluded from equality/hashing.
    """

    table: str
    version: "int | DataVersion"
    predicate: str  # canonical, alias-stripped local-predicate form
    expr: "Expr | None" = field(default=None, compare=False, repr=False)
    base: "Table | None" = field(default=None, compare=False, repr=False)


class QueryCache:
    """One query's window onto the shared filter cache.

    The cache is an accelerator, never a dependency: a failing store
    degrades to a miss on reads and a no-op on writes (counted in
    :attr:`errors`), so a broken cache backend costs rebuild time, not
    query results.  Abort signals (:class:`~repro.errors.QueryAborted`)
    and strict-mode :class:`~repro.errors.CacheCorruption` still
    propagate — those are the caller's to handle.
    """

    __slots__ = ("cache", "aliases", "hits", "misses", "errors", "extensions")

    def __init__(self, cache: FilterCache, aliases: dict[str, AliasKey]) -> None:
        self.cache = cache
        self.aliases = aliases
        self.hits = 0
        self.misses = 0
        self.errors = 0
        # Artifacts this query got by delta extension (the store counts
        # them engine-wide; this tells a caller its own lookup was one).
        self.extensions = 0

    # ------------------------------------------------------------------
    def cacheable(self, alias: str) -> bool:
        """Is this alias backed by a versioned base table?"""
        return alias in self.aliases

    def covers(self, aliases: "Iterable[str]") -> bool:
        """Are *all* of the given aliases cacheable (required for
        whole-query pre-filter entries)?"""
        return all(a in self.aliases for a in aliases)

    def _get(self, fp: str) -> object | None:
        try:
            payload = self.cache.get(fp)
        except (QueryAborted, CacheCorruption):
            raise
        except ReproError:
            self.errors += 1
            payload = None
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def _put(
        self, fp: str, payload: object, tables: tuple[str, ...], lineage: str
    ) -> None:
        try:
            self.cache.put(fp, payload, tables=tables, lineage=lineage)
        except (QueryAborted, CacheCorruption):
            raise
        except ReproError:
            self.errors += 1

    # ------------------------------------------------------------------
    # Scan selection vectors
    # ------------------------------------------------------------------
    def scan_fp(self, alias: str, *, lineage: bool = False) -> str:
        key = self.aliases[alias]
        return scan_fingerprint(key.table, _version(key, lineage), key.predicate)

    def get_scan(self, alias: str) -> np.ndarray | None:
        """Cached local-predicate selection vector, if present.

        On an exact miss, tries extending a vector cached at an older
        delta of the same base version over the appended rows; an
        extended vector is published under the current fingerprint.
        """
        fp = self.scan_fp(alias)
        payload = self._get(fp)
        if payload is not None:
            return payload
        extended = self._extend_scan(alias)
        if extended is not None:
            self.put_scan(alias, extended)
        return extended

    def put_scan(self, alias: str, rows: np.ndarray) -> None:
        self._put(
            self.scan_fp(alias),
            rows,
            (self.aliases[alias].table,),
            self.scan_fp(alias, lineage=True),
        )

    # ------------------------------------------------------------------
    # Transferable filters from pristine vertices
    # ------------------------------------------------------------------
    def filter_fp(
        self,
        alias: str,
        key_columns: tuple[str, ...],
        kind: str,
        params: str,
        *,
        lineage: bool = False,
    ) -> str:
        key = self.aliases[alias]
        stripped = tuple(strip_alias(c, alias) for c in key_columns)
        return filter_fingerprint(
            key.table, _version(key, lineage), key.predicate, stripped, kind, params
        )

    def get_filter(
        self, alias: str, key_columns: tuple[str, ...], kind: str, params: str
    ) -> object | None:
        """Cached built filter for a pristine vertex, if present.

        On an exact miss, tries extending a filter cached at an older
        delta: a Bloom filter gains the delta's qualifying key hashes
        by OR-merge at its cached geometry, an exact set gains them by
        insertion into a clone, a bitmap is re-spanned over their keys.
        The extended filter is published under the current fingerprint.
        """
        fp = self.filter_fp(alias, key_columns, kind, params)
        payload = self._get(fp)
        if payload is not None:
            return payload
        extended = self._extend_filter(alias, key_columns, kind, params)
        if extended is not None:
            self.put_filter(alias, key_columns, kind, params, extended)
        return extended

    def put_filter(
        self,
        alias: str,
        key_columns: tuple[str, ...],
        kind: str,
        params: str,
        filt: object,
    ) -> None:
        self._put(
            self.filter_fp(alias, key_columns, kind, params),
            filt,
            (self.aliases[alias].table,),
            self.filter_fp(alias, key_columns, kind, params, lineage=True),
        )

    # ------------------------------------------------------------------
    # Delta extension
    # ------------------------------------------------------------------
    def _older_versions(self, key: AliasKey) -> "Iterator[tuple[str, int]]":
        """Recent prior versions of the same base, newest first.

        Yields ``(version_string, rows_at_that_version)`` pairs drawn
        from the version's bounded delta history; an int-versioned key
        (pre-append era, or a hand-built test key) has none.
        """
        version = key.version
        history = getattr(version, "history", ())
        for delta, rows_at in reversed(history[-MAX_EXTENSION_PROBES:]):
            yield f"{version.base}.{delta}", rows_at

    def _delta_selection(
        self, alias: str, key: AliasKey, rows_at: int
    ) -> np.ndarray | None:
        """Qualifying row indices in ``[rows_at, num_rows)``.

        Evaluates the alias's local predicate over just the delta slice
        (zero-copy); ``None`` when the predicate's columns cannot be
        resolved against the base table — the one case extension cannot
        prove equivalent to a fresh full scan.
        """
        base = key.base
        assert base is not None
        n = base.num_rows
        if rows_at > n:
            return None  # snapshot/history disagree; never extend
        if key.expr is None:
            return np.arange(rows_at, n, dtype=np.intp)
        # Mirror the runner's scan naming: predicates reference
        # ``alias.column`` while the base table holds the bare name.
        mapping: dict[str, str] = {}
        for name in base.columns:
            short = name.split(".", 1)[1] if "." in name else name
            mapping[f"{alias}.{short}"] = name
        needed = key.expr.columns()
        if not needed <= set(mapping):
            return None
        live = {qualified: mapping[qualified] for qualified in needed}
        chunk = slice_table(base, rows_at, n, live, name=alias)
        return rows_at + np.flatnonzero(evaluate_mask(key.expr, chunk))

    def _extend_scan(self, alias: str) -> np.ndarray | None:
        key = self.aliases[alias]
        if key.base is None:
            return None
        try:
            for older_version, rows_at in self._older_versions(key):
                fp_old = scan_fingerprint(key.table, older_version, key.predicate)
                if fp_old not in self.cache:
                    continue
                older = self.cache.get(fp_old)
                if not isinstance(older, np.ndarray):
                    continue
                fault_point("cache.extend", older)
                delta = self._delta_selection(alias, key, rows_at)
                if delta is None:
                    self.cache.count_extension_rebuild()
                    return None
                self.cache.count_extension()
                self.extensions += 1
                # Cached vectors are sorted and < rows_at; delta indices
                # are >= rows_at and sorted — concatenation is exactly
                # the fresh full-scan vector (and a fresh array, never
                # the shared cached payload).
                return np.concatenate([older, delta])
        except (QueryAborted, CacheCorruption):
            raise
        except ReproError:
            self.errors += 1
            self.cache.count_extension_rebuild()
            return None
        return None

    def _extend_filter(
        self, alias: str, key_columns: tuple[str, ...], kind: str, params: str
    ) -> object | None:
        key = self.aliases[alias]
        base = key.base
        if base is None or kind not in ("bloom", "exact"):
            return None
        stripped = tuple(strip_alias(c, alias) for c in key_columns)
        if any(c not in base for c in stripped):
            return None
        columns = [base.column(c) for c in stripped]
        try:
            for older_version, rows_at in self._older_versions(key):
                fp_old = filter_fingerprint(
                    key.table, older_version, key.predicate, stripped, kind, params
                )
                if fp_old not in self.cache:
                    continue
                older = self.cache.get(fp_old)
                if older is None:
                    continue
                fault_point("cache.extend", older)
                delta = self._delta_selection(alias, key, rows_at)
                if delta is None:
                    self.cache.count_extension_rebuild()
                    return None
                extended = self._extend_payload(older, columns, delta)
                if extended is None:
                    self.cache.count_extension_rebuild()
                    return None
                self.cache.count_extension()
                self.extensions += 1
                return extended
        except (QueryAborted, CacheCorruption):
            raise
        except ReproError:
            self.errors += 1
            self.cache.count_extension_rebuild()
            return None
        return None

    def _extend_payload(
        self, older: object, columns: "list[Column]", delta_rows: np.ndarray
    ) -> object | None:
        """A fresh filter = cached filter ∪ the keys of the delta's
        qualifying rows (never in place).  Only those rows are touched,
        and they yield the same per-row values a from-scratch build over
        the merged table would insert."""
        if isinstance(older, BitmapFilter):
            # Re-spanned over the delta; None — rebuild — exactly when a
            # fresh build over the merged rows would not pick a bitmap.
            (column,) = columns
            return older.extended(column, delta_rows)
        keys = bloom_keys(columns, delta_rows)
        if isinstance(older, BloomFilter):
            extended = BloomFilter(capacity=older.capacity, fpp=older.fpp)
            # Same (capacity, fpp) ⇒ same deterministic geometry, so
            # the word-wise OR below is exact; a mismatched cached
            # payload raises FilterError → rebuild via the except arm.
            extended.merge_words(older)
            if len(keys):
                extended.add_hashes(keys)
            if extended.saturation() > MAX_EXTENSION_SATURATION:
                return None
            return extended
        if isinstance(older, ExactFilter):
            extended = older.clone()
            if len(keys):
                extended.add_keys(keys)
            return extended
        return None

    # ------------------------------------------------------------------
    # Whole-query pre-filter results
    # ------------------------------------------------------------------
    def prefilter_fp(
        self,
        edges: list[str],
        strategy: str,
        config_form: str,
        *,
        lineage: bool = False,
    ) -> str:
        relation_keys = [
            (alias, key.table, _version(key, lineage), key.predicate)
            for alias, key in self.aliases.items()
        ]
        return prefilter_fingerprint(relation_keys, edges, strategy, config_form)

    def get_prefilter(self, fp: str) -> dict[str, np.ndarray] | None:
        """Cached pre-filter phase output (alias → row vector).

        Never delta-extended: the phase output depends on semi-join
        interactions *across* tables, so appended rows can change which
        pre-existing rows survive — a version change is a plain miss,
        and the rebuilt entry replaces the stale one by lineage.  An
        alias stored as a row count comes back as the shared read-only
        identity vector.
        """
        from ..core.transfer import identity_rows

        payload = self._get(fp)
        if payload is None:
            return None
        # A fresh dict: callers rebind freely; never share the entry's.
        return {
            alias: identity_rows(rows) if isinstance(rows, int) else rows
            for alias, rows in cast("dict[str, np.ndarray | int]", payload).items()
        }

    def put_prefilter(
        self,
        edges: list[str],
        strategy: str,
        config_form: str,
        rows: dict[str, np.ndarray],
    ) -> None:
        """Store the pre-filter phase output.  An alias whose survivors
        are every row is stored as its row count: survivor vectors are
        sorted and unique, so that is ``rows[0] == 0`` and ``rows[-1] ==
        n - 1``, and nothing is copied, checksummed or charged for it."""
        tables = tuple(sorted({k.table for k in self.aliases.values()}))
        self._put(
            self.prefilter_fp(edges, strategy, config_form),
            {alias: _count_if_all_rows(r) for alias, r in rows.items()},
            tables,
            self.prefilter_fp(edges, strategy, config_form, lineage=True),
        )


def _count_if_all_rows(rows: np.ndarray) -> "np.ndarray | int":
    """``len(rows)`` when the sorted, unique ``rows`` are ``arange(n)``."""
    n = len(rows)
    if n == 0 or (rows[0] == 0 and rows[-1] == n - 1):
        return n
    return rows


def _version(key: AliasKey, lineage: bool) -> "int | DataVersion":
    """The version a fingerprint embeds: the key's own, or for a
    lineage its ``base`` alone, which every delta of it shares."""
    if lineage and not isinstance(key.version, int):
        return key.version.base
    return key.version


def build_query_cache(
    spec: "QuerySpec", catalog: "Catalog", cache: FilterCache
) -> QueryCache:
    """Construct the per-query context from a *resolved* spec.

    Must run after scalar-subquery resolution so predicates contain only
    literals — an unresolved :class:`ScalarRef` would fingerprint the
    placeholder rather than the value it resolves to this execution.

    ``catalog`` must be the query's pinned snapshot: the table object
    and version stored per alias feed delta extension and have to
    describe the same contents.
    """
    aliases: dict[str, AliasKey] = {}
    for relation in spec.relations:
        version = catalog.data_version(relation.table)
        if version is None:
            continue
        aliases[relation.alias] = AliasKey(
            table=relation.table,
            version=version,
            predicate=canonical_expr(relation.predicate, relation.alias),
            expr=relation.predicate,
            base=catalog.get(relation.table),
        )
    return QueryCache(cache, aliases)
