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

Appends bump only a version's delta sequence
(:class:`~repro.storage.catalog.DataVersion`), so an artifact cached
before a commit no longer matches any fingerprint: the next read misses
and rebuilds it.  Every entry also carries a *lineage* — its
fingerprint at the version's ``base``, which every delta shares — and
the store drops the entry a rebuilt one supersedes, so one entry per
artifact survives any number of commits.  Replaces bump the base
version, which starts a new lineage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, cast

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Iterable, Sequence

    from ..plan.query import QuerySpec
    from ..storage.catalog import Catalog, DataVersion

from ..errors import QueryAborted, ReproError
from .fingerprint import (
    filter_fingerprint,
    plan_parts,
    prefilter_fingerprint,
    scan_fingerprint,
    strip_alias,
)
from .store import FilterCache

@dataclass(frozen=True)
class AliasKey:
    """Cache identity of one aliased base relation."""

    table: str
    version: "DataVersion"
    predicate: str  # canonical, alias-stripped local-predicate form


class QueryCache:
    """One query's window onto the shared filter cache.

    The cache is an accelerator, never a dependency: a failing store
    degrades to a miss on reads and a no-op on writes (counted in
    :attr:`errors`), so a broken cache backend costs rebuild time, not
    query results.  Abort signals (:class:`~repro.errors.QueryAborted`)
    still propagate — those are the caller's to handle.
    """

    __slots__ = ("cache", "aliases", "edges", "hits", "misses", "errors")

    def __init__(
        self,
        cache: FilterCache,
        aliases: dict[str, AliasKey],
        edges: "Sequence[str]" = (),
    ) -> None:
        self.cache = cache
        self.aliases = aliases
        self.edges = edges  # the plan's canonical join-edge forms
        self.hits = 0
        self.misses = 0
        self.errors = 0

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
        except QueryAborted:
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
        except QueryAborted:
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
        """Cached local-predicate selection vector, if present."""
        return self._get(self.scan_fp(alias))

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
        """Cached built filter for a pristine vertex, if present."""
        return self._get(self.filter_fp(alias, key_columns, kind, params))

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
    # Whole-query pre-filter results
    # ------------------------------------------------------------------
    def prefilter_fp(
        self, strategy: str, transfer: object, *, lineage: bool = False
    ) -> str:
        relation_keys = [
            (alias, key.table, _version(key, lineage), key.predicate)
            for alias, key in self.aliases.items()
        ]
        return prefilter_fingerprint(relation_keys, self.edges, strategy, transfer)

    def get_prefilter(self, fp: str) -> dict[str, np.ndarray] | None:
        """Cached pre-filter phase output (alias → row vector).  An
        alias stored as a row count comes back as the shared read-only
        identity vector."""
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
        self, strategy: str, transfer: object, rows: dict[str, np.ndarray]
    ) -> None:
        """Store the pre-filter phase output.  An alias whose survivors
        are every row is stored as its row count: survivor vectors are
        sorted and unique, so that is ``rows[0] == 0`` and ``rows[-1] ==
        n - 1``, and nothing is copied, checksummed or charged for it."""
        tables = tuple(sorted({k.table for k in self.aliases.values()}))
        self._put(
            self.prefilter_fp(strategy, transfer),
            {alias: _count_if_all_rows(r) for alias, r in rows.items()},
            tables,
            self.prefilter_fp(strategy, transfer, lineage=True),
        )


def _count_if_all_rows(rows: np.ndarray) -> "np.ndarray | int":
    """``len(rows)`` when the sorted, unique ``rows`` are ``arange(n)``."""
    n = len(rows)
    if n == 0 or (rows[0] == 0 and rows[-1] == n - 1):
        return n
    return rows


def _version(key: AliasKey, lineage: bool) -> "DataVersion | int":
    """The version a fingerprint embeds: the key's own, or for a
    lineage its ``base`` alone, which every delta of it shares."""
    return key.version.base if lineage else key.version


def build_query_cache(
    spec: "QuerySpec", catalog: "Catalog", cache: FilterCache
) -> QueryCache:
    """Construct the per-query context from a *resolved* spec.

    Must run after scalar-subquery resolution so predicates contain only
    literals — an unresolved :class:`ScalarRef` would fingerprint the
    placeholder rather than the value it resolves to this execution.
    ``catalog`` is the query's pinned snapshot, whose versions name the
    contents the query reads.
    """
    relations, edges = plan_parts(spec)
    aliases: dict[str, AliasKey] = {}
    for alias, (table, predicate) in relations.items():
        version = catalog.data_version(table)
        if version is not None:
            aliases[alias] = AliasKey(table, version, predicate)
    return QueryCache(cache, aliases, edges)
