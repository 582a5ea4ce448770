"""The filter cache stays flat across commits.

Every cached artifact has a *lineage* — its fingerprint at the table
versions' base, which all deltas share — and the store keeps one entry
per lineage.  These tests pin that down on a serving :class:`Engine`:

* a commit makes every cached artifact of the table a miss; the read
  that rebuilds it supersedes the stale entry, so each commit's reads
  invalidate exactly as many entries as they insert, and ten commits
  leave exactly the entries and bytes of the warm cache before them;
* a reader pinned before a commit may put its entry after the commit's
  entry exists (last put wins); the next fresh read rebuilds over that
  entry and is still exact.

Every read is digest-checked against the eager, uncached oracle at the
snapshot it ran on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runner import RunConfig, run_query
from repro.service.engine import Engine
from repro.service.workload import result_digest
from repro.storage import Catalog, Table
from repro.storage.dates import date_to_days
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.02
SEED = 5
QUERIES = (3, 5, 10)
COMMITS = 10
DELTA_ROWS = 512


@pytest.fixture(scope="module")
def base() -> Catalog:
    return generate_tpch(sf=SF, seed=SEED)


def fresh_catalog(base: Catalog) -> Catalog:
    return Catalog({name: base.get(name) for name in base.names()})


def commit(catalog: Catalog, deltas: dict[str, Table]) -> None:
    batch = catalog.begin_ingest()
    for name, delta in deltas.items():
        batch.stage(name, delta)
    batch.commit()


def oracle(catalog: Catalog, spec) -> str:
    result = run_query(
        spec, catalog, config=RunConfig(strategy="predtrans", materialize="eager")
    )
    return result_digest(result.table)


def inert_orders(base: Catalog, k: int) -> dict[str, Table]:
    """Batch ``k``: copies of orders placed on or after 1995-03-15,
    which no orders predicate of q3, q5 or q10 selects.  Every artifact
    then keeps its contents and only its version moves, so a flat cache
    holds exactly the same entries and bytes after every commit."""
    orders = base.get("orders")
    late = np.flatnonzero(
        orders.column("o_orderdate").data >= date_to_days("1995-03-15")
    )
    return {"orders": orders.take(late[k * 64 : (k + 1) * 64])}


def test_cache_stays_flat_across_commits(base):
    specs = [get_query(q, sf=SF) for q in QUERIES]
    catalog = fresh_catalog(base)
    twin = fresh_catalog(base)  # the oracle's catalog, committed in step
    with Engine(catalog, workers=1) as engine:
        for spec in specs:
            engine.execute(spec)  # warm at delta 0
        warm = engine.cache_stats()
        for k in range(COMMITS):
            deltas = inert_orders(base, k)
            engine.ingest(deltas)
            commit(twin, deltas)
            before = engine.cache_stats()
            for spec in specs:
                for _ in range(2):
                    got = result_digest(engine.execute(spec).table)
                    assert got == oracle(twin, spec), (k, spec.name)
            stats = engine.cache_stats()
            # Each rebuilt artifact supersedes its stale entry.
            assert stats.insertions > before.insertions
            assert stats.insertions - before.insertions == (
                stats.invalidations - before.invalidations
            )
            assert stats.evictions == 0
            assert (stats.entries, stats.bytes) == (warm.entries, warm.bytes)


def test_stale_reader_put_is_repaired_by_rebuild(base):
    spec = get_query(3, sf=SF)
    deltas = {
        name: base.get(name).head(DELTA_ROWS) for name in ("orders", "lineitem")
    }
    catalog = fresh_catalog(base)
    with Engine(catalog, workers=1) as engine:
        engine.execute(spec)  # entries at delta 0
        pinned = catalog.scoped()  # a reader admitted before the commit
        engine.ingest(deltas)
        engine.execute(spec)  # rebuilds: delta-1 entries replace delta 0's
        stale = run_query(
            spec, pinned, config=RunConfig(filter_cache=engine.filter_cache)
        )
        # The pinned reader missed, rebuilt at delta 0, and its puts
        # replaced the delta-1 entries of the same lineages.
        assert result_digest(stale.table) == oracle(pinned, spec)
        before = engine.cache_stats()
        fresh = engine.execute(spec)
        after = engine.cache_stats()
    # The fresh read missed the delta-0 entries and its rebuilds
    # replaced them, one for one.
    assert fresh.stats.total("filter_cache_misses") > 0
    assert after.insertions > before.insertions
    assert after.insertions - before.insertions == (
        after.invalidations - before.invalidations
    )
    assert after.entries == before.entries
    twin = fresh_catalog(base)
    commit(twin, deltas)
    assert result_digest(fresh.table) == oracle(twin, spec)
