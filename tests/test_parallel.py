"""Chunked execution on one thread: determinism, kernels, the one pool.

A query runs start to finish on the thread that calls it.  What is
still cut into chunks is cut for locality, never for concurrency: the
scan evaluates a local predicate one storage partition at a time, the
pre-filter kernel builds and probes a morsel of keys at a time, and a
hash join's pair order does not depend on how its probe side is
sliced.  The headline contract: for every strategy × materialization ×
partition size, query results are **byte-identical** to the eager
oracle at the default layout.  Plus the kernel-level forms of that
contract, filter-cache validity across partition sizes, and the
service engine's worker pool as the only one a query ever runs on.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

from repro.cache.store import FilterCache
from repro.core.runner import STRATEGIES, RunConfig, _scan_selection, run_query
from repro.core.transfer import ExecContext, TransferConfig, build_filter
from repro.engine.hashjoin import hash_join
from repro.engine.stats import EdgeStat, QueryStats
from repro.errors import PlanError
from repro.expr.eval import evaluate_mask
from repro.expr.nodes import col, date
from repro.filters import bloom
from repro.filters.bloom import MORSEL_KEYS, morsels
from repro.service import engine as engine_module
from repro.service.engine import Engine
from repro.service.workload import result_digest
from repro.storage import DEFAULT_PARTITION_ROWS, Column, Table, slice_table
from repro.testing import FaultPlan, inject
from repro.tpch.queries import get_query

SF = 0.01
#: Small chunks so pruning and per-partition evaluation happen at test
#: scale.
PARTITION_ROWS = 4096

SWEEP_QUERIES = (5, 12, "c1", "c2", "c3")


# ----------------------------------------------------------------------
# One thread per query
# ----------------------------------------------------------------------
def test_serial_context_runs_inline(small_catalog, monkeypatch):
    """No query starts a thread, at any partition size."""
    started: list[str] = []
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: started.append(self.name)
    )
    spec = get_query(5, sf=SF)
    for partition_rows in (DEFAULT_PARTITION_ROWS, PARTITION_ROWS):
        run_query(spec, small_catalog, config=RunConfig(partition_rows=partition_rows))
    assert started == []


def test_thread_count_is_clamped():
    """``threads`` is a constructor keyword accepted only as 1 — not a
    field — and the error points at the engine's worker pool."""
    RunConfig(threads=1)
    for threads in (0, 2, 4, 64):
        with pytest.raises(PlanError, match="workers"):
            RunConfig(threads=threads)
    assert "threads" not in {f.name for f in fields(RunConfig)}
    with pytest.raises(PlanError):
        RunConfig(partition_rows=0)


def test_shared_executor_reused_per_size(small_catalog, monkeypatch):
    """The engine's worker pool is the only executor: building an engine
    creates it, and queries through the engine create none."""
    created: list[str] = []
    init = ThreadPoolExecutor.__init__

    def recording_init(self, *args, **kwargs):
        created.append(kwargs.get("thread_name_prefix", ""))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "__init__", recording_init)
    config = RunConfig(partition_rows=PARTITION_ROWS)
    with Engine(small_catalog, config=config, workers=2) as engine:
        for qid in (5, 12):
            engine.execute(get_query(qid, sf=SF))
    assert created == ["repro-engine"]


# ----------------------------------------------------------------------
# Chunk loops
# ----------------------------------------------------------------------
def test_task_bounds_cover_range_in_order():
    """``morsels(lo, hi)`` tiles ``[lo, hi)`` in order with slices of at
    most MORSEL_KEYS keys."""
    for lo, hi in ((0, 0), (7, 7), (0, 1), (0, MORSEL_KEYS), (5, 3 * MORSEL_KEYS + 7)):
        spans = list(morsels(lo, hi))
        assert all(0 < s.stop - s.start <= MORSEL_KEYS for s in spans)
        assert [s.start for s in spans] == list(range(lo, hi, MORSEL_KEYS))
        assert [s.stop for s in spans[:-1]] == [s.start for s in spans[1:]]
        assert sum(s.stop - s.start for s in spans) == hi - lo
        if spans:
            assert spans[-1].stop == hi


def test_small_inputs_stay_single_chunk():
    assert list(morsels(0, 100)) == [slice(0, 100)]
    assert list(morsels(0, MORSEL_KEYS)) == [slice(0, MORSEL_KEYS)]
    assert list(morsels(0, MORSEL_KEYS + 1))[-1] == slice(MORSEL_KEYS, MORSEL_KEYS + 1)


def test_map_counts_dispatched_tasks_and_preserves_order(small_catalog):
    """A pruned scan evaluates each partition zone maps kept exactly
    once — one ``chunk.kernel`` hit each — and concatenates their
    survivors in partition order: the selection vector of one
    full-table evaluation."""
    lineitem = small_catalog.get("lineitem")
    view = lineitem.prefixed("l")
    predicate = col("l.l_shipdate").ge(date("1995-01-01")) & col(
        "l.l_shipdate"
    ).lt(date("1995-07-01"))
    stats = QueryStats()
    ctx = ExecContext(stats=stats, partition_rows=PARTITION_ROWS)
    with inject(FaultPlan()) as plan:
        got = _scan_selection(ctx, lineitem, "l", predicate, view)
    kept = stats.partitions_total - stats.partitions_pruned
    assert 0 < kept < stats.partitions_total
    assert plan.hits("chunk.kernel") == kept
    assert np.array_equal(got, np.flatnonzero(evaluate_mask(predicate, view)))


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
def test_parallel_bloom_build_is_bit_identical(monkeypatch):
    """The build's morsel loop sets the same bits at any morsel size."""
    rng = np.random.default_rng(1)
    n = 50_000
    table = Table("t", {"t.k": Column.from_ints(rng.integers(0, 2**40, size=n))})
    words = []
    for morsel_keys in (MORSEL_KEYS, 4096, 1000):
        monkeypatch.setattr(bloom, "MORSEL_KEYS", morsel_keys)
        edge = EdgeStat(0, "t", "u", ("t.k",))
        built = build_filter(ExecContext(), edge, None, table, None, "bloom", 0.01)
        words.append(built._words)
    for got in words[1:]:
        assert np.array_equal(got, words[0])


@pytest.mark.parametrize("kind", ["bloom", "exact"])
def test_chunked_membership_matches_serial(small_catalog, monkeypatch, kind):
    """Predicate transfer's survivors, join inputs and result do not
    depend on the morsel size the filters are built and probed in."""
    config = RunConfig(transfer=TransferConfig(filter_type=kind))
    spec = get_query(5, sf=SF)
    runs = []
    for morsel_keys in (MORSEL_KEYS, 1000):
        monkeypatch.setattr(bloom, "MORSEL_KEYS", morsel_keys)
        result = run_query(spec, small_catalog, config=config)
        stats = result.stats
        runs.append(
            (
                result_digest(result.table),
                stats.transfer.rows_after,
                [(e.keys_inserted, e.rows_probed, e.rows_passed) for e in stats.transfer.edges],
                [(j.ht_rows, j.pr_rows, j.out_rows) for j in stats.joins],
            )
        )
    assert runs[0] == runs[1]


def _join_inputs(n_probe: int, n_build: int, seed: int) -> tuple[Table, Table]:
    rng = np.random.default_rng(seed)
    probe = Table(
        "p",
        {
            "p.k": Column.from_ints(rng.integers(0, 4_000, size=n_probe)),
            "p.v": Column.from_ints(np.arange(n_probe, dtype=np.int64)),
        },
    )
    # Duplicate build keys exercise the repeat-expansion kernel path.
    build = Table(
        "b",
        {
            "b.k": Column.from_ints(rng.integers(0, 4_000, size=n_build)),
            "b.w": Column.from_ints(np.arange(n_build, dtype=np.int64)),
        },
    )
    return probe, build


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_partitioned_hash_join_matches_serial(how):
    """Joining the probe side partition by partition and concatenating
    the outputs gives the one-pass join byte for byte."""
    probe, build = _join_inputs(60_000, 5_000, seed=3)
    whole, _ = hash_join(probe, build, ["p.k"], ["b.k"], how=how)
    parts = None
    for lo in range(0, probe.num_rows, 16_384):
        part = slice_table(probe, lo, min(lo + 16_384, probe.num_rows))
        out, _ = hash_join(part, build, ["p.k"], ["b.k"], how=how)
        parts = out if parts is None else parts.concat(out)
    assert result_digest(parts) == result_digest(whole)


def test_partitioned_probe_with_probe_rows_restriction():
    """A ``probe_rows`` restriction is the join of the filtered probe
    side, without materializing it."""
    rng = np.random.default_rng(4)
    probe = Table("p", {"p.k": Column.from_ints(rng.integers(0, 500, size=50_000))})
    build = Table("b", {"b.k": Column.from_ints(rng.integers(0, 500, size=1_000))})
    mask = probe.column("p.k").data % 3 == 0
    restricted, stat = hash_join(
        probe, build, ["p.k"], ["b.k"], how="semi", probe_rows=np.flatnonzero(mask)
    )
    filtered, _ = hash_join(probe.filter(mask), build, ["p.k"], ["b.k"], how="semi")
    assert result_digest(restricted) == result_digest(filtered)
    assert stat.pr_rows == int(mask.sum())


# ----------------------------------------------------------------------
# Whole-query equivalence sweep
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def oracles(small_catalog):
    """Eager reference digests at the default layout, one per sweep
    query/strategy."""
    out = {}
    for qid in SWEEP_QUERIES:
        spec = get_query(qid, sf=SF)
        for strategy in STRATEGIES:
            result = run_query(
                spec,
                small_catalog,
                config=RunConfig(strategy=strategy, materialize="eager"),
            )
            out[(qid, strategy)] = result_digest(result.table)
    return out


@pytest.mark.parametrize("qid", SWEEP_QUERIES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("materialize", ["lazy", "eager"])
@pytest.mark.parametrize("split", [1, 2, 4])
def test_parallel_equivalence_sweep(
    small_catalog, oracles, qid, strategy, materialize, split
):
    """All 4 strategies × lazy/eager × the default partition layout with
    each partition cut into ``split`` ∈ {1, 2, 4} — including the
    cyclic/self-join/cross-product shapes — digest-identical to the
    eager oracle at the default layout."""
    config = RunConfig(
        strategy=strategy,
        materialize=materialize,
        partition_rows=DEFAULT_PARTITION_ROWS // split,
    )
    result = run_query(get_query(qid, sf=SF), small_catalog, config=config)
    assert result_digest(result.table) == oracles[(qid, strategy)]
    if split == 4 and qid in (5, 12):
        # Q5's order-date and Q12's receipt-date ranges skip partitions
        # of the date-clustered orders / lineitem.
        assert result.stats.partitions_pruned > 0


def test_zone_map_pruning_on_date_filtered_queries(small_catalog):
    """q6/q12 skip partitions on their date predicates, results intact."""
    for qid in (6, 12):
        spec = get_query(qid, sf=SF)
        oracle = run_query(
            spec, small_catalog, config=RunConfig(materialize="eager")
        )
        pruned = run_query(
            spec, small_catalog, config=RunConfig(partition_rows=PARTITION_ROWS)
        )
        assert pruned.stats.partitions_pruned > 0
        assert result_digest(pruned.table) == result_digest(oracle.table)


def test_filter_cache_entries_valid_across_thread_counts(small_catalog):
    """Fingerprints carry nothing layout-dependent: a cache warmed at
    the default partition size serves a run over 4 096-row partitions,
    with byte-identical results."""
    cache = FilterCache()
    spec = get_query(5, sf=SF)
    cold = run_query(spec, small_catalog, config=RunConfig(filter_cache=cache))
    warm = run_query(
        spec,
        small_catalog,
        config=RunConfig(partition_rows=PARTITION_ROWS, filter_cache=cache),
    )
    assert warm.stats.filter_cache_hits > 0
    assert result_digest(warm.table) == result_digest(cold.table)


# ----------------------------------------------------------------------
# Service engine: one pool
# ----------------------------------------------------------------------
def test_blocking_and_concurrent_queries_run_on_engine_workers(
    small_catalog, monkeypatch
):
    """Blocking and concurrent submissions share the engine's workers.

    Four workers × eight concurrent queries plus a blocking one: every
    one completes with the oracle digest, and every one ran on an
    engine worker thread — never on a caller's, never on a pool of its
    own."""
    spec5, spec3 = get_query(5, sf=SF), get_query(3, sf=SF)
    oracle5 = result_digest(run_query(spec5, small_catalog).table)
    oracle3 = result_digest(run_query(spec3, small_catalog).table)
    ran_on: list[str] = []
    run = engine_module.run_query

    def recording_run_query(*args, **kwargs):
        ran_on.append(threading.current_thread().name)
        return run(*args, **kwargs)

    monkeypatch.setattr(engine_module, "run_query", recording_run_query)
    config = RunConfig(partition_rows=PARTITION_ROWS)
    with Engine(small_catalog, config=config, workers=4) as engine:
        futures = [engine.submit(spec) for spec in [spec5, spec3] * 4]
        for future, expected in zip(futures, [oracle5, oracle3] * 4):
            assert result_digest(future.result().table) == expected
        assert result_digest(engine.execute(spec5).table) == oracle5
    assert len(ran_on) == 9
    assert all(name.startswith("repro-engine") for name in ran_on)
