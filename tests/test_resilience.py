"""Resilience: deadlines, cancellation, admission control, memory
budgets, graceful degradation, engine shutdown, catalog version-pinning.

The invariant every test here circles: a query either returns a result
byte-identical to the clean run or raises exactly one clean typed
error — never a wrong answer, a hang, or a leaked worker slot.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cache.context import build_query_cache
from repro.context import CancelToken, QueryContext
from repro.core.runner import RunConfig, run_query
from repro.core.transfer import TransferConfig
from repro.errors import (
    EngineSaturated,
    MemoryBudgetExceeded,
    PlanError,
    QueryCancelled,
    QueryTimeout,
)
from repro.filters.bitmap import BitmapFilter
from repro.filters.exact import ExactFilter
from repro.plan.joingraph import build_join_graph, edge_keys_for
from repro.service import Engine, RetryPolicy
from repro.service.workload import result_digest
from repro.storage.catalog import Catalog
from repro.testing import FaultPlan, FaultRule, inject
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.003


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=SF, seed=0)


@pytest.fixture(scope="module")
def q5():
    return get_query(5, sf=SF)


@pytest.fixture(scope="module")
def q3():
    return get_query(3, sf=SF)


@pytest.fixture(scope="module")
def q9():
    return get_query(9, sf=SF)


# ----------------------------------------------------------------------
# QueryContext primitives
# ----------------------------------------------------------------------
def test_context_deadline(catalog, q5):
    with pytest.raises(QueryTimeout) as err:
        run_query(q5, catalog, config=RunConfig(timeout=1e-9))
    assert "at" in str(err.value)  # names the checkpoint it fired at


def test_context_cancellation_wins_over_timeout():
    token = CancelToken()
    token.cancel()
    ctx = QueryContext.start(timeout=1e-9, token=token)
    with pytest.raises(QueryCancelled):
        ctx.check("test")


def test_precancelled_token_aborts_at_first_checkpoint(catalog, q5):
    token = CancelToken()
    token.cancel()
    ctx = QueryContext.start(token=token)
    with pytest.raises(QueryCancelled):
        run_query(q5, catalog, config=RunConfig(context=ctx))


def test_config_validation():
    with pytest.raises(PlanError):
        RunConfig(timeout=-1.0)
    with pytest.raises(PlanError):
        RunConfig(memory_budget=0)


# ----------------------------------------------------------------------
# Memory budget: degrade, then fail typed
# ----------------------------------------------------------------------
def test_tiny_budget_fails_typed(catalog, q5):
    with pytest.raises(MemoryBudgetExceeded) as err:
        run_query(q5, catalog, config=RunConfig(memory_budget=100))
    assert "100" in str(err.value)  # reports the budget


# Both strategies that ship exact filters degrade through the same
# kernel, so they run through the same tight budget (on Q9, whose
# exact filters overrun it under either schedule).  Its single dense
# keys ship bitmaps of a few hundred bytes; what overruns the budget is
# the hash set on the composite (partkey, suppkey) edge.
EXACT_STRATEGIES = {
    "yannakakis": dict(strategy="yannakakis"),
    "predtrans-exact": dict(
        strategy="predtrans", transfer=TransferConfig(filter_type="exact")
    ),
}
TIGHT_BUDGET = 20_000


@pytest.mark.parametrize("exact", EXACT_STRATEGIES.values(), ids=EXACT_STRATEGIES)
def test_degradation_keeps_results_byte_identical(catalog, q9, exact):
    # A huge budget tracks the true peak without ever binding.
    free = run_query(q9, catalog, config=RunConfig(**exact, memory_budget=1 << 40))
    assert free.stats.mem_peak_bytes > TIGHT_BUDGET  # budget actually binds
    tight = run_query(
        q9, catalog, config=RunConfig(**exact, memory_budget=TIGHT_BUDGET)
    )
    assert tight.stats.filters_degraded >= 1
    assert tight.stats.outcome == "degraded"
    assert tight.stats.mem_peak_bytes <= TIGHT_BUDGET
    # Degraded builds are Bloom builds: counted as such, and (having no
    # false negatives) they leave the same bytes out.
    assert tight.stats.transfer.inserted("bloom") > 0
    assert free.stats.transfer.inserted("bloom") == 0
    assert result_digest(tight.table) == result_digest(free.table)
    assert free.stats.outcome == "ok"
    assert free.stats.filters_degraded == 0


@pytest.mark.parametrize("exact", EXACT_STRATEGIES.values(), ids=EXACT_STRATEGIES)
def test_degraded_filters_are_not_cached(catalog, q9, exact):
    # A degraded (Bloom) filter must never be committed under the
    # exact-kind fingerprint: the next unrestricted run would serve it.
    config = RunConfig(**exact, memory_budget=TIGHT_BUDGET)
    with Engine(catalog, config=config) as engine:
        degraded = engine.execute(q9)
        cache = engine.filter_cache
        assert cache is not None
        cached_after_degraded = len(cache)
        # Every exact-kind entry q9 could have written holds an exact
        # filter (the ones that fit) or nothing (the ones that degraded).
        binding = build_query_cache(q9, engine.catalog, cache)
        graph = build_join_graph(q9)
        stored = []
        for u, v in graph.edges:
            for src, dst in ((u, v), (v, u)):
                keys = tuple(a for a, _ in edge_keys_for(graph, src, dst))
                fp = binding.filter_fp(src, keys, "exact", "")
                if fp in cache:
                    stored.append(cache.get(fp))
        free = engine.execute(q9, RunConfig(**exact))
    assert degraded.stats.filters_degraded >= 1
    # A bitmap qualifies only if sized by the exact rule (fpp None): one
    # sized by the Bloom rule is what a degraded edge ships.
    assert stored and all(
        isinstance(f, ExactFilter) or (isinstance(f, BitmapFilter) and f.fpp is None)
        for f in stored
    )
    assert len(stored) < 2 * graph.number_of_edges()
    assert free.stats.filters_degraded == 0
    assert free.stats.total("filter_cache_hits") <= cached_after_degraded


# ----------------------------------------------------------------------
# Engine-level deadline / cancellation / stats
# ----------------------------------------------------------------------
def test_engine_timeout_counts_and_recovers(catalog, q5):
    with Engine(catalog, workers=1) as engine:
        with pytest.raises(QueryTimeout):
            engine.execute(q5, timeout=1e-9)
        # Slot reclaimed: the same single-worker engine serves on.
        result = engine.execute(q5)
        stats = engine.stats()
    assert stats.timeouts == 1
    assert stats.queries == 1  # only the success recorded as a query
    assert result.table.num_rows > 0


def test_token_cancel_aborts_in_flight_query(catalog, q5):
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", nth=1, count=10_000, delay=0.01)]
    )
    # Small partitions guarantee many chunk kernels, so the injected
    # per-kernel delay keeps the query in flight until cancel lands.
    config = RunConfig(partition_rows=64)
    with Engine(catalog, workers=1, config=config) as engine:
        token = CancelToken()
        errors: list[BaseException] = []

        def client() -> None:
            try:
                engine.execute(q5, token=token)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        with inject(plan):
            t = threading.Thread(target=client)
            t.start()
            deadline = time.monotonic() + 30
            while not plan.triggered and time.monotonic() < deadline:
                time.sleep(0.001)  # wait for the first chunk kernel
            assert plan.triggered, "query never reached a chunk kernel"
            token.cancel()
            t.join(timeout=30)
            assert not t.is_alive(), "cancelled query failed to abort"
        assert len(errors) == 1
        assert isinstance(errors[0], QueryCancelled)
        assert engine.stats().cancellations == 1
        # Later queries, with their own tokens, are unaffected.
        assert engine.execute(q5, token=CancelToken()).table.num_rows > 0


# ----------------------------------------------------------------------
# Admission control + retry/backoff
# ----------------------------------------------------------------------
def _saturate(engine: Engine, release: threading.Event) -> None:
    """Occupy every pool worker with a blocking task."""
    for _ in range(engine._workers):
        engine._pool.submit(release.wait)


def test_saturation_rejects_with_retry_hint(catalog, q3):
    release = threading.Event()
    with Engine(catalog, workers=1, max_pending=1) as engine:
        _saturate(engine, release)
        futures = [engine.submit(q3), engine.submit(q3)]  # fills limit 2
        with pytest.raises(EngineSaturated) as err:
            engine.submit(q3)
        assert err.value.retry_after > 0
        release.set()
        for f in futures:
            assert f.result(timeout=30).table.num_rows > 0
        # Slots drained: admission is open again.
        assert engine.submit(q3).result(timeout=30).table.num_rows > 0
        assert engine.stats().rejected == 1


def test_retry_policy_schedule_is_seeded():
    a = RetryPolicy(attempts=5, seed=42)
    b = RetryPolicy(attempts=5, seed=42)
    assert a.delays() == b.delays()
    assert len(a.delays()) == 4
    assert a.delays() != RetryPolicy(attempts=5, seed=43).delays()
    for k, d in enumerate(a.delays()):
        base = min(0.05 * 2.0**k, 2.0)
        assert base * 0.5 <= d <= base * 1.5  # jitter window


def test_retry_gives_up_with_last_typed_error(catalog, q3):
    release = threading.Event()
    sleeps: list[float] = []
    policy = RetryPolicy(attempts=3, base_delay=0.01, seed=7)
    try:
        with Engine(catalog, workers=1, max_pending=0) as engine:
            _saturate(engine, release)
            blocked = engine.submit(q3)  # occupies the single slot
            with pytest.raises(EngineSaturated):
                policy.run(lambda: engine.execute(q3), sleep=sleeps.append)
            # One wait per non-final attempt, each >= the jitter
            # schedule (the server hint can only lengthen them).
            schedule = policy.delays()
            assert len(sleeps) == 2
            assert all(s >= d for s, d in zip(sleeps, schedule))
            release.set()
            assert blocked.result(timeout=30).table.num_rows > 0
    finally:
        release.set()


def test_retry_succeeds_after_slot_frees(catalog, q3):
    release = threading.Event()
    with Engine(catalog, workers=1, max_pending=0) as engine:
        _saturate(engine, release)
        blocked = engine.submit(q3)
        result = RetryPolicy(attempts=10, base_delay=0.02, seed=1).run(
            lambda: engine.execute(q3),
            sleep=lambda s: (release.set(), time.sleep(s)),
        )
        assert result.table.num_rows > 0
        assert blocked.result(timeout=30).table.num_rows > 0


# ----------------------------------------------------------------------
# Shutdown: futures always resolve
# ----------------------------------------------------------------------
def test_shutdown_resolves_every_pending_future(catalog, q3):
    release = threading.Event()
    engine = Engine(catalog, workers=1, max_pending=64)
    _saturate(engine, release)
    futures = [engine.submit(q3) for _ in range(8)]
    shutdown_done = threading.Event()

    def closer() -> None:
        engine.shutdown(wait=True, cancel=True)
        shutdown_done.set()

    t = threading.Thread(target=closer)
    t.start()
    release.set()
    t.join(timeout=30)
    assert shutdown_done.is_set(), "shutdown hung"
    for f in futures:
        # Regression contract: every future resolves — a result or a
        # typed QueryCancelled — never a hang or CancelledError.
        assert f.done()
        exc = f.exception(timeout=0)
        if exc is not None:
            assert isinstance(exc, QueryCancelled)
    with pytest.raises(RuntimeError):
        engine.submit(q3)  # closed engines refuse new work


def test_graceful_shutdown_completes_inflight_work(catalog, q3):
    engine = Engine(catalog, workers=2)
    futures = [engine.submit(q3) for _ in range(4)]
    engine.shutdown(wait=True, cancel=False)
    for f in futures:
        assert f.result(timeout=0).table.num_rows > 0


# ----------------------------------------------------------------------
# Catalog version-pinning under concurrent appends
# ----------------------------------------------------------------------
def test_catalog_snapshot_never_tears(catalog):
    region = catalog.get("region")
    doubled = region.concat(region)
    parent = Catalog({"r": region})
    vmap = {parent.data_version("r"): region.num_rows}
    stop = threading.Event()
    observed: list[tuple[int, int]] = []

    def writer() -> None:
        variants = (region, doubled)
        for i in range(400):
            parent.register(variants[i % 2], "r")
            # Single writer: data_version right after register is the
            # version that register just assigned.
            vmap[parent.data_version("r")] = variants[i % 2].num_rows
        stop.set()

    def reader() -> None:
        while not stop.is_set():
            snap = parent.scoped()
            observed.append((snap.data_version("r"), snap.get("r").num_rows))

    readers = [threading.Thread(target=reader) for _ in range(2)]
    w = threading.Thread(target=writer)
    for t in readers:
        t.start()
    w.start()
    w.join(timeout=60)
    for t in readers:
        t.join(timeout=60)
    assert observed, "readers never snapshotted"
    for version, rows in observed:
        # A torn snapshot pairs new contents with an old version (or
        # vice versa) — exactly what would poison cache fingerprints.
        assert vmap[version] == rows, (
            f"torn snapshot: version {version} paired with {rows} rows"
        )


def test_append_during_execute_does_not_poison_cache(catalog, q3):
    lineitem = catalog.get("lineitem")
    engine = Engine(Catalog({n: catalog.get(n) for n in catalog.names()}))
    stop = threading.Event()
    failures: list[BaseException] = []

    def appender() -> None:
        grown = lineitem
        for _ in range(5):
            grown = grown.concat(lineitem)
            engine.register(grown, "lineitem")
            time.sleep(0.002)
        stop.set()

    def runner() -> None:
        try:
            while not stop.is_set():
                engine.execute(q3)
        except BaseException as exc:  # noqa: BLE001 - recorded for assert
            failures.append(exc)

    threads = [threading.Thread(target=appender)] + [
        threading.Thread(target=runner) for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not failures, failures
    # The cache must not have been poisoned by the appends: a warm run
    # on the final catalog matches a fresh uncached run exactly.
    warm = engine.execute(q3)
    fresh = run_query(q3, engine.catalog.scoped())
    assert result_digest(warm.table) == result_digest(fresh.table)
    engine.close()


# ----------------------------------------------------------------------
# A stream of queries records typed outcomes
# ----------------------------------------------------------------------
def test_replay_records_timeouts_as_outcomes(catalog, q3, q5):
    """Queries run one after another through one engine: each timed-out
    one is a typed outcome, and the engine serves the next query."""
    with Engine(catalog) as engine:
        outcomes = []
        for spec in (q3, q5):
            with pytest.raises(QueryTimeout) as err:
                engine.execute(spec, RunConfig(timeout=1e-9))
            outcomes.append(err.value.outcome)
        ok = engine.execute(q3)
    assert outcomes == ["timeout", "timeout"]
    assert ok.stats.outcome == "ok"
    assert result_digest(ok.table) == result_digest(run_query(q3, catalog).table)
