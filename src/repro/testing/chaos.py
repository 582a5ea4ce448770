"""Deterministic chaos sweeps: fault injection across the strategy grid.

The resilience invariant this module exists to check, on every cell:

    Under any injected fault a query either returns a result
    **byte-identical** to the clean eager oracle, or raises exactly one
    **clean typed error** (a :class:`~repro.errors.ReproError`
    subclass) — never a wrong answer, a deadlock, or a leaked worker
    slot.

One harness runs three sweeps: :func:`classify` labels every outcome
(``identical`` / ``error:<Type>`` are clean; ``WRONG_ANSWER``, ``HANG``
and ``UNTYPED:<Type>`` are violations), and every sweep writes one
``repro-chaos/v1`` record whose ``kind`` names it.
``python -m repro.testing.chaos [--network | --ingest] --json out.json``
exits non-zero iff any cell or block failed, writing the record anyway.

* engine (default, :func:`run_sweep`): every ``CHAOS_CASES`` fault ×
  strategy × {lazy, eager} in a real
  :class:`~repro.service.engine.Engine`, which must then serve a clean
  oracle-identical run; plus a 4-worker concurrency block;
* network (``--network``, :func:`run_network_sweep`): the same grid
  over ``NETWORK_CASES`` wire and engine faults against one in-process
  asyncio server; plus invalid-plan, metrics and drain blocks;
* ingest (``--ingest``, :func:`run_ingest_sweep`): readers race
  transactional appends under each ``INGEST_CASES`` fault; every read
  must match the oracle of some committed prefix snapshot.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable, Collection
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig
from ..errors import PlanValidationError, ReproError
from ..plan.query import QuerySpec
from ..service.client import ReproClient
from ..service.engine import Engine, EngineSnapshot
from ..service.server import ServerConfig, ServerThread
from ..service.workload import INGEST_TABLES, result_digest
from ..storage.catalog import Catalog
from ..storage.table import Table
from ..tpch import generate_tpch
from ..tpch.queries import get_query
from .faults import FaultPlan, FaultRule, inject

#: Label of every chaos record; ``kind`` says which sweep wrote it.
CHAOS_SCHEMA = "repro-chaos/v1"
#: Small enough that the full grid sweeps in seconds, large enough
#: that every strategy builds real filters and multiple chunks exist.
CHAOS_SF = 0.002
CHAOS_QUERY = 3
#: Forces several storage chunks at CHAOS_SF, so the scan prunes some
#: and ``chunk.kernel`` fires once per partition it evaluates.
CHAOS_PARTITION_ROWS = 64
#: A faulted future not resolving within this window counts as a hang
#: (the invariant's "never a deadlock" clause).
HANG_SECONDS = 60.0


def _config(strategy: str = "predtrans", **options: str) -> RunConfig:
    """A run config pinned to the chaos partition size."""
    return RunConfig(
        strategy=strategy, partition_rows=CHAOS_PARTITION_ROWS, **options
    )


@dataclass(frozen=True)
class ChaosCase:
    """One named fault scenario.

    ``warm`` runs a clean warm-up query through the engine *before*
    injection so cache-read points (``cache.get``) have entries to
    fire on; cold cases leave the cache empty so build/put points fire.
    """

    name: str
    rule: FaultRule
    warm: bool = False


#: The sweep's fault scenarios: every named fault point, raise + delay
#: flavours, first and later hits, plus the warm corruption case.
CHAOS_CASES: tuple[ChaosCase, ...] = (
    ChaosCase("filter-build-raise", FaultRule("filter.build", "raise")),
    ChaosCase(
        "filter-build-raise-2nd", FaultRule("filter.build", "raise", nth=2)
    ),
    ChaosCase(
        "filter-build-delay",
        FaultRule("filter.build", "delay", delay=0.002),
    ),
    ChaosCase("cache-put-raise", FaultRule("cache.put", "raise")),
    ChaosCase("cache-get-raise", FaultRule("cache.get", "raise"), warm=True),
    ChaosCase(
        "cache-get-corrupt", FaultRule("cache.get", "corrupt"), warm=True
    ),
    ChaosCase("chunk-kernel-raise", FaultRule("chunk.kernel", "raise")),
    ChaosCase(
        "chunk-kernel-raise-3rd", FaultRule("chunk.kernel", "raise", nth=3)
    ),
    ChaosCase("worker-submit-raise", FaultRule("worker.submit", "raise")),
)


# ----------------------------------------------------------------------
# The shared harness: classifier, grid loop, record, printer
# ----------------------------------------------------------------------


def classify(
    call: Callable[[], object],
    accept: str | Collection[str] | None,
    timeout: float = HANG_SECONDS,
) -> str:
    """Run ``call`` and label what came back.

    ``call`` returns a result digest, a
    :class:`~repro.core.runner.QueryResult`, or a future of one; a
    future still unresolved after ``timeout`` seconds is a ``HANG``.
    The answer is ``identical`` iff its digest is ``accept`` (an oracle
    digest) or is in it (a set of valid snapshot digests).  A write has
    no answer to check: with ``accept=None`` any return is
    ``committed``.  ``identical`` / ``committed`` / ``error:<Type>``
    are the clean outcomes; the upper-case labels are violations.
    """
    try:
        out = call()
        if isinstance(out, Future):
            out = out.result(timeout=timeout)
    except ReproError as exc:
        return f"error:{type(exc).__name__}"
    except FutureTimeout:
        return "HANG"
    except Exception as exc:  # untyped leakage is a violation
        return f"UNTYPED:{type(exc).__name__}"
    if accept is None:
        return "committed"
    digest = out if isinstance(out, str) else result_digest(out.table)
    valid = {accept} if isinstance(accept, str) else accept
    return "identical" if digest in valid else "WRONG_ANSWER"


def _clean(outcome: str) -> bool:
    """Whether an outcome label satisfies the invariant."""
    return outcome in ("identical", "committed") or outcome.startswith("error:")


def _grid(cases: tuple[ChaosCase, ...], cell: Callable[..., dict]) -> list:
    """``cell(case, strategy, materialize)`` over the whole grid, each
    verdict keyed by its cell."""
    return [
        {
            "case": case.name,
            "strategy": strategy,
            "materialize": materialize,
            **cell(case, strategy, materialize),
        }
        for case in cases
        for strategy in STRATEGIES
        for materialize in MATERIALIZE_MODES
    ]


def _record(
    kind: str, meta: dict, cases: list[dict], totals: dict, **blocks: dict
) -> dict:
    """The JSON record of one sweep.

    ``totals`` are the sweep's own summary counts; every cell and every
    named block carries an ``ok`` verdict, and each false one is a
    violation.
    """
    checked = [*cases, *blocks.values()]
    return {
        "schema": CHAOS_SCHEMA,
        "kind": kind,
        "meta": {
            "query": CHAOS_QUERY,
            "partition_rows": CHAOS_PARTITION_ROWS,
            "strategies": list(STRATEGIES),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
            **meta,
        },
        "cases": cases,
        "blocks": blocks,
        "summary": {
            "cases": len(cases),
            **totals,
            "faults_triggered": sum(c["faults_triggered"] for c in cases),
            "violations": sum(not c["ok"] for c in checked),
        },
    }


def _outcome_totals(cases: list[dict]) -> dict:
    """Summary counts of the two clean grid-cell outcomes."""
    return {
        "identical": sum(c["outcome"] == "identical" for c in cases),
        "typed_errors": sum(c["outcome"].startswith("error:") for c in cases),
    }


def format_record(payload: dict) -> str:
    """Human-readable one-screen summary of any chaos record."""
    lines = [
        f"{payload['kind']} chaos sweep over "
        f"{len(payload['meta']['strategies'])} strategies"
    ]
    lines += [f"  {k}: {v}" for k, v in payload["summary"].items()]
    lines += [f"  {k} ok: {b['ok']}" for k, b in payload["blocks"].items()]
    lines += [
        f"  VIOLATION {json.dumps(item, sort_keys=True)}"
        for item in [*payload["cases"], *payload["blocks"].values()]
        if not item["ok"]
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Engine chaos: in-process, one engine per cell
# ----------------------------------------------------------------------


def oracle_digest(
    spec: QuerySpec, catalog: Catalog, strategy: str = "predtrans"
) -> str:
    """Digest of the clean eager baseline (the repo's oracle).

    The oracle is per *strategy*: output row order legitimately differs
    between pre-filtering and non-pre-filtering strategies (same rows,
    different join-input order), so each grid cell compares against the
    eager run of its own strategy — the identity contract the lazy and
    cached paths all promise.
    """
    from ..core.runner import run_query

    result = run_query(spec, catalog, config=_config(strategy, materialize="eager"))
    return result_digest(result.table)


def _classify(engine: Engine, spec: QuerySpec, oracle: str) -> str:
    """Submit one query to ``engine`` and classify what came back."""
    return classify(partial(engine.submit, spec), oracle)


def _world(sf: float, seed: int) -> tuple[Catalog, QuerySpec, dict]:
    """The catalog, chaos query and per-strategy oracles a grid runs on."""
    catalog = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    oracles = {s: oracle_digest(spec, catalog, s) for s in STRATEGIES}
    return catalog, spec, oracles


def run_case(
    case: ChaosCase, spec: QuerySpec, catalog: Catalog, oracle: str,
    strategy: str, materialize: str, seed: int,
) -> dict:
    """The verdict of one (fault, strategy, materialize) engine cell."""
    plan = FaultPlan([case.rule], seed=seed)
    config = _config(strategy, materialize=materialize)
    with Engine(catalog, config=config, workers=2) as engine:
        warm = _classify(engine, spec, oracle) if case.warm else "identical"
        if warm != "identical":
            outcome = f"WARMUP_{warm}"  # the fault is never injected
        else:
            with inject(plan):
                outcome = _classify(engine, spec, oracle)
        # Recovery: the same engine must serve a clean, identical run
        # after the fault — no leaked admission slot, no poisoned
        # cache entry, no wedged pool.
        recovered = _classify(engine, spec, oracle) == "identical"
        slots_clean = engine.pending == 0
        cache = engine.filter_cache
        corruptions = 0 if cache is None else cache.stats().corruptions
    ok = _clean(outcome) and recovered and slots_clean
    if case.rule.action == "corrupt" and plan.triggered:
        # The corrupted entry must have been *detected*, not served.
        ok = ok and corruptions > 0 and outcome == "identical"
    return {
        "outcome": outcome,
        "faults_triggered": len(plan.triggered),
        "cache_corruptions": corruptions,
        "recovered": recovered,
        "slots_clean": slots_clean,
        "ok": ok,
    }


def _admit(engine: Engine, spec: QuerySpec) -> Future:
    """``engine.submit``, with a refused admission stored in the future
    so a whole stream can be admitted before any of it is classified."""
    try:
        return engine.submit(spec)
    except ReproError as exc:
        refused: Future = Future()
        refused.set_exception(exc)
        return refused


def concurrency_block(
    catalog: Catalog, oracle_by_query: dict[str, str], seed: int
) -> dict:
    """Digest-identity of a 4-worker query stream, clean and under faults.

    The whole stream is admitted at once, so the 4 workers run it
    concurrently.  Every item must individually be byte-identical to
    its oracle or (in the faulted pass) a typed error; the engine must
    drain back to zero pending slots both times.
    """
    specs = [
        get_query(qid, sf=CHAOS_SF) for qid in (3, 5, 10) for _ in range(2)
    ]
    config = _config()

    def run_stream(plan: FaultPlan) -> tuple[list[str], bool]:
        with Engine(catalog, config=config, workers=4) as engine:
            with inject(plan):
                futures = [_admit(engine, spec) for spec in specs]
                outcomes = [
                    classify(lambda f=f: f, oracle_by_query[s.name])
                    for f, s in zip(futures, specs)
                ]
            return outcomes, engine.pending == 0

    clean, clean_slots = run_stream(FaultPlan([], seed=seed))
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "raise", nth=3, count=2)], seed=seed
    )
    faulted, faulted_slots = run_stream(plan)
    ok = (
        all(o == "identical" for o in clean)
        and all(_clean(o) for o in faulted)
        and clean_slots
        and faulted_slots
    )
    return {
        "stream_length": len(specs),
        "workers": 4,
        "clean_outcomes": clean,
        "faulted_outcomes": faulted,
        "faults_triggered": len(plan.triggered),
        "slots_clean": clean_slots and faulted_slots,
        "ok": ok,
    }


def run_sweep(sf: float = CHAOS_SF, seed: int = 0) -> dict:
    """The engine chaos record: grid cells + concurrency block."""
    catalog, spec, oracles = _world(sf, seed)
    cases = _grid(
        CHAOS_CASES,
        lambda case, strategy, materialize: run_case(
            case, spec, catalog, oracles[strategy], strategy, materialize, seed
        ),
    )
    oracle_by_query = {
        q.name: oracle_digest(q, catalog, "predtrans")
        for q in (get_query(qid, sf=sf) for qid in (3, 5, 10))
    }
    return _record(
        "engine",
        {"sf": sf, "seed": seed, "oracle_digests": oracles},
        cases,
        _outcome_totals(cases),
        concurrency=concurrency_block(catalog, oracle_by_query, seed),
    )


# ----------------------------------------------------------------------
# Network chaos: the same invariant across the wire
# ----------------------------------------------------------------------

#: Network fault scenarios swept against a real client/server pair.
#: ``nth=2`` on the read disconnect skips the pre-QUERY read hit so the
#: reset lands *while the query is in flight* — the abandoned query
#: must be cancelled and its worker slot reclaimed.
NETWORK_CASES: tuple[ChaosCase, ...] = (
    ChaosCase("net-accept-disconnect", FaultRule("net.accept", "disconnect")),
    ChaosCase("net-accept-drop", FaultRule("net.accept", "drop")),
    ChaosCase(
        "net-read-disconnect-idle", FaultRule("net.read", "disconnect")
    ),
    ChaosCase(
        "net-read-disconnect-midquery",
        FaultRule("net.read", "disconnect", nth=2),
    ),
    ChaosCase(
        "net-read-delay",
        FaultRule("net.read", "delay", delay=0.002, count=None),
    ),
    ChaosCase("net-write-disconnect", FaultRule("net.write", "disconnect")),
    ChaosCase("net-write-drop", FaultRule("net.write", "drop")),
    ChaosCase("engine-submit-raise", FaultRule("worker.submit", "raise")),
    ChaosCase("engine-filter-raise", FaultRule("filter.build", "raise")),
)

#: Clients under a storm never wait longer than this for a response —
#: a server that stalls past it is a hang by definition.
NET_IO_TIMEOUT = 5.0


def _net_digest(
    host: str, port: int, query: str, *, io_timeout: float = NET_IO_TIMEOUT,
    **options: str,
) -> str:
    """One query over a fresh connection (exactly what a real client
    retry does after a transport loss); returns the answer's digest."""
    with ReproClient(
        host, port, connect_timeout=5.0, io_timeout=io_timeout
    ) as client:
        return client.query_once(query, timeout_ms=30_000, **options)["digest"]


#: Registered name of the deliberately-malformed plan the network sweep
#: serves (unknown column), exercising the pre-admission analyzer gate.
INVALID_QUERY_NAME = "chaos-invalid-plan"


def _invalid_spec() -> QuerySpec:
    """A statically-invalid plan (unknown column ``l.nonexistent``)."""
    from ..expr.nodes import col, lit
    from ..plan.query import Relation

    return QuerySpec(
        name=INVALID_QUERY_NAME,
        relations=[
            Relation(
                alias="l",
                table="lineitem",
                predicate=col("l.nonexistent").gt(lit(1)),
            )
        ],
    )


def invalid_plan_block(
    host: str, port: int, engine: Engine, good_query: str, oracle: str,
    attempts: int = 3,
) -> dict:
    """Malformed-plan frames over the wire: the pre-admission gate.

    Each attempt queries the registered-but-invalid plan and must come
    back as a typed :class:`~repro.errors.PlanValidationError` carrying
    a non-empty diagnostics list — rejected by the server's static
    analyzer *before* admission, so no worker slot is ever consumed,
    every rejection lands in ``EngineStats.rejected_invalid``, and the
    engine's reconciliation invariant is untouched.  No digest is a
    right answer here, so an accepted plan classifies as
    ``WRONG_ANSWER``.  A recovery probe then proves the same
    connection path still serves valid plans.
    """
    before = engine.snapshot().stats.rejected_invalid
    diagnostics: list[int] = []

    def attempt() -> str:
        try:
            return _net_digest(host, port, INVALID_QUERY_NAME)
        except PlanValidationError as exc:
            diagnostics.append(len(exc.diagnostics))
            raise

    outcomes = [classify(attempt, ()) for _ in range(attempts)]
    slots_clean = _settle_pending(engine)
    snap = engine.snapshot()
    counted = snap.stats.rejected_invalid - before
    probe = partial(_net_digest, host, port, good_query)
    recovered = classify(probe, oracle) == "identical"
    ok = (
        all(o == "error:PlanValidationError" for o in outcomes)
        and all(diagnostics)
        and counted == attempts
        and slots_clean
        and snap.consistent
        and recovered
    )
    return {
        "attempts": attempts,
        "outcomes": outcomes,
        "diagnostics_present": all(diagnostics),
        "rejected_invalid_counted": counted,
        "slots_clean": slots_clean,
        "snapshot_consistent": snap.consistent,
        "recovered": recovered,
        "ok": ok,
    }


def _settle_pending(engine: Engine, deadline: float = 10.0) -> bool:
    """Wait for the engine to drain to zero admitted-but-unfinished
    queries (disconnect cancellations resolve asynchronously)."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline:
        if engine.pending == 0:
            return True
        time.sleep(0.01)
    return engine.pending == 0


def run_network_case(
    case: ChaosCase, host: str, port: int, engine: Engine, query: str,
    oracle: str, strategy: str, materialize: str, seed: int,
) -> dict:
    """The verdict of one (fault, strategy, materialize) network cell."""
    plan = FaultPlan([case.rule], seed=seed)
    point = case.rule.point
    if point == "filter.build" and engine.filter_cache is not None:
        # Cold-start the cell: a warm shared cache would satisfy the
        # query without ever building a filter, starving the fault.
        engine.filter_cache.clear()
    # Faults at wire/admission points fire for every cell; whether a
    # filter build happens at all is the strategy's business
    # (nopredtrans never builds one), so only those points make a
    # zero-trigger cell a violation.
    must_trigger = point.startswith("net.") or point == "worker.submit"
    # A blackholed response is only detected by the client timing out;
    # keep that bound tight so the sweep stays fast.
    blackhole = (point, case.rule.action) == ("net.write", "drop")
    io_timeout = 1.0 if blackhole else NET_IO_TIMEOUT
    ask = partial(
        _net_digest, host, port, query, strategy=strategy, materialize=materialize
    )
    with inject(plan):
        outcome = classify(partial(ask, io_timeout=io_timeout), oracle)
    slots_clean = _settle_pending(engine)
    recovered = classify(ask, oracle) == "identical"
    ok = (
        _clean(outcome)
        and recovered
        and slots_clean
        and (bool(plan.triggered) or not must_trigger)
    )
    return {
        "outcome": outcome,
        "faults_triggered": len(plan.triggered),
        "recovered": recovered,
        "slots_clean": slots_clean,
        "ok": ok,
    }


def network_drain_block(
    catalog: Catalog, spec: QuerySpec, oracle: str, seed: int
) -> dict:
    """Graceful drain under concurrent load.

    Six clients fire the chaos query at a 2-worker server while every
    chunk kernel is slowed (guaranteeing work is in flight), then the
    server drains with a grace period shorter than the queries.  The
    invariant: **every** client resolves — a byte-identical result for
    whatever finished inside the grace, a typed error for the rest —
    with no hangs and no leaked slots.
    """
    config = _config()
    engine = Engine(catalog, config=config, workers=2, max_pending=16)
    outcomes: list[str] = []
    lock = threading.Lock()
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", delay=0.02, count=None)],
        seed=seed,
    )
    clients = 6
    try:
        with ServerThread(engine, {spec.name: spec}, config=ServerConfig()) as st:

            def one() -> None:
                out = classify(
                    partial(_net_digest, st.host, st.port, spec.name, io_timeout=30.0),
                    oracle,
                )
                with lock:
                    outcomes.append(out)

            with inject(plan):
                workers = [
                    threading.Thread(target=one, name=f"drain-client-{i}")
                    for i in range(clients)
                ]
                for t in workers:
                    t.start()
                # Let the queries admit and start chewing (slowed)
                # chunks so the drain provably lands mid-flight.
                time.sleep(0.15)
                t0 = time.perf_counter()
                st.drain(grace=0.2)
                drain_seconds = time.perf_counter() - t0
                for t in workers:
                    t.join(timeout=30.0)
                hung = any(t.is_alive() for t in workers)
    finally:
        engine.shutdown(wait=True, cancel=True)
    slots_clean = engine.pending == 0
    ok = (
        all(_clean(o) for o in outcomes)
        and not hung
        and slots_clean
        and len(outcomes) == clients
        and bool(plan.triggered)
    )
    return {
        "clients": clients,
        "outcomes": sorted(outcomes),
        "drain_seconds": drain_seconds,
        "hung_clients": hung,
        "slots_clean": slots_clean,
        "faults_triggered": len(plan.triggered),
        "ok": ok,
    }


def _reconcile(
    metrics_text: str, snap: EngineSnapshot, cases: list[dict]
) -> dict:
    """The scraped metrics against the engine's own bookkeeping.

    After every fault has fired, the ``repro_queries_total`` outcome
    counters must sum to the engine's resolved + rejected +
    rejected_invalid total (pre-admission rejections are outside
    ``submitted`` but *are* an exported outcome label), the
    latency-histogram count must equal its query count, the client-side
    byte-identical verdicts must not exceed the engine's successes, and
    the atomic snapshot must satisfy its own admission invariant.  A
    fault that double-counted, dropped or tore the bookkeeping fails
    the sweep even if every cell looked clean.
    """
    from ..obs.export import parse_prometheus_text

    families = parse_prometheus_text(metrics_text)
    by_outcome: Counter = Counter()
    for labels, value in families.get("repro_queries_total", {}).items():
        by_outcome[dict(labels).get("outcome")] += value
    outcome_total = int(sum(by_outcome.values()))
    hist_count = int(sum(families.get("repro_query_seconds_count", {}).values()))
    ok_plus_degraded = int(by_outcome["ok"] + by_outcome["degraded"])
    client_identical = sum(c["outcome"] == "identical" for c in cases)
    metric_rejected_invalid = int(by_outcome["rejected_invalid"])
    stats = snap.stats
    expected = stats.resolved + stats.rejected + stats.rejected_invalid
    return {
        "outcome_total": outcome_total,
        "resolved_plus_rejected": expected,
        "query_seconds_count": hist_count,
        "engine_queries": stats.queries,
        "client_identical": client_identical,
        "ok_plus_degraded": ok_plus_degraded,
        "rejected_invalid": stats.rejected_invalid,
        "metric_rejected_invalid": metric_rejected_invalid,
        "snapshot_consistent": snap.consistent,
        "ok": (
            outcome_total == expected
            and hist_count == stats.queries
            and client_identical <= ok_plus_degraded
            and metric_rejected_invalid == stats.rejected_invalid
            and snap.consistent
        ),
    }


def run_network_sweep(sf: float = CHAOS_SF, seed: int = 0) -> dict:
    """The network chaos record: wire cells + invalid-plan, metrics
    reconciliation and drain blocks.

    One engine + server pair serves every cell — surviving them all
    *and* the recovery probes in the same process is itself part of
    the invariant (a server that must be restarted after a fault has
    leaked something).  The engine carries a metrics registry, scraped
    for :func:`_reconcile` once every fault has fired.
    """
    from ..obs.adapters import ObsCollector
    from ..obs.metrics import MetricsRegistry

    catalog, spec, oracles = _world(sf, seed)
    config = _config()
    registry = MetricsRegistry()
    engine = Engine(
        catalog, config=config, workers=2, max_pending=16, registry=registry
    )
    try:
        with ServerThread(
            engine,
            # The invalid plan is registered alongside the real one:
            # requesting it by name exercises the server's
            # pre-admission static-analysis gate.
            {spec.name: spec, INVALID_QUERY_NAME: _invalid_spec()},
            config=ServerConfig(read_timeout=2.0, write_timeout=2.0),
            meta={"sf": sf, "seed": seed},
        ) as st:
            collector = ObsCollector(registry, engine=engine, server=st.server)
            cases = _grid(
                NETWORK_CASES,
                lambda case, strategy, materialize: run_network_case(
                    case, st.host, st.port, engine, spec.name,
                    oracles[strategy], strategy, materialize, seed,
                ),
            )
            invalid = invalid_plan_block(
                st.host, st.port, engine, spec.name, oracles["predtrans"]
            )
            metrics_text = collector.prometheus()
        snap = engine.snapshot()
    finally:
        engine.shutdown(wait=True, cancel=True)
    return _record(
        "network",
        {"sf": sf, "seed": seed, "oracle_digests": oracles},
        cases,
        _outcome_totals(cases),
        invalid_plan=invalid,
        metrics_reconciliation=_reconcile(metrics_text, snap, cases),
        drain_under_load=network_drain_block(catalog, spec, oracles["predtrans"], seed),
    )


# ----------------------------------------------------------------------
# Ingest chaos: serving under writes
# ----------------------------------------------------------------------

#: Fault scenarios for the read/append sweep.  The ``cache.put`` rule
#: is unlimited-shot (``count=None``) so *every* rebuild after a commit
#: fails to publish — together with the warm-up entries this guarantees
#: at least one trigger regardless of reader/appender interleaving.
INGEST_CASES: tuple[ChaosCase, ...] = (
    ChaosCase("ingest-stage-raise", FaultRule("ingest.stage", "raise")),
    ChaosCase("ingest-commit-raise", FaultRule("ingest.commit", "raise")),
    ChaosCase(
        "ingest-commit-raise-2nd", FaultRule("ingest.commit", "raise", nth=2)
    ),
    ChaosCase(
        "ingest-commit-delay",
        FaultRule("ingest.commit", "delay", delay=0.005),
    ),
    ChaosCase(
        "cache-put-raise", FaultRule("cache.put", "raise", count=None), warm=True
    ),
)

#: Delta batches the appender commits per case; valid snapshots are the
#: strict prefixes ``base + batches[:k]`` for ``k`` in 0..INGEST_BATCHES.
INGEST_BATCHES = 3
#: Fraction of each ingest table's rows held back as delta batches.
INGEST_HOLDBACK = 0.10
#: Queries each reader thread issues during the storm.
INGEST_READS = 6


def _ingest_universe(full: Catalog) -> tuple[dict[str, Table], list[dict[str, Table]]]:
    """Split a generated catalog into a base state + delta batches.

    The ingest tables lose their tail ``INGEST_HOLDBACK`` fraction to
    ``INGEST_BATCHES`` row-slice batches; everything else stays whole.
    Appending all batches in order reconstructs the full tables
    row-for-row, so the fully-ingested state is the generator's.
    """
    base: dict[str, Table] = {}
    batches: list[dict[str, Table]] = [{} for _ in range(INGEST_BATCHES)]
    for name in full.names():
        table = full.get(name)
        if name not in INGEST_TABLES:
            base[name] = table
            continue
        rows = table.num_rows
        holdback = max(INGEST_BATCHES, int(rows * INGEST_HOLDBACK))
        cut = rows - holdback
        base[name] = table.take(np.arange(cut))
        per = holdback // INGEST_BATCHES
        for i in range(INGEST_BATCHES):
            start = cut + i * per
            stop = rows if i == INGEST_BATCHES - 1 else start + per
            batches[i][name] = table.take(np.arange(start, stop))
    return base, batches


def _snapshot_oracle(
    spec: QuerySpec, base: dict[str, Table], batches: list[dict[str, Table]],
    strategy: str, k: int, memo: dict[tuple[str, int], str],
) -> str:
    """Memoized eager oracle digest of snapshot ``base+batches[:k]``."""
    key = (strategy, k)
    if key not in memo:
        tables = dict(base)
        for batch in batches[:k]:
            for name, delta in batch.items():
                tables[name] = tables[name].concat(delta)
        memo[key] = oracle_digest(spec, Catalog(tables), strategy)
    return memo[key]


def run_ingest_case(
    case: ChaosCase, spec: QuerySpec, base: dict[str, Table],
    batches: list[dict[str, Table]], seed: int, memo: dict[tuple[str, int], str],
) -> dict:
    """One read/append storm under one injected fault.

    A fresh catalog (same base snapshot every case) serves two reader
    threads cycling all four strategies while an appender commits the
    delta batches; the appender stops at its first failed commit, so
    live states stay strict prefixes of the batch sequence.  Every
    reader result must be byte-identical to the eager oracle of *some*
    valid prefix snapshot — the pinned-snapshot guarantee — and a
    failed commit must leave the catalog version untouched.  After the
    storm the remaining batches are committed cleanly and a final read
    per strategy must match the fully-ingested oracle.
    """
    config = _config()
    catalog = Catalog(dict(base))
    plan = FaultPlan([case.rule], seed=seed)
    oracle_at = partial(_snapshot_oracle, spec, base, batches, memo=memo)
    valid = {oracle_at(s, k) for s in STRATEGIES for k in range(INGEST_BATCHES + 1)}
    reads: list[str] = []
    ingest_outcomes: list[str] = []
    lock = threading.Lock()

    with Engine(catalog, config=config, workers=2) as engine:
        if case.warm:
            # Entries at the base version, so post-commit reads have
            # stale entries to rebuild (and the put fault to hit).
            for strategy in ("predtrans", "bloomjoin"):
                engine.execute(spec, _config(strategy))

        def read_once(strategy: str) -> None:
            out = classify(partial(engine.execute, spec, _config(strategy)), valid)
            with lock:
                reads.append(out)

        def appender() -> None:
            for batch in batches:
                out = classify(partial(engine.ingest, batch), None)
                with lock:
                    ingest_outcomes.append(out)
                if out != "committed":
                    return  # retry happens in the recovery phase
                time.sleep(0.01)

        def reader(offset: int) -> None:
            for i in range(INGEST_READS):
                read_once(STRATEGIES[(offset + i) % len(STRATEGIES)])

        with inject(plan):
            threads = [
                threading.Thread(target=appender, name="chaos-appender"),
                threading.Thread(target=reader, args=(0,), name="chaos-r0"),
                threading.Thread(target=reader, args=(2,), name="chaos-r1"),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=HANG_SECONDS)
            hung = any(t.is_alive() for t in threads)
            if not hung and case.warm:
                # Deterministic rebuild while the fault is still armed
                # (see INGEST_CASES note on count=None).
                read_once("predtrans")

        committed = ingest_outcomes.count("committed")
        version_ok = all(
            catalog.data_version(name).delta == committed
            for name in INGEST_TABLES
        )
        # Recovery: the batches the storm failed must commit cleanly
        # on the same engine, converging on the fully-ingested state.
        recovery_ok = True
        try:
            for batch in batches[committed:]:
                engine.ingest(batch)
        except Exception:
            recovery_ok = False
        final_ok = recovery_ok and all(
            catalog.data_version(name).delta == INGEST_BATCHES
            for name in INGEST_TABLES
        )
        final_reads = [
            _classify(engine, spec, oracle_at(s, INGEST_BATCHES)) for s in STRATEGIES
        ]
        slots_clean = engine.pending == 0
        stats = engine.stats()
        cache = engine.cache_stats()
        corruptions = 0 if cache is None else cache.corruptions
    ok = (
        not hung
        and all(_clean(o) for o in reads + ingest_outcomes)
        and version_ok
        and final_ok
        and all(o == "identical" for o in final_reads)
        and slots_clean
        and corruptions == 0
        and bool(plan.triggered)
        and stats.ingests == INGEST_BATCHES
    )
    return {
        "case": case.name,
        "reads": sorted(reads),
        "ingest_outcomes": ingest_outcomes,
        "committed_during_storm": committed,
        "version_ok": version_ok,
        "final_reads": final_reads,
        "faults_triggered": len(plan.triggered),
        "cache_corruptions": corruptions,
        "engine_ingests": stats.ingests,
        "engine_ingest_failures": stats.ingest_failures,
        "slots_clean": slots_clean,
        "hung": hung,
        "ok": ok,
    }


def run_ingest_sweep(sf: float = CHAOS_SF, seed: int = 0) -> dict:
    """The ingest chaos record: one read/append storm per fault case."""
    base, batches = _ingest_universe(generate_tpch(sf=sf, seed=seed))
    spec = get_query(CHAOS_QUERY, sf=sf)
    memo: dict[tuple[str, int], str] = {}
    cases = [
        run_ingest_case(case, spec, base, batches, seed, memo)
        for case in INGEST_CASES
    ]
    return _record(
        "ingest",
        {"sf": sf, "seed": seed, "batches": INGEST_BATCHES,
         "ingest_tables": list(INGEST_TABLES)},
        cases,
        {
            "reads": sum(len(c["reads"]) for c in cases),
            "identical_reads": sum(c["reads"].count("identical") for c in cases),
            "batches_committed": sum(c["committed_during_storm"] for c in cases),
        },
    )


def main(argv: list[str] | None = None) -> int:
    """CLI: run one sweep, optionally write its JSON record.

    Exit status is the invariant verdict: 0 iff nothing violated it.
    """
    parser = argparse.ArgumentParser(
        prog="repro.testing.chaos",
        description="Deterministic fault-injection sweep over the "
        "strategy grid (byte-identical-or-typed-error invariant)",
    )
    parser.add_argument("--sf", type=float, default=CHAOS_SF)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="write the chaos record here")
    sweep = parser.add_mutually_exclusive_group()
    sweep.add_argument(
        "--network", action="store_const", dest="sweep",
        const=run_network_sweep, default=run_sweep,
        help="run the client/server network-fault sweep instead of the "
        "in-process one",
    )
    sweep.add_argument(
        "--ingest", action="store_const", dest="sweep", const=run_ingest_sweep,
        help="run the read/append ingest sweep (concurrent readers vs "
        "transactional appends under injected ingest/cache faults)",
    )
    args = parser.parse_args(argv)
    payload = args.sweep(sf=args.sf, seed=args.seed)
    print(format_record(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if payload["summary"]["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
