"""Deterministic chaos sweep: fault injection across the strategy grid.

The resilience invariant this module exists to check, on every case:

    Under any injected fault a query either returns a result
    **byte-identical** to the clean serial eager oracle, or raises
    exactly one **clean typed error** (a :class:`~repro.errors.ReproError`
    subclass) — never a wrong answer, a deadlock, or a leaked worker
    slot.

The sweep runs every fault case against the full grid — all four
strategies × lazy/eager materialization — through a real service
:class:`~repro.service.engine.Engine`, and after every faulted run
demands that the *same* engine serves a clean run with the
oracle digest (proving admission slots and the shared cache recovered).
A warm-then-corrupt case additionally asserts the checksum-validated
cache detected the flipped byte (``corruptions > 0``) and rebuilt an
identical result, and a concurrency block replays a small stream at
4 workers (with and without faults) against the serial digests.

CLI (the CI chaos job)::

    python -m repro.testing.chaos --json bench-chaos.json

exits non-zero iff any case violated the invariant, and writes a
``repro-bench/v5`` JSON record of every case either way.

Network sweep (the CI ``serve`` job)::

    python -m repro.testing.chaos --network --json chaos-net.json

Ingest sweep (the CI ``ingest-chaos`` job)::

    python -m repro.testing.chaos --ingest --json bench-ingest.json

turns the invariant loose on *writes*: per fault case, reader threads
cycling all four strategies race an appender committing multi-table
delta batches through :meth:`~repro.service.engine.Engine.ingest`,
with faults injected at the transactional seams (``ingest.stage``,
``ingest.commit``) and in the delta-extension path of the shared
cache (``cache.extend``).  Every read must be byte-identical to the
eager serial oracle of a committed prefix snapshot (the
pinned-snapshot guarantee), a failed commit must leave the catalog
version untouched, extension faults must degrade to rebuilds (never a
wrong answer), and the engine must drain to zero slots.

Network sweep extends the same invariant across the wire: a real asyncio
:class:`~repro.service.server.QueryServer` is stood up in-process and
every ``net.accept`` / ``net.read`` / ``net.write`` fault (delays,
drops, injected disconnects) plus engine-side faults are swept across
strategies × {lazy, eager}, asserting each client request ends in a
clean typed error or a digest byte-identical to the in-process engine
oracle, that zero worker slots leak, and that a post-fault recovery
query succeeds.  A drain-under-load block additionally shuts the
server down mid-storm and demands every pending request resolve (no
hangs, no untyped leakage).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

import numpy as np

from ..core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig
from ..errors import PlanValidationError, ReproError
from ..plan.query import QuerySpec
from ..service.client import ReproClient
from ..service.engine import Engine
from ..service.server import ServerConfig, ServerThread
from ..service.workload import result_digest
from ..storage.catalog import Catalog
from ..tpch import generate_tpch
from ..tpch.queries import get_query
from .faults import FaultPlan, FaultRule, inject

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


def oracle_digest(
    spec: QuerySpec, catalog: Catalog, strategy: str = "predtrans"
) -> str:
    """Digest of the clean serial eager baseline (the repo's oracle).

    The oracle is per *strategy*: output row order legitimately differs
    between pre-filtering and non-pre-filtering strategies (same rows,
    different join-input order), so each grid cell compares against the
    eager serial run of its own strategy — the identity contract the
    lazy/cached paths all promise.
    """
    from ..core.runner import run_query

    result = run_query(
        spec,
        catalog,
        config=RunConfig(
            strategy=strategy,
            materialize="eager",
            partition_rows=CHAOS_PARTITION_ROWS,
        ),
    )
    return result_digest(result.table)


def _classify(engine: Engine, spec: QuerySpec, oracle: str) -> str:
    """Submit one query and classify what came back.

    ``identical`` / ``error:<Type>`` are the two clean outcomes; the
    upper-case labels are invariant violations.
    """
    try:
        future = engine.submit(spec)
    except ReproError as exc:
        return f"error:{type(exc).__name__}"
    try:
        result = future.result(timeout=HANG_SECONDS)
    except ReproError as exc:
        return f"error:{type(exc).__name__}"
    except FutureTimeout:
        return "HANG"
    except Exception as exc:  # untyped leakage is a violation
        return f"UNTYPED:{type(exc).__name__}"
    if result_digest(result.table) != oracle:
        return "WRONG_ANSWER"
    return "identical"


def run_case(
    case: ChaosCase,
    spec: QuerySpec,
    catalog: Catalog,
    oracle: str,
    strategy: str,
    materialize: str,
    seed: int,
) -> dict:
    """One (fault, strategy, materialize) cell of the sweep."""
    config = RunConfig(
        strategy=strategy,
        materialize=materialize,
        partition_rows=CHAOS_PARTITION_ROWS,
    )
    plan = FaultPlan([case.rule], seed=seed)
    corruptions = 0
    with Engine(catalog, config=config, workers=2) as engine:
        if case.warm:
            warm_outcome = _classify(engine, spec, oracle)
            if warm_outcome != "identical":
                return {
                    "case": case.name,
                    "strategy": strategy,
                    "materialize": materialize,
                    "outcome": f"WARMUP_{warm_outcome}",
                    "faults_triggered": 0,
                    "recovered": False,
                    "ok": False,
                }
        with inject(plan):
            outcome = _classify(engine, spec, oracle)
        # Recovery: the same engine must serve a clean, identical run
        # after the fault — no leaked admission slot, no poisoned
        # cache entry, no wedged pool.
        recovered = _classify(engine, spec, oracle) == "identical"
        slots_clean = engine._pending == 0
        if engine.filter_cache is not None:
            corruptions = engine.filter_cache.stats().corruptions
    clean = outcome == "identical" or outcome.startswith("error:")
    ok = clean and recovered and slots_clean
    if case.rule.action == "corrupt" and plan.triggered:
        # The corrupted entry must have been *detected*, not served.
        ok = ok and corruptions > 0 and outcome == "identical"
    return {
        "case": case.name,
        "strategy": strategy,
        "materialize": materialize,
        "outcome": outcome,
        "faults_triggered": len(plan.triggered),
        "cache_corruptions": corruptions,
        "recovered": recovered,
        "slots_clean": slots_clean,
        "ok": ok,
    }


def concurrency_block(
    catalog: Catalog, oracle_by_query: dict[str, str], seed: int
) -> dict:
    """Digest-identity of a 4-worker replay, clean and under faults.

    Every item must individually be byte-identical to its serial
    oracle or (in the faulted pass) a typed error; the engine must
    drain back to zero pending slots both times.
    """
    specs = [
        get_query(qid, sf=CHAOS_SF) for qid in (3, 5, 10) for _ in range(2)
    ]
    config = RunConfig(strategy="predtrans", partition_rows=CHAOS_PARTITION_ROWS)

    def replay_classified(engine: Engine, plan: FaultPlan | None) -> list[str]:
        if plan is None:
            return [
                _classify(engine, spec, oracle_by_query[spec.name])
                for spec in specs
            ]
        with inject(plan):
            futures = []
            for spec in specs:
                try:
                    futures.append(engine.submit(spec))
                except ReproError as exc:
                    futures.append(exc)
            outcomes = []
            for spec, f in zip(specs, futures):
                if isinstance(f, ReproError):
                    outcomes.append(f"error:{type(f).__name__}")
                    continue
                try:
                    result = f.result(timeout=HANG_SECONDS)
                except ReproError as exc:
                    outcomes.append(f"error:{type(exc).__name__}")
                except FutureTimeout:
                    outcomes.append("HANG")
                except Exception as exc:
                    outcomes.append(f"UNTYPED:{type(exc).__name__}")
                else:
                    digest = result_digest(result.table)
                    outcomes.append(
                        "identical"
                        if digest == oracle_by_query[spec.name]
                        else "WRONG_ANSWER"
                    )
            return outcomes

    with Engine(catalog, config=config, workers=4) as engine:
        clean = replay_classified(engine, None)
        clean_slots = engine._pending == 0
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "raise", nth=3, count=2)], seed=seed
    )
    with Engine(catalog, config=config, workers=4) as engine:
        faulted = replay_classified(engine, plan)
        faulted_slots = engine._pending == 0
    ok = (
        all(o == "identical" for o in clean)
        and clean_slots
        and all(o == "identical" or o.startswith("error:") for o in faulted)
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


def run_sweep(
    sf: float = CHAOS_SF,
    seed: int = 0,
    strategies: tuple[str, ...] = STRATEGIES,
) -> dict:
    """The full chaos record: grid cases + concurrency block + summary."""
    catalog = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    oracles = {s: oracle_digest(spec, catalog, s) for s in strategies}
    cases = []
    for case in CHAOS_CASES:
        for strategy in strategies:
            for materialize in MATERIALIZE_MODES:
                cases.append(
                    run_case(
                        case,
                        spec,
                        catalog,
                        oracles[strategy],
                        strategy,
                        materialize,
                        seed,
                    )
                )
    oracle_by_query = {
        q.name: oracle_digest(q, catalog, "predtrans")
        for q in (get_query(qid, sf=sf) for qid in (3, 5, 10))
    }
    concurrency = concurrency_block(catalog, oracle_by_query, seed)
    violations = [c for c in cases if not c["ok"]]
    return {
        "schema": "repro-bench/v5",
        "kind": "chaos-sweep",
        "meta": {
            "sf": sf,
            "seed": seed,
            "query": CHAOS_QUERY,
            "partition_rows": CHAOS_PARTITION_ROWS,
            "strategies": list(strategies),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
        },
        "oracle_digests": oracles,
        "cases": cases,
        "concurrency": concurrency,
        "summary": {
            "cases": len(cases),
            "identical": sum(
                1 for c in cases if c["outcome"] == "identical"
            ),
            "typed_errors": sum(
                1 for c in cases if c["outcome"].startswith("error:")
            ),
            "faults_triggered": sum(c["faults_triggered"] for c in cases),
            "violations": len(violations) + (0 if concurrency["ok"] else 1),
        },
    }


def format_sweep(payload: dict) -> str:
    """Human-readable one-screen summary of a chaos record."""
    s = payload["summary"]
    lines = [
        f"chaos sweep: {s['cases']} cases "
        f"({len(payload['meta']['strategies'])} strategies x "
        f"{len(MATERIALIZE_MODES)} materialize x "
        f"{len(CHAOS_CASES)} faults)",
        f"  byte-identical results: {s['identical']}",
        f"  clean typed errors:     {s['typed_errors']}",
        f"  faults triggered:       {s['faults_triggered']}",
        f"  concurrency block ok:   {payload['concurrency']['ok']}",
        f"  violations:             {s['violations']}",
    ]
    for case in payload["cases"]:
        if not case["ok"]:
            lines.append(
                f"  VIOLATION {case['case']} {case['strategy']}/"
                f"{case['materialize']}: "
                f"{case['outcome']} (recovered={case['recovered']})"
            )
    return "\n".join(lines)


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


def _net_classify(
    host: str,
    port: int,
    query: str,
    oracle: str,
    *,
    strategy: str | None = None,
    materialize: str | None = None,
    io_timeout: float = NET_IO_TIMEOUT,
) -> str:
    """One query over the wire, classified like :func:`_classify`.

    A fresh connection per attempt — exactly what a real client retry
    does after a transport loss.
    """
    try:
        with ReproClient(
            host, port, connect_timeout=5.0, io_timeout=io_timeout
        ) as client:
            frame = client.query_once(
                query,
                strategy=strategy,
                materialize=materialize,
                timeout_ms=30_000,
            )
    except ReproError as exc:
        return f"error:{type(exc).__name__}"
    except Exception as exc:  # untyped leakage is a violation
        return f"UNTYPED:{type(exc).__name__}"
    return "identical" if frame["digest"] == oracle else "WRONG_ANSWER"


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
    host: str,
    port: int,
    engine: Engine,
    good_query: str,
    oracle: str,
    attempts: int = 3,
) -> dict:
    """Malformed-plan frames over the wire: the pre-admission gate.

    Each attempt queries the registered-but-invalid plan and must come
    back as a typed :class:`~repro.errors.PlanValidationError` carrying
    a non-empty diagnostics list — rejected by the server's static
    analyzer *before* admission, so no worker slot is ever consumed,
    every rejection lands in ``EngineStats.rejected_invalid``, and the
    engine's reconciliation invariant is untouched.  A recovery probe
    then proves the same connection path still serves valid plans.
    """
    before = engine.snapshot().stats.rejected_invalid
    outcomes: list[str] = []
    diagnostics_ok = True
    for _ in range(attempts):
        try:
            with ReproClient(
                host, port, connect_timeout=5.0, io_timeout=NET_IO_TIMEOUT
            ) as client:
                client.query_once(INVALID_QUERY_NAME, timeout_ms=30_000)
        except PlanValidationError as exc:
            outcomes.append("error:PlanValidationError")
            if not exc.diagnostics:
                diagnostics_ok = False
        except ReproError as exc:
            outcomes.append(f"error:{type(exc).__name__}")
        except Exception as exc:  # untyped leakage is a violation
            outcomes.append(f"UNTYPED:{type(exc).__name__}")
        else:
            outcomes.append("ACCEPTED")
    slots_clean = _settle_pending(engine)
    snap = engine.snapshot()
    counted = snap.stats.rejected_invalid - before
    recovered = _net_classify(host, port, good_query, oracle) == "identical"
    ok = (
        all(o == "error:PlanValidationError" for o in outcomes)
        and diagnostics_ok
        and counted == attempts
        and slots_clean
        and snap.consistent
        and recovered
    )
    return {
        "attempts": attempts,
        "outcomes": outcomes,
        "diagnostics_present": diagnostics_ok,
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
    case: ChaosCase,
    host: str,
    port: int,
    engine: Engine,
    query: str,
    oracle: str,
    strategy: str,
    materialize: str,
    seed: int,
) -> dict:
    """One (network fault, strategy, materialize) cell of the sweep."""
    plan = FaultPlan([case.rule], seed=seed)
    if case.rule.point == "filter.build" and engine.filter_cache is not None:
        # Cold-start the cell: a warm shared cache would satisfy the
        # query without ever building a filter, starving the fault.
        engine.filter_cache.clear()
    # Faults at wire/admission points fire for every cell; whether a
    # filter build happens at all is the strategy's business
    # (nopredtrans never builds one), so only those points make a
    # zero-trigger cell a violation.
    must_trigger = (
        case.rule.point.startswith("net.")
        or case.rule.point == "worker.submit"
    )
    # A blackholed response is only detected by the client timing out;
    # keep that bound tight so the sweep stays fast.
    io_timeout = (
        1.0
        if (case.rule.action == "drop" and case.rule.point == "net.write")
        else NET_IO_TIMEOUT
    )
    with inject(plan):
        outcome = _net_classify(
            host,
            port,
            query,
            oracle,
            strategy=strategy,
            materialize=materialize,
            io_timeout=io_timeout,
        )
    slots_clean = _settle_pending(engine)
    recovered = (
        _net_classify(
            host, port, query, oracle,
            strategy=strategy, materialize=materialize,
        )
        == "identical"
    )
    clean = outcome == "identical" or outcome.startswith("error:")
    ok = (
        clean
        and recovered
        and slots_clean
        and (bool(plan.triggered) or not must_trigger)
    )
    return {
        "case": case.name,
        "strategy": strategy,
        "materialize": materialize,
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
    config = RunConfig(strategy="predtrans", partition_rows=CHAOS_PARTITION_ROWS)
    engine = Engine(catalog, config=config, workers=2, max_pending=16)
    outcomes: list[str] = []
    lock = threading.Lock()
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", delay=0.02, count=None)],
        seed=seed,
    )
    clients = 6
    try:
        with ServerThread(
            engine, {spec.name: spec}, config=ServerConfig()
        ) as st:

            def one() -> None:
                try:
                    with ReproClient(
                        st.host, st.port, io_timeout=30.0
                    ) as client:
                        frame = client.query_once(
                            spec.name, timeout_ms=30_000
                        )
                except ReproError as exc:
                    out = f"error:{type(exc).__name__}"
                except Exception as exc:
                    out = f"UNTYPED:{type(exc).__name__}"
                else:
                    out = (
                        "identical"
                        if frame["digest"] == oracle
                        else "WRONG_ANSWER"
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
    typed = all(
        o == "identical" or o.startswith("error:") for o in outcomes
    )
    ok = (
        typed
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


def run_network_sweep(
    sf: float = CHAOS_SF,
    seed: int = 0,
    strategies: tuple[str, ...] = STRATEGIES,
) -> dict:
    """The full network-chaos record: wire cases + drain block.

    One engine + server pair serves the whole sweep — surviving every
    cell *and* the recovery probes on the same process is itself part
    of the invariant (a server that must be restarted after a fault
    has leaked something).

    The sweep engine carries a metrics registry, and the record ends
    with a **reconciliation** block: after every fault has fired, the
    scraped ``repro_queries_total`` outcome counters must sum to the
    engine's resolved+rejected total, the latency-histogram count must
    equal its success count, the client-side byte-identical verdicts
    must not exceed the engine's successes, and the atomic snapshot
    must satisfy its own admission invariant.  A fault that corrupted
    the bookkeeping (double-counted, dropped, or torn) fails the sweep
    even if every individual case looked clean.
    """
    from ..obs.adapters import ObsCollector
    from ..obs.export import parse_prometheus_text
    from ..obs.metrics import MetricsRegistry
    from ..service.loadtest import SCHEMA_V7

    catalog = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    oracles = {s: oracle_digest(spec, catalog, s) for s in strategies}
    config = RunConfig(strategy="predtrans", partition_rows=CHAOS_PARTITION_ROWS)
    registry = MetricsRegistry()
    engine = Engine(
        catalog, config=config, workers=2, max_pending=16, registry=registry
    )
    cases = []
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
            for case in NETWORK_CASES:
                for strategy in strategies:
                    for materialize in MATERIALIZE_MODES:
                        cases.append(
                            run_network_case(
                                case,
                                st.host,
                                st.port,
                                engine,
                                spec.name,
                                oracles[strategy],
                                strategy,
                                materialize,
                                seed,
                            )
                        )
            invalid = invalid_plan_block(
                st.host, st.port, engine, spec.name, oracles["predtrans"]
            )
            metrics_text = collector.prometheus()
        snap = engine.snapshot()
    finally:
        engine.shutdown(wait=True, cancel=True)
    families = parse_prometheus_text(metrics_text)
    outcome_total = int(sum(families.get("repro_queries_total", {}).values()))
    hist_count = int(
        sum(families.get("repro_query_seconds_count", {}).values())
    )
    ok_plus_degraded = int(
        sum(
            v
            for labels, v in families.get("repro_queries_total", {}).items()
            if dict(labels).get("outcome") in ("ok", "degraded")
        )
    )
    client_identical = sum(1 for c in cases if c["outcome"] == "identical")
    metric_rejected_invalid = int(
        sum(
            v
            for labels, v in families.get("repro_queries_total", {}).items()
            if dict(labels).get("outcome") == "rejected_invalid"
        )
    )
    # Pre-admission rejections are outside ``submitted`` but *are* an
    # exported outcome label, so the scraped counter sum reconciles
    # against resolved + rejected + rejected_invalid.
    expected = (
        snap.stats.resolved + snap.stats.rejected + snap.stats.rejected_invalid
    )
    reconciliation = {
        "outcome_total": outcome_total,
        "resolved_plus_rejected": expected,
        "query_seconds_count": hist_count,
        "engine_queries": snap.stats.queries,
        "client_identical": client_identical,
        "ok_plus_degraded": ok_plus_degraded,
        "rejected_invalid": snap.stats.rejected_invalid,
        "metric_rejected_invalid": metric_rejected_invalid,
        "snapshot_consistent": snap.consistent,
        "ok": (
            outcome_total == expected
            and hist_count == snap.stats.queries
            and client_identical <= ok_plus_degraded
            and metric_rejected_invalid == snap.stats.rejected_invalid
            and snap.consistent
        ),
    }
    drain = network_drain_block(catalog, spec, oracles["predtrans"], seed)
    violations = [c for c in cases if not c["ok"]]
    return {
        "schema": SCHEMA_V7,
        "kind": "network-chaos-sweep",
        "meta": {
            "sf": sf,
            "seed": seed,
            "query": CHAOS_QUERY,
            "partition_rows": CHAOS_PARTITION_ROWS,
            "strategies": list(strategies),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
        },
        "oracle_digests": oracles,
        "cases": cases,
        "drain_under_load": drain,
        "invalid_plan": invalid,
        "metrics_reconciliation": reconciliation,
        "summary": {
            "cases": len(cases),
            "identical": client_identical,
            "typed_errors": sum(
                1 for c in cases if c["outcome"].startswith("error:")
            ),
            "faults_triggered": sum(c["faults_triggered"] for c in cases),
            "violations": (
                len(violations)
                + (0 if drain["ok"] else 1)
                + (0 if invalid["ok"] else 1)
                + (0 if reconciliation["ok"] else 1)
            ),
        },
    }


def format_network_sweep(payload: dict) -> str:
    """Human-readable one-screen summary of a network-chaos record."""
    s = payload["summary"]
    drain = payload["drain_under_load"]
    lines = [
        f"network chaos sweep: {s['cases']} cases "
        f"({len(payload['meta']['strategies'])} strategies x "
        f"{len(MATERIALIZE_MODES)} materialize x "
        f"{len(NETWORK_CASES)} faults)",
        f"  byte-identical results: {s['identical']}",
        f"  clean typed errors:     {s['typed_errors']}",
        f"  faults triggered:       {s['faults_triggered']}",
        f"  drain under load ok:    {drain['ok']} "
        f"(outcomes={drain['outcomes']}, "
        f"drain={drain['drain_seconds']:.2f}s)",
        f"  violations:             {s['violations']}",
    ]
    invalid = payload.get("invalid_plan")
    if invalid is not None:
        lines.insert(
            -1,
            f"  invalid-plan gate ok:   {invalid['ok']} "
            f"(outcomes={invalid['outcomes']}, "
            f"counted={invalid['rejected_invalid_counted']}, "
            f"slots_clean={invalid['slots_clean']})",
        )
    recon = payload.get("metrics_reconciliation")
    if recon is not None:
        lines.insert(
            -1,
            f"  metrics reconcile ok:   {recon['ok']} "
            f"(outcomes={recon['outcome_total']}=="
            f"{recon['resolved_plus_rejected']}, "
            f"hist={recon['query_seconds_count']}=="
            f"{recon['engine_queries']}, "
            f"consistent={recon['snapshot_consistent']})",
        )
    for case in payload["cases"]:
        if not case["ok"]:
            lines.append(
                f"  VIOLATION {case['case']} {case['strategy']}/"
                f"{case['materialize']}: {case['outcome']} "
                f"(recovered={case['recovered']}, "
                f"slots_clean={case['slots_clean']})"
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ingest chaos: serving under writes
# ----------------------------------------------------------------------

#: Fault scenarios for the read/append sweep.  The ``cache.extend``
#: rules are unlimited-shot (``count=None``) so *every* extension
#: attempt faults — together with the warm-up entries this guarantees
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
        "cache-extend-raise",
        FaultRule("cache.extend", "raise", count=None),
        warm=True,
    ),
    ChaosCase(
        "cache-extend-delay",
        FaultRule("cache.extend", "delay", delay=0.002, count=None),
        warm=True,
    ),
)

#: Delta batches the appender commits per case; valid snapshots are the
#: strict prefixes ``base + batches[:k]`` for ``k`` in 0..INGEST_BATCHES.
INGEST_BATCHES = 3
#: Tables receiving delta rows (both staged in every batch, so each
#: commit is a genuinely multi-table transaction).
INGEST_TABLES = ("orders", "lineitem")
#: Fraction of each ingest table's rows held back as delta batches.
INGEST_HOLDBACK = 0.10
#: Queries each reader thread issues during the storm.
INGEST_READS = 6


def _ingest_universe(
    full: Catalog,
) -> tuple[dict[str, Table], list[dict[str, Table]]]:
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
    spec: QuerySpec,
    base: dict[str, Table],
    batches: list[dict[str, Table]],
    strategy: str,
    k: int,
    memo: dict[tuple[str, int], str],
) -> str:
    """Memoized eager-serial oracle digest of snapshot ``base+batches[:k]``."""
    key = (strategy, k)
    if key not in memo:
        tables = dict(base)
        for batch in batches[:k]:
            for name, delta in batch.items():
                tables[name] = tables[name].concat(delta)
        memo[key] = oracle_digest(spec, Catalog(tables), strategy)
    return memo[key]


def run_ingest_case(
    case: ChaosCase,
    spec: QuerySpec,
    base: dict[str, Table],
    batches: list[dict[str, Table]],
    seed: int,
    memo: dict[tuple[str, int], str],
) -> dict:
    """One read/append storm under one injected fault.

    A fresh catalog (same base snapshot every case) serves two reader
    threads cycling all four strategies while an appender commits the
    delta batches; the appender stops at its first failed commit, so
    live states stay strict prefixes of the batch sequence.  Every
    reader result must be byte-identical to the eager serial oracle of
    *some* valid prefix snapshot — the pinned-snapshot guarantee — and
    a failed commit must leave the catalog version untouched.  After
    the storm the remaining batches are committed cleanly and a final
    read per strategy must match the fully-ingested oracle.
    """
    config = RunConfig(strategy="predtrans", partition_rows=CHAOS_PARTITION_ROWS)
    catalog = Catalog(dict(base))
    plan = FaultPlan([case.rule], seed=seed)
    valid = {
        _snapshot_oracle(spec, base, batches, strategy, k, memo)
        for strategy in STRATEGIES
        for k in range(INGEST_BATCHES + 1)
    }
    reads: list[str] = []
    ingest_outcomes: list[str] = []
    lock = threading.Lock()

    with Engine(catalog, config=config, workers=2) as engine:
        if case.warm:
            # Entries at the base version, so post-commit reads have
            # something to extend (and the extension fault to hit).
            for strategy in ("predtrans", "bloomjoin"):
                engine.execute(
                    spec,
                    RunConfig(
                        strategy=strategy, partition_rows=CHAOS_PARTITION_ROWS
                    ),
                )

        def read_once(strategy: str) -> None:
            cfg = RunConfig(
                strategy=strategy, partition_rows=CHAOS_PARTITION_ROWS
            )
            try:
                result = engine.execute(spec, cfg)
                out = (
                    "identical"
                    if result_digest(result.table) in valid
                    else "WRONG_ANSWER"
                )
            except ReproError as exc:
                out = f"error:{type(exc).__name__}"
            except Exception as exc:
                out = f"UNTYPED:{type(exc).__name__}"
            with lock:
                reads.append(out)

        def appender() -> None:
            for batch in batches:
                try:
                    engine.ingest(batch)
                    out = "committed"
                except ReproError as exc:
                    out = f"error:{type(exc).__name__}"
                except Exception as exc:
                    out = f"UNTYPED:{type(exc).__name__}"
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
            if not hung:
                # Deterministic extension attempt while the fault is
                # still armed (see INGEST_CASES note on count=None).
                if case.warm:
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
        final_reads = []
        for strategy in STRATEGIES:
            oracle = _snapshot_oracle(
                spec, base, batches, strategy, INGEST_BATCHES, memo
            )
            final_reads.append(_classify(engine, spec, oracle))
        slots_clean = engine._pending == 0
        stats = engine.stats()
        cache = engine.cache_stats()
        corruptions = 0 if cache is None else cache.corruptions
        extensions = 0 if cache is None else cache.extensions
        rebuilds = 0 if cache is None else cache.extension_rebuilds
    reads_clean = all(
        o == "identical" or o.startswith("error:") for o in reads
    )
    ingests_typed = all(
        o == "committed" or o.startswith("error:") for o in ingest_outcomes
    )
    ok = (
        not hung
        and reads_clean
        and ingests_typed
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
        "cache_extensions": extensions,
        "cache_extension_rebuilds": rebuilds,
        "cache_corruptions": corruptions,
        "engine_ingests": stats.ingests,
        "engine_ingest_failures": stats.ingest_failures,
        "slots_clean": slots_clean,
        "hung": hung,
        "ok": ok,
    }


def run_ingest_sweep(sf: float = CHAOS_SF, seed: int = 0) -> dict:
    """The read/append chaos record: one storm per ingest fault case."""
    full = generate_tpch(sf=sf, seed=seed)
    spec = get_query(CHAOS_QUERY, sf=sf)
    base, batches = _ingest_universe(full)
    memo: dict[tuple[str, int], str] = {}
    cases = [
        run_ingest_case(case, spec, base, batches, seed, memo)
        for case in INGEST_CASES
    ]
    violations = [c for c in cases if not c["ok"]]
    return {
        "schema": "repro-bench/v8",
        "kind": "chaos-ingest",
        "meta": {
            "sf": sf,
            "seed": seed,
            "query": CHAOS_QUERY,
            "partition_rows": CHAOS_PARTITION_ROWS,
            "batches": INGEST_BATCHES,
            "ingest_tables": list(INGEST_TABLES),
            "strategies": list(STRATEGIES),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "timestamp_unix": int(time.time()),
        },
        "cases": cases,
        "summary": {
            "cases": len(cases),
            "reads": sum(len(c["reads"]) for c in cases),
            "identical_reads": sum(
                c["reads"].count("identical") for c in cases
            ),
            "batches_committed": sum(
                c["committed_during_storm"] for c in cases
            ),
            "faults_triggered": sum(c["faults_triggered"] for c in cases),
            "cache_extensions": sum(c["cache_extensions"] for c in cases),
            "cache_extension_rebuilds": sum(
                c["cache_extension_rebuilds"] for c in cases
            ),
            "violations": len(violations),
        },
    }


def format_ingest_sweep(payload: dict) -> str:
    """Human-readable one-screen summary of a chaos-ingest record."""
    s = payload["summary"]
    lines = [
        f"ingest chaos sweep: {s['cases']} cases "
        f"({payload['meta']['batches']} batches x "
        f"{len(payload['meta']['ingest_tables'])} tables, "
        f"readers over {len(payload['meta']['strategies'])} strategies)",
        f"  reads (all snapshot-identical or typed): {s['reads']} "
        f"({s['identical_reads']} identical)",
        f"  batches committed during storms: {s['batches_committed']}",
        f"  faults triggered:       {s['faults_triggered']}",
        f"  cache extensions:       {s['cache_extensions']} "
        f"(+{s['cache_extension_rebuilds']} degraded to rebuild)",
        f"  violations:             {s['violations']}",
    ]
    for case in payload["cases"]:
        if not case["ok"]:
            lines.append(
                f"  VIOLATION {case['case']}: reads={case['reads']} "
                f"ingests={case['ingest_outcomes']} "
                f"version_ok={case['version_ok']} "
                f"final={case['final_reads']} hung={case['hung']}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI: run the sweep, optionally write the JSON record.

    Exit status is the invariant verdict: 0 iff no case violated it.
    """
    parser = argparse.ArgumentParser(
        prog="repro.testing.chaos",
        description="Deterministic fault-injection sweep over the "
        "strategy grid (byte-identical-or-typed-error invariant)",
    )
    parser.add_argument("--sf", type=float, default=CHAOS_SF)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="write the chaos record here")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="sweep only predtrans/nopredtrans",
    )
    parser.add_argument(
        "--network",
        action="store_true",
        help="run the client/server network-fault sweep instead of the "
        "in-process one",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="run the read/append ingest sweep (concurrent readers vs "
        "transactional appends under injected ingest/extension faults)",
    )
    args = parser.parse_args(argv)
    strategies = ("nopredtrans", "predtrans") if args.quick else STRATEGIES
    if args.ingest:
        payload = run_ingest_sweep(sf=args.sf, seed=args.seed)
        print(format_ingest_sweep(payload))
    elif args.network:
        payload = run_network_sweep(
            sf=args.sf, seed=args.seed, strategies=strategies
        )
        print(format_network_sweep(payload))
    else:
        payload = run_sweep(sf=args.sf, seed=args.seed, strategies=strategies)
        print(format_sweep(payload))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if payload["summary"]["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
