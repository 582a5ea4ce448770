"""The network serving layer: digest identity, deadlines, admission
control + client backoff, disconnect cancellation, graceful drain,
and the saturation retry-after floor.

Companion to ``test_protocol.py`` (frame-level abuse) and
``test_netchaos.py`` (injected network faults): this file covers the
server's *query* semantics — everything the in-process engine
guarantees must survive the wire unchanged.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig, run_query
from repro.errors import (
    ConnectionLost,
    EngineSaturated,
    MIN_RETRY_AFTER,
    PlanError,
    ProtocolError,
    QueryTimeout,
    ServiceUnavailable,
)
from repro.service import (
    Engine,
    ReproClient,
    RetryPolicy,
    ServerConfig,
    ServerThread,
)
from repro.service.protocol import query_request, send_frame
from repro.service.workload import result_digest
from repro.testing import FaultPlan, FaultRule, inject
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002
PARTITION_ROWS = 64


@pytest.fixture(scope="module")
def catalog():
    return generate_tpch(sf=SF, seed=0)


@pytest.fixture(scope="module")
def specs():
    return {s.name: s for s in (get_query(1, sf=SF), get_query(3, sf=SF))}


@pytest.fixture(scope="module")
def served(catalog, specs):
    engine = Engine(
        catalog, config=RunConfig(partition_rows=PARTITION_ROWS), workers=2
    )
    try:
        with ServerThread(
            engine, specs, meta={"sf": SF, "seed": 0}
        ) as st:
            yield st
    finally:
        engine.shutdown(wait=True, cancel=True)


def _client(st: ServerThread, **kw) -> ReproClient:
    kw.setdefault("io_timeout", 30.0)
    return ReproClient(st.host, st.port, **kw)


def _oracle(catalog, spec, strategy: str) -> str:
    result = run_query(
        spec,
        catalog,
        config=RunConfig(
            strategy=strategy,
            materialize="eager",
            partition_rows=PARTITION_ROWS,
        ),
    )
    return result_digest(result.table)


# ----------------------------------------------------------------------
# Probes + result identity
# ----------------------------------------------------------------------
def test_ping_reports_ready(served):
    with _client(served) as client:
        pong = client.ping()
    assert pong["ready"] is True and pong["draining"] is False


def test_stats_exposes_engine_server_and_meta(served):
    with _client(served) as client:
        stats = client.stats()
    assert stats["meta"] == {"sf": SF, "seed": 0}
    assert set(stats["server"]["queries"]) == {"q1", "q3"}
    assert stats["server"]["pending_jobs"] == 0
    assert "cancellations" in stats["engine"]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("materialize", MATERIALIZE_MODES)
def test_remote_digest_matches_in_process_oracle(
    served, catalog, specs, strategy, materialize
):
    oracle = _oracle(catalog, specs["q3"], strategy)
    with _client(served) as client:
        frame = client.query_once(
            "q3", strategy=strategy, materialize=materialize
        )
    assert frame["digest"] == oracle
    assert frame["stats"]["strategy"] == strategy


def test_include_data_ships_rows(served, catalog, specs):
    with _client(served) as client:
        frame = client.query_once("q1", include_data=True)
    local = run_query(specs["q1"], catalog).table
    assert frame["columns"] == list(local.column_names)
    assert len(frame["data"]) == frame["rows"] == local.num_rows
    assert frame["data_truncated"] is False


def test_include_data_row_cap(catalog, specs):
    engine = Engine(catalog, workers=1)
    try:
        with ServerThread(
            engine, specs, config=ServerConfig(max_result_rows=2)
        ) as st:
            with _client(st) as client:
                frame = client.query_once("q1", include_data=True)
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert frame["rows"] == 4  # the real cardinality is still reported
    assert len(frame["data"]) == 2 and frame["data_truncated"] is True


def test_oversized_response_degrades_to_typed_error(catalog, specs):
    """include_data past the frame limit: typed error, live connection."""
    engine = Engine(catalog, workers=1)
    try:
        with ServerThread(
            engine, specs, config=ServerConfig(max_frame_bytes=512)
        ) as st:
            with _client(st) as client:
                with pytest.raises(ProtocolError):
                    client.query_once("q1", include_data=True)
                # Same connection still serves (small response fits).
                assert client.ping()["ready"] is True
    finally:
        engine.shutdown(wait=True, cancel=True)


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_remote_deadline_propagates_as_query_timeout(served):
    with _client(served) as client:
        with pytest.raises(QueryTimeout):
            client.query_once("q3", timeout_ms=0.001)
        # The connection and engine survive a timed-out query.
        assert client.query_once("q3")["rows"] > 0


def test_server_clamps_timeout_to_configured_max(catalog, specs):
    engine = Engine(catalog, workers=1)
    try:
        with ServerThread(
            engine, specs, config=ServerConfig(max_timeout_ms=0.001)
        ) as st:
            with _client(st) as client:
                # The client asks for a minute; the server's ceiling
                # (1µs) wins and the query times out.
                with pytest.raises(QueryTimeout):
                    client.query_once("q3", timeout_ms=60_000)
    finally:
        engine.shutdown(wait=True, cancel=True)


@pytest.mark.parametrize("bad", ["soon", -5, 0, True])
def test_invalid_timeout_is_protocol_error(served, bad):
    with _client(served) as client:
        with pytest.raises(ProtocolError):
            client.query_once("q3", timeout_ms=bad)


# ----------------------------------------------------------------------
# Bad requests
# ----------------------------------------------------------------------
def test_unknown_query_is_plan_error(served):
    with _client(served) as client:
        with pytest.raises(PlanError) as err:
            client.query_once("q99")
    assert "q99" in str(err.value)


def test_unknown_strategy_is_plan_error(served):
    with _client(served) as client:
        with pytest.raises(PlanError):
            client.query_once("q3", strategy="quantum")


# ----------------------------------------------------------------------
# Admission control: RETRY frames + client backoff
# ----------------------------------------------------------------------
def _saturate(engine: Engine, release: threading.Event) -> None:
    for _ in range(engine._workers):
        engine._pool.submit(release.wait)


def test_saturation_surfaces_retry_with_floored_hint(catalog, specs):
    release = threading.Event()
    engine = Engine(catalog, workers=1, max_pending=1)
    try:
        with ServerThread(engine, specs) as st:
            _saturate(engine, release)
            fillers = [engine.submit(specs["q3"]), engine.submit(specs["q3"])]
            with _client(st) as client:
                with pytest.raises(EngineSaturated) as err:
                    client.query_once("q3")
            assert err.value.retry_after >= MIN_RETRY_AFTER
            release.set()
            for f in fillers:
                f.result(timeout=30)
    finally:
        release.set()  # a failed assertion must not leave the pool blocked
        engine.shutdown(wait=True, cancel=True)


def test_client_backoff_waits_at_least_server_hint(catalog, specs):
    release = threading.Event()
    engine = Engine(catalog, workers=1, max_pending=1)
    slept: list[float] = []

    def fake_sleep(seconds: float) -> None:
        slept.append(seconds)
        release.set()  # free the pool: the next attempt succeeds
        time.sleep(0.01)

    try:
        with ServerThread(engine, specs) as st:
            _saturate(engine, release)
            fillers = [engine.submit(specs["q3"]), engine.submit(specs["q3"])]
            with _client(st) as client:
                frame = client.query(
                    "q3",
                    policy=RetryPolicy(attempts=5, seed=7),
                    sleep=fake_sleep,
                )
            assert frame["rows"] > 0
            for f in fillers:
                f.result(timeout=30)
    finally:
        release.set()  # a failed assertion must not leave the pool blocked
        engine.shutdown(wait=True, cancel=True)
    assert slept and min(slept) >= MIN_RETRY_AFTER


def test_engine_saturated_retry_after_never_zero():
    # Regression: a zero/negative hint means tight-loop retries.
    assert EngineSaturated("busy", retry_after=0.0).retry_after >= MIN_RETRY_AFTER
    assert EngineSaturated("busy", retry_after=-1.0).retry_after >= MIN_RETRY_AFTER


def test_engine_retry_hint_honours_configured_floor(catalog, specs):
    # Four workers, nothing finished yet: the load estimate is
    # 0.05 s (default average) x 2 queued / 4 workers = 0.025 s, below
    # the floor, so the floor decides the hint.
    release = threading.Event()
    engine = Engine(catalog, workers=4, max_pending=1)
    try:
        _saturate(engine, release)
        fillers = [engine.submit(specs["q3"]) for _ in range(5)]
        with pytest.raises(EngineSaturated) as err:
            engine.submit(specs["q3"])
        assert err.value.retry_after == MIN_RETRY_AFTER
        release.set()
        for f in fillers:
            f.result(timeout=30)
    finally:
        release.set()  # a failed assertion must not leave the pool blocked
        engine.shutdown(wait=True, cancel=True)


# ----------------------------------------------------------------------
# Disconnect-mid-query cancellation
# ----------------------------------------------------------------------
def test_disconnect_mid_query_cancels_and_reclaims_slot(catalog, specs):
    engine = Engine(
        catalog,
        config=RunConfig(partition_rows=PARTITION_ROWS),
        workers=1,
    )
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", delay=0.01, count=None)]
    )
    try:
        with ServerThread(engine, specs) as st:
            with inject(plan):
                sock = socket.create_connection((st.host, st.port), timeout=5)
                send_frame(sock, query_request(1, "q3"))
                time.sleep(0.2)  # the slowed query is mid-flight
                sock.close()  # client walks away
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if (
                        engine.stats().cancellations >= 1
                        and engine.pending == 0
                    ):
                        break
                    time.sleep(0.02)
            stats = engine.stats()
            assert stats.cancellations >= 1
            assert engine.pending == 0  # the slot was reclaimed
            assert st.server.stats().cancelled_by_disconnect >= 1
            # The worker is free again: a fresh client is served.
            with _client(st) as client:
                assert client.query_once("q3")["rows"] > 0
    finally:
        engine.shutdown(wait=True, cancel=True)


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
def test_drain_window_refuses_new_work_resolves_old(catalog, specs):
    """During the drain window: not ready, new queries refused, new
    connections rejected — while the in-flight query still completes
    with its real (identical) result inside the grace period."""
    engine = Engine(
        catalog,
        config=RunConfig(partition_rows=PARTITION_ROWS),
        workers=1,
    )
    oracle = _oracle(catalog, specs["q3"], engine.default_config.strategy)
    plan = FaultPlan(
        [FaultRule("chunk.kernel", "delay", delay=0.01, count=None)]
    )
    slow_result: dict = {}

    def slow_query(st: ServerThread) -> None:
        with _client(st) as client:
            try:
                slow_result["frame"] = client.query_once("q3")
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                slow_result["error"] = exc

    try:
        with ServerThread(engine, specs) as st:
            with inject(plan):
                runner = threading.Thread(target=slow_query, args=(st,))
                runner.start()
                # Wait until the slowed query is genuinely mid-flight;
                # a fixed sleep races on loaded machines and lets drain
                # complete before the probe ever pings.
                deadline = time.monotonic() + 10.0
                while engine.pending == 0:
                    assert time.monotonic() < deadline, "query never started"
                    time.sleep(0.005)
                # Connect the probe before drain closes the listener —
                # established connections stay served until the drain
                # resolves.  The ping makes the round trip that proves
                # the server *accepted* the connection: a socket still
                # in the kernel backlog when the listener closes is
                # silently discarded, not served.
                with _client(st) as probe:
                    assert probe.ping()["ready"] is True
                    drainer = threading.Thread(
                        target=st.drain, kwargs={"grace": 20.0}
                    )
                    drainer.start()
                    deadline = time.monotonic() + 10.0
                    while True:
                        pong = probe.ping()
                        if pong["draining"]:
                            break
                        assert time.monotonic() < deadline, "drain never began"
                        time.sleep(0.005)
                    assert pong["ready"] is False
                    with pytest.raises(ServiceUnavailable):
                        probe.query_once("q3")
                runner.join(timeout=30)
                drainer.join(timeout=30)
                assert not runner.is_alive() and not drainer.is_alive()
            # The in-flight query resolved with its real result.
            assert slow_result["frame"]["digest"] == oracle
            # Post-drain: the listener is closed for good.
            with pytest.raises(ConnectionLost):
                _client(st, connect_timeout=2.0).ping()
    finally:
        engine.shutdown(wait=True, cancel=True)
