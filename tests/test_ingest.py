"""Transactional ingest: catalog atomicity, layout reuse, cache
rebuild after a commit, the read/append hammer, and the wire-level
INGEST path.

The serving-under-writes contract these tests pin down:

* a commit is atomic — a fault before the publish point leaves readers
  on the old snapshot with the old version, byte for byte;
* appends extend partition layouts instead of invalidating them — the
  pre-append zone maps are reused verbatim for unchanged full chunks;
* a read after a commit rebuilds what the commit changed, in place of
  the stale entries, and answers as the uncached oracle does;
* under concurrent appends every query answers exactly at one committed
  snapshot (digest-checked against the eager serial oracle of that
  snapshot, per strategy/materialize/engine-workers cell);
* the INGEST wire frame commits transactionally and rejects bad
  payloads with typed errors, catalog untouched.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.runner import MATERIALIZE_MODES, STRATEGIES, RunConfig, run_query
from repro.errors import FaultInjected, PlanError, ReproError, SchemaError
from repro.service.client import ReproClient
from repro.service.engine import Engine
from repro.service.server import ServerThread, build_default_registry
from repro.service.workload import result_digest
from repro.storage import Catalog, Column, Table, get_layout
from repro.testing import FaultPlan, FaultRule, inject
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.003
SEED = 42
APPEND_ROWS = 40
BATCHES = 2


def fresh_catalog(base) -> Catalog:
    """An independent catalog over the shared base snapshot tables.

    Appends mint new ``Table`` objects, so catalogs built over the same
    immutable bases never interfere — each test mutates only its own.
    """
    return Catalog({name: base.get(name) for name in base.names()})


def make_deltas(base, k: int) -> dict[str, Table]:
    """Deterministic delta batch ``k`` for orders + lineitem."""
    deltas = {}
    for name in ("orders", "lineitem"):
        table = base.get(name)
        lo = k * APPEND_ROWS
        idx = np.arange(lo, lo + APPEND_ROWS, dtype=np.intp) % table.num_rows
        deltas[name] = table.take(idx)
    return deltas


@pytest.fixture(scope="module")
def base_catalog():
    return generate_tpch(sf=SF, seed=SEED)


# ----------------------------------------------------------------------
# Catalog transactionality
# ----------------------------------------------------------------------
def test_commit_appends_and_bumps_version(base_catalog):
    catalog = fresh_catalog(base_catalog)
    before = {n: catalog.get(n) for n in ("orders", "lineitem")}
    batch = catalog.begin_ingest()
    for name, delta in make_deltas(base_catalog, 0).items():
        batch.stage(name, delta)
    versions = batch.commit()
    for name, old in before.items():
        version = catalog.data_version(name)
        assert version.delta == 1
        assert versions[name] == version
        assert catalog.get(name).num_rows == old.num_rows + APPEND_ROWS
        # Readers pinned to the pre-commit snapshot see the old object.
        assert old.num_rows == before[name].num_rows
    # Untouched tables keep their version.
    assert catalog.data_version("region").delta == 0


@pytest.mark.parametrize("point", ["ingest.stage", "ingest.commit"])
def test_fault_before_publish_leaves_catalog_untouched(base_catalog, point):
    catalog = fresh_catalog(base_catalog)
    before = {n: (catalog.get(n), catalog.data_version(n)) for n in catalog.names()}
    plan = FaultPlan([FaultRule(point, "raise")])
    with inject(plan):
        batch = catalog.begin_ingest()
        with pytest.raises(FaultInjected):
            for name, delta in make_deltas(base_catalog, 0).items():
                batch.stage(name, delta)
            batch.commit()
    assert plan.triggered
    for name, (table, version) in before.items():
        assert catalog.get(name) is table
        assert catalog.data_version(name) == version
        assert catalog.data_version(name).delta == version.delta


def test_engine_ingest_counters_and_failure(base_catalog):
    catalog = fresh_catalog(base_catalog)
    with Engine(catalog) as engine:
        with inject(FaultPlan([FaultRule("ingest.commit", "raise")])):
            with pytest.raises(FaultInjected):
                engine.ingest(make_deltas(base_catalog, 0))
        assert engine.stats().ingest_failures == 1
        assert engine.stats().ingests == 0
        versions = engine.ingest(make_deltas(base_catalog, 0))
        assert versions == {
            name: str(catalog.data_version(name))
            for name in ("orders", "lineitem")
        }
        assert all(v.endswith(".1") for v in versions.values())
        stats = engine.stats()
        assert stats.ingests == 1
        assert stats.rows_ingested == 2 * APPEND_ROWS


# ----------------------------------------------------------------------
# Partition-layout reuse (satellite a)
# ----------------------------------------------------------------------
def test_append_reuses_prebuilt_zone_maps(base_catalog):
    catalog = fresh_catalog(base_catalog)
    old = catalog.get("orders")
    layout = get_layout(old, 64)
    # Build a zone map on the pre-append snapshot.
    assert layout.zone("o_orderdate") is not None
    full_chunks = old.num_rows // 64
    batch = catalog.begin_ingest()
    batch.stage("orders", make_deltas(base_catalog, 0)["orders"])
    batch.commit()
    new = catalog.get("orders")
    assert new is not old
    new_layout = get_layout(new, 64)
    assert new_layout.zone("o_orderdate") is not None
    # Every full pre-append chunk's statistics carried over verbatim.
    assert new_layout.reused_chunks == full_chunks
    old_zone = layout.zone("o_orderdate")
    new_zone = new_layout.zone("o_orderdate")
    assert np.array_equal(old_zone.mins[:full_chunks], new_zone.mins[:full_chunks])
    assert np.array_equal(old_zone.maxs[:full_chunks], new_zone.maxs[:full_chunks])
    # The old snapshot's layout itself is untouched (pinned readers).
    assert old._layouts[64] is layout


# ----------------------------------------------------------------------
# Engine-level rebuild: warm re-query after an append is correct
# ----------------------------------------------------------------------
def test_warm_requery_after_ingest_matches_oracle(base_catalog):
    spec = get_query(3, sf=SF)
    deltas = make_deltas(base_catalog, 0)
    oracle_catalog = fresh_catalog(base_catalog)
    batch = oracle_catalog.begin_ingest()
    for name, delta in deltas.items():
        batch.stage(name, delta)
    batch.commit()
    for strategy in STRATEGIES:
        config = RunConfig(strategy=strategy)
        with Engine(fresh_catalog(base_catalog)) as engine:
            engine.execute(spec, config)  # warm the cache at delta 0
            warm = engine.cache_stats()
            engine.ingest(deltas)
            result = engine.execute(spec, config)
            cs = engine.cache_stats()
        # Every entry the commit staled missed, was rebuilt, and replaced
        # its delta-0 twin of the same lineage: the cache stays flat.
        assert result.stats.total("filter_cache_misses") > 0, strategy
        assert cs.insertions > warm.insertions, strategy
        assert (
            cs.insertions - warm.insertions == cs.invalidations - warm.invalidations
        ), strategy
        assert cs.entries == warm.entries, strategy
        oracle = run_query(
            spec,
            oracle_catalog,
            config=RunConfig(strategy=strategy, materialize="eager"),
        )
        assert result_digest(result.table) == result_digest(oracle.table), strategy


def test_engine_releases_superseded_tables(base_catalog):
    """Nothing in the engine outlives a query with a reference to the
    table it ran on: after queries + ingests, every superseded column
    array is garbage — freed by refcount alone, with the cycle
    collector off, so no reference cycle may hold a table."""
    specs = [get_query(q, sf=SF) for q in (3, 5, 10)]
    superseded = []
    gc.collect()
    gc.disable()
    try:
        with Engine(fresh_catalog(base_catalog)) as engine:
            for k in range(5):
                engine.ingest(make_deltas(base_catalog, k))
                for spec in specs:
                    engine.execute(spec)
                column = engine.catalog.get("lineitem").column("l_orderkey")
                superseded.append(weakref.ref(column.data))
                del column
            live = superseded.pop()  # the current table's array
            assert live() is not None
            assert [ref() is not None for ref in superseded] == [False] * 4
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Read/append hammer (satellite c)
# ----------------------------------------------------------------------
_ORACLES: dict[tuple[str, int], str] = {}


def _oracle(base, strategy: str, k: int) -> str:
    """Eager serial digest of q3 at snapshot ``k`` (memoized)."""
    memo_key = (strategy, k)
    if memo_key not in _ORACLES:
        catalog = fresh_catalog(base)
        for j in range(k):
            batch = catalog.begin_ingest()
            for name, delta in make_deltas(base, j).items():
                batch.stage(name, delta)
            batch.commit()
        result = run_query(
            get_query(3, sf=SF),
            catalog,
            config=RunConfig(strategy=strategy, materialize="eager"),
        )
        _ORACLES[memo_key] = result_digest(result.table)
    return _ORACLES[memo_key]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("materialize", MATERIALIZE_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hammer_reads_pin_committed_snapshots(
    base_catalog, strategy, materialize, workers
):
    """Two readers race an appender through an engine of ``workers``
    query threads (1: reads queue behind one another; 4: they overlap
    each other and the commits)."""
    spec = get_query(3, sf=SF)
    valid = {_oracle(base_catalog, strategy, k) for k in range(BATCHES + 1)}
    catalog = fresh_catalog(base_catalog)
    config = RunConfig(strategy=strategy, materialize=materialize)
    digests: list[str] = []
    errors: list[BaseException] = []
    with Engine(catalog, config=config, workers=workers) as engine:

        def appender() -> None:
            try:
                for k in range(BATCHES):
                    engine.ingest(make_deltas(base_catalog, k))
            except BaseException as exc:  # pragma: no cover - fails test
                errors.append(exc)

        def reader() -> None:
            try:
                for _ in range(4):
                    digests.append(result_digest(engine.execute(spec).table))
            except BaseException as exc:  # pragma: no cover - fails test
                errors.append(exc)

        workers = [threading.Thread(target=appender)]
        workers += [threading.Thread(target=reader) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in workers)
        final = result_digest(engine.execute(spec).table)
        stats = engine.stats()
        cache = engine.cache_stats()
    assert not errors, errors
    bad = [d for d in digests if d not in valid]
    assert not bad, f"{len(bad)} read(s) matched no committed snapshot"
    assert final == _oracle(base_catalog, strategy, BATCHES)
    assert stats.ingests == BATCHES
    assert cache.corruptions == 0


# ----------------------------------------------------------------------
# Wire-level INGEST (satellite b/e surface)
# ----------------------------------------------------------------------
def wire_rows(table: Table, n: int) -> dict[str, list]:
    """First ``n`` rows of a table in wire value forms."""
    head = table.head(n)
    return {name: head.column(name).to_pylist() for name in head.column_names}


def test_ingest_wire_round_trip():
    catalog, specs = build_default_registry(SF, SEED)
    rows_before = catalog.get("orders").num_rows
    engine = Engine(catalog, workers=2)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port) as client:
                baseline = client.query("q3")
                frame = client.ingest(
                    {
                        "orders": wire_rows(catalog.get("orders"), 8),
                        "lineitem": wire_rows(catalog.get("lineitem"), 8),
                    }
                )
                assert set(frame["versions"]) == {"orders", "lineitem"}
                assert all(
                    v.endswith(".1") for v in frame["versions"].values()
                )
                assert frame["rows"] == 16
                assert catalog.get("orders").num_rows == rows_before + 8

                # Bad payloads are typed rejections; catalog untouched.
                with pytest.raises(ReproError):
                    client.ingest({"orders": {"o_orderkey": [1]}})
                with pytest.raises(ReproError):
                    client.ingest({"nope": {"x": [1]}})
                with pytest.raises(PlanError):
                    client.ingest({"orders": "not a table"})
                assert catalog.get("orders").num_rows == rows_before + 8

                # Queries keep answering, now at the new snapshot.
                after = client.query("q3")
                assert after["rows"] >= 0 and baseline["rows"] >= 0
                stats = client.stats()
                assert stats["server"]["ingests_total"] == 4
                assert stats["engine"]["ingests"] == 1
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_decode_rejects_schema_violations():
    from repro.service.server import decode_wire_table

    base = Table(
        "t",
        {
            "k": Column.from_ints(np.arange(4, dtype=np.int64)),
            "s": Column.from_strings(["a", "b", "c", "d"]),
        },
    )
    good = decode_wire_table("t", base, {"k": [9, None], "s": ["x", "y"]})
    assert good.num_rows == 2
    assert good.column("k").null_count() == 1
    for payload in (
        {"k": [1]},  # missing column
        {"k": [1], "s": ["x"], "z": [0]},  # unknown column
        {"k": [1, 2], "s": ["x"]},  # ragged lengths
        {"k": [], "s": []},  # empty delta
        {"k": ["oops"], "s": ["x"]},  # wrong value type
    ):
        with pytest.raises(SchemaError):
            decode_wire_table("t", base, payload)


def test_date_error_frames_are_pinned():
    """Type errors of wire values are pinned byte for byte.  DATE
    values are parsed once per distinct string, and booleans and
    integers never cross (``True`` is no INT64 value, ``False`` no
    FLOAT64 value, ``1`` no BOOL value); the frame still names the
    first bad value in row order, past any null."""
    from repro.service.protocol import encode_frame, error_frame_for
    from repro.service.server import decode_wire_table

    base = Table(
        "t",
        {
            "k": Column.from_ints(np.arange(2, dtype=np.int64)),
            "d": Column.from_dates(["1996-01-02", "1996-01-03"]),
            "f": Column.from_floats([0.5, 1.5]),
            "b": Column.from_bools([True, False]),
        },
    )
    cases = [
        (
            "d", ["1996-01-02", "1996-02-30", "1996-13-01", "1996-02-30"],
            b'\x00\x00\x00\x84{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.d (date): day is out of range for month",'
            b'"error_type":"SchemaError"}',
        ),
        (
            "d", ["1996-01-02", None, 19960102, "x"],
            b'\x00\x00\x00\x91{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.d (date) expects a \'YYYY-MM-DD\' string, '
            b'got 19960102","error_type":"SchemaError"}',
        ),
        (
            "k", [1, True, 3],
            b'\x00\x00\x00\x83{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.k (int64) expects an integer, got True",'
            b'"error_type":"SchemaError"}',
        ),
        (
            "f", [0.5, False, 2],
            b'\x00\x00\x00\x84{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.f (float64) expects a number, got False",'
            b'"error_type":"SchemaError"}',
        ),
        (
            "b", [True, 1, False],
            b'\x00\x00\x00~{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.b (bool) expects a boolean, got 1",'
            b'"error_type":"SchemaError"}',
        ),
        (
            "k", [None, 2, 2.5, "x"],
            b'\x00\x00\x00\x82{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.k (int64) expects an integer, got 2.5",'
            b'"error_type":"SchemaError"}',
        ),
        (
            "b", [None, False, 0, "x"],
            b'\x00\x00\x00~{"type":"ERROR","id":7,"code":"bad_request",'
            b'"message":"column t.b (bool) expects a boolean, got 0",'
            b'"error_type":"SchemaError"}',
        ),
    ]
    for column, values, frame in cases:
        n = len(values)
        payload = {
            "k": list(range(n)), "d": ["1996-01-02"] * n,
            "f": [0.5] * n, "b": [True] * n, column: values,
        }
        with pytest.raises(SchemaError) as caught:
            decode_wire_table("t", base, payload)
        assert encode_frame(error_frame_for(7, caught.value)) == frame, values
    good = decode_wire_table(
        "t", base, {
            "k": [1, 2, 3], "d": ["1996-01-03", None, "1996-01-03"],
            "f": [0.5, 1, None], "b": [True, None, False],
        },
    )
    assert [good.column(c).to_pylist() for c in "dfb"] == [
        ["1996-01-03", None, "1996-01-03"],
        [0.5, 1.0, None],
        [True, None, False],
    ]


def test_out_of_range_integer_is_a_bad_request():
    """An INT64 wire value beyond int64 is a typed schema violation
    (``bad_request`` on the wire), not an untyped ``internal`` error,
    and the catalog stays untouched."""
    from repro.service.server import decode_wire_table

    base = Table("t", {"k": Column.from_ints(np.arange(2, dtype=np.int64))})
    for value in (2**63, -(2**63) - 1):
        with pytest.raises(SchemaError):
            decode_wire_table("t", base, {"k": [1, value]})

    catalog, specs = build_default_registry(SF, SEED)
    orders = catalog.get("orders")
    batch = wire_rows(orders, 2)
    batch["o_orderkey"][0] = 2**63
    engine = Engine(catalog, workers=1)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port) as client:
                with pytest.raises(PlanError):
                    client.ingest({"orders": batch})
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert catalog.get("orders") is orders


def test_inflight_gauge_counts_an_ingest():
    """``server.inflight`` counts INGEST tasks beside QUERY tasks: an
    ingest held in ``ingest.stage`` reads as one task in flight."""
    catalog, specs = build_default_registry(SF, SEED)
    batch = {"orders": wire_rows(catalog.get("orders"), 2)}
    engine = Engine(catalog, workers=1)
    plan = FaultPlan([FaultRule("ingest.stage", "delay", delay=1.0)])
    frames: list[dict] = []
    try:
        with ServerThread(engine, specs) as st, inject(plan):
            with ReproClient(st.host, st.port) as client:
                writer = threading.Thread(
                    target=lambda: frames.append(client.ingest(batch))
                )
                writer.start()
                deadline = time.monotonic() + 30
                while not plan.triggered and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert plan.triggered, "ingest never reached ingest.stage"
                assert st.server.stats().inflight == 1
                writer.join(timeout=30)
            # The task leaves the set just after its answer is sent.
            while st.server.stats().inflight and time.monotonic() < deadline:
                time.sleep(0.005)
            assert st.server.stats().inflight == 0
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert frames and frames[0]["type"] == "INGESTED"


def test_ingest_decodes_off_the_event_loop(monkeypatch):
    """An INGEST frame is decoded in the executor job that commits it,
    never on the event-loop thread that every connection shares."""
    import asyncio

    from repro.service import server as server_module

    decode = server_module.decode_wire_table
    decoded_on: list[int] = []

    def recording(*args):
        decoded_on.append(threading.get_ident())
        return decode(*args)

    async def loop_thread() -> int:
        return threading.get_ident()

    monkeypatch.setattr(server_module, "decode_wire_table", recording)
    catalog, specs = build_default_registry(SF, SEED)
    engine = Engine(catalog, workers=1)
    try:
        with ServerThread(engine, specs) as st:
            with ReproClient(st.host, st.port) as client:
                frame = client.ingest(
                    {
                        "orders": wire_rows(catalog.get("orders"), 2),
                        "lineitem": wire_rows(catalog.get("lineitem"), 2),
                    }
                )
            on_loop = asyncio.run_coroutine_threadsafe(
                loop_thread(), st._loop
            ).result(timeout=30)
    finally:
        engine.shutdown(wait=True, cancel=True)
    assert frame["type"] == "INGESTED" and frame["rows"] == 4
    assert len(decoded_on) == 2
    assert on_loop not in decoded_on


# ----------------------------------------------------------------------
# Quick chaos-ingest sweep (satellite e smoke)
# ----------------------------------------------------------------------
def test_ingest_chaos_sweep_clean():
    from repro.testing.chaos import run_ingest_sweep

    payload = run_ingest_sweep(sf=0.002, seed=0)
    assert payload["schema"] == "repro-chaos/v1"
    assert payload["kind"] == "ingest"
    assert payload["summary"]["violations"] == 0
    assert payload["summary"]["faults_triggered"] > 0
    assert payload["summary"]["identical_reads"] > 0
    assert payload["summary"]["batches_committed"] > 0
