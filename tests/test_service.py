"""Service-layer tests: Engine concurrency, workload plumbing, CLI."""

from __future__ import annotations

import dataclasses
import re
import threading

import pytest

from repro.__main__ import main
from repro.cache import default_filter_cache
from repro.core.runner import RunConfig, run_query
from repro.service import Engine, build_catalog, vary_spec
from repro.service.engine import EngineStats
from repro.service.workload import SSB_PREFIX, prefix_tables, result_digest
from repro.ssb import get_ssb_query
from repro.storage.catalog import Catalog
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.003


@pytest.fixture(scope="module")
def serving_catalog():
    return build_catalog(sf=SF, seed=3)


# ----------------------------------------------------------------------
# Engine basics
# ----------------------------------------------------------------------
def test_engine_matches_plain_runner(serving_catalog):
    spec = get_query(5, sf=SF)
    with Engine(serving_catalog) as engine:
        served = engine.execute(spec)
    plain = run_query(spec, serving_catalog)
    assert result_digest(served.table) == result_digest(plain.table)


def test_engine_aggregates_stats(serving_catalog):
    with Engine(serving_catalog) as engine:
        engine.execute(get_query(5, sf=SF))
        engine.execute(get_query(5, sf=SF))
        engine.execute(get_query(3, sf=SF), RunConfig(strategy="bloomjoin"))
        stats = engine.stats()
        assert engine.cache_stats().hits > 0  # the repeated q5 hit
    assert stats.queries == 3
    assert stats.by_strategy == {"predtrans": 2, "bloomjoin": 1}
    assert stats.seconds > 0


def test_engine_stats_snapshot_is_a_deep_enough_copy():
    live = EngineStats(by_strategy={"predtrans": 2})
    for i, f in enumerate(dataclasses.fields(EngineStats)):
        if f.name != "by_strategy":
            setattr(live, f.name, i + 1)
    snap = live.snapshot()
    assert snap == live and snap is not live
    snap.by_strategy["predtrans"] += 1
    snap.by_strategy["bloomjoin"] = 1
    assert live.by_strategy == {"predtrans": 2}


def test_repeated_query_counts_hits_and_misses(serving_catalog):
    with Engine(serving_catalog) as engine:
        history = [engine.execute(get_query(3, sf=SF)).stats for _ in range(2)]
        hits = sum(s.total("filter_cache_hits") for s in history)
        misses = sum(s.total("filter_cache_misses") for s in history)
        assert hits > 0 and misses > 0


def test_engine_without_cache(serving_catalog):
    with Engine(serving_catalog, cache_bytes=None) as engine:
        result = engine.execute(get_query(5, sf=SF))
        assert engine.cache_stats() is None
        assert result.stats.filter_cache_hits == 0
        assert result.stats.filter_cache_misses == 0


def test_engine_rejects_after_close(serving_catalog):
    engine = Engine(serving_catalog)
    engine.close()
    with pytest.raises(RuntimeError):
        engine.submit(get_query(5, sf=SF))


# ----------------------------------------------------------------------
# Concurrency stress: N threads x repeated query mix == oracle
# ----------------------------------------------------------------------
def _mixed_stream(tpch_ids, ssb_ids, repeats):
    """Each TPC-H and SSB query ``repeats`` times, then each query that
    has dates to shift once more, shifted by 30 days."""
    base = [get_query(qid, sf=SF) for qid in tpch_ids] + [
        prefix_tables(get_ssb_query(qid), SSB_PREFIX) for qid in ssb_ids
    ]
    varied = [v for spec in base if (v := vary_spec(spec, 30, "#v1")) is not None]
    return base * repeats + varied


def test_concurrent_mixed_stream_matches_single_threaded_oracle(
    serving_catalog,
):
    """The CI stress scenario: a repeated TPC-H+SSB mix executed on a
    multi-worker engine from multiple client threads must produce
    byte-identical results to a fresh single-threaded uncached run."""
    stream = _mixed_stream((3, 5, 10), ("1.1", "2.1"), repeats=3)
    oracle = {}
    for spec in stream:
        if spec.name not in oracle:
            oracle[spec.name] = result_digest(
                run_query(spec, serving_catalog).table
            )

    with Engine(serving_catalog, workers=4) as engine:
        errors: list[Exception] = []
        digests: dict[int, list[tuple[str, str]]] = {}

        def client(tid: int) -> None:
            try:
                out = []
                for spec in stream:
                    result = engine.execute(spec)
                    out.append((spec.name, result_digest(result.table)))
                digests[tid] = out
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        served = engine.stats()

    assert served.queries == 4 * len(stream)
    for out in digests.values():
        assert len(out) == len(stream)
        for name, digest in out:
            assert digest == oracle[name], f"mismatch for {name}"


# ----------------------------------------------------------------------
# Workload plumbing
# ----------------------------------------------------------------------
def test_build_catalog_merges_both_benchmarks(serving_catalog):
    assert "lineitem" in serving_catalog  # TPC-H
    assert f"{SSB_PREFIX}lineorder" in serving_catalog  # SSB, prefixed
    # The clash-prone dimension names coexist.
    assert "customer" in serving_catalog
    assert f"{SSB_PREFIX}customer" in serving_catalog


def test_prefix_tables_rewrites_base_references():
    spec = prefix_tables(get_ssb_query("2.1"), SSB_PREFIX)
    assert all(r.table.startswith(SSB_PREFIX) for r in spec.relations)


@pytest.mark.parametrize("qid", [15, 20])
def test_prefix_tables_keeps_enclosing_stage_outputs(qid):
    """A stage reading a sibling's output (Q15's max over the revenue
    view) or a nested stage's consumer (Q20) keeps the derived name,
    and the prefixed query runs to the unprefixed result."""
    plain = get_query(qid, sf=SF)
    spec = prefix_tables(plain, "x.")

    def tables(s):
        out = [r.table for r in s.relations]
        for stage in s.pre_stages:
            out += tables(stage.spec)
        return out

    def outputs(s):
        out = [stage.output for stage in s.pre_stages]
        for stage in s.pre_stages:
            out += outputs(stage.spec)
        return out

    derived = set(outputs(plain))
    assert [t for t in tables(spec) if not t.startswith("x.")] == [
        t for t in tables(plain) if t in derived
    ]
    base = generate_tpch(sf=SF, seed=3)
    prefixed = Catalog()
    for name in base.names():
        prefixed.register(base.get(name), f"x.{name}")
    assert result_digest(run_query(spec, prefixed).table) == result_digest(
        run_query(plain, base).table
    )


def test_vary_spec_shifts_dates_or_declines():
    q3 = get_query(3, sf=SF)
    varied = vary_spec(q3, 30, "#v1")
    assert varied is not None and varied.name == "q3#v1"
    # Different parameters -> different results fingerprint inputs.
    assert varied.relations != q3.relations
    # A spec with no date literals has nothing to vary.
    q2 = get_query(2, sf=SF)
    assert vary_spec(q2, 30, "#v1") is None


def test_replay_and_cold_warm_payload(serving_catalog):
    """One stream with date-shifted variants, run cold then warm
    through one Engine: every warm result equals the cold one at the
    same position, and the warm pass hits the cache more."""
    stream = _mixed_stream((3, 5), ("1.1",), repeats=2)
    assert any("#v1" in spec.name for spec in stream)
    with Engine(serving_catalog) as engine:
        cold = [engine.execute(spec) for spec in stream]
        warm = [engine.execute(spec) for spec in stream]

    def digests(results):
        return [result_digest(r.table) for r in results]

    def hits(results) -> int:
        return sum(r.stats.total("filter_cache_hits") for r in results)

    assert digests(cold) == digests(warm)
    assert hits(warm) > hits(cold)


def test_warm_cache_equivalence_all_tpch_queries(serving_catalog):
    """Every TPC-H query (including multi-stage decorrelated ones):
    warm cached results are byte-identical to the uncached eager
    oracle under the default strategy."""
    with Engine(serving_catalog) as engine:
        for qid in range(1, 23):
            spec = get_query(qid, sf=SF)
            engine.execute(spec)  # cold: populate
            warm = engine.execute(spec)
            oracle = run_query(
                spec, serving_catalog, config=RunConfig(materialize="eager")
            )
            assert result_digest(warm.table) == result_digest(oracle.table), (
                f"q{qid} warm result diverged from eager oracle"
            )


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_workload_writes_artifact(capsys):
    """Two CLI runs in one process share the process-wide cache: the
    second is served from it and prints the same row count."""
    argv = ["tpch", "--sf", "0.003", "--query", "3", "--strategy",
            "predtrans", "--repeats", "2"]
    cache = default_filter_cache()
    rows = []
    for _ in range(2):
        hits_before = cache.stats().hits
        assert main(argv) == 0
        rows.append(re.search(r"rows=(\d+)", capsys.readouterr().out).group(1))
        assert cache.stats().hits > hits_before
    assert rows[0] == rows[1]


def test_cli_no_filter_cache_flag(capsys):
    default_filter_cache().clear()
    assert main(["tpch", "--sf", "0.003", "--query", "5",
                 "--strategy", "predtrans", "--repeats", "1",
                 "--no-filter-cache"]) == 0
    capsys.readouterr()
    # The uncached run left no trace in the process-wide cache.
    assert len(default_filter_cache()) == 0


def test_cli_ssb_cached(capsys):
    assert main(["ssb", "--sf", "0.003", "--query", "1.1",
                 "--strategy", "predtrans", "--repeats", "2"]) == 0
    assert "Q1.1" in capsys.readouterr().out
