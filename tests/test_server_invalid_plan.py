"""Pre-admission plan validation over the wire.

A malformed plan registered in the server's registry must be rejected
*before* admission: the client gets a typed
:class:`~repro.errors.PlanValidationError` carrying the structured
diagnostic list, no engine slot is consumed, the ``rejected_invalid``
counter increments (visible in STATS and the Prometheus outcome
labels), and the connection stays healthy for subsequent good queries.
"""

from __future__ import annotations

import pytest

from repro.analysis import validate
from repro.core.runner import RunConfig
from repro.errors import PlanValidationError
from repro.expr.nodes import col, lit
from repro.obs import parse_prometheus_text
from repro.obs.adapters import ObsCollector
from repro.obs.metrics import MetricsRegistry
from repro.plan.query import QuerySpec, Relation, edge
from repro.service import Engine, ReproClient, ServerThread
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002


def _invalid_spec() -> QuerySpec:
    return QuerySpec(
        name="bad-plan",
        relations=[
            Relation(
                alias="l",
                table="lineitem",
                predicate=col("l.no_such_column").gt(lit(1)),
            )
        ],
    )


def _invalid_with_warning_spec() -> QuerySpec:
    """An error (REP104) beside a warning (REP112, an empty range)."""
    quantity = col("l.l_quantity")
    return QuerySpec(
        name="bad-plan-warned",
        relations=[
            Relation(
                alias="l",
                table="lineitem",
                predicate=quantity.gt(lit(10)) & quantity.lt(lit(5)),
            ),
            Relation(
                alias="o",
                table="orders",
                predicate=col("o.no_such_column").eq(lit(1)),
            ),
        ],
        edges=[edge("l", "o", ("l_orderkey", "o_orderkey"))],
    )


@pytest.fixture(scope="module")
def served():
    catalog = generate_tpch(sf=SF, seed=0)
    registry = MetricsRegistry()
    engine = Engine(
        catalog,
        config=RunConfig(partition_rows=64),
        workers=2,
        registry=registry,
    )
    good = get_query(3, sf=SF)
    specs = {good.name: good}
    for spec in (_invalid_spec(), _invalid_with_warning_spec()):
        specs[spec.name] = spec
    try:
        with ServerThread(engine, specs, meta={"sf": SF, "seed": 0}) as st:
            collector = ObsCollector(registry, engine=engine, server=st.server)
            yield st, engine, collector, good.name
    finally:
        engine.shutdown(wait=True, cancel=True)


def test_invalid_plan_rejected_with_diagnostics(served):
    st, engine, _, _ = served
    before = engine.snapshot().stats
    with ReproClient(st.host, st.port, io_timeout=30.0) as client:
        with pytest.raises(PlanValidationError) as excinfo:
            client.query_once("bad-plan")
    err = excinfo.value
    assert err.diagnostics, "ERROR frame must carry the diagnostic list"
    first = dict(err.diagnostics[0])
    assert first["code"] == "REP104"
    assert first["severity"] == "error"
    assert first["path"].startswith("relations[0].predicate")
    assert "REP104" in str(err)

    after = engine.snapshot()
    # Pre-admission: the engine never saw the query as work.
    assert after.stats.rejected_invalid == before.rejected_invalid + 1
    assert after.stats.submitted == before.submitted
    assert after.pending == 0
    assert after.consistent


def test_wire_frame_carries_the_diagnostics_of_validate(served):
    """The rejected frame carries exactly what ``analysis.validate``
    raises in-process: every diagnostic, the warning too."""
    st, engine, _, _ = served
    with pytest.raises(PlanValidationError) as local:
        validate(_invalid_with_warning_spec(), engine.catalog)
    want = [d.as_dict() for d in local.value.diagnostics]
    assert {d["code"] for d in want} == {"REP104", "REP112"}
    with ReproClient(st.host, st.port, io_timeout=30.0) as client:
        with pytest.raises(PlanValidationError) as remote:
            client.query_once("bad-plan-warned")
    assert [dict(d) for d in remote.value.diagnostics] == want
    assert str(remote.value) == str(local.value)


def test_rejection_does_not_poison_the_connection(served):
    st, engine, _, good_name = served
    with ReproClient(st.host, st.port, io_timeout=30.0) as client:
        with pytest.raises(PlanValidationError):
            client.query_once("bad-plan")
        result = client.query_once(good_name)
        assert result["rows"] > 0
    assert engine.snapshot().pending == 0


def test_rejected_invalid_visible_in_stats_and_metrics(served):
    st, engine, collector, _ = served
    with ReproClient(st.host, st.port, io_timeout=30.0) as client:
        with pytest.raises(PlanValidationError):
            client.query_once("bad-plan")
        stats = client.stats()
    counted = stats["engine"]["rejected_invalid"]
    assert counted >= 1
    assert counted == engine.snapshot().stats.rejected_invalid

    families = parse_prometheus_text(collector.prometheus())
    outcomes = {
        dict(labels)["outcome"]: value
        for labels, value in families["repro_queries_total"].items()
    }
    assert outcomes.get("rejected_invalid") == counted
    assert families["repro_engine_slots_in_use"][()] == 0


def test_repeated_rejections_are_memoized_and_all_counted(served):
    st, engine, _, _ = served
    before = engine.snapshot().stats.rejected_invalid
    attempts = 4
    with ReproClient(st.host, st.port, io_timeout=30.0) as client:
        for _ in range(attempts):
            with pytest.raises(PlanValidationError) as excinfo:
                client.query_once("bad-plan")
            assert excinfo.value.diagnostics
    snap = engine.snapshot()
    # Memoized analysis still counts every rejected request.
    assert snap.stats.rejected_invalid == before + attempts
    assert snap.pending == 0
    assert snap.consistent
