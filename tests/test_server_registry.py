"""A server validates its registry once, when it is built.

A ``QUERY`` frame can only name a registered plan, and a commit never
changes a schema, so one verdict per plan at construction holds for
every request.  An invalid registry raises the typed
:class:`~repro.errors.PlanValidationError` from the constructor, with
the analyzer's full diagnostic list, before any port is bound.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.analysis import analyze
from repro.errors import PlanValidationError
from repro.expr.nodes import col, lit
from repro.plan.query import QuerySpec, Relation, edge
from repro.service import Engine, ServerThread
from repro.service.server import QueryServer
from repro.tpch import generate_tpch
from repro.tpch.queries import get_query

SF = 0.002


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


def test_invalid_registry_refuses_to_start(monkeypatch):
    catalog = generate_tpch(sf=SF, seed=0)
    bad = _invalid_with_warning_spec()
    want = analyze(bad, catalog)
    assert {d.code for d in want} == {"REP104", "REP112"}
    good = get_query(3, sf=SF)
    binds: list = []
    monkeypatch.setattr(
        asyncio, "start_server", lambda *args, **kw: binds.append(args)
    )
    engine = Engine(catalog, workers=1)
    try:
        for build in (QueryServer, ServerThread):
            with pytest.raises(PlanValidationError) as excinfo:
                build(engine, {good.name: good, bad.name: bad})
            assert repr(bad.name) in str(excinfo.value)
            assert list(excinfo.value.diagnostics) == want
    finally:
        engine.shutdown(wait=True)
    assert binds == []
