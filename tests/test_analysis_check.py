"""Plan semantic analyzer tests: positive sweep + per-code negatives.

The positive half is the zero-false-positive acceptance criterion:
every query registered in the default service registry (TPC-H 1-22,
c1-c3, SSB) must validate with zero diagnostics.  The negative half is
table-driven — one malformed fixture per diagnostic code, asserting the
code, severity, and plan-path location the analyzer reports.
"""

from __future__ import annotations

import pytest

from repro.analysis import CODES, ERROR, WARNING, analyze, validate
from repro.engine.aggregate import AggSpec, GroupKey
from repro.errors import PlanError, PlanValidationError
from repro.expr.nodes import Case, Comparison, ScalarRef, col, lit
from repro.plan.query import (
    Aggregate,
    JoinEdge,
    QuerySpec,
    Relation,
    Sort,
    Stage,
    edge,
)
from repro.service.server import build_default_registry

SF = 0.003


@pytest.fixture(scope="module")
def registry():
    return build_default_registry(sf=SF, seed=42)


# ----------------------------------------------------------------------
# Positive sweep: every registered plan is clean
# ----------------------------------------------------------------------
def test_all_registered_queries_validate_clean(registry):
    catalog, specs = registry
    assert len(specs) >= 25  # TPC-H 1-22 + cyclic + SSB
    noisy = {
        name: [str(d) for d in analyze(spec, catalog)]
        for name, spec in specs.items()
        if analyze(spec, catalog)
    }
    assert noisy == {}, f"false positives on registered plans: {noisy}"


def test_validate_is_silent_on_clean_plans(registry):
    catalog, specs = registry
    for spec in specs.values():
        validate(spec, catalog)  # must not raise


# ----------------------------------------------------------------------
# Negative fixtures, one per diagnostic code
# ----------------------------------------------------------------------
def _raw_edge(**kw) -> JoinEdge:
    """Build a JoinEdge bypassing __post_init__ (frozen dataclass)."""
    e = object.__new__(JoinEdge)
    fields = dict(
        left="a", right="b", left_keys=("k",), right_keys=("k",),
        how="inner", residual=None,
    )
    fields.update(kw)
    for name, value in fields.items():
        object.__setattr__(e, name, value)
    return e


def _raw_agg(func: str, input_, name: str) -> AggSpec:
    """Build an AggSpec bypassing __post_init__ (frozen dataclass)."""
    a = object.__new__(AggSpec)
    object.__setattr__(a, "func", func)
    object.__setattr__(a, "input", input_)
    object.__setattr__(a, "name", name)
    return a


def _lineitem(predicate=None) -> Relation:
    return Relation(alias="l", table="lineitem", predicate=predicate)


def _spec(**kw) -> QuerySpec:
    fields = dict(name="fixture", relations=[_lineitem()])
    fields.update(kw)
    return QuerySpec(**fields)


def _rep101():
    return _spec(relations=[Relation(alias="x", table="no_such_table")])


def _rep102():
    spec = _spec()
    # Constructor rejects duplicates, so inject post-construction (the
    # analyzer must still catch specs mutated after validation).
    spec.relations.append(_lineitem())
    return spec


def _rep103():
    return _spec(
        relations=[_lineitem(col("nope.l_quantity").gt(lit(1)))]
    )


def _rep104():
    return _spec(relations=[_lineitem(col("l.no_such_col").gt(lit(1)))])


def _rep105():
    spec = _spec(
        relations=[
            _lineitem(),
            Relation(alias="o", table="orders"),
        ],
    )
    spec.edges.append(
        _raw_edge(
            left="l", right="o",
            left_keys=("l_orderkey",), right_keys=("o_orderkey",),
            how="cross",
        )
    )
    return spec


def _rep106():
    spec = _spec(
        relations=[_lineitem(), Relation(alias="o", table="orders")],
    )
    spec.edges.append(
        _raw_edge(
            left="l", right="o",
            left_keys=("l_orderkey", "l_partkey"),
            right_keys=("o_orderkey",),
        )
    )
    return spec


def _rep107():
    return _spec(
        relations=[_lineitem(), Relation(alias="o", table="orders")],
        edges=[edge("l", "o", ("l_orderkey", "o_orderdate"))],
    )


def _rep108():
    return _spec(
        relations=[_lineitem(col("l.l_quantity").gt(lit("high")))]
    )


def _rep109():
    return _spec(residuals=[col("l.l_quantity") & col("l.l_partkey")])


def _rep110():
    return _spec(
        post=[
            Aggregate(
                keys=(GroupKey("l.l_returnflag"),),
                aggs=(_raw_agg("median", col("l.l_quantity"), "m"),),
            )
        ]
    )


def _rep111():
    return _spec(post=[Sort(by=(("no_such_output", "asc"),))])


def _rep112():
    quantity = col("l.l_quantity")
    return _spec(
        relations=[_lineitem(quantity.gt(lit(10)) & quantity.lt(lit(5)))]
    )


def _rep113():
    bad = Comparison("===", col("l.l_quantity"), lit(1))
    return _spec(relations=[_lineitem(bad)])


def _rep114():
    return _spec(relations=[_lineitem(lit("x").like("a%"))])


def _rep115():
    pred = col("l.l_quantity").gt(ScalarRef("no_such_stage", "value"))
    return _spec(relations=[_lineitem(pred)])


def _rep116():
    spec = _spec()
    spec.join_order = ["l", "ghost"]
    return spec


NEGATIVE_FIXTURES = [
    ("REP101", _rep101, "relations[0]"),
    ("REP102", _rep102, "relations[1]"),
    ("REP103", _rep103, "relations[0].predicate.left"),
    ("REP104", _rep104, "relations[0].predicate.left"),
    ("REP105", _rep105, "edges[0]"),
    ("REP106", _rep106, "edges[0]"),
    ("REP107", _rep107, "edges[0].left_keys[0]"),
    ("REP108", _rep108, "relations[0].predicate"),
    ("REP109", _rep109, "residuals[0].left"),
    ("REP110", _rep110, "post[0].aggs[0]"),
    ("REP111", _rep111, "post[0].by[0]"),
    ("REP112", _rep112, "relations[0].predicate"),
    ("REP113", _rep113, "relations[0].predicate"),
    ("REP114", _rep114, "relations[0].predicate"),
    ("REP115", _rep115, "relations[0].predicate.right"),
    ("REP116", _rep116, "join_order"),
]


def test_every_code_has_a_negative_fixture():
    assert {code for code, _, _ in NEGATIVE_FIXTURES} == set(CODES)


@pytest.mark.parametrize(
    "code,builder,path",
    NEGATIVE_FIXTURES,
    ids=[code for code, _, _ in NEGATIVE_FIXTURES],
)
def test_negative_fixture(registry, code, builder, path):
    catalog, _ = registry
    diags = analyze(builder(), catalog)
    matching = [d for d in diags if d.code == code]
    assert matching, f"expected {code}, got {[str(d) for d in diags]}"
    d = matching[0]
    assert d.path == path, f"{code} at {d.path!r}, expected {path!r}"
    expected_severity = WARNING if code == "REP112" else ERROR
    assert d.severity == expected_severity
    assert d.message
    payload = d.as_dict()
    assert payload["code"] == code
    assert payload["severity"] == expected_severity
    assert payload["path"] == path


def test_warnings_do_not_fail_validation(registry):
    catalog, _ = registry
    spec = _rep112()
    diags = analyze(spec, catalog)
    assert [d.code for d in diags] == ["REP112"]
    validate(spec, catalog)  # warning-only: must not raise


def test_validate_raises_with_structured_diagnostics(registry):
    catalog, _ = registry
    with pytest.raises(PlanValidationError) as excinfo:
        validate(_rep104(), catalog)
    err = excinfo.value
    assert err.diagnostics
    assert err.diagnostics[0].code == "REP104"
    assert "REP104" in str(err)


def test_analyzer_reports_all_problems_not_just_first(registry):
    catalog, _ = registry
    spec = _spec(
        relations=[
            Relation(alias="x", table="no_such_table"),
            _lineitem(col("l.ghost").gt(lit(1))),
        ]
    )
    codes = {d.code for d in analyze(spec, catalog)}
    assert {"REP101", "REP104"} <= codes


def test_opaque_alias_suppresses_cascade(registry):
    catalog, _ = registry
    # The unknown table fires REP101 once; references through its alias
    # must not pile on REP104s.
    spec = _spec(
        relations=[Relation(alias="x", table="no_such_table")],
        residuals=[col("x.anything").gt(lit(1))],
    )
    codes = [d.code for d in analyze(spec, catalog)]
    assert codes == ["REP101"]


def test_pre_stage_output_schema_is_visible(registry):
    catalog, _ = registry
    inner = QuerySpec(
        name="inner",
        relations=[_lineitem()],
        post=[
            Aggregate(
                keys=(),
                aggs=(AggSpec("avg", col("l.l_quantity"), "avg_qty"),),
            )
        ],
    )
    outer = QuerySpec(
        name="outer",
        relations=[_lineitem(
            col("l.l_quantity").gt(ScalarRef("inner_out", "avg_qty"))
        )],
        pre_stages=[Stage(spec=inner, output="inner_out")],
    )
    assert analyze(outer, catalog) == []
    # And a typo in the stage-output column is caught (REP115).
    bad = QuerySpec(
        name="outer-bad",
        relations=[_lineitem(
            col("l.l_quantity").gt(ScalarRef("inner_out", "ghost"))
        )],
        pre_stages=[Stage(spec=inner, output="inner_out")],
    )
    assert [d.code for d in analyze(bad, catalog)] == ["REP115"]


def test_pre_stage_diagnostics_carry_stage_path(registry):
    catalog, _ = registry
    inner = _spec(name="inner")
    inner.relations[0] = Relation(
        alias="l", table="lineitem",
        predicate=col("l.ghost").gt(lit(1)),
    )
    outer = QuerySpec(
        name="outer",
        relations=[Relation(alias="d", table="inner_out")],
        pre_stages=[Stage(spec=inner, output="inner_out")],
    )
    diags = analyze(outer, catalog)
    assert [d.code for d in diags] == ["REP104"]
    assert diags[0].path == (
        "pre_stages[0].spec.relations[0].predicate.left"
    )


# ----------------------------------------------------------------------
# Static/runtime parity: same code, both planes
# ----------------------------------------------------------------------
def test_rep113_matches_runtime_error(registry):
    catalog, _ = registry
    from repro.expr.eval import evaluate_mask

    static_codes = [d.code for d in analyze(_rep113(), catalog)]
    assert "REP113" in static_codes
    # The raw table carries unqualified column names; the analyzer sees
    # the same operator through the alias-qualified fixture above.
    bad = Comparison("===", col("l_quantity"), lit(1))
    table = catalog.get("lineitem")
    with pytest.raises(PlanError, match="REP113"):
        evaluate_mask(bad, table)


def test_case_type_checking(registry):
    catalog, _ = registry
    good = _spec(post=[
        Aggregate(
            keys=(GroupKey("l.l_returnflag"),),
            aggs=(
                AggSpec(
                    "sum",
                    Case(
                        ((col("l.l_quantity").gt(lit(10)), lit(1)),),
                        lit(0),
                    ),
                    "big",
                ),
            ),
        )
    ])
    assert analyze(good, catalog) == []
    bad = _spec(post=[
        Aggregate(
            keys=(),
            aggs=(
                AggSpec(
                    "sum",
                    Case(
                        ((col("l.l_quantity").gt(lit(10)), lit("yes")),),
                        lit(0),
                    ),
                    "big",
                ),
            ),
        )
    ])
    assert "REP108" in {d.code for d in analyze(bad, catalog)}
