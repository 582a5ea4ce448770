"""Unit tests for expression evaluation."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.expr.eval import evaluate, evaluate_mask, like_to_regex
from repro.expr.nodes import (
    ScalarRef,
    all_of,
    any_of,
    case,
    col,
    date,
    lit,
    substr,
    year,
)
from repro.storage.column import Column
from repro.storage.table import Table


@pytest.fixture
def table():
    return Table.from_pydict(
        "t",
        {
            "i": [1, 2, 3, 4],
            "f": [1.0, 2.5, -3.0, 0.0],
            "s": ["apple", "banana", "apricot", "cherry"],
            "d": Column.from_dates(
                ["1994-01-01", "1994-06-15", "1995-01-01", "1993-12-31"]
            ),
        },
    )


# -- comparisons -------------------------------------------------------
def test_int_comparisons(table):
    assert evaluate_mask(col("i").gt(lit(2)), table).tolist() == [
        False, False, True, True,
    ]
    assert evaluate_mask(col("i").le(lit(2)), table).tolist() == [
        True, True, False, False,
    ]
    assert evaluate_mask(col("i").eq(lit(3)), table).tolist() == [
        False, False, True, False,
    ]
    assert evaluate_mask(col("i").ne(lit(3)), table).tolist() == [
        True, True, False, True,
    ]


def test_scalar_on_left_flips(table):
    # lit < col  ==  col > lit
    assert evaluate_mask(lit(2).lt(col("i")), table).tolist() == [
        False, False, True, True,
    ]


def test_string_equality_via_dictionary(table):
    assert evaluate_mask(col("s").eq(lit("banana")), table).tolist() == [
        False, True, False, False,
    ]


def test_string_equality_absent_value(table):
    assert not evaluate_mask(col("s").eq(lit("zzz")), table).any()


def test_string_ordering(table):
    mask = evaluate_mask(col("s").lt(lit("b")), table)
    assert mask.tolist() == [True, False, True, False]


def test_date_comparison_with_date_literal(table):
    mask = evaluate_mask(col("d").ge(date("1994-06-15")), table)
    assert mask.tolist() == [False, True, True, False]


def test_date_comparison_with_string_literal(table):
    mask = evaluate_mask(col("d").lt(lit("1994-01-02")), table)
    assert mask.tolist() == [True, False, False, True]


def test_column_column_comparison():
    t = Table.from_pydict("t", {"a": [1, 5, 3], "b": [2, 4, 3]})
    assert evaluate_mask(col("a").lt(col("b")), t).tolist() == [True, False, False]
    assert evaluate_mask(col("a").eq(col("b")), t).tolist() == [False, False, True]


def test_comparison_between_literals_rejected(table):
    with pytest.raises(ExecutionError):
        evaluate_mask(lit(1).lt(lit(2)), table)


# -- between / in / like ----------------------------------------------
def test_between_inclusive(table):
    mask = evaluate_mask(col("i").between(lit(2), lit(3)), table)
    assert mask.tolist() == [False, True, True, False]


def test_isin_ints(table):
    mask = evaluate_mask(col("i").isin((1, 4, 9)), table)
    assert mask.tolist() == [True, False, False, True]


def test_isin_strings(table):
    mask = evaluate_mask(col("s").isin(("apple", "cherry")), table)
    assert mask.tolist() == [True, False, False, True]


def test_isin_dates(table):
    mask = evaluate_mask(col("d").isin(("1994-01-01",)), table)
    assert mask.tolist() == [True, False, False, False]


def test_like_prefix(table):
    mask = evaluate_mask(col("s").like("ap%"), table)
    assert mask.tolist() == [True, False, True, False]


def test_like_contains(table):
    mask = evaluate_mask(col("s").like("%an%"), table)
    assert mask.tolist() == [False, True, False, False]


def test_like_underscore(table):
    mask = evaluate_mask(col("s").like("_pple"), table)
    assert mask.tolist() == [True, False, False, False]


def test_not_like(table):
    mask = evaluate_mask(col("s").not_like("ap%"), table)
    assert mask.tolist() == [False, True, False, True]


def test_like_escapes_regex_metachars():
    t = Table.from_pydict("t", {"s": ["a.b", "axb"]})
    mask = evaluate_mask(col("s").like("a.b"), t)
    assert mask.tolist() == [True, False]


def test_like_to_regex_anchored():
    assert like_to_regex("abc").match("abcd") is None
    assert like_to_regex("abc%").match("abcd") is not None


# -- boolean connectives ----------------------------------------------
def test_and_or_not(table):
    both = evaluate_mask(col("i").gt(lit(1)) & col("i").lt(lit(4)), table)
    assert both.tolist() == [False, True, True, False]
    either = evaluate_mask(col("i").eq(lit(1)) | col("i").eq(lit(4)), table)
    assert either.tolist() == [True, False, False, True]
    negated = evaluate_mask(~col("i").gt(lit(2)), table)
    assert negated.tolist() == [True, True, False, False]


def test_all_of_any_of(table):
    folded = evaluate_mask(
        all_of(col("i").gt(lit(0)), col("i").lt(lit(3)), col("f").ge(lit(0.0))),
        table,
    )
    assert folded.tolist() == [True, True, False, False]
    disj = evaluate_mask(
        any_of(col("i").eq(lit(1)), col("i").eq(lit(2))), table
    )
    assert disj.tolist() == [True, True, False, False]


# -- arithmetic / case / year / substr ---------------------------------
def test_arithmetic(table):
    vals = evaluate(col("i") * lit(2) + lit(1), table)
    assert vals.to_pylist() == [3, 5, 7, 9]


def test_division_is_float(table):
    vals = evaluate(col("i") / lit(2), table)
    assert vals.to_pylist() == [0.5, 1.0, 1.5, 2.0]


def test_literal_folding(table):
    vals = evaluate(col("f") * (lit(2.0) * lit(3.0)), table)
    assert vals.to_pylist() == [6.0, 15.0, -18.0, 0.0]


def test_case(table):
    expr = case([(col("i").gt(lit(2)), lit(1.0))], lit(0.0))
    assert evaluate(expr, table).to_pylist() == [0.0, 0.0, 1.0, 1.0]


def test_case_multiple_branches(table):
    expr = case(
        [
            (col("i").eq(lit(1)), lit(10)),
            (col("i").eq(lit(2)), lit(20)),
        ],
        lit(0),
    )
    assert evaluate(expr, table).to_pylist() == [10, 20, 0, 0]


def test_year(table):
    vals = evaluate(year(col("d")), table)
    assert vals.to_pylist() == [1994, 1994, 1995, 1993]


def test_year_requires_date(table):
    with pytest.raises(ExecutionError):
        evaluate(year(col("i")), table)


def test_substr(table):
    vals = evaluate(substr(col("s"), 1, 2), table)
    assert vals.to_pylist() == ["ap", "ba", "ap", "ch"]


def test_substr_then_isin(table):
    mask = evaluate_mask(substr(col("s"), 1, 2).isin(("ap",)), table)
    assert mask.tolist() == [True, False, True, False]


def test_strings_keep_trailing_nuls():
    # NumPy's U dtype drops trailing NULs, so "a" and "a\x00" must never
    # be compared through it.
    t = Table.from_pydict(
        "t",
        {
            "s": Column.from_strings(["a", "a\x00", "b"]),
            "r": Column.from_strings(["a\x00", "a\x00", "a\x00"]),
            "x": Column.from_strings(["xa", "xa\x00", "xb"]),
        },
    )
    assert evaluate_mask(col("s").eq(lit("a")), t).tolist() == [True, False, False]
    assert evaluate_mask(col("s").lt(lit("a\x00")), t).tolist() == [True, False, False]
    assert evaluate_mask(col("s").eq(col("r")), t).tolist() == [False, True, False]
    assert evaluate(substr(col("x"), 2, 2), t).to_pylist() == ["a", "a\x00", "b"]


def test_string_literal_broadcast():
    t = Table.from_pydict("t", {"i": [1, 2, 3]})
    column = evaluate(lit("a\x00"), t)
    assert column.data.tolist() == [0, 0, 0]
    assert column.dictionary.tolist() == ["a\x00"]
    empty = evaluate(lit("a"), Table.from_pydict("t", {"i": []}))
    assert len(empty) == 0 and len(empty.dictionary) == 0


# -- nulls --------------------------------------------------------------
def test_null_comparison_is_false():
    c = Column.from_ints([1, 2]).take_nullable(np.array([0, -1]))
    t = Table("t", {"a": c})
    assert evaluate_mask(col("a").ge(lit(0)), t).tolist() == [True, False]


def test_is_null_and_not_null():
    c = Column.from_ints([1, 2]).take_nullable(np.array([-1, 1]))
    t = Table("t", {"a": c})
    assert evaluate_mask(col("a").is_null(), t).tolist() == [True, False]
    assert evaluate_mask(col("a").is_not_null(), t).tolist() == [False, True]


# -- misc ----------------------------------------------------------------
def test_columns_collects_references(table):
    expr = (col("i").gt(lit(1))) & (col("s").like("a%"))
    assert expr.columns() == {"i", "s"}


def test_unresolved_scalar_ref_fails(table):
    with pytest.raises(ExecutionError):
        evaluate_mask(col("i").gt(ScalarRef("x", "y")), table)


def test_predicate_must_be_boolean(table):
    with pytest.raises(ExecutionError):
        evaluate_mask(col("i") + lit(1), table)
