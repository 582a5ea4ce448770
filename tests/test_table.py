"""Unit tests for the Table container."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.storage.column import Column
from repro.storage.table import Table


@pytest.fixture
def table():
    return Table.from_pydict(
        "t", {"a": [1, 2, 3], "b": [1.0, 2.0, 3.0], "c": ["x", "y", "x"]}
    )


def test_from_pydict_infers_types(table):
    schema = {k: v.value for k, v in table.schema().items()}
    assert schema == {"a": "int64", "b": "float64", "c": "string"}


def test_from_pydict_accepts_columns():
    t = Table.from_pydict("t", {"d": Column.from_dates(["1994-01-01"])})
    assert t.column("d").value_at(0) == "1994-01-01"


def test_from_pydict_string_dictionaries_hold_plain_str():
    """A ``U`` array and a list both give ``str`` dictionary values, and
    a list keeps the trailing NUL a fixed-width array would drop."""
    t = Table.from_pydict(
        "t", {"u": np.array(["b", "a", "b"]), "l": ["a", "a\x00", "b"]}
    )
    for name in ("u", "l"):
        assert {type(v) for v in t.column(name).dictionary} == {str}, name
    assert t.column("u").to_pylist() == ["b", "a", "b"]
    assert t.column("l").to_pylist() == ["a", "a\x00", "b"]


def test_ragged_columns_rejected():
    with pytest.raises(SchemaError):
        Table.from_pydict("t", {"a": [1], "b": [1, 2]})


def test_num_rows_and_names(table):
    assert table.num_rows == 3
    assert len(table) == 3
    assert table.column_names == ["a", "b", "c"]
    assert "a" in table and "z" not in table


def test_missing_column_error_mentions_candidates(table):
    with pytest.raises(SchemaError, match="no column 'z'"):
        table.column("z")


def test_take_and_filter(table):
    assert table.take(np.array([2, 0])).column("a").to_pylist() == [3, 1]
    filtered = table.filter(np.array([False, True, False]))
    assert filtered.to_rows() == [(2, 2.0, "y")]


def test_select_projects_in_order(table):
    assert table.select(["c", "a"]).column_names == ["c", "a"]


def test_prefixed(table):
    pre = table.prefixed("t1")
    assert pre.column_names == ["t1.a", "t1.b", "t1.c"]


def test_prefixed_requalifies(table):
    double = table.prefixed("t1").prefixed("t2")
    assert double.column_names == ["t2.a", "t2.b", "t2.c"]


def test_head(table):
    assert table.head(2).num_rows == 2
    assert table.head(10).num_rows == 3


def test_to_rows(table):
    assert table.to_rows()[0] == (1, 1.0, "x")


def test_format_renders(table):
    text = table.format()
    assert "a" in text and "x" in text


def test_format_truncates():
    t = Table.from_pydict("t", {"a": list(range(100))})
    assert "(100 rows)" in t.format(max_rows=5)


def test_empty_table():
    t = Table("empty", {})
    assert t.num_rows == 0
    assert t.to_rows() == []
