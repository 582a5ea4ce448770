"""Unit tests for the Column vector type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.storage.column import Column, DType


def test_from_ints():
    col = Column.from_ints([1, 2, 3])
    assert col.dtype is DType.INT64
    assert col.to_pylist() == [1, 2, 3]


def test_from_floats():
    col = Column.from_floats([1.5, 2.5])
    assert col.dtype is DType.FLOAT64
    assert col.to_pylist() == [1.5, 2.5]


def test_from_bools():
    col = Column.from_bools([True, False])
    assert col.dtype is DType.BOOL
    assert col.to_pylist() == [True, False]


def test_from_strings_dictionary_encodes():
    col = Column.from_strings(["b", "a", "b", "c"])
    assert col.dtype is DType.STRING
    assert len(col.dictionary) == 3
    assert col.to_pylist() == ["b", "a", "b", "c"]


def test_from_codes():
    col = Column.from_codes(np.array([0, 1, 0]), np.array(["x", "y"], dtype=object))
    assert col.to_pylist() == ["x", "y", "x"]


@settings(max_examples=200, deadline=None)
@given(
    pool=st.lists(st.sampled_from(["", "a", "b", "B", "ab", "é", "z\x00"]), min_size=1),
    data=st.data(),
)
def test_from_pool_is_from_strings_of_the_decoded_rows(pool, data):
    """Repeated, unsorted and unused pool entries, no rows at all: the
    column is byte-identical to uniquing the decoded rows."""
    codes = np.asarray(
        data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=30)), dtype=np.int64
    )
    got = Column.from_pool(codes, pool)
    want = Column.from_strings([pool[c] for c in codes])
    assert got.data.dtype == want.data.dtype == np.int32
    assert got.data.tobytes() == want.data.tobytes()
    assert got.dictionary.dtype == want.dictionary.dtype == object
    assert got.dictionary.tolist() == want.dictionary.tolist()
    assert got.valid is None


def test_from_dates_strings_and_days():
    col = Column.from_dates(["1994-01-01", "1994-01-02"])
    assert col.dtype is DType.DATE
    assert col.data[1] - col.data[0] == 1
    same = Column.from_dates(col.data)
    assert same.to_pylist() == ["1994-01-01", "1994-01-02"]


def test_string_requires_dictionary():
    with pytest.raises(SchemaError):
        Column(np.array([0], dtype=np.int32), DType.STRING)


def test_non_string_rejects_dictionary():
    with pytest.raises(SchemaError):
        Column(
            np.array([0]), DType.INT64, dictionary=np.array(["x"], dtype=object)
        )


def test_take_and_filter():
    col = Column.from_ints([10, 20, 30, 40])
    assert col.take(np.array([3, 0])).to_pylist() == [40, 10]
    assert col.filter(np.array([True, False, True, False])).to_pylist() == [10, 30]


def test_take_preserves_dictionary():
    col = Column.from_strings(["a", "b", "a"])
    taken = col.take(np.array([2, 1]))
    assert taken.to_pylist() == ["a", "b"]


def test_take_nullable_introduces_nulls():
    col = Column.from_ints([10, 20, 30])
    out = col.take_nullable(np.array([1, -1, 2]))
    assert out.to_pylist() == [20, None, 30]
    assert out.null_count() == 1


def test_take_nullable_all_valid_has_no_mask():
    col = Column.from_ints([1, 2])
    out = col.take_nullable(np.array([0, 1]))
    assert out.valid is None


def test_value_at_with_nulls():
    col = Column.from_ints([5, 6]).take_nullable(np.array([0, -1]))
    assert col.value_at(0) == 5
    assert col.value_at(1) is None


def test_value_at_date():
    col = Column.from_dates(["1994-05-05"])
    assert col.value_at(0) == "1994-05-05"


def test_compact_dictionary():
    col = Column.from_strings(["a", "b", "c"]).filter(
        np.array([True, False, True])
    )
    compact = col.compact_dictionary()
    assert len(compact.dictionary) == 2
    assert compact.to_pylist() == ["a", "c"]


def test_equals_logical():
    a = Column.from_strings(["x", "y"])
    b = Column.from_strings(["x", "y", "y"]).take(np.array([0, 1]))
    assert a.equals(b)


def test_equals_detects_difference():
    assert not Column.from_ints([1, 2]).equals(Column.from_ints([1, 3]))
    assert not Column.from_ints([1]).equals(Column.from_floats([1.0]))


def test_equals_float_tolerance():
    a = Column.from_floats([0.1 + 0.2])
    b = Column.from_floats([0.3])
    assert a.equals(b)


def test_validity_mask_shape_checked():
    with pytest.raises(SchemaError):
        Column(np.array([1, 2]), DType.INT64, valid=np.array([True]))


def test_to_values_strings():
    col = Column.from_strings(["p", "q", "p"])
    assert list(col.to_values()) == ["p", "q", "p"]
