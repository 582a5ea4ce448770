"""Unit tests for sort / top-k / limit."""

import numpy as np

from repro.engine.hashjoin import hash_join
from repro.engine.sort import limit, sort_table, top_k
from repro.storage.column import Column, DType
from repro.storage.table import Table


def _t(**cols):
    return Table.from_pydict("t", cols)


def test_single_key_asc():
    t = _t(a=[3, 1, 2])
    assert [r[0] for r in sort_table(t, [("a", "asc")]).to_rows()] == [1, 2, 3]


def test_single_key_desc():
    t = _t(a=[3, 1, 2])
    assert [r[0] for r in sort_table(t, [("a", "desc")]).to_rows()] == [3, 2, 1]


def test_multi_key_priority():
    t = _t(a=[1, 1, 2], b=[2.0, 1.0, 0.0])
    rows = sort_table(t, [("a", "asc"), ("b", "desc")]).to_rows()
    assert rows == [(1, 2.0), (1, 1.0), (2, 0.0)]


def test_sort_is_stable():
    t = _t(a=[1, 1, 1], tag=[10, 20, 30])
    rows = sort_table(t, [("a", "asc")]).to_rows()
    assert [r[1] for r in rows] == [10, 20, 30]


def test_sort_unsorted_pool_in_python_order():
    # A from_codes pool is kept in its own order and may repeat an
    # entry: rows sort by string (Python order, NULs kept), and equal
    # strings under different codes tie and fall through to the next key.
    s = Column.from_codes(
        np.array([0, 1, 2, 0, 1], dtype=np.int32), ["a\x00", "a", "a\x00"]
    )
    t = Table("t", {"s": s, "i": Column.from_ints([1, 2, 3, 4, 5])})
    rows = sort_table(t, [("s", "asc"), ("i", "desc")]).to_rows()
    assert rows == [("a", 5), ("a", 2), ("a\x00", 4), ("a\x00", 3), ("a\x00", 1)]


def test_sort_strings_lexicographic():
    t = _t(s=["pear", "apple", "fig"])
    rows = sort_table(t, [("s", "asc")]).to_rows()
    assert [r[0] for r in rows] == ["apple", "fig", "pear"]


def test_sort_strings_after_code_surgery():
    # A dictionary whose codes are NOT in lexicographic order.
    col = Column.from_codes(
        np.array([0, 1, 2], dtype=np.int32),
        np.array(["zebra", "apple", "mango"], dtype=object),
    )
    t = Table("t", {"s": col})
    rows = sort_table(t, [("s", "asc")]).to_rows()
    assert [r[0] for r in rows] == ["apple", "mango", "zebra"]


def test_sort_dates():
    t = _t(d=Column.from_dates(["1995-01-01", "1993-06-01", "1994-01-01"]))
    rows = sort_table(t, [("d", "asc")]).to_rows()
    assert [r[0] for r in rows] == ["1993-06-01", "1994-01-01", "1995-01-01"]


def test_nulls_sort_last_both_directions():
    probe = _t(k=[1, 2])
    build = Table.from_pydict("b", {"k2": [1], "v": [5]})
    joined, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    for direction in ("asc", "desc"):
        rows = sort_table(joined, [("v", direction)]).to_rows()
        assert rows[-1][2] is None


def test_top_k():
    t = _t(a=[5, 3, 9, 1])
    assert [r[0] for r in top_k(t, [("a", "desc")], 2).to_rows()] == [9, 5]


def test_limit():
    t = _t(a=[5, 3, 9])
    assert limit(t, 2).num_rows == 2
    assert limit(t, 10).num_rows == 3


def test_sort_empty_table():
    t = _t(a=np.empty(0, dtype=np.int64))
    assert sort_table(t, [("a", "asc")]).num_rows == 0


def test_sort_no_keys_is_identity():
    t = _t(a=[2, 1])
    assert sort_table(t, []).to_rows() == [(2,), (1,)]


def test_int64_keys_beyond_float_precision():
    # 2**53 + 1 is not a float64: a float sort key ties it with 2**53.
    base = 2**53
    t = _t(a=[base + 1, base, base + 3, base + 2], tag=[1, 0, 3, 2])
    for direction, want in (("asc", [0, 1, 2, 3]), ("desc", [3, 2, 1, 0])):
        rows = sort_table(t, [("a", direction)]).to_rows()
        assert [r[1] for r in rows] == want


def test_descending_int64_extremes():
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    t = _t(a=np.array([0, lo, hi, -1], dtype=np.int64))
    rows = sort_table(t, [("a", "desc")]).to_rows()
    assert [r[0] for r in rows] == [hi, 0, -1, lo]


def test_null_rows_tie_and_fall_through_to_the_next_key():
    # The slots under the NULLs hold 9 and 1: they must not order them.
    v = Column(
        np.array([9, 4, 1, 6], dtype=np.int64),
        DType.INT64,
        valid=np.array([False, True, False, True]),
    )
    t = Table("t", {"v": v, "tag": Column.from_ints([0, 1, 2, 3])})
    for direction, want in (("asc", [1, 3, 2, 0]), ("desc", [3, 1, 2, 0])):
        rows = sort_table(t, [("v", direction), ("tag", "desc")]).to_rows()
        assert [r[1] for r in rows] == want


def test_bool_and_date_keys_descending():
    t = _t(
        b=[True, False, True],
        d=Column.from_dates(["1995-01-01", "1993-06-01", "1994-01-01"]),
    )
    rows = sort_table(t, [("b", "desc"), ("d", "desc")]).to_rows()
    assert rows == [
        (True, "1995-01-01"),
        (True, "1994-01-01"),
        (False, "1993-06-01"),
    ]
