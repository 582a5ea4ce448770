"""Unit tests for sort / top-k / limit."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hashjoin import hash_join
from repro.engine.sort import limit, sort_table
from repro.engine.stats import QueryStats
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
    assert [r[0] for r in sort_table(t, [("a", "desc")], 2).to_rows()] == [9, 5]


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


# ----------------------------------------------------------------------
# ORDER BY ... LIMIT k: sort_table(t, by, k) == sort_table(t, by).head(k)
# ----------------------------------------------------------------------
_BIG = 2**53


def _int_values(draw, n):
    # Above 2**53, where float64 would tie neighbours, with ties.
    return [_BIG + draw(st.integers(-3, 3)) for _ in range(n)]


def _column(draw, kind, n):
    """A column of ``kind`` with ``n`` rows, NULLs drawn in."""
    if kind == "int":
        column = Column.from_ints(_int_values(draw, n))
    elif kind == "float":
        nan = float("nan")  # often enough to be the k-th value
        pool = st.sampled_from([0.0, -0.0, 1.5, -2.5, nan, nan, nan, 1e300])
        column = Column.from_floats([draw(pool) for _ in range(n)])
    elif kind == "string":
        column = Column.from_strings([draw(st.sampled_from("abcd")) for _ in range(n)])
    elif kind == "pool":
        # Unsorted, with a repeated entry under two codes.
        pool = np.array(["m", "b", "z", "b", "a\x00"], dtype=object)
        column = Column.from_codes(
            np.array([draw(st.integers(0, len(pool) - 1)) for _ in range(n)]), pool
        )
    elif kind == "date":
        column = Column.from_days(np.array([draw(st.integers(9000, 9003)) for _ in range(n)]))
    else:
        column = Column.from_bools([draw(st.booleans()) for _ in range(n)])
    if draw(st.booleans()):
        valid = np.array([draw(st.booleans()) for _ in range(n)], dtype=np.bool_)
        column = Column(column.data, column.dtype, column.dictionary, valid)
    return column


_KINDS = ("int", "float", "string", "pool", "date", "bool")


@st.composite
def _sort_cases(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=3))
    columns = {f"c{i}": _column(draw, kind, n) for i, kind in enumerate(kinds)}
    columns["rid"] = Column.from_ints(np.arange(n))
    by = [(f"c{i}", draw(st.sampled_from(["asc", "desc"]))) for i in range(len(kinds))]
    k = draw(st.sampled_from([0, 1, n - 1, n, n + 5]).filter(lambda k: k >= 0))
    return Table("t", columns), by, k


@settings(max_examples=300, deadline=None)
@given(_sort_cases())
def test_top_k_equals_sort_then_head(case):
    table, by, k = case
    # Compared by row id: NaN != NaN would fail a comparison of values.
    got = sort_table(table, by, k).column("rid").to_pylist()
    assert got == sort_table(table, by).head(k).column("rid").to_pylist()


def test_top_k_with_a_nan_or_null_at_the_kth_place():
    nan = float("nan")
    floats = Column.from_floats([nan, 2.0, nan, -0.0, 0.0, nan])
    nulls = Column(floats.data, DType.FLOAT64, valid=np.array([1, 1, 0, 1, 0, 1], dtype=bool))
    for column in (floats, nulls):
        t = Table("t", {"a": column, "rid": Column.from_ints(np.arange(6))})
        for direction in ("asc", "desc"):
            for k in range(7):
                by = [("a", direction)]
                got = sort_table(t, by, k).column("rid").to_pylist()
                assert got == sort_table(t, by).head(k).column("rid").to_pylist()


def test_top_k_sorts_only_its_candidates():
    rng = np.random.default_rng(0)
    t = Table("t", {"a": Column.from_ints(rng.permutation(100_000))})
    stats = QueryStats()
    top = sort_table(t, [("a", "desc")], 10, stats)
    assert top.column("a").to_pylist() == list(range(99_999, 99_989, -1))
    assert stats.rows_sorted == 10
    sort_table(t, [("a", "desc")], None, stats)
    assert stats.rows_sorted == 10 + 100_000
