"""Unit tests for grouped and scalar aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import aggregate, factorize
from repro.engine.aggregate import AggSpec, GroupKey, distinct, group_aggregate
from repro.engine.factorize import DIRECT_ADDRESS_SLOTS_PER_ROW, group_rows
from repro.engine.hashjoin import hash_join
from repro.errors import ExecutionError
from repro.expr.nodes import col, lit
from repro.storage.column import Column, DType
from repro.storage.table import Table


@pytest.fixture
def table():
    return Table.from_pydict(
        "t",
        {
            "g": ["a", "b", "a", "b", "a"],
            "h": [1, 1, 2, 1, 1],
            "v": [10.0, 20.0, 30.0, 40.0, 50.0],
            "i": [1, 2, 3, 4, 5],
        },
    )


def _rows(table):
    return sorted(table.to_rows())


def test_sum_by_group(table):
    out = group_aggregate(
        table, [GroupKey("g")], [AggSpec("sum", col("v"), "total")]
    )
    assert _rows(out) == [("a", 90.0), ("b", 60.0)]


def test_count_star(table):
    out = group_aggregate(
        table, [GroupKey("g")], [AggSpec("count_star", None, "n")]
    )
    assert _rows(out) == [("a", 3), ("b", 2)]


def test_min_max_avg(table):
    out = group_aggregate(
        table,
        [GroupKey("g")],
        [
            AggSpec("min", col("v"), "lo"),
            AggSpec("max", col("v"), "hi"),
            AggSpec("avg", col("v"), "mean"),
        ],
    )
    assert _rows(out) == [("a", 10.0, 50.0, 30.0), ("b", 20.0, 40.0, 30.0)]


def test_count_distinct(table):
    out = group_aggregate(
        table, [GroupKey("g")], [AggSpec("count_distinct", col("h"), "nd")]
    )
    assert _rows(out) == [("a", 2), ("b", 1)]


def test_multi_key_grouping(table):
    out = group_aggregate(
        table,
        [GroupKey("g"), GroupKey("h")],
        [AggSpec("count_star", None, "n")],
    )
    assert _rows(out) == [("a", 1, 2), ("a", 2, 1), ("b", 1, 2)]


def test_expression_key(table):
    out = group_aggregate(
        table,
        [GroupKey("par", col("i") * lit(0) + col("h"))],
        [AggSpec("sum", col("v"), "s")],
    )
    assert _rows(out) == [(1, 120.0), (2, 30.0)]


def test_expression_agg_input(table):
    out = group_aggregate(
        table, [], [AggSpec("sum", col("v") * lit(2.0), "s")]
    )
    assert out.to_rows() == [(300.0,)]


def test_scalar_aggregate_single_row(table):
    out = group_aggregate(
        table, [], [AggSpec("count_star", None, "n"), AggSpec("sum", col("v"), "s")]
    )
    assert out.to_rows() == [(5, 150.0)]


def test_scalar_aggregate_on_empty_input():
    empty = Table.from_pydict("t", {"v": np.empty(0, dtype=np.float64)})
    out = group_aggregate(
        empty, [], [AggSpec("count_star", None, "n"), AggSpec("sum", col("v"), "s")]
    )
    assert out.to_rows() == [(0, 0.0)]


def test_grouped_aggregate_on_empty_input():
    empty = Table.from_pydict(
        "t", {"g": np.empty(0, dtype=np.int64), "v": np.empty(0, dtype=np.float64)}
    )
    out = group_aggregate(
        empty, [GroupKey("g")], [AggSpec("sum", col("v"), "s")]
    )
    assert out.num_rows == 0


def test_nulls_excluded_from_aggregates():
    # Build nulls via a left join, then aggregate the null-extended side.
    probe = Table.from_pydict("p", {"k": [1, 2, 3]})
    build = Table.from_pydict("b", {"k2": [1, 1], "v": [10.0, 20.0]})
    joined, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    out = group_aggregate(
        joined,
        [GroupKey("k")],
        [
            AggSpec("count", col("v"), "n"),
            AggSpec("sum", col("v"), "s"),
            AggSpec("count_star", None, "all_rows"),
        ],
    )
    assert _rows(out) == [(1, 2, 30.0, 2), (2, 0, 0.0, 1), (3, 0, 0.0, 1)]


def test_count_distinct_ignores_nulls():
    probe = Table.from_pydict("p", {"k": [1, 2]})
    build = Table.from_pydict("b", {"k2": [1], "v": [7]})
    joined, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    out = group_aggregate(
        joined, [], [AggSpec("count_distinct", col("v"), "nd")]
    )
    assert out.to_rows() == [(1,)]


def test_distinct(table):
    out = distinct(table, ["g", "h"])
    assert _rows(out) == [("a", 1), ("a", 2), ("b", 1)]


def test_bad_agg_func_rejected():
    with pytest.raises(ExecutionError):
        AggSpec("median", col("v"), "m")


def test_agg_requires_input():
    with pytest.raises(ExecutionError):
        AggSpec("sum", None, "s")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=-100, max_value=100),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_group_sum_matches_reference(pairs):
    t = Table.from_pydict(
        "t", {"g": [p[0] for p in pairs], "v": [float(p[1]) for p in pairs]}
    )
    out = group_aggregate(t, [GroupKey("g")], [AggSpec("sum", col("v"), "s")])
    expected = {}
    for g, v in pairs:
        expected[g] = expected.get(g, 0.0) + v
    got = {r[0]: r[1] for r in out.to_rows()}
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == pytest.approx(expected[key])


# ----------------------------------------------------------------------
# NULL group keys
# ----------------------------------------------------------------------
def test_null_group_keys_form_one_group_sorted_last():
    # The data slot under a NULL (0 and 5 here) must not merge it with
    # the real 0 and 5.
    k = Column(
        np.array([0, 0, 5, 5, 7], dtype=np.int64),
        DType.INT64,
        valid=np.array([True, False, True, False, True]),
    )
    out = group_aggregate(
        Table("t", {"k": k}), [GroupKey("k")], [AggSpec("count_star", None, "n")]
    )
    assert out.to_rows() == [(0, 1), (5, 1), (7, 1), (None, 2)]


def test_null_group_keys_after_left_join():
    probe = Table.from_pydict("p", {"k": [1, 2, 3, 4]})
    build = Table.from_pydict("b", {"k2": [1, 3], "tag": [0, 9]})
    joined, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    out = group_aggregate(
        joined, [GroupKey("tag")], [AggSpec("count_star", None, "n")]
    )
    # Unmatched rows carry a canonical 0 under their NULL ``tag``.
    assert out.to_rows() == [(0, 1), (9, 1), (None, 2)]


def test_aggregate_input_evaluated_once_per_expression(table, monkeypatch):
    calls = []

    def counting(expr, tbl):
        calls.append(expr)
        return evaluate(expr, tbl)

    evaluate = aggregate.evaluate
    monkeypatch.setattr(aggregate, "evaluate", counting)
    price = col("v") * (lit(1.0) - col("h"))
    out = group_aggregate(
        table,
        [],
        [
            AggSpec("sum", price, "s"),
            AggSpec("avg", price, "a"),
            AggSpec("max", col("v") * (lit(1) - col("h")), "m"),
            AggSpec("count", col("v"), "n"),
        ],
    )
    # ``lit(1)`` and ``lit(1.0)`` compare equal but are two expressions.
    assert len(calls) == 3
    assert out.to_rows() == [(-30.0, -6.0, 0.0, 5)]


# ----------------------------------------------------------------------
# The grouping kernel against a dict oracle
# ----------------------------------------------------------------------
_FLOAT_POOL = [float("nan"), -0.0, 0.0, 1.5, -2.25, float("inf"), float("-inf"), 1e300]
_OFFSETS = [0, 1, -7, 10**12, -(2**40), -(2**62), 2**62, -(2**63)]


def _null_mask(draw, n):
    if n == 0 or not draw(st.booleans()):
        return None
    return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


def _span(draw, n):
    """Key spans around every bound the kernel branches on."""
    edge = DIRECT_ADDRESS_SLOTS_PER_ROW * n
    spans = [1, 2, 3, 7, edge - 1, edge, edge + 1, edge + 2, 1000]
    spans += [2**20, 2**40, 2**61, 2**62 - 1, 2**62, 2**62 + 1, 2**63]
    return draw(st.sampled_from([s for s in spans if s >= 1]))


def _spread_ints(draw, n, span):
    """``n`` integers in ``[0, span)`` from a small pool holding both ends."""
    pool = draw(st.lists(st.integers(0, span - 1), min_size=1, max_size=5))
    pool += [0, span - 1]
    return [draw(st.sampled_from(pool)) for _ in range(n)]


def _sort_key(value):
    """Ascending order with NaN after every number and NULL last."""
    if value is None:
        return (2,)
    if isinstance(value, float) and value != value:
        return (1,)
    return (0, value)


@st.composite
def _key_column(draw, n, earlier):
    """One key column: ``(Column, per-row sort keys)``."""
    kind = draw(
        st.sampled_from(["int", "int", "date", "bool", "float", "string", "dependent"])
    )
    valid = _null_mask(draw, n)
    if kind == "dependent" and earlier:
        # A function of the group so far, as INT64 or FLOAT64.
        groups = sorted(set(zip(*earlier)))
        values = [groups.index(row) * 3 % 5 for row in zip(*earlier)]
        if draw(st.booleans()):
            column = Column.from_floats(np.array(values, dtype=np.float64))
        else:
            column = Column.from_ints(np.array(values, dtype=np.int64) - 2)
        ordered = [float(v) for v in column.data]
        valid = None
    elif kind == "int" or kind == "dependent":
        span = _span(draw, n)
        offset = draw(
            st.sampled_from([o for o in _OFFSETS if o + span - 1 < 2**63])
        )
        ordered = [offset + v for v in _spread_ints(draw, n, span)]
        column = Column.from_ints(np.array(ordered, dtype=np.int64))
    elif kind == "date":
        span = min(_span(draw, n), 2**20)
        ordered = [v + draw(st.sampled_from([0, 8000])) for v in
                   _spread_ints(draw, n, span)]
        column = Column.from_days(np.array(ordered, dtype=np.int32))
    elif kind == "bool":
        ordered = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        column = Column.from_bools(np.array(ordered, dtype=np.bool_))
    elif kind == "float":
        ordered = [draw(st.sampled_from(_FLOAT_POOL)) for _ in range(n)]
        column = Column.from_floats(np.array(ordered, dtype=np.float64))
    else:
        # A dictionary far larger than the codes in use (what a filter
        # leaves behind); code order is the group order.
        size = min(_span(draw, n), 300)
        ordered = _spread_ints(draw, n, size)
        column = Column.from_codes(
            np.array(ordered, dtype=np.int32),
            np.array([f"s{i:05d}" for i in range(size)], dtype=object),
        )
    if valid is not None:
        column = Column(column.data, column.dtype, column.dictionary, valid)
        ordered = [v if ok else None for v, ok in zip(ordered, valid)]
    return column, [_sort_key(v) for v in ordered]


@st.composite
def _grouping_case(draw):
    n = draw(st.integers(0, 24))
    columns, sort_keys = [], []
    for _ in range(draw(st.integers(1, 4))):
        column, keys = draw(_key_column(n, sort_keys))
        columns.append(column)
        sort_keys.append(keys)
    v = [float(draw(st.integers(-9, 9))) for _ in range(n)]
    w = _spread_ints(draw, n, _span(draw, n))
    table = {f"k{i}": column for i, column in enumerate(columns)}
    table["v"] = Column(
        np.array(v, dtype=np.float64), DType.FLOAT64, valid=_null_mask(draw, n)
    )
    table["w"] = Column(
        np.array(w, dtype=np.int64) - 2**62, DType.INT64, valid=_null_mask(draw, n)
    )
    return Table("t", table), len(columns), sort_keys


_ALL_AGGS = [
    AggSpec("count_star", None, "n"),
    AggSpec("count", col("v"), "cnt"),
    AggSpec("sum", col("v"), "sum"),
    AggSpec("avg", col("v"), "avg"),
    AggSpec("min", col("v"), "min"),
    AggSpec("max", col("v"), "max"),
    AggSpec("count_distinct", col("w"), "nd"),
]


def _shown(rows):
    """Rows with floats as text: ``nan == nan`` and ``-0.0 != 0.0``."""
    return [
        tuple(repr(x) if isinstance(x, float) else x for x in row) for row in rows
    ]


@settings(max_examples=300, deadline=None)
@given(_grouping_case())
def test_group_aggregate_matches_dict_oracle(case):
    table, n_keys, sort_keys = case
    names = [f"k{i}" for i in range(n_keys)]
    out = group_aggregate(table, [GroupKey(name) for name in names], _ALL_AGGS)

    groups: dict[tuple, list[int]] = {}
    for row, key in enumerate(zip(*sort_keys)):
        groups.setdefault(key, []).append(row)
    shown = [table.column(name).to_pylist() for name in names]
    v, w = table.column("v").to_pylist(), table.column("w").to_pylist()
    expected = []
    for key in sorted(groups):
        rows = groups[key]
        vs = [v[r] for r in rows if v[r] is not None]
        expected.append(
            tuple(column[rows[0]] for column in shown)  # first occurrence
            + (
                len(rows),
                len(vs),
                float(sum(vs)),
                sum(vs) / len(vs) if vs else float("nan"),
                min(vs, default=float("inf")),
                max(vs, default=float("-inf")),
                len({w[r] for r in rows if w[r] is not None}),
            )
        )
    assert _shown(out.to_rows()) == _shown(expected)
    assert _shown(distinct(table, names).to_rows()) == _shown(
        out.select(names).to_rows()
    )


def test_direct_address_and_sort_paths_build_identical_tables():
    """One grouping, its keys written four ways that land on either side
    of the direct-address bound: as they are (direct-address tables),
    spread out (row-tagged sort), spread beyond any row tag
    (``np.unique``) and as floats (``np.unique``).  Group ids, first
    rows and every aggregate must not depend on the path."""
    rng = np.random.default_rng(7)
    n = 400
    a, b = rng.integers(0, 40, n), rng.integers(0, 9, n)
    bound = DIRECT_ADDRESS_SLOTS_PER_ROW * n
    spread, wide = 1_000_003, 2**56
    assert a.max() * b.max() < bound < spread
    assert (wide << n.bit_length()) > 2**63
    writings = {
        "direct": (a, b),
        "offset": (a - 2**40, b + 10**15),
        "spread": (a * spread, b * spread),
        "wide": (a * wide, b * wide),
        "float": (a.astype(np.float64), b / 4.0),
    }
    values = {
        "v": rng.integers(-50, 50, n).astype(np.float64) / 8.0,
        "w": rng.integers(0, 5, n) * spread,
    }

    def grouped(ka, kb):
        table = Table.from_pydict("t", {"a": ka, "b": kb, **values})
        gid, first = group_rows([table.column("a"), table.column("b")], n)
        out = group_aggregate(table, [GroupKey("a"), GroupKey("b")], _ALL_AGGS)
        return gid, first, out

    want_gid, want_first, want = grouped(a, b)
    assert 200 < len(want_first) < n  # groups of one row and of several
    for name, (ka, kb) in writings.items():
        gid, first, got = grouped(ka, kb)
        assert np.array_equal(gid, want_gid), name
        assert np.array_equal(first, want_first), name
        assert got.column("a").data.tobytes() == ka[want_first].tobytes(), name
        assert got.column("b").data.tobytes() == kb[want_first].tobytes(), name
        for agg in _ALL_AGGS:
            assert (
                got.column(agg.name).data.tobytes()
                == want.column(agg.name).data.tobytes()
            ), (name, agg.name)


# ----------------------------------------------------------------------
# The run path: keys that arrive non-decreasing
# ----------------------------------------------------------------------
_NULL = 4  # drawn as a value, it sorts after every other one


@st.composite
def _sorted_case(draw):
    """Two key columns whose (a, b) pairs mostly arrive sorted, NULL
    last in each, with ties; sometimes the last row drops."""
    n = draw(st.integers(1, 40))
    pairs = sorted(
        draw(
            st.lists(
                st.tuples(st.integers(0, _NULL), st.integers(-2, _NULL)),
                min_size=n,
                max_size=n,
            )
        )
    )
    if n > 1 and draw(st.booleans()):
        pairs[-1] = (pairs[-1][0] - 1, pairs[-1][1])  # a drop at the last row
    columns = []
    for values in zip(*pairs):
        valid = np.array([v != _NULL for v in values])
        data = np.array([0 if v == _NULL else v for v in values], dtype=np.int64)
        columns.append(
            Column(data, DType.INT64, valid=None if valid.all() else valid)
        )
    return columns, pairs


@settings(max_examples=300, deadline=None)
@given(_sorted_case())
def test_run_path_equals_densify_and_a_dict_reference(case):
    columns, pairs = case
    n = len(pairs)
    gid, first = group_rows(columns, n)

    order = sorted(set(pairs))
    want_gid = [order.index(p) for p in pairs]
    want_first = [pairs.index(p) for p in order]
    assert gid.tolist() == want_gid
    assert first.tolist() == want_first

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factorize, "_non_decreasing", lambda packed: False)
        dense_gid, dense_first = group_rows(columns, n)
    assert np.array_equal(gid, dense_gid) and gid.dtype == dense_gid.dtype
    assert np.array_equal(first, dense_first)


def test_run_path_checks_every_row_past_the_sample():
    keys = np.repeat(np.arange(1025, dtype=np.int64), 2)  # 2 050 rows
    assert factorize._non_decreasing(keys)
    gid, first = factorize._runs(keys)
    assert np.array_equal(gid, keys) and np.array_equal(first, np.arange(0, 2050, 2))
    # The 1 024-row sample strides over the last row, and the endpoints
    # still ascend: only the full compare pass sees the drop.
    keys[-1] = keys[-2] - 1
    assert keys[:: len(keys) >> 10][-1] != keys[-1] and keys[-1] > keys[0]
    assert not factorize._non_decreasing(keys)
    assert not factorize._non_decreasing(np.array([3, 1, 2]))
    assert factorize._non_decreasing(np.array([7]))
    gid, first = factorize._runs(np.array([7]))
    assert gid.tolist() == [0] and first.tolist() == [0]
