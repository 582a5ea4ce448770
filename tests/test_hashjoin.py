"""Unit/property tests for the vectorized equi-join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.hashjoin import BuildIndex, hash_join, join_indices
from repro.errors import ExecutionError
from repro.expr.nodes import col, lit
from repro.storage.column import Column, DType
from repro.storage.table import Table
from repro.storage.view import TableView

small_keys = st.lists(
    st.integers(min_value=0, max_value=8), min_size=0, max_size=30
)


def _t(name, **cols):
    return Table.from_pydict(name, cols)


# ----------------------------------------------------------------------
# join_indices kernel
# ----------------------------------------------------------------------
def test_join_indices_basic():
    probe = np.array([1, 2, 3], dtype=np.int64)
    build = np.array([2, 2, 4], dtype=np.int64)
    pi, bi, counts = join_indices(probe, build)
    assert counts.tolist() == [0, 2, 0]
    assert pi.tolist() == [1, 1]
    assert sorted(bi.tolist()) == [0, 1]


def test_join_indices_empty_sides():
    e = np.empty(0, dtype=np.int64)
    k = np.array([1], dtype=np.int64)
    for probe, build in ((e, k), (k, e), (e, e)):
        pi, bi, counts = join_indices(probe, build)
        assert len(pi) == 0 and len(bi) == 0
        assert len(counts) == len(probe)


@settings(max_examples=60, deadline=None)
@given(small_keys, small_keys)
def test_join_indices_matches_nested_loop(probe_list, build_list):
    probe = np.asarray(probe_list, dtype=np.int64)
    build = np.asarray(build_list, dtype=np.int64)
    pi, bi, counts = join_indices(probe, build)
    got = sorted(zip(pi.tolist(), bi.tolist()))
    expected = sorted(
        (i, j)
        for i, p in enumerate(probe_list)
        for j, b in enumerate(build_list)
        if p == b
    )
    assert got == expected
    for i, p in enumerate(probe_list):
        assert counts[i] == build_list.count(p)


# ----------------------------------------------------------------------
# hash_join operator
# ----------------------------------------------------------------------
def test_inner_join_merges_columns():
    probe = _t("p", k=[1, 2, 2], a=[10, 20, 21])
    build = _t("b", k2=[2, 3], c=[200, 300])
    out, stat = hash_join(probe, build, ["k"], ["k2"])
    assert sorted(out.to_rows()) == [(2, 20, 2, 200), (2, 21, 2, 200)]
    assert stat.ht_rows == 2 and stat.pr_rows == 3 and stat.out_rows == 2


def test_inner_join_duplicates_both_sides():
    probe = _t("p", k=[1, 1])
    build = _t("b", k2=[1, 1, 1])
    out, _ = hash_join(probe, build, ["k"], ["k2"])
    assert out.num_rows == 6


def test_left_join_null_extends():
    probe = _t("p", k=[1, 2], a=[10, 20])
    build = _t("b", k2=[2], c=[200])
    out, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    rows = sorted(out.to_rows(), key=lambda r: r[0])
    assert rows == [(1, 10, None, None), (2, 20, 2, 200)]


def test_semi_join_keeps_probe_columns_once():
    probe = _t("p", k=[1, 2, 3], a=[10, 20, 30])
    build = _t("b", k2=[2, 2, 3])
    out, _ = hash_join(probe, build, ["k"], ["k2"], how="semi")
    assert sorted(out.to_rows()) == [(2, 20), (3, 30)]
    assert out.column_names == ["k", "a"]


def test_anti_join():
    probe = _t("p", k=[1, 2, 3])
    build = _t("b", k2=[2])
    out, _ = hash_join(probe, build, ["k"], ["k2"], how="anti")
    assert sorted(r[0] for r in out.to_rows()) == [1, 3]


def test_anti_join_empty_build_keeps_all():
    probe = _t("p", k=[1, 2])
    build = _t("b", k2=np.empty(0, dtype=np.int64))
    out, _ = hash_join(probe, build, ["k"], ["k2"], how="anti")
    assert out.num_rows == 2


def test_multi_key_join():
    probe = _t("p", k1=[1, 1, 2], k2=[5, 6, 5])
    build = _t("b", j1=[1, 2], j2=[6, 5], v=[100, 200])
    out, _ = hash_join(probe, build, ["k1", "k2"], ["j1", "j2"])
    assert sorted((r[0], r[1], r[4]) for r in out.to_rows()) == [
        (1, 6, 100),
        (2, 5, 200),
    ]


def test_residual_inner():
    probe = _t("p", k=[1, 1], a=[5, 15])
    build = _t("b", k2=[1], c=[10])
    out, _ = hash_join(
        probe, build, ["k"], ["k2"], residual=col("a").gt(col("c"))
    )
    assert out.to_rows() == [(1, 15, 1, 10)]


def test_residual_semi_semantics():
    # A probe row whose only matches fail the residual is NOT a match.
    probe = _t("p", k=[1, 2], a=[5, 50])
    build = _t("b", k2=[1, 2], c=[10, 10])
    out, _ = hash_join(
        probe, build, ["k"], ["k2"], how="semi", residual=col("a").gt(col("c"))
    )
    assert out.to_rows() == [(2, 50)]


def test_residual_anti_semantics():
    probe = _t("p", k=[1, 2], a=[5, 50])
    build = _t("b", k2=[1, 2], c=[10, 10])
    out, _ = hash_join(
        probe, build, ["k"], ["k2"], how="anti", residual=col("a").gt(col("c"))
    )
    assert out.to_rows() == [(1, 5)]


def test_residual_left_semantics():
    # Failing the ON-clause residual null-extends rather than dropping.
    probe = _t("p", k=[1], a=[5])
    build = _t("b", k2=[1], c=[10])
    out, _ = hash_join(
        probe, build, ["k"], ["k2"], how="left", residual=col("a").gt(col("c"))
    )
    assert out.to_rows() == [(1, 5, None, None)]


def test_probe_rows_restriction():
    probe = _t("p", k=[1, 2, 3], a=[10, 20, 30])
    build = _t("b", k2=[1, 2, 3])
    out, stat = hash_join(
        probe, build, ["k"], ["k2"], probe_rows=np.array([0, 2])
    )
    assert sorted(r[0] for r in out.to_rows()) == [1, 3]
    assert stat.pr_rows == 2  # PR counts only surviving probe rows


def test_probe_rows_with_semi():
    probe = _t("p", k=[1, 2, 3])
    build = _t("b", k2=[1, 2, 3])
    out, _ = hash_join(
        probe, build, ["k"], ["k2"], how="semi", probe_rows=np.array([1])
    )
    assert out.to_rows() == [(2,)]


def test_probe_rows_rejected_for_left():
    probe = _t("p", k=[1])
    build = _t("b", k2=[1])
    with pytest.raises(ExecutionError):
        hash_join(
            probe, build, ["k"], ["k2"], how="left", probe_rows=np.array([0])
        )


def test_unknown_kind_rejected():
    with pytest.raises(ExecutionError):
        hash_join(_t("p", k=[1]), _t("b", k2=[1]), ["k"], ["k2"], how="cross")


def test_duplicate_column_names_rejected():
    with pytest.raises(ExecutionError):
        hash_join(_t("p", k=[1]), _t("b", k=[1]), ["k"], ["k"])


def test_join_string_keys():
    probe = _t("p", k=["x", "y"])
    build = _t("b", k2=["y", "z"], v=[1, 2])
    out, _ = hash_join(probe, build, ["k"], ["k2"])
    assert out.to_rows() == [("y", "y", 1)]


@settings(max_examples=40, deadline=None)
@given(small_keys, small_keys)
def test_join_kinds_match_reference(probe_list, build_list):
    probe = _t("p", k=np.asarray(probe_list, dtype=np.int64))
    build = _t("b", k2=np.asarray(build_list, dtype=np.int64))
    build_set = set(build_list)
    inner, _ = hash_join(probe, build, ["k"], ["k2"])
    expected_inner = sum(build_list.count(p) for p in probe_list)
    assert inner.num_rows == expected_inner
    semi, _ = hash_join(probe, build, ["k"], ["k2"], how="semi")
    assert sorted(r[0] for r in semi.to_rows()) == sorted(
        p for p in probe_list if p in build_set
    )
    anti, _ = hash_join(probe, build, ["k"], ["k2"], how="anti")
    assert sorted(r[0] for r in anti.to_rows()) == sorted(
        p for p in probe_list if p not in build_set
    )
    left, _ = hash_join(probe, build, ["k"], ["k2"], how="left")
    assert left.num_rows == sum(
        max(1, build_list.count(p)) for p in probe_list
    )


# ----------------------------------------------------------------------
# The bucket kernel against a sort + binary-search reference
# ----------------------------------------------------------------------
_I64 = np.iinfo(np.int64)


def _sorted_reference(probe, build):
    """Stable sort of the build side, one binary search per probe key:
    the kernel this module had before the bucket join, kept as the
    reference that pins the pair order."""
    order = np.argsort(build, kind="stable")
    sorted_build = build[order]
    lo = np.searchsorted(sorted_build, probe, side="left")
    hi = np.searchsorted(sorted_build, probe, side="right")
    counts = hi - lo
    probe_idx = np.repeat(np.arange(len(probe)), counts)
    starts = np.repeat(lo, counts)
    run_offsets = np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = order[starts + (np.arange(int(counts.sum())) - run_offsets)]
    return probe_idx, build_idx, counts


def _assert_matches_reference(probe, build):
    probe = np.asarray(probe, dtype=np.int64)
    build = np.asarray(build, dtype=np.int64)
    got = join_indices(probe, build)
    for mine, reference in zip(got, _sorted_reference(probe, build)):
        assert np.array_equal(mine, reference)
    # ...and, as a set of pairs, a dict nested-loop oracle.
    rows_of = {}
    for j, key in enumerate(build.tolist()):
        rows_of.setdefault(key, []).append(j)
    oracle = {(i, j) for i, key in enumerate(probe.tolist()) for j in rows_of.get(key, ())}
    pairs = list(zip(got[0].tolist(), got[1].tolist()))
    assert len(pairs) == len(oracle) and set(pairs) == oracle
    return got


def _key_lists(elements):
    return st.lists(elements, min_size=0, max_size=40)


# Each family decides a bucket function: small ranges address the table
# directly, wide ones hash; extremes must not wrap on the way there.
_key_families = st.one_of(
    st.tuples(*[_key_lists(st.integers(0, 8))] * 2),  # duplicate-heavy
    st.tuples(*[_key_lists(st.integers(-30, 30))] * 2),  # negative
    st.tuples(*[_key_lists(st.integers(-3, 3).map(lambda v: v * 10**15))] * 2),
    st.tuples(*[_key_lists(st.integers(_I64.min, _I64.max))] * 2),
    st.tuples(*[_key_lists(st.sampled_from([_I64.min, _I64.min + 1, -1, 0, _I64.max - 1, _I64.max]))] * 2),
    st.tuples(_key_lists(st.integers(-10, 50)), _key_lists(st.integers(10, 20))),  # probe outside
    st.tuples(_key_lists(st.integers(-10**12, 10**12)), _key_lists(st.just(7))),  # all equal
)


@settings(max_examples=300, deadline=None)
@given(_key_families, st.sampled_from(["as is", "sorted", "reversed"]))
def test_join_indices_equals_sorted_reference(keys, build_order):
    probe, build = keys
    if build_order != "as is":
        build = sorted(build, reverse=build_order == "reversed")
    _assert_matches_reference(probe, build)


def test_join_indices_every_index_layout():
    rng = np.random.default_rng(3)
    unique = rng.permutation(1000)
    duplicated = rng.integers(0, 300, 1000)
    probe = rng.integers(-50, 1100, 5000)
    for spread in (1, 10**13):  # direct-address buckets, hashed buckets
        for build in (unique, np.sort(duplicated), duplicated, duplicated[::-1]):
            _assert_matches_reference(probe * spread, build * spread)
    # Hashed buckets none of which holds two rows: the slot -> row table
    # with the keys confirmed.
    _assert_matches_reference([5 * 10**17, 1, 9 * 10**17], [1, 9 * 10**17])
    # Unique and duplicate builds of the same keys agree on what matches.
    once = join_indices(probe, unique)
    twice = join_indices(probe, np.concatenate([unique, unique]))
    assert np.array_equal(twice[2], 2 * once[2])


def test_join_indices_bucket_order_by_argsort(monkeypatch):
    # Inputs too large to tag each bucket with its row in one int64
    # (beyond 2**30 rows) order the build side with a stable argsort.
    monkeypatch.setattr("repro.engine.hashjoin.PACK_LIMIT", 1)
    rng = np.random.default_rng(5)
    build, probe = rng.integers(0, 300, 1000), rng.integers(-50, 400, 3000)
    _assert_matches_reference(probe, build)
    _assert_matches_reference(probe * 10**13, build * 10**13)


def test_join_indices_extreme_spans_do_not_wrap():
    # max - min overflows int64; so does probe - min.
    build = [_I64.min, _I64.max, 0, _I64.max]
    probe = [_I64.max, -1, _I64.min, 0, 1]
    _, _, counts = _assert_matches_reference(probe, build)
    assert counts.tolist() == [2, 0, 1, 1, 0]
    # A dense build whose out-of-span probes sit 2**63 away.
    build = [_I64.max - 2, _I64.max - 1, _I64.max - 1]
    probe = [_I64.min, _I64.max - 1, 0, _I64.max, _I64.max - 3] * 3
    _assert_matches_reference(probe, build)
    _assert_matches_reference([_I64.max, 5, _I64.min], [_I64.min + 1, _I64.min] * 2)


def test_join_indices_unique_probe_key_above_all_build_keys():
    build = np.array([1, 2, 3], dtype=np.int64)
    probe = np.array([99, 3, -7], dtype=np.int64)
    pi, bi, counts = join_indices(probe, build)
    assert pi.tolist() == [1] and bi.tolist() == [2]
    assert counts.tolist() == [0, 1, 0]


@pytest.mark.parametrize("n_probe, chunks", [(20_000, 2), (40_000, 4)])
def test_chunked_probe_returns_the_serial_triple(n_probe, chunks):
    """Probing slices of the probe side against one index and
    concatenating, each slice's positions shifted by its start, gives
    the whole-probe triple byte for byte."""
    rng = np.random.default_rng(n_probe)
    probe = rng.integers(-100, 5000, n_probe)
    edges = [n_probe * i // chunks for i in range(chunks + 1)]
    for build in (rng.permutation(4000), rng.integers(0, 900, 4000)):
        for spread in (1, 10**13):
            keys = probe * spread
            serial = _assert_matches_reference(keys, build * spread)
            index = BuildIndex(build * spread, len(keys))
            parts = []
            for lo, hi in zip(edges, edges[1:]):
                probe_idx, build_idx, counts = index.probe(keys[lo:hi])
                parts.append((probe_idx + lo, build_idx, counts))
            chunked = [np.concatenate(arrays) for arrays in zip(*parts)]
            for a, b in zip(serial, chunked):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_repeated_build_side_gives_identical_results():
    build = _t("b", bk=[3, 1, 2], v=[30, 10, 20])
    probe = _t("p", pk=[2, 3], w=[200, 300])
    r1, s1 = hash_join(probe, build, ["pk"], ["bk"])
    r2, s2 = hash_join(probe, build, ["pk"], ["bk"])
    assert r1.to_rows() == r2.to_rows() == [(2, 200, 2, 20), (3, 300, 3, 30)]
    assert (s1.ht_rows, s1.pr_rows, s1.out_rows) == (s2.ht_rows, s2.pr_rows, s2.out_rows)


# ----------------------------------------------------------------------
# hash_join against a row-at-a-time oracle: composite keys, NULLs,
# residuals, probe_rows
# ----------------------------------------------------------------------
def _key_column(values, kind):
    """A key column of ``kind`` holding ``values`` (ints, None = NULL).

    A NULL carries a placeholder another row really has, so only the
    validity mask keeps it from matching.
    """
    valid = np.array([v is not None for v in values], dtype=np.bool_)
    present = [v for v in values if v is not None]
    filled = [present[0] if v is None else v for v in values] if present else [0] * len(values)
    if kind == "date":
        column = Column.from_days(np.asarray(filled, dtype=np.int64) % 20000)
    elif kind == "string":
        column = Column.from_strings([f"s{v}" for v in filled])
    elif kind == "float":
        column = Column.from_floats(np.asarray(filled, dtype=np.float64))
    else:
        column = Column.from_ints(np.asarray(filled, dtype=np.int64))
    if not valid.all():
        column = Column(column.data, column.dtype, column.dictionary, valid)
    return column


def _sides(probe_keys, build_keys, kinds):
    """Probe and build tables: key columns plus a row id and a payload."""
    def table(name, rows, payload):
        columns = {
            f"{name}k{c}": _key_column([row[c] for row in rows], kind)
            for c, kind in enumerate(kinds)
        }
        columns[f"{name}id"] = Column.from_ints(np.arange(len(rows)))
        columns[payload] = Column.from_ints(np.arange(len(rows)) % 3)
        return Table(name, columns)

    return table("p", probe_keys, "a"), table("b", build_keys, "c")


def _logical(row, kinds):
    """What a key tuple compares as (DATE keys are stored mod 20000)."""
    if any(v is None for v in row):
        return None
    return tuple(v % 20000 if kind == "date" else v for v, kind in zip(row, kinds))


def _expected(probe_keys, build_keys, kinds, how, residual, probe_rows):
    """(probe id, build id or None) rows, in the kernel's order."""
    rows = range(len(probe_keys)) if probe_rows is None else probe_rows
    out = []
    for i in range(len(probe_keys)):
        key = _logical(probe_keys[i], kinds)
        matches = [
            j for j, other in enumerate(build_keys)
            if i in rows and key is not None and key == _logical(other, kinds)
            and (not residual or i % 3 > j % 3)
        ]
        if how == "inner":
            out += [(i, j) for j in matches]
        elif how == "left":
            out += [(i, j) for j in matches] or [(i, None)]
        elif (how == "semi") == bool(matches):
            out.append((i, None))
    return out


def _check_against_oracle(probe_keys, build_keys, kinds, probe_rows=None):
    probe, build = _sides(probe_keys, build_keys, kinds)
    on = [f"pk{c}" for c in range(len(kinds))], [f"bk{c}" for c in range(len(kinds))]
    for how in ("inner", "left", "semi", "anti"):
        for residual in (None, col("a").gt(col("c"))):
            restrict = probe_rows if how in ("inner", "semi") else None
            out, stat = hash_join(
                probe, build, *on, how=how, residual=residual,
                probe_rows=None if restrict is None else np.asarray(restrict, dtype=np.intp),
            )
            got_build = (
                out.column("bid").to_pylist() if how in ("inner", "left")
                else [None] * out.num_rows
            )
            got = list(zip(out.column("pid").to_pylist(), got_build))
            want = _expected(probe_keys, build_keys, kinds, how, residual, restrict)
            assert got == want, (how, residual is not None, restrict)
            assert stat.ht_rows == len(build_keys)
            assert stat.pr_rows == (len(probe_keys) if restrict is None else len(restrict))


_nullable = st.one_of(st.none(), st.integers(0, 3))
_tuples = {
    arity: st.lists(st.tuples(*[_nullable] * arity), min_size=0, max_size=12)
    for arity in (1, 2, 3)
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("int",), ("int", "int"), ("date", "int"), ("int", "string"),
                     ("float", "int"), ("int", "date", "string")]).flatmap(
        lambda kinds: st.tuples(st.just(kinds), _tuples[len(kinds)], _tuples[len(kinds)])
    ),
    st.data(),
)
def test_hash_join_matches_row_oracle(case, data):
    kinds, probe_keys, build_keys = case
    probe_rows = data.draw(
        st.none() | st.lists(st.integers(0, max(len(probe_keys) - 1, 0)), unique=True)
        .map(sorted).filter(lambda rows: len(probe_keys) > 0 or not rows)
    )
    _check_against_oracle(probe_keys, build_keys, kinds, probe_rows)


def test_composite_keys_with_a_constant_column():
    probe_keys = [(7, 1), (7, 2), (7, 2), (7, 5)]
    build_keys = [(7, 2), (7, 3), (7, 1), (7, 2)]
    _check_against_oracle(probe_keys, build_keys, ("int", "int"))
    _check_against_oracle([(7, a, 7) for _, a in probe_keys],
                          [(7, a, 7) for _, a in build_keys], ("int", "int", "date"))


@pytest.mark.parametrize("span", [2**31 - 1, 2**31], ids=["below 2**62", "at 2**62"])
def test_composite_keys_either_side_of_the_packing_limit(span):
    # Value ranges of 2**31 and `span`: their product is just below the
    # packing limit (offset packing) or on it (the dictionary route).
    from repro.engine.factorize import PACK_LIMIT

    assert (2**31 * span >= PACK_LIMIT) == (span == 2**31)
    wide, high = 2**31 - 1, span - 1
    probe_keys = [(0, high), (wide, 0), (wide, high), (5, 5), (0, 0), (wide, None)]
    build_keys = [(wide, high), (0, high), (0, 0), (wide, high), (None, 0)]
    _check_against_oracle(probe_keys, build_keys, ("int", "int"))


def test_left_join_row_order_is_the_sorted_kernels():
    # Unmatched probe rows first, last and interleaved; duplicate matches.
    build_keys = [(4,), (2,), (4,), (9,)]
    for probe_keys in (
        [(0,), (1,), (4,), (2,)],
        [(4,), (2,), (0,), (1,)],
        [(0,), (4,), (1,), (2,), (3,), (4,), (8,)],
    ):
        probe, build = _sides(probe_keys, build_keys, ("int",))
        out, _ = hash_join(probe, build, ["pk0"], ["bk0"], how="left")
        # The parent's construction: pairs and unmatched rows
        # concatenated, then a stable sort by probe position.
        keys = lambda rows: np.array([k for (k,) in rows], dtype=np.int64)
        probe_idx, build_idx, counts = _sorted_reference(keys(probe_keys), keys(build_keys))
        unmatched = np.flatnonzero(counts == 0)
        all_probe = np.concatenate([probe_idx, unmatched])
        all_build = np.concatenate([build_idx, np.full(len(unmatched), -1)])
        order = np.argsort(all_probe, kind="stable")
        assert out.column("pid").to_pylist() == all_probe[order].tolist()
        assert out.column("bid").to_pylist() == [
            None if j < 0 else j for j in all_build[order].tolist()
        ]


def test_float_zero_and_negative_zero_join():
    probe = _t("p", pk=np.array([0.0, 1.5, -0.0]))
    build = _t("b", bk=np.array([-0.0, 1.5]))
    inner, _ = hash_join(probe, build, ["pk"], ["bk"])
    assert inner.num_rows == 3
    semi, _ = hash_join(probe, build, ["pk"], ["bk"], how="semi")
    assert semi.num_rows == 3
    anti, _ = hash_join(probe, build, ["pk"], ["bk"], how="anti")
    assert anti.num_rows == 0


# ----------------------------------------------------------------------
# NULL join-key semantics
# ----------------------------------------------------------------------
def _left_then_inner(how_second="inner"):
    """a LEFT b, then join the null-extended b.y against c.y."""
    a = _t("a", x=[1, 2, 3])
    b = _t("b", x=[1], y=[10])
    c = _t("c", y=[0, 10])
    ab, _ = hash_join(
        a.prefixed("a"), b.prefixed("b"), ["a.x"], ["b.x"], how="left"
    )
    return hash_join(
        ab, c.prefixed("c"), ["b.y"], ["c.y"], how=how_second
    )[0]


def test_null_extended_keys_never_match_inner():
    # Rows a.x=2,3 carry b.y=NULL (physically row 0's value 10 under a
    # False validity mask); they must not match c.y=10.
    out = _left_then_inner("inner")
    assert out.column("a.x").to_pylist() == [1]
    assert out.column("c.y").to_pylist() == [10]


def test_null_extended_keys_never_match_semi():
    out = _left_then_inner("semi")
    assert out.column("a.x").to_pylist() == [1]


def test_null_extended_keys_kept_by_anti():
    # SQL NOT EXISTS: a NULL key has no match, so anti keeps the row.
    out = _left_then_inner("anti")
    assert out.column("a.x").to_pylist() == [2, 3]


def test_null_extended_keys_null_extend_again_on_left():
    out = _left_then_inner("left")
    assert out.column("a.x").to_pylist() == [1, 2, 3]
    assert out.column("c.y").to_pylist() == [10, None, None]


def test_null_build_keys_never_match():
    # Null keys on the build side must not match probe values either.
    a = _t("a", x=[1, 2])
    b = _t("b", x=[2], y=[7])
    ab, _ = hash_join(
        a.prefixed("a"), b.prefixed("b"), ["a.x"], ["b.x"], how="left"
    )  # rows: (1, NULL[7]), (2, 7)
    probe = _t("p", y=[7]).prefixed("p")
    out, _ = hash_join(probe, ab, ["p.y"], ["b.y"])
    assert out.num_rows == 1
    assert out.column("a.x").to_pylist() == [2]


def test_null_keys_with_probe_rows_restriction():
    a = _t("a", x=[1, 2, 3])
    b = _t("b", x=[1], y=[10])
    c = _t("c", y=[10, 10])
    ab, _ = hash_join(
        a.prefixed("a"), b.prefixed("b"), ["a.x"], ["b.x"], how="left"
    )
    out, _ = hash_join(
        ab, c.prefixed("c"), ["b.y"], ["c.y"],
        probe_rows=np.array([0, 1, 2]),
    )
    assert out.column("a.x").to_pylist() == [1, 1]


def test_multi_key_null_in_any_column_blocks_match():
    a = _t("a", x=[1, 2], z=[5, 6])
    b = _t("b", x=[1], y=[10])
    ab, _ = hash_join(
        a.prefixed("a"), b.prefixed("b"), ["a.x"], ["b.x"], how="left"
    )  # row (2, 6, NULL)
    c = _t("c", z=[5, 6], y=[10, 10])
    out, _ = hash_join(ab, c.prefixed("c"), ["a.z", "b.y"], ["c.z", "c.y"])
    # Only row a.x=1 has a non-null (z, y) = (5, 10) tuple.
    assert out.column("a.x").to_pylist() == [1]


# ----------------------------------------------------------------------
# One partner per probe row: the probe side stays in place
# ----------------------------------------------------------------------
#: Spread of a key family: 1 addresses the table directly, 10**13 makes
#: the build span too wide for that, so keys are hashed and compared.
_LAYOUTS = {"dense": 1, "hashed": 10**13}


@st.composite
def _one_partner_case(draw):
    """Unique build keys, and probe keys that each have one partner,
    except in the ``lacks`` case (one has none) and the ``two`` case
    (the build side repeats one probe row's key)."""
    spread = _LAYOUTS[draw(st.sampled_from(sorted(_LAYOUTS)))]
    build = [k * spread for k in draw(st.lists(st.integers(0, 40), min_size=1, max_size=20, unique=True))]
    probe = draw(st.lists(st.sampled_from(build), min_size=1, max_size=20))
    case = draw(st.sampled_from(["one", "lacks", "two"]))
    j = draw(st.integers(0, len(probe) - 1))
    if case == "lacks":
        probe[j] = 41 * spread
    elif case == "two":
        build.insert(draw(st.integers(0, len(build))), probe[j])
    # The probe side is a view of a larger table through a selection
    # vector (or of the whole table); unselected rows carry other keys.
    selected = draw(st.booleans())
    n_base = len(probe) + (draw(st.integers(0, 5)) if selected else 0)
    rows = sorted(draw(st.permutations(range(n_base)))[: len(probe)]) if selected else None
    return case, probe, build, rows, n_base


def _probe_view(probe_keys, rows, n_base):
    keys = np.full(n_base, -7, dtype=np.int64)
    positions = np.arange(n_base) if rows is None else np.asarray(rows)
    keys[positions] = probe_keys
    base = Table("p", {"pk": Column.from_ints(keys), "pid": Column.from_ints(np.arange(n_base))})
    return TableView.over(base, rows=None if rows is None else np.asarray(rows, dtype=np.intp))


def _probe_sources_kept(out, probe):
    kept = out._sources[: len(probe._sources)]
    return all(a.table is b.table and a.rows is b.rows for a, b in zip(kept, probe._sources))


@settings(max_examples=150, deadline=None)
@given(_one_partner_case())
def test_one_partner_joins_keep_the_probe_side(case_data):
    case, probe_keys, build_keys, rows, n_base = case_data
    probe = _probe_view(probe_keys, rows, n_base)
    build = _t("b", bk=np.asarray(build_keys, dtype=np.int64), bid=np.arange(len(build_keys)))
    pids = probe.column("pid").to_pylist()
    pairs = [
        (pids[i], j) for i, key in enumerate(probe_keys)
        for j, other in enumerate(build_keys) if key == other
    ]
    matched = {i for i, key in enumerate(probe_keys) if key in build_keys}
    one_partner = case == "one"

    inner, stat = hash_join(probe, build, ["pk"], ["bk"])
    assert list(zip(inner.column("pid").to_pylist(), inner.column("bid").to_pylist())) == pairs
    assert stat.probe_kept == one_partner == _probe_sources_kept(inner, probe)
    eager, _ = hash_join(probe.materialize(), build, ["pk"], ["bk"])
    assert eager.to_rows() == inner.materialize().to_rows()

    semi, stat = hash_join(probe, build, ["pk"], ["bk"], how="semi")
    assert semi.column("pid").to_pylist() == [pids[i] for i in sorted(matched)]
    assert (semi is probe) == (len(matched) == len(pids)) == stat.probe_kept
    anti, stat = hash_join(probe, build, ["pk"], ["bk"], how="anti")
    assert anti.column("pid").to_pylist() == [
        pids[i] for i in range(len(pids)) if i not in matched
    ]
    assert (anti is probe) == (not matched) == stat.probe_kept


def test_one_partner_probe_rows_restriction():
    # BloomJoin's survivors all have one partner: the pairs are theirs.
    probe = _t("p", pk=[1, 9, 2, 3], pid=[0, 1, 2, 3])
    build = _t("b", bk=[3, 2, 1], bid=[0, 1, 2])
    out, stat = hash_join(probe, build, ["pk"], ["bk"], probe_rows=np.array([0, 2, 3]))
    assert out.to_rows() == [(1, 0, 1, 2), (2, 2, 2, 1), (3, 3, 3, 0)]
    assert stat.pr_rows == 3 and not stat.probe_kept


def test_one_partner_residual_that_drops_a_pair():
    probe = TableView.over(_t("p", pk=[1, 2, 3], a=[5, 0, 5]))
    build = _t("b", bk=[3, 2, 1], c=[1, 1, 1])
    out, stat = hash_join(probe, build, ["pk"], ["bk"], residual=col("a").gt(col("c")))
    assert out.materialize().to_rows() == [(1, 5, 1, 1), (3, 5, 3, 1)]
    assert not stat.probe_kept
    out, stat = hash_join(probe, build, ["pk"], ["bk"], residual=col("a").ge(col("c")))
    assert [r[0] for r in out.materialize().to_rows()] == [1, 3]
    kept, stat = hash_join(probe, build, ["pk"], ["bk"], residual=col("a").ge(lit(0)))
    assert kept.num_rows == 3 and stat.probe_kept and _probe_sources_kept(kept, probe)


def test_one_partner_null_keyed_probe_row():
    # Every non-NULL probe key has one partner; the NULL one has none.
    keys = Column(np.array([1, 2, 3], dtype=np.int64), DType.INT64, valid=np.array([True, False, True]))
    probe = TableView.over(Table("p", {"pk": keys, "pid": Column.from_ints([0, 1, 2])}))
    build = _t("b", bk=[3, 2, 1])
    inner, stat = hash_join(probe, build, ["pk"], ["bk"])
    assert inner.column("pid").to_pylist() == [0, 2] and not stat.probe_kept
    semi, _ = hash_join(probe, build, ["pk"], ["bk"], how="semi")
    assert semi.column("pid").to_pylist() == [0, 2]
    anti, _ = hash_join(probe, build, ["pk"], ["bk"], how="anti")
    assert anti.column("pid").to_pylist() == [1]


def test_anti_join_with_no_match_returns_the_probe():
    probe = TableView.over(_t("p", pk=[1, 2]))
    out, stat = hash_join(probe, _t("b", bk=[5]), ["pk"], ["bk"], how="anti")
    assert out is probe and stat.probe_kept


# ----------------------------------------------------------------------
# Cross join
# ----------------------------------------------------------------------
def test_cross_join_cartesian_order():
    from repro.engine.hashjoin import cross_join

    left = _t("l", a=[1, 2]).prefixed("l")
    right = _t("r", b=[10, 20, 30]).prefixed("r")
    out, stat = cross_join(left, right)
    assert out.column("l.a").to_pylist() == [1, 1, 1, 2, 2, 2]
    assert out.column("r.b").to_pylist() == [10, 20, 30, 10, 20, 30]
    assert (stat.pr_rows, stat.ht_rows, stat.out_rows) == (2, 3, 6)


def test_cross_join_empty_side():
    from repro.engine.hashjoin import cross_join

    left = _t("l", a=[1, 2]).prefixed("l")
    right = _t("r", b=np.empty(0, dtype=np.int64)).prefixed("r")
    out, _ = cross_join(left, right)
    assert out.num_rows == 0
