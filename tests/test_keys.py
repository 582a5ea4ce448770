"""Unit/property tests for exact join-key normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.keys import normalize_join_keys, single_key_i64
from repro.errors import ExecutionError
from repro.storage.column import Column


def test_single_int_key_identity_like():
    left = Column.from_ints([1, 2, 3])
    right = Column.from_ints([3, 4])
    lk, rk = normalize_join_keys([left], [right])
    assert (lk[2] == rk[0]) and (lk[0] != rk[0])


def test_single_key_negative_ints():
    left = Column.from_ints([-1, 0])
    right = Column.from_ints([0, -1])
    lk, rk = normalize_join_keys([left], [right])
    assert lk[0] == rk[1] and lk[1] == rk[0]


def test_float_keys_exact():
    left = Column.from_floats([1.5, 2.5])
    right = Column.from_floats([2.5])
    lk, rk = normalize_join_keys([left], [right])
    assert lk[1] == rk[0] and lk[0] != rk[0]


def test_string_keys_cross_dictionary():
    left = Column.from_strings(["a", "b", "c"])
    right = Column.from_strings(["c", "a"])
    lk, rk = normalize_join_keys([left], [right])
    assert lk[0] == rk[1]
    assert lk[2] == rk[0]
    assert lk[1] not in (rk[0], rk[1])


def test_arity_mismatch_rejected():
    c = Column.from_ints([1])
    with pytest.raises(ExecutionError):
        normalize_join_keys([c, c], [c])


def test_zero_keys_rejected():
    with pytest.raises(ExecutionError):
        normalize_join_keys([], [])


def test_multi_key_packing_exact():
    left = Column.from_ints([1, 1, 2]), Column.from_ints([10, 20, 10])
    right = Column.from_ints([1, 2]), Column.from_ints([20, 10])
    lk, rk = normalize_join_keys(list(left), list(right))
    # (1,20) matches; (1,10) and (2,10) match only their exact pairs.
    assert lk[1] == rk[0]
    assert lk[2] == rk[1]
    assert lk[0] != rk[0] and lk[0] != rk[1]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=1000),
            st.integers(min_value=-1000, max_value=1000),
        ),
        min_size=1,
        max_size=50,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-1000, max_value=1000),
            st.integers(min_value=-1000, max_value=1000),
        ),
        min_size=1,
        max_size=50,
    ),
)
def test_multi_key_equivalence_property(left_pairs, right_pairs):
    """Packed keys are equal exactly when the logical tuples are equal."""
    la = Column.from_ints([p[0] for p in left_pairs])
    lb = Column.from_ints([p[1] for p in left_pairs])
    ra = Column.from_ints([p[0] for p in right_pairs])
    rb = Column.from_ints([p[1] for p in right_pairs])
    lk, rk = normalize_join_keys([la, lb], [ra, rb])
    for i, lp in enumerate(left_pairs):
        for j, rp in enumerate(right_pairs):
            assert (lk[i] == rk[j]) == (lp == rp)


def test_wide_spans_take_the_dictionary_route():
    # Two columns spread over 2**62 each: the span product overflows,
    # the 100 x 100 distinct values pack as dense codes instead.
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2**62, size=100)
    b = rng.integers(0, 2**62, size=100)
    la, lb, rb = Column.from_ints(a), Column.from_ints(b), Column.from_ints(b[::-1])
    lk, rk = normalize_join_keys([la, lb], [la, rb])
    assert np.array_equal(lk[:, None] == rk[None, :],
                          (a[:, None] == a[None, :]) & (b[:, None] == b[::-1][None, :]))
    assert 0 <= lk.min() and lk.max() < 200 * 200


def test_huge_cardinality_falls_back_to_hashing():
    # Eight wide columns of 256 distinct values each: neither the spans
    # nor the cardinalities (256**8 = 2**64) fit, so the codes are
    # hash-combined; equal tuples still get equal keys, others differ.
    rng = np.random.default_rng(1)
    values = [rng.integers(0, 256, size=300) << 50 for _ in range(8)]
    values[0][:256] = np.arange(256) << 50
    left = [Column.from_ints(v) for v in values]
    right = [Column.from_ints(v[::-1]) for v in values]
    lk, rk = normalize_join_keys(left, right)
    assert np.array_equal(lk, rk[::-1])
    tuples = set(zip(*(v.tolist() for v in values)))
    assert len(np.unique(lk)) == len(tuples)


def test_packing_negative_and_three_columns():
    rng = np.random.default_rng(2)
    cols = [rng.integers(-5, 5, 60), rng.integers(-10**9, 10**9, 60) // 10**8, rng.integers(0, 3, 60)]
    left = [Column.from_ints(c[:40]) for c in cols]
    right = [Column.from_ints(c[20:]) for c in cols]
    lk, rk = normalize_join_keys(left, right)
    rows = list(zip(*(c.tolist() for c in cols)))
    for i, lrow in enumerate(rows[:40]):
        for j, rrow in enumerate(rows[20:]):
            assert (lk[i] == rk[j]) == (lrow == rrow)


def test_packing_with_an_empty_side():
    empty = Column.from_ints(np.empty(0, dtype=np.int64))
    some = Column.from_ints([3, 4])
    lk, rk = normalize_join_keys([empty, empty], [some, some])
    assert len(lk) == 0 and rk[0] != rk[1]
    lk, rk = normalize_join_keys([empty, empty], [empty, empty])
    assert len(lk) == len(rk) == 0


def test_single_key_i64_strings():
    col = Column.from_strings(["x", "x", "y"])
    keys = single_key_i64(col)
    assert keys[0] == keys[1] != keys[2]
