"""Unit and property tests for the filter substrate (hashing, Bloom,
exact filters, vectorized hash set)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilterError
from repro.filters.bloom import BloomFilter
from repro.filters.exact import ExactFilter
from repro.filters.hashing import (
    bloom_keys,
    column_to_u64,
    fnv1a_text,
    fnv1a_texts,
    hash_combine,
    splitmix64,
)
from repro.filters.hashset import VectorHashSet
from repro.filters.reference import ReferenceBloomFilter
from repro.storage.column import Column

BLOOM_IMPLS = [BloomFilter, ReferenceBloomFilter]

u64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1), min_size=0, max_size=200
).map(lambda xs: np.asarray(xs, dtype=np.uint64))


# ----------------------------------------------------------------------
# Hashing
# ----------------------------------------------------------------------
def test_splitmix64_deterministic():
    keys = np.arange(10, dtype=np.uint64)
    assert np.array_equal(splitmix64(keys), splitmix64(keys))


def test_splitmix64_distinct_on_sequential():
    keys = np.arange(10_000, dtype=np.uint64)
    assert len(np.unique(splitmix64(keys))) == 10_000


def test_hash_combine_order_sensitive():
    a = splitmix64(np.array([1], dtype=np.uint64))
    b = splitmix64(np.array([2], dtype=np.uint64))
    assert hash_combine(a, b)[0] != hash_combine(b, a)[0]


def test_fnv1a_known_values():
    # FNV-1a 64-bit of the empty string is the offset basis.
    assert fnv1a_text("") == 0xCBF29CE484222325
    assert fnv1a_text("a") != fnv1a_text("b")


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=50))
def test_fnv1a_vectorized_matches_scalar(texts):
    got = fnv1a_texts(texts)
    expected = [fnv1a_text(t) for t in texts]
    assert [int(v) for v in got] == expected


def test_fnv1a_vectorized_handles_nul_and_unicode():
    texts = ["a\x00b", "\x00", "ünïcødé", "x" * 500, ""]
    assert [int(v) for v in fnv1a_texts(texts)] == [fnv1a_text(t) for t in texts]


def test_column_to_u64_int_injective():
    col = Column.from_ints([-5, 0, 5, 2**40])
    u = column_to_u64(col)
    assert len(np.unique(u)) == 4


def test_column_to_u64_strings_stable_across_dictionaries():
    a = Column.from_strings(["x", "y"])
    b = Column.from_strings(["y", "z", "x"])
    ua, ub = column_to_u64(a), column_to_u64(b)
    assert ua[0] == ub[2]  # "x"
    assert ua[1] == ub[0]  # "y"


def test_bloom_keys_multi_column_differs_from_single():
    c1 = Column.from_ints([1, 2])
    c2 = Column.from_ints([2, 1])
    single = bloom_keys([c1])
    pair = bloom_keys([c1, c2])
    assert not np.array_equal(single, pair)
    # (1,2) and (2,1) must hash differently (order sensitivity).
    assert pair[0] != pair[1]


def test_bloom_keys_row_subset():
    c = Column.from_ints([10, 20, 30])
    sub = bloom_keys([c], rows=np.array([2, 0]))
    full = bloom_keys([c])
    assert sub[0] == full[2] and sub[1] == full[0]


def test_bloom_keys_float_zeros_hash_equal():
    # 0.0 = -0.0 in SQL: a filter built from one must not drop the other.
    signed = Column.from_floats([-0.0, 0.0, 1.5, -1.5])
    keys = bloom_keys([signed])
    assert keys[0] == keys[1] and keys[2] != keys[3]
    assert np.array_equal(bloom_keys([signed], rows=np.array([1, 0])), keys[:2])
    assert np.signbit(signed.data[0])  # the column itself is left alone
    filt = BloomFilter(capacity=4, fpp=0.01)
    filt.add_hashes(bloom_keys([Column.from_floats([0.0])]))
    assert filt.contains_hashes(bloom_keys([Column.from_floats([-0.0])])).all()
    from repro.filters.hashcache import KeyHashCache

    assert np.array_equal(KeyHashCache().bloom_keys([signed], None), keys)


# ----------------------------------------------------------------------
# Bloom filters (packed blocked production layout + byte-per-bit
# reference; both must satisfy the same contract)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_validation(impl):
    with pytest.raises(FilterError):
        impl(capacity=-1)
    with pytest.raises(FilterError):
        impl(capacity=10, fpp=1.5)


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_empty_filter_rejects_everything(impl):
    bloom = impl(capacity=100)
    keys = np.arange(50, dtype=np.uint64)
    assert not bloom.contains_keys(keys).any()


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_empty_probe(impl):
    bloom = impl.from_keys(np.arange(10, dtype=np.uint64))
    assert bloom.contains_keys(np.empty(0, dtype=np.uint64)).shape == (0,)


@settings(max_examples=50, deadline=None)
@given(u64_arrays)
def test_bloom_no_false_negatives(keys):
    for impl in BLOOM_IMPLS:
        bloom = impl.from_keys(keys)
        if len(keys):
            assert bloom.contains_keys(keys).all()


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_fpp_within_reason(impl):
    rng = np.random.default_rng(0)
    members = rng.integers(0, 2**62, size=20_000).astype(np.uint64)
    others = (rng.integers(0, 2**62, size=100_000) | (1 << 62)).astype(np.uint64)
    bloom = impl.from_keys(members, fpp=0.01)
    observed = bloom.contains_keys(others).mean()
    assert observed < 0.03  # 3x headroom over target


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_lower_fpp_means_more_bits(impl):
    tight = impl(capacity=1000, fpp=0.001)
    loose = impl(capacity=1000, fpp=0.1)
    assert tight.num_bits > loose.num_bits


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_saturation_and_estimate(impl):
    bloom = impl.from_keys(np.arange(1000, dtype=np.uint64), fpp=0.01)
    assert 0.0 < bloom.saturation() < 0.6
    # Saturation ** k estimates the false-positive rate.
    assert 0.0 <= bloom.saturation() ** bloom.num_hashes < 0.05


def test_bloom_layout_size():
    packed = BloomFilter.from_keys(np.arange(1000, dtype=np.uint64), fpp=0.01)
    reference = ReferenceBloomFilter.from_keys(np.arange(1000, dtype=np.uint64))
    assert packed.size_bytes() == packed.num_bits // 8  # packed bit array
    assert reference.size_bytes() == reference.num_bits  # byte per bit


@pytest.mark.parametrize("impl", BLOOM_IMPLS)
def test_bloom_not_exact(impl):
    assert impl(capacity=1).exact is False


# ----------------------------------------------------------------------
# Vectorized hash set
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(u64_arrays, u64_arrays)
def test_hashset_matches_python_set(members, probes):
    hs = VectorHashSet(capacity=len(members))
    hs.insert(members)
    truth = set(members.tolist())
    got = hs.contains(probes)
    expected = np.array([int(p) in truth for p in probes], dtype=bool)
    assert np.array_equal(got, expected)
    assert len(hs) == len(truth)


def test_hashset_duplicates_collapse():
    hs = VectorHashSet(capacity=4)
    hs.insert(np.array([7, 7, 7, 7], dtype=np.uint64))
    assert len(hs) == 1


def test_hashset_incremental_insert_and_growth():
    hs = VectorHashSet(capacity=2)
    for start in range(0, 1000, 100):
        hs.insert(np.arange(start, start + 100, dtype=np.uint64))
        assert len(hs) * 2 <= hs._size  # growth keeps the table at <= 50 % load
    assert len(hs) == 1000
    assert hs.contains(np.arange(1000, dtype=np.uint64)).all()
    assert not hs.contains(np.array([5000], dtype=np.uint64))[0]


def test_hashset_adversarial_same_slot():
    # Keys engineered to collide mod table size exercise probe chains.
    hs = VectorHashSet(capacity=8)
    keys = (np.arange(8, dtype=np.uint64) * np.uint64(16)) + np.uint64(3)
    hs.insert(keys)
    assert hs.contains(keys).all()


def test_hashset_rejects_negative_capacity():
    with pytest.raises(FilterError):
        VectorHashSet(capacity=-1)


# ----------------------------------------------------------------------
# Exact filter
# ----------------------------------------------------------------------
def test_exact_filter_is_exact():
    rng = np.random.default_rng(1)
    members = rng.integers(0, 10**9, size=5000).astype(np.uint64)
    probes = rng.integers(0, 10**9, size=5000).astype(np.uint64)
    filt = ExactFilter.from_keys(members)
    assert np.array_equal(filt.contains_keys(probes), np.isin(probes, members))
    assert filt.contains_keys(members).all()
    assert filt.exact is True


def test_exact_filter_incremental():
    filt = ExactFilter()
    filt.add_keys(np.array([1, 2], dtype=np.uint64))
    filt.add_keys(np.array([2, 3], dtype=np.uint64))
    assert len(filt) == 3
    got = filt.contains_keys(np.array([1, 2, 3, 4], dtype=np.uint64))
    assert got.tolist() == [True, True, True, False]


def test_exact_filter_empty():
    filt = ExactFilter()
    assert not filt.contains_keys(np.array([1], dtype=np.uint64)).any()
    assert filt.size_bytes() == 0

