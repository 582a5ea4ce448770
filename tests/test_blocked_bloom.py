"""Property tests for the packed register-blocked Bloom filter.

The blocked :class:`~repro.filters.bloom.BloomFilter` is checked
against the byte-per-bit
:class:`~repro.filters.reference.ReferenceBloomFilter` on three
contract points: zero false negatives on random ``uint64`` keys, a
measured false-positive rate within 2× of the configured target, and a
memory footprint ≈ 1/8 of the byte-per-bit layout at equal
capacity/fpp (≥ 4× smaller after block rounding and the blocked-layout
sizing pad).
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import bloom as bloom_module
from repro.filters.bloom import BloomFilter
from repro.filters.hashcache import KeyHashCache
from repro.filters.hashing import bloom_keys, mix64
from repro.filters.reference import ReferenceBloomFilter
from repro.storage.column import Column

u64_arrays = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=0, max_size=300
).map(lambda xs: np.asarray(xs, dtype=np.uint64))


@settings(max_examples=100, deadline=None)
@given(u64_arrays)
def test_no_false_negatives_vs_reference(keys):
    """Everything the reference filter must accept, the blocked filter
    must accept too (both are fed the same keys)."""
    blocked = BloomFilter.from_keys(keys)
    reference = ReferenceBloomFilter.from_keys(keys)
    if len(keys):
        assert blocked.contains_keys(keys).all()
        assert reference.contains_keys(keys).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), u64_arrays)
def test_hash_entry_points_agree(seed, extra):
    """``add_hashes``/``contains_hashes`` with precomputed mixed hashes
    must behave exactly like the key-based entry points."""
    rng = np.random.default_rng(seed)
    keys = np.concatenate(
        [rng.integers(0, 2**63, 50).astype(np.uint64), extra]
    )
    probes = rng.integers(0, 2**63, 200).astype(np.uint64)
    via_keys = BloomFilter(capacity=len(keys))
    via_keys.add_keys(keys)
    via_hashes = BloomFilter(capacity=len(keys))
    via_hashes.add_hashes(mix64(keys))
    assert np.array_equal(
        via_keys.contains_keys(probes),
        via_hashes.contains_hashes(mix64(probes)),
    )


@pytest.mark.parametrize("fpp", [0.05, 0.01, 0.001])
def test_measured_fpp_within_2x_of_target(fpp):
    rng = np.random.default_rng(7)
    members = rng.integers(0, 2**62, size=40_000).astype(np.uint64)
    # Disjoint probe population: high bit set.
    others = (rng.integers(0, 2**62, size=200_000) | (1 << 62)).astype(np.uint64)
    blocked = BloomFilter.from_keys(members, fpp=fpp)
    assert blocked.contains_keys(others).mean() < 2.0 * fpp


@pytest.mark.parametrize("capacity", [1_000, 50_000])
def test_size_bytes_about_one_eighth_of_reference(capacity):
    blocked = BloomFilter(capacity=capacity, fpp=0.01)
    reference = ReferenceBloomFilter(capacity=capacity, fpp=0.01)
    ratio = reference.size_bytes() / blocked.size_bytes()
    # Packed bits are 8x denser; the blocked sizing pad (1.25x) and
    # 512-bit block rounding give back a little.
    assert ratio >= 4.0
    assert ratio <= 8.5


def test_probe_touches_one_cache_line():
    """Every key's probe mask targets a single 64-bit word, and the
    word index stays inside the filter (register-blocked layout)."""
    bloom = BloomFilter(capacity=10_000, fpp=0.01)
    hashes = mix64(np.arange(100_000, dtype=np.uint64))
    idx = bloom._word_index(hashes)
    assert idx.min() >= 0
    assert idx.max() < bloom.num_blocks * 8


def test_saturation_tracks_inserts():
    bloom = BloomFilter(capacity=10_000, fpp=0.01)
    assert bloom.saturation() == 0.0
    bloom.add_keys(np.arange(10_000, dtype=np.uint64))
    assert 0.15 < bloom.saturation() < 0.6
    assert bloom.bits_set() == int(
        sum(bin(int(w)).count("1") for w in bloom._words)
    )


# ----------------------------------------------------------------------
# KeyHashCache
# ----------------------------------------------------------------------
def test_hashcache_matches_uncached_bloom_keys():
    a = Column.from_ints([5, 6, 7, 8])
    b = Column.from_strings(["x", "y", "x", "z"])
    cache = KeyHashCache()
    rows = np.array([2, 0, 3])
    for cols in ([a], [a, b], [b]):
        assert np.array_equal(cache.bloom_keys(cols), bloom_keys(cols))
        assert np.array_equal(cache.bloom_keys(cols, rows), bloom_keys(cols, rows))


def test_hashcache_keys_serve_as_bloom_hashes():
    """A filter built from cached keys must accept every inserted row
    when probed with the same cached keys (the transfer wiring)."""
    col = Column.from_ints(list(range(1000)))
    cache = KeyHashCache()
    bloom = BloomFilter(capacity=1000)
    bloom.add_hashes(cache.bloom_keys([col]))
    rows = np.array([3, 997, 41, 0])
    assert bloom.contains_hashes(cache.bloom_keys([col], rows)).all()


@pytest.mark.parametrize(
    "column",
    [
        Column.from_days(np.arange(9000, 9100)),
        Column.from_strings([f"name-{i % 37}" for i in range(100)]),
        Column.from_bools(np.arange(100) % 3 == 0),
    ],
    ids=["date", "string", "bool"],
)
def test_row_subsets_and_slices_hash_like_the_full_column(column):
    """Keys are normalized after the gather: hashing a row subset or a
    slice gives exactly the full-column hashes at those rows."""
    other = Column.from_ints(np.arange(100) * 7)
    subset = np.array([3, 4, 50, 98, 99])
    for columns in ([column], [other, column]):
        full = bloom_keys(columns)
        for hasher in (bloom_keys, KeyHashCache().bloom_keys):
            assert np.array_equal(hasher(columns, subset), full[subset])
            assert np.array_equal(hasher(columns, slice(10, 60)), full[10:60])
            assert len(hasher(columns, subset[:0])) == 0


def test_hashcache_hashes_a_string_dictionary_once(monkeypatch):
    import repro.filters.hashcache as hc

    calls = {"n": 0}
    real = hc.fnv1a_texts

    def counting(texts):
        calls["n"] += 1
        return real(texts)

    monkeypatch.setattr(hc, "fnv1a_texts", counting)
    cache = KeyHashCache()
    col = Column.from_strings(["x", "y", "x", "z"])
    for _ in range(5):
        cache.bloom_keys([col])
        cache.bloom_keys([col.slice(1, 3)], np.array([0, 1]))
    assert calls["n"] == 1


# ----------------------------------------------------------------------
# Pattern tables
# ----------------------------------------------------------------------
def test_pattern_tables_have_the_advertised_bit_counts():
    for tables in (bloom_module._PATTERNS_A, bloom_module._PATTERNS_B):
        assert not tables[0].any()
        for bits, table in enumerate(tables[1:], start=1):
            assert table.shape == (4096,) and not table.flags.writeable
            counts = np.bitwise_count(table)
            assert counts.min() >= 1 and counts.max() == bits
    for k in range(1, 9):
        filt = BloomFilter(capacity=1000, fpp=0.01)
        filt.num_hashes = k
        counts = np.bitwise_count(filt._mask(mix64(np.arange(5000, dtype=np.uint64))))
        assert counts.min() >= 1 and counts.max() == k


def test_pattern_tables_are_the_same_in_another_process():
    """A cached or shipped filter's words must mean the same thing in
    whichever process probes them."""
    script = (
        "import hashlib; from repro.filters import bloom; "
        "print(hashlib.sha256(b''.join(t.tobytes() for t in "
        "bloom._PATTERNS_A + bloom._PATTERNS_B)).hexdigest())"
    )
    src = str(pathlib.Path(bloom_module.__file__).parents[2])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    here = hashlib.sha256(
        b"".join(t.tobytes() for t in bloom_module._PATTERNS_A + bloom_module._PATTERNS_B)
    ).hexdigest()
    assert out.stdout.strip() == here
