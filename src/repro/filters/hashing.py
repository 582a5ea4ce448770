"""64-bit key normalization and hashing.

Transferable filters (Bloom and exact) operate on ``uint64`` key arrays.
This module converts join-key columns of any supported type into such
arrays, and provides the vectorized mixers the Bloom filter needs.

Two distinct needs are served:

* **Bloom keys** (:func:`bloom_keys`): probabilistic — hash-combining of
  multi-column keys is fine because the Bloom filter is allowed false
  positives anyway.
* **Exact join keys** (:func:`repro.engine.keys.normalize_join_keys`):
  joins must be exact, so multi-column keys there use exact factorization
  rather than hashing.  String columns are the one exception everywhere:
  they are identified by a 64-bit FNV-1a hash of their text, a standard
  engineering tradeoff (collision probability ~n²/2⁶⁵ is negligible at
  the scales simulated here, and TPC-H never joins on strings).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..storage.column import Column

_UINT64 = np.uint64
# splitmix64 constants (Steele et al.), the standard 64-bit finalizer.
_SM_GAMMA = _UINT64(0x9E3779B97F4A7C15)
_SM_M1 = _UINT64(0xBF58476D1CE4E5B9)
_SM_M2 = _UINT64(0x94D049BB133111EB)
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Second independent mixer seed: splitmix64 of a xor-perturbed key.
_ALT_SEED = _UINT64(0xA0761D6478BD642F)


def splitmix64(keys: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a ``uint64`` array.

    In-place after the initial copy: the mixer runs over full columns
    on the hot path, where avoiding five temporaries is measurable.
    """
    with np.errstate(over="ignore"):
        z = keys + _SM_GAMMA  # fresh array; everything below mutates z
        z ^= z >> _UINT64(30)
        z *= _SM_M1
        z ^= z >> _UINT64(27)
        z *= _SM_M2
        z ^= z >> _UINT64(31)
        return z


def mix64(keys: np.ndarray) -> np.ndarray:
    """Fast 64-bit finalizer: multiply / xorshift / multiply.

    A cheaper mixer than :func:`splitmix64` (4 array passes instead of
    9) for the Bloom-key hot path.  It is a **bijection** on ``uint64``
    (odd multiplies and xorshift are both invertible), so single-column
    keys stay collision-free — exact filters built on these keys remain
    exact.  The golden-ratio multiply equidistributes the high bits
    even for dense sequential keys (Fibonacci hashing), which is what
    the blocked Bloom filter's block selection consumes.
    """
    with np.errstate(over="ignore"):
        z = keys * _SM_GAMMA  # fresh array; everything below mutates z
        z ^= z >> _UINT64(32)
        z *= _SM_M1
        return z


def bloom_hash_pair(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two base hashes of the Kirsch–Mitzenmacher double-hashing
    scheme, shared by every Bloom filter layout (so a query-scoped
    cache can compute them once per key column set)."""
    h1 = splitmix64(keys)
    with np.errstate(over="ignore"):
        h2 = splitmix64(keys ^ _ALT_SEED) | _UINT64(1)  # odd stride
    return h1, h2


def hash_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-sensitive combination of two ``uint64`` hash arrays."""
    with np.errstate(over="ignore"):
        return splitmix64(a * _UINT64(0x9DDFEA08EB382D69) ^ b)


def fnv1a_text(text: str) -> int:
    """64-bit FNV-1a hash of a string (scalar reference; the vectorized
    dictionary path is :func:`fnv1a_texts`)."""
    acc = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return acc


_FNV_PRIME_INV = pow(_FNV_PRIME, -1, 2**64)


def fnv1a_texts(texts: Sequence[str] | np.ndarray) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over a sequence of strings.

    FNV-1a is sequential in the *bytes* of one string but independent
    *across* strings, so the kernel packs all UTF-8 encodings into one
    zero-padded (max_len, n) byte matrix and folds it row by row:
    iteration count is the longest string, not the total byte count.

    The fold runs unconditionally over the padding — a zero pad byte
    contributes ``acc = (acc ^ 0) * prime``, a pure multiply — and the
    surplus multiplies are then undone in one shot with precomputed
    powers of the prime's modular inverse (odd, hence invertible mod
    2^64).  That keeps the inner loop free of masking while staying
    bit-exact with :func:`fnv1a_text`, embedded NUL bytes included.
    """
    n = len(texts)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    encoded = [t.encode("utf-8") for t in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=n)
    max_len = int(lengths.max())
    acc = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if max_len == 0:
        return acc
    flat = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    # uint8 keeps the padded matrix at one byte per cell (the fold
    # upcasts row by row); a uint64 matrix would cost 8x the memory and
    # a single long outlier string inflates every row to max_len.
    matrix = np.zeros((max_len, n), dtype=np.uint8)
    row_idx = np.repeat(np.arange(n), lengths)
    offsets = np.cumsum(lengths) - lengths
    byte_idx = np.arange(len(flat)) - np.repeat(offsets, lengths)
    matrix[byte_idx, row_idx] = flat
    prime = _UINT64(_FNV_PRIME)
    with np.errstate(over="ignore"):
        for j in range(max_len):
            acc = (acc ^ matrix[j]) * prime
        inv_pows = np.empty(max_len + 1, dtype=np.uint64)
        inv_pows[0] = 1
        inv_pows[1:] = _UINT64(_FNV_PRIME_INV)
        np.multiply.accumulate(inv_pows, out=inv_pows)
        acc *= inv_pows[max_len - lengths]
    return acc


#: Rows of a column to hash: an index array, a slice, or ``None`` (all).
Rows = np.ndarray | slice | None


def column_to_u64(
    column: Column, rows: Rows = None, dict_hashes: np.ndarray | None = None
) -> np.ndarray:
    """Normalize ``rows`` of a single column to ``uint64`` identity keys.

    Integer-like columns map injectively (two's-complement reinterpret);
    floats map via their bit pattern, ``-0.0`` first folded into ``0.0``
    so that values SQL calls equal get equal keys; strings map via an
    FNV-1a hash of each distinct dictionary entry gathered through the
    codes (``dict_hashes`` supplies those hashes when the caller already
    has them — hashing a dictionary costs a pass over its text).  NaNs
    keep their bit patterns and so may or may not equal one another:
    missing floats belong under the validity mask, whose rows never
    match whatever their key.

    ``rows`` is taken from the physical data **first**, so widening a
    32-bit column or mapping string codes touches only the rows asked
    for, never the whole column.
    """
    data = column.data if rows is None else column.data[rows]
    dictionary = column.dictionary
    if dictionary is not None:  # STRING: data holds dictionary codes
        if dict_hashes is None:
            dict_hashes = fnv1a_texts(dictionary)
        return dict_hashes[data]
    if data.dtype.kind == "f":
        data = data + 0.0  # -0.0 + 0.0 is 0.0; every other value is kept
    if data.dtype.itemsize == 8:  # INT64: zero-copy reinterpret
        return data.view(np.uint64)
    return data.astype(np.int64).view(np.uint64)


def combine_keys(parts: list[np.ndarray]) -> np.ndarray:
    """Mixed 64-bit key of one or more aligned ``uint64`` key parts.

    A single part goes through the :func:`mix64` bijection directly
    (collision-free); further parts are hash-combined left to right.
    """
    acc = mix64(parts[0])
    for part in parts[1:]:
        acc = hash_combine(acc, mix64(part))
    return acc


def bloom_keys(columns: list[Column], rows: Rows = None) -> np.ndarray:
    """Build Bloom-ready hashed keys from one or more key columns.

    ``rows`` limits the computation to a row subset (selection indices
    or a slice); only those rows are gathered, normalized and hashed.
    Same values as :meth:`repro.filters.hashcache.KeyHashCache.bloom_keys`,
    which additionally remembers string-dictionary hashes between calls.
    """
    return combine_keys([column_to_u64(column, rows) for column in columns])
