"""Packed register-blocked Bloom filter.

The production filter of the transfer hot path: a packed ``uint64`` bit
array in a cache-line **blocked** layout, the design production engines
(Impala, DuckDB, Parquet's split-block filters) use for runtime join
filters.

Layout
------
The bit array is organized as 512-bit (cache-line) blocks of eight
``uint64`` words.  Every probe position derives from a **single
pre-mixed 64-bit hash** (the output of ``mix64`` /
:func:`~repro.filters.hashing.bloom_keys`), the same single-hash scheme
Parquet's split-block filters use:

* the **word** is chosen by the high 32 hash bits via one multiply-shift
  range reduction over all words (no modulo on the hot path): the top
  product bits pick the block, the bits below them the word inside it —
  so every probe touches exactly one cache line *and* one register;
* all k probe bits land in that word, pre-combined into a **single
  64-bit mask word**.

Mask derivation
---------------
The mask is **table-driven**: one salted multiply of the hash, whose
top 24 product bits split into two disjoint 12-bit fields; each field
indexes a 4 096-entry table of precomputed bit patterns
(:func:`_pattern_table`: ⌈k/2⌉ bits in the first table, ⌊k/2⌋ in the
second, positions drawn from a fixed splitmix64 stream so every process
derives identical tables) and the two patterns are OR-ed.  That is 7
array passes for any k, against ~4 per probe bit for computing each
position arithmetically (shift, mask, ``1 << pos``, OR) — 2.5 vs
6.7 ns/key at k = 7 on the development box.  The two tables are 64 KB
together and stay cache-resident.  4 096² pattern pairs are far more
distinct masks than a 64-bit word can tell apart at these fill levels:
the measured false-positive rate is 0.0362 / 0.0116 / 0.0015 at
targets 0.05 / 0.01 / 0.001, against 0.0359 / 0.0114 / 0.0015 for
arithmetic positions (``benchmarks/kernels.py`` prints them).
Sizing (geometry, ``size_bytes``) does not depend on the derivation.

Probe and insert
----------------
A probe is **branch-free**: gather the word, build the mask,
``(word & mask) == mask``.  An earlier version tested the first bit
alone and built full masks only for the keys that passed it; once the
inputs are cache-resident (below) the compaction (``flatnonzero``, two
more gathers, a scatter) costs more than the arithmetic it skips at
every pass rate — 9.2 / 15.4 / 17.1 ns/key at 1 % / 25 % / 100 % of
keys passing, against 8.6 / 10.0 / 11.5 for the straight mask over the
same arithmetic masks and 4.5 / 5.9 / 7.2 with the tables.  An insert
is one scatter-OR of the same mask.

Morsels
-------
The ``*_hashes`` entry points take pre-mixed hashes and are meant to be
called on **cache-sized slices**: the pre-filter loop
(:func:`~repro.core.transfer.build_filter`,
:func:`~repro.core.transfer.probe_filter`) cuts a relation's surviving
rows into :func:`morsels` of :data:`MORSEL_KEYS` keys and,
per morsel, gathers + normalizes + hashes the keys and probes (or
inserts) them before moving on.  A probe is ~13 NumPy passes; over a
whole 3 M-key column each pass streams 24 MB temporaries through
memory, over a 32 K-key morsel (256 KB per temporary) they all stay in
L2.  Measured at 3 M keys against a 750 K-key filter: hash 3.0 → 1.6,
probe 9.7 → 6.3, hash + probe 12.0 → 7.6 ns/key, whole-array call →
morsel loop (``benchmarks/kernels.py``).  Single-threaded,
hash + probe is flat from 8 K to 32 K keys (7.4 / 7.1 / 7.6 ns/key at
8 K / 16 K / 32 K); below 8 K the fixed cost per NumPy call (~1 µs ×
~20 calls per morsel) shows (9.3 at 4 K), above 64 K the temporaries
start leaving L2 (8.1 at 64 K, 13.5 whole-column).  Within that flat
range the largest size wins under the serving engine: every NumPy call
drops and retakes the interpreter lock, so two worker threads running
morsel loops hand it back and forth once per call, and 32 K over 16 K
measured +8 % requests/s and −11 % first-occurrence latency on the
``serve_mixed`` benchmark workload for −2 % on single-threaded
``tpch_predtrans``.  The constant is also the granularity of the
benchmark tracer's spans (one per morsel per step).

Register blocking trades a little precision for locality: with all k
bits confined to 64 bits, per-word occupancy variance raises the
false-positive rate above the textbook formula.  Sizing pads the
textbook bit count by 25% to compensate (Putze et al.'s measured regime
for one-word blocks), growing the pad as the target shrinks, which
keeps the measured FPP within ~1.5× of target while still shrinking
memory ~6× versus the byte-per-bit
:class:`~repro.filters.reference.ReferenceBloomFilter`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..errors import FilterError
from .base import TransferableFilter
from .hashing import mix64, splitmix64

_U64 = np.uint64
_BLOCK_WORDS = 8  # 512-bit cache-line blocks

#: Keys per morsel of the pre-filter loop (see the module docstring).
MORSEL_KEYS = 32768


def morsels(lo: int, hi: int) -> Iterator[slice]:
    """``[lo, hi)`` cut into slices of :data:`MORSEL_KEYS`."""
    for start in range(lo, hi, MORSEL_KEYS):
        yield slice(start, min(start + MORSEL_KEYS, hi))

# The k probe bits of a key are the OR of two precomputed patterns,
# each chosen by its own 12-bit field of one salted product of the
# hash (the product's top 24 bits, its best-mixed ones).
_PATTERN_BITS = 12
_SALT = _U64(0x47B6137B44974D91)  # odd
_FIELD_A = _U64(64 - _PATTERN_BITS)  # product bits 52..63
_FIELD_B = _U64(64 - 2 * _PATTERN_BITS)  # product bits 40..51
_FIELD_MASK = _U64((1 << _PATTERN_BITS) - 1)
_MAX_HASHES = 8  # at most 4 + 4 pattern bits


def _pattern_table(bits: int, salt: int) -> np.ndarray:
    """4 096 words with 1..``bits`` set bits each (none for ``bits=0``).

    Entry ``i`` ORs ``bits`` positions read from consecutive 6-bit
    fields of ``splitmix64(i + salt * 4096)`` — a pure function of its
    arguments, so every process derives the same tables and a filter's
    words mean the same thing wherever they were built.
    """
    size = 1 << _PATTERN_BITS
    mixed = splitmix64(np.arange(size, dtype=_U64) + _U64(salt * size))
    table = np.zeros(size, dtype=_U64)
    for i in range(bits):
        table |= _U64(1) << ((mixed >> _U64(6 * i)) & _U64(63))
    table.setflags(write=False)
    return table


# Indexed by the number of bits the half contributes (0..4); a filter
# with k hashes reads _PATTERNS_A[ceil(k/2)] and _PATTERNS_B[floor(k/2)].
_PATTERNS_A = tuple(_pattern_table(b, 1) for b in range(_MAX_HASHES // 2 + 1))
_PATTERNS_B = tuple(_pattern_table(b, 2) for b in range(_MAX_HASHES // 2 + 1))

# Blocked-layout sizing pad over the textbook bit count (see module
# docstring); keeps measured FPP near target despite register blocking.
# The penalty is tail-loaded (overfull words dominate the FPP), so it
# grows as the target shrinks: +25% per decade below 1e-2.
_BLOCK_PAD = 1.25
_BLOCK_PAD_PER_DECADE = 0.25


def _geometry(capacity: int, fpp: float) -> tuple[int, int]:
    """``(num_hashes, num_blocks)`` of a filter sized for ``capacity``
    keys at target ``fpp``."""
    if capacity < 0:
        raise FilterError("capacity must be non-negative")
    if not 0.0 < fpp < 1.0:
        raise FilterError("fpp must be in (0, 1)")
    n = max(1, capacity)
    bits = -n * math.log(fpp) / (math.log(2) ** 2)
    num_hashes = max(1, min(_MAX_HASHES, round(bits / n * math.log(2))))
    pad = _BLOCK_PAD + _BLOCK_PAD_PER_DECADE * max(0.0, -math.log10(fpp) - 2.0)
    padded = int(math.ceil(bits * pad))
    return num_hashes, max(1, -(-padded // (_BLOCK_WORDS * 64)))


def bloom_bits(capacity: int, fpp: float) -> int:
    """Bit count of the :class:`BloomFilter` sized for ``capacity`` keys
    at ``fpp``, without allocating it."""
    return _geometry(capacity, fpp)[1] * _BLOCK_WORDS * 64


@dataclass
class BloomFilter(TransferableFilter):
    """A packed, register-blocked Bloom filter over ``uint64`` keys.

    Parameters
    ----------
    capacity:
        Expected number of distinct keys; used with ``fpp`` to size the
        block array.
    fpp:
        Target false-positive probability at ``capacity`` insertions.
    """

    capacity: int
    fpp: float = 0.01
    num_bits: int = field(init=False)
    num_hashes: int = field(init=False)
    num_blocks: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_hashes, self.num_blocks = _geometry(self.capacity, self.fpp)
        self.num_bits = self.num_blocks * _BLOCK_WORDS * 64
        self._words = np.zeros(self.num_blocks * _BLOCK_WORDS, dtype=_U64)

    # ------------------------------------------------------------------
    @staticmethod
    def from_keys(keys: np.ndarray, fpp: float = 0.01) -> "BloomFilter":
        """Build a filter sized for (and containing) ``keys``."""
        bloom = BloomFilter(capacity=len(keys), fpp=fpp)
        bloom.add_keys(keys)
        return bloom

    # ------------------------------------------------------------------
    def _word_index(self, hashes: np.ndarray) -> np.ndarray:
        """Flat index of each key's word, via one multiply-shift range
        reduction of the high 32 hash bits over all words: the top
        product bits pick the 512-bit block, the fractional bits below
        them pick the word inside it."""
        idx = hashes >> _U64(32)  # fresh array; mutated below
        idx *= _U64(self.num_blocks * _BLOCK_WORDS)
        idx >>= _U64(32)
        return idx.view(np.intp)  # < 2**32, so the reinterpret is exact

    def _mask(self, hashes: np.ndarray) -> np.ndarray:
        """The combined k-bit probe mask word of each key: two pattern
        table lookups OR-ed (⌈k/2⌉ + ⌊k/2⌋ bits)."""
        product = hashes * _SALT  # fresh array; mutated below
        field = product >> _FIELD_A
        mask = _PATTERNS_A[(self.num_hashes + 1) // 2].take(field.view(np.intp))
        product >>= _FIELD_B
        product &= _FIELD_MASK
        mask |= _PATTERNS_B[self.num_hashes // 2].take(product.view(np.intp))
        return mask

    # ------------------------------------------------------------------
    def add_hashes(self, hashes: np.ndarray) -> None:
        """Insert keys given their pre-mixed 64-bit hashes."""
        if len(hashes) == 0:
            return
        np.bitwise_or.at(self._words, self._word_index(hashes), self._mask(hashes))

    def add_keys(self, keys: np.ndarray) -> None:
        """Insert a ``uint64`` key array (vectorized)."""
        if len(keys) == 0:
            return
        self.add_hashes(mix64(keys))

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Membership mask given pre-mixed 64-bit hashes (branch-free:
        gather word, build mask, compare)."""
        n = len(hashes)
        if n == 0:
            return np.zeros(0, dtype=np.bool_)
        words = self._words.take(self._word_index(hashes))
        mask = self._mask(hashes)
        words &= mask
        return words == mask

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask (no false negatives) for a ``uint64`` array."""
        if len(keys) == 0:
            return np.zeros(0, dtype=np.bool_)
        return self.contains_hashes(mix64(keys))

    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """Bloom filters admit false positives."""
        return False

    def bits_set(self) -> int:
        """Number of set bits (saturation diagnostics)."""
        return int(np.bitwise_count(self._words).sum())

    def saturation(self) -> float:
        """Fraction of bits set; >0.5 signals an undersized filter."""
        return self.bits_set() / self.num_bits

    def size_bytes(self) -> int:
        """Memory footprint of the packed word array."""
        return self._words.nbytes
