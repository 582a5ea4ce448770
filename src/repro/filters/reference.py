"""Reference byte-per-bit Bloom filter.

The original (pre-blocked) layout: one **byte per bit** (a ``bool``
array), k probe positions spread over the whole array via
Kirsch–Mitzenmacher double hashing.  Mathematically a textbook Bloom
filter; physically 8× larger than a packed bit array and paying k
scattered gathers per probe.

It is kept as the oracle for the production
:class:`~repro.filters.bloom.BloomFilter` (packed, register-blocked):
equivalence tests assert the blocked layout admits no false negatives
and stays within the same false-positive regime, and the benchmark
harness uses ``size_bytes()`` on both to report the memory ratio.

Sizing follows the textbook formulas:

    m = -n ln p / (ln 2)^2        k = round(m/n * ln 2)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FilterError
from .base import TransferableFilter
from .hashing import bloom_hash_pair

_U64 = np.uint64


@dataclass
class ReferenceBloomFilter(TransferableFilter):
    """An m-bit, k-hash Bloom filter over ``uint64`` keys (byte layout).

    Parameters
    ----------
    capacity:
        Expected number of distinct keys; used with ``fpp`` to size the
        bit array.
    fpp:
        Target false-positive probability at ``capacity`` insertions.
    """

    capacity: int
    fpp: float = 0.01
    num_bits: int = field(init=False)
    num_hashes: int = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise FilterError("capacity must be non-negative")
        if not 0.0 < self.fpp < 1.0:
            raise FilterError("fpp must be in (0, 1)")
        n = max(1, self.capacity)
        bits = int(math.ceil(-n * math.log(self.fpp) / (math.log(2) ** 2)))
        self.num_bits = max(64, bits)
        self.num_hashes = max(1, round(self.num_bits / n * math.log(2)))
        self._bits = np.zeros(self.num_bits, dtype=np.bool_)

    # ------------------------------------------------------------------
    @staticmethod
    def from_keys(keys: np.ndarray, fpp: float = 0.01) -> "ReferenceBloomFilter":
        """Build a filter sized for (and containing) ``keys``."""
        bloom = ReferenceBloomFilter(capacity=len(keys), fpp=fpp)
        bloom.add_keys(keys)
        return bloom

    # ------------------------------------------------------------------
    def add_keys(self, keys: np.ndarray) -> None:
        """Insert a ``uint64`` key array (vectorized)."""
        if len(keys) == 0:
            return
        h1, h2 = bloom_hash_pair(keys)
        mod = _U64(self.num_bits)
        acc = h1
        for i in range(self.num_hashes):
            self._bits[(acc % mod).astype(np.intp)] = True
            if i + 1 < self.num_hashes:
                with np.errstate(over="ignore"):
                    acc = acc + h2

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask (no false negatives) for a ``uint64`` array."""
        n = len(keys)
        if n == 0:
            return np.zeros(0, dtype=np.bool_)
        h1, h2 = bloom_hash_pair(keys)
        mod = _U64(self.num_bits)
        result = self._bits[(h1 % mod).astype(np.intp)]
        # Short-circuit: later rounds only touch still-passing rows.
        alive = np.flatnonzero(result)
        acc = h1
        for _ in range(1, self.num_hashes):
            if len(alive) == 0:
                break
            with np.errstate(over="ignore"):
                acc = acc + h2
            hit = self._bits[(acc[alive] % mod).astype(np.intp)]
            result[alive[~hit]] = False
            alive = alive[hit]
        return result

    # ------------------------------------------------------------------
    @property
    def exact(self) -> bool:
        """Bloom filters admit false positives."""
        return False

    def bits_set(self) -> int:
        """Number of set bits (saturation diagnostics)."""
        return int(self._bits.sum())

    def saturation(self) -> float:
        """Fraction of bits set; >0.5 signals an undersized filter."""
        return self.bits_set() / self.num_bits

    def size_bytes(self) -> int:
        """Memory footprint of the (byte-per-bit) array."""
        return self._bits.nbytes
