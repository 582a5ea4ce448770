"""Vectorized open-addressing hash set.

The cost model of the paper (§3.5) charges a *unit* per hash-table
insert or probe versus a much smaller β per Bloom operation — the gap is
what makes predicate transfer beat Yannakakis.  To preserve that cost
structure in this substrate, exact filters are backed by a real
linear-probing hash table with random-access slot traffic, not by a
sorted array (whose vectorized binary search would be nearly as cheap
as a Bloom probe and would flatter the Yannakakis baseline).

The table is a power-of-two slot array at ≤50% load.  Insert and probe
are batch loops: each round resolves one probe step for every key still
unresolved, so the number of vectorized passes is the maximum probe
chain length (a small constant at this load factor).

What a unit costs here (``benchmarks/filter_kernels.py``, 3 M probe
keys, 2-vCPU Xeon host): an insert ≈ 80–120 ns/key for sets of
27 000–750 000 keys, their dedup by sort included; a probe ≈ 85–95
ns/key.  A Bloom probe with its hashing costs ≈ 13–15 ns/key in the
engine's morsel loop, and a presence-bitmap probe ≈ 4–7.
"""

from __future__ import annotations

import numpy as np

from ..errors import FilterError
from .hashing import splitmix64

_U64 = np.uint64


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by a sort and a neighbour compare: a bare
    ``np.unique`` on integers takes NumPy's hash path, ~30x slower."""
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=np.bool_)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _slot_count(capacity: int) -> int:
    """Power-of-two slot count holding ``capacity`` keys at ≤50% load."""
    size = 1
    while size < max(2 * capacity, 16):
        size <<= 1
    return size


def hash_set_bytes(capacity: int) -> int:
    """Footprint of a set sized for ``capacity`` keys (8-byte slots +
    1-byte occupancy), known before anything is allocated."""
    return _slot_count(capacity) * 9


class VectorHashSet:
    """A linear-probing hash set over ``uint64`` keys."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise FilterError("capacity must be non-negative")
        size = _slot_count(capacity)
        self._size = size
        self._mask = _U64(size - 1)
        self._slots = np.zeros(size, dtype=np.uint64)
        self._occupied = np.zeros(size, dtype=np.bool_)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def load_factor(self) -> float:
        """Occupied fraction of the slot array."""
        return self._count / self._size

    def _grow(self, needed_capacity: int) -> None:
        """Rehash into a table sized for ``needed_capacity`` keys."""
        old_keys = self._slots[self._occupied]
        bigger = VectorHashSet(needed_capacity)
        bigger.insert(old_keys)
        self._size = bigger._size
        self._mask = bigger._mask
        self._slots = bigger._slots
        self._occupied = bigger._occupied
        self._count = bigger._count

    def insert(self, keys: np.ndarray) -> None:
        """Insert a batch of keys (duplicates collapse)."""
        if len(keys) == 0:
            return
        keys = _sorted_unique(keys)
        if (self._count + len(keys)) * 2 > self._size:
            self._grow(self._count + len(keys))
        pos = (splitmix64(keys) & self._mask).astype(np.intp)
        pending = np.arange(len(keys))
        while len(pending):
            p = pos[pending]
            k = keys[pending]
            occupied = self._occupied[p]
            # Duplicate-free input: a key is done once its slot holds it.
            free = ~occupied
            # Claim free slots (batch collisions resolve by last-write;
            # losers are re-checked below and advance).
            self._slots[p[free]] = k[free]
            self._occupied[p[free]] = True
            placed = self._occupied[p] & (self._slots[p] == k)
            self._count += int((free & placed).sum())
            pending = pending[~placed]
            pos[pending] = (pos[pending] + 1) & int(self._mask)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized exact membership mask."""
        n = len(keys)
        result = np.zeros(n, dtype=np.bool_)
        if n == 0 or self._count == 0:
            return result
        pos = (splitmix64(keys) & self._mask).astype(np.intp)
        pending = np.arange(n)
        while len(pending):
            p = pos[pending]
            occupied = self._occupied[p]
            hit = occupied & (self._slots[p] == keys[pending])
            result[pending[hit]] = True
            # Keys neither matched nor stopped by an empty slot keep probing.
            alive = occupied & ~hit
            pending = pending[alive]
            pos[pending] = (pos[pending] + 1) & int(self._mask)
        return result
