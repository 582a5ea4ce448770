"""Exact (semi-join-precise) transferable filter.

Answers membership exactly, so a transfer using it is a genuine
semi-join — the Yannakakis schedule ships these, and the transfer
schedule can be switched to them for the §3.2 "Filter Type" ablation.

The key store is a linear-probing hash table
(:class:`~repro.filters.hashset.VectorHashSet`): the paper's §3.5 cost
model charges a unit per hash-table insert/probe, and the random-access
slot traffic of a real hash table is what makes the Yannakakis
semi-join phase expensive relative to Bloom transfer.

Cost accounting matches the paper's model: one hash insert per input
key on build, one hash probe per key on lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import TransferableFilter
from .hashset import VectorHashSet


@dataclass
class ExactFilter(TransferableFilter):
    """A precise key-set filter over ``uint64`` keys."""

    def __post_init__(self) -> None:
        self._set: VectorHashSet | None = None

    @staticmethod
    def from_keys(keys: np.ndarray) -> "ExactFilter":
        """Build a filter containing exactly ``keys``."""
        filt = ExactFilter()
        filt.add_keys(keys)
        return filt

    def add_keys(self, keys: np.ndarray) -> None:
        """Insert keys (deduplicated)."""
        if len(keys) == 0:
            return
        if self._set is None:
            self._set = VectorHashSet(capacity=len(keys))
        self._set.insert(keys)

    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Exact membership mask."""
        if self._set is None:
            return np.zeros(len(keys), dtype=np.bool_)
        return self._set.contains(keys)

    @property
    def exact(self) -> bool:
        """Exact filters admit no false positives."""
        return True

    def __len__(self) -> int:
        return 0 if self._set is None else len(self._set)

    def size_bytes(self) -> int:
        """Memory footprint of the key store."""
        if self._set is None:
            return 0
        return self._set._slots.nbytes + self._set._occupied.nbytes
