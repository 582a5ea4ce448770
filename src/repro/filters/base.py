"""Common interface for transferable filters.

Predicate transfer is parametric in the filter representation (paper
§3.2, "Filter Type"): the prototype uses Bloom filters, but a precise
representation turns each transfer into a semi-join and the algorithm
into Yannakakis.  Both implementations in this package speak the same
two-method protocol so the transfer engine is agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class TransferableFilter(ABC):
    """A set-membership summary built from hashed join keys.

    Work is counted per edge, not per filter: ``EdgeStat.keys_inserted``
    and ``rows_probed`` (:mod:`repro.engine.stats`).
    """

    @abstractmethod
    def add_keys(self, keys: np.ndarray) -> None:
        """Insert a ``uint64`` key array."""

    @abstractmethod
    def contains_keys(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask for a ``uint64`` key array.

        Must never return ``False`` for a key that was inserted (no
        false negatives); may return ``True`` for keys never inserted
        (false positives), depending on the implementation.
        """

    @property
    @abstractmethod
    def exact(self) -> bool:
        """True when the filter admits no false positives."""
