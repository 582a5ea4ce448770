"""Query-scoped join-key normalizer.

The pre-filter kernel hashes join keys a morsel at a time: each call to
:meth:`KeyHashCache.bloom_keys` gathers, normalizes and mixes **only the
rows it is handed** (a slice of a surviving row vector), while they sit
in cache.  Nothing the length of a column is ever computed or kept —
hashing a 2 % survivor set costs 2 % of the column, and a hash array
lives no longer than the morsel that consumes it.

The one derivation that is *not* per row, and therefore worth
remembering between morsels, is a STRING key's dictionary: its distinct
texts are FNV-hashed once per query and every morsel maps its codes
through that array.  The memo is keyed by dictionary identity
(dictionaries are immutable and shared by every column sliced or
gathered from the same base column) and holds a strong reference to
each dictionary it hashed, which pins the identity for the cache's
query-long lifetime — a few KB per string key column, never row data.
"""

from __future__ import annotations

import numpy as np

from ..storage.column import Column
from .hashing import Rows, column_to_u64, combine_keys, fnv1a_texts


class KeyHashCache:
    """Per-query key hashing with remembered string-dictionary hashes."""

    __slots__ = ("_dict_hashes",)

    def __init__(self) -> None:
        # id(dictionary) -> (dictionary, FNV-1a hash of each entry)
        self._dict_hashes: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def dictionary_hashes(self, column: Column) -> np.ndarray | None:
        """FNV-1a hashes of a STRING column's dictionary, hashed once;
        ``None`` for every other column type."""
        dictionary = column.dictionary
        if dictionary is None:  # exactly the non-STRING columns
            return None
        entry = self._dict_hashes.get(id(dictionary))
        if entry is None:
            entry = (dictionary, fnv1a_texts(dictionary))
            self._dict_hashes[id(dictionary)] = entry
        return entry[1]

    def bloom_keys(self, columns: list[Column], rows: Rows = None) -> np.ndarray:
        """Combined Bloom key of ``rows`` of a column set.

        Same values as :func:`repro.filters.hashing.bloom_keys`; only
        ``rows`` are hashed.
        """
        return combine_keys(
            [column_to_u64(c, rows, self.dictionary_hashes(c)) for c in columns]
        )
