"""The grouping kernel: rows to dense group ids, sort-free where it can be.

:func:`group_rows` is the one factorization behind ``GROUP BY``,
``COUNT(DISTINCT)`` and ``DISTINCT``.  The steps it chooses between, the
bound on its tables and its ordering and NULL contract are described in
:mod:`repro.engine.aggregate`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..storage.column import Column, DType

# A direct-address table may hold at most this many slots per input row
# (a presence byte and a remap word each: under 36 bytes per row).
DIRECT_ADDRESS_SLOTS_PER_ROW = 4

# Packed keys are int64: a code space must stay below this to be packed.
_PACK_LIMIT = 2**62


def group_rows(
    columns: Sequence[Column],
    n_rows: int,
    within: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by ``columns``: ``(gid, first)``.

    ``gid[r]`` is row ``r``'s group, dense in ``[0, len(first))`` and
    ascending in key order (column by column, NULL last); ``first[g]`` is
    the earliest row of group ``g``.  ``within`` is an earlier result
    over the same rows to refine (the groups of a ``COUNT(DISTINCT)``).
    """
    if within is None:
        gid = np.zeros(n_rows, dtype=np.intp)
        first = np.zeros(min(n_rows, 1), dtype=np.intp)
    else:
        gid, first = within
    for column in columns:
        n_groups = len(first)
        # A column the groups so far determine cannot split one (the
        # "key plus its dependent attributes" shape); once every row is
        # its own group nothing can.
        if n_groups == n_rows or _determined(column, gid, first):
            continue
        codes, card = _codes(column)
        if n_groups * card >= _PACK_LIMIT:
            codes, code_rows = _densify(codes, card, n_rows)
            card = len(code_rows)
        packed = codes if n_groups == 1 else gid * card + codes
        gid, first = _densify(packed, n_groups * card, n_rows)
    return gid, first


def _determined(column: Column, gid: np.ndarray, first: np.ndarray) -> bool:
    """True when every group holds one value of ``column``."""
    data = column.data
    if column.valid is not None:
        valid = column.valid
        if not np.array_equal(valid[first][gid], valid):
            return False
        data = np.where(valid, data, data[:1])
    # A spread-out sample rejects an independent column without the
    # full-length gathers.
    sample = slice(None, None, max(1, len(gid) >> 10))
    if not np.array_equal(data[first[gid[sample]]], data[sample]):
        return False
    return np.array_equal(data[first][gid], data)


def _codes(column: Column) -> tuple[np.ndarray, int]:
    """Order-preserving non-negative codes of a column and the size of
    their code space; NULL rows take the last code.

    No sort where the type allows: dictionary codes, booleans, and
    integers as ``value - min`` (as the value itself when that is small).
    Floats, and integers spanning more than 62 bits, are sorted.
    """
    data = column.data
    if column.dtype is DType.STRING:
        assert column.dictionary is not None
        codes, card = data, len(column.dictionary)
    elif column.dtype is DType.BOOL:
        codes, card = data.view(np.uint8), 2
    else:
        codes, card = _numeric_codes(column)
    if column.valid is not None:
        codes, card = np.where(column.valid, codes, card), card + 1
    return codes, card


def _numeric_codes(column: Column) -> tuple[np.ndarray, int]:
    """Codes of an INT64, DATE or FLOAT64 column's valid rows."""
    data = column.data
    values = data if column.valid is None else data[column.valid]
    if column.dtype is not DType.FLOAT64 and len(values):
        low, high = int(values.min()), int(values.max())
        if 0 <= low and high < DIRECT_ADDRESS_SLOTS_PER_ROW * len(data):
            return data, high + 1  # addressable as it is
        if high - low < _PACK_LIMIT:
            return data - low, high - low + 1
    codes, code_rows = _densify(data, _PACK_LIMIT, len(data))
    return codes, len(code_rows)


def _densify(
    packed: np.ndarray, space: int, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of ``packed`` (values in ``[0, space)``, or anything
    sortable when ``space`` is ``_PACK_LIMIT``) and each id's first row."""
    row_bits = n_rows.bit_length()
    if space <= DIRECT_ADDRESS_SLOTS_PER_ROW * n_rows:
        present = np.zeros(space, dtype=np.bool_)
        present[packed] = True
        n_ids = int(np.count_nonzero(present))
        if n_ids == space:
            ids = packed.astype(np.intp, copy=False)
        else:
            ids = (np.cumsum(present, dtype=np.intp) - 1)[packed]
        first = np.full(n_ids, n_rows, dtype=np.intp)
        np.minimum.at(first, ids, np.arange(n_rows, dtype=np.intp))
        return ids, first
    if space << row_bits < 2 * _PACK_LIMIT:
        # Sparse integers: tag each key with its row number, so that one
        # plain in-place sort is stable and carries its own permutation
        # (an argsort of the same keys costs several times more).
        rows = np.arange(n_rows, dtype=np.int64)
        tagged = np.left_shift(packed, row_bits, dtype=np.int64)
        tagged |= rows
        tagged.sort()
        np.bitwise_and(tagged, (1 << row_bits) - 1, out=rows)
        tagged >>= row_bits
        heads = np.empty(n_rows, dtype=np.bool_)
        heads[0] = True
        np.not_equal(tagged[1:], tagged[:-1], out=heads[1:])
        np.cumsum(heads, out=tagged)
        tagged -= 1
        ids = np.empty(n_rows, dtype=np.intp)
        ids[rows] = tagged
        return ids, rows[heads]
    _, first, ids = np.unique(packed, return_index=True, return_inverse=True)
    return ids.reshape(-1), first
