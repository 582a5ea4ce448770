"""The grouping kernel: rows to dense group ids, sort-free where it can be.

:func:`group_rows` is the one factorization behind ``GROUP BY``,
``COUNT(DISTINCT)`` and ``DISTINCT``.  The steps it chooses between, the
bound on its tables and its ordering and NULL contract are described in
:mod:`repro.engine.aggregate`.

Its building blocks — the value span of integer keys, the density bound
on direct-address tables, the row-tagged sort, the presence table — are
shared with the join kernel (:mod:`repro.engine.hashjoin`,
:mod:`repro.engine.keys`) and the optimizer's distinct counts.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..storage.column import Column, DType

# A direct-address table may hold at most this many slots per input row
# (grouping: a presence byte and a remap word each, under 36 bytes per
# row; the join: a count and a row number each, 48).
DIRECT_ADDRESS_SLOTS_PER_ROW = 4

# Packed keys are int64: a code space must stay below this to be packed.
PACK_LIMIT = 2**62


def int_span(*arrays: np.ndarray) -> tuple[int, int]:
    """``(low, span)`` of the integers in ``arrays``: every value is
    ``low + code`` with ``0 <= code < span``.

    Python ints, so a span of int64 extremes does not wrap; callers
    compare it with their bound before subtracting ``low`` from anything.
    ``(0, 1)`` when there is no value at all.
    """
    filled = [a for a in arrays if len(a)]
    if not filled:
        return 0, 1
    low = min(int(a.min()) for a in filled)
    return low, max(int(a.max()) for a in filled) - low + 1


def count_distinct(values: np.ndarray) -> int:
    """Exact number of distinct values: a presence table over the span
    of densely spread integers, a sort of anything else."""
    if len(values) == 0:
        return 0
    if values.dtype.kind in "iu":
        low, span = int_span(values)
        if span <= DIRECT_ADDRESS_SLOTS_PER_ROW * len(values):
            return int(np.count_nonzero(_present(values - low, span)))
    ordered = np.sort(values)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + 1


def tagged_sort(packed: np.ndarray, row_bits: int) -> np.ndarray:
    """``packed << row_bits | row``, sorted: each key tagged with its row
    number, so that one plain in-place sort is stable and carries its
    own permutation (an argsort of the same keys costs several times
    more).  The caller checks that the shifted keys fit in an int64.
    """
    tagged = np.left_shift(packed, row_bits, dtype=np.int64)
    tagged |= np.arange(len(packed), dtype=np.int64)
    tagged.sort()
    return tagged


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
        if n_groups * card >= PACK_LIMIT:
            codes, code_rows = _densify(codes, card, n_rows)
            card = len(code_rows)
        packed = codes if n_groups == 1 else gid * card + codes
        if _non_decreasing(packed):
            gid, first = _runs(packed)
        else:
            gid, first = _densify(packed, n_groups * card, n_rows)
    return gid, first


def _non_decreasing(packed: np.ndarray) -> bool:
    """True when ``packed`` never decreases: its equal keys form runs.

    The endpoints and a 1 024-row strided sample reject unsorted input
    (Q17's ``l_partkey``) before the full compare pass.
    """
    if packed[-1] < packed[0]:
        return False
    sample = packed[:: max(1, len(packed) >> 10)]
    if np.any(sample[1:] < sample[:-1]):
        return False
    return not np.any(packed[1:] < packed[:-1])


def _runs(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_densify``'s result for non-decreasing ``packed``: one group
    per run of equal keys, numbered in order."""
    heads = np.empty(len(packed), dtype=np.bool_)
    heads[0] = True
    np.not_equal(packed[1:], packed[:-1], out=heads[1:])
    # A bool cumsum into intp runs at half the speed of an intp one.
    gid = heads.astype(np.intp)
    gid[0] = 0
    np.cumsum(gid, out=gid)
    return gid, np.flatnonzero(heads)


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
        low, span = int_span(values)
        if 0 <= low and low + span <= DIRECT_ADDRESS_SLOTS_PER_ROW * len(data):
            return data, low + span  # addressable as it is
        if span <= PACK_LIMIT:
            return data - low, span
    codes, code_rows = _densify(data, PACK_LIMIT, len(data))
    return codes, len(code_rows)


def _present(codes: np.ndarray, space: int) -> np.ndarray:
    """Which of the codes ``[0, space)`` occur."""
    present = np.zeros(space, dtype=np.bool_)
    present[codes] = True
    return present


def _densify(
    packed: np.ndarray, space: int, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of ``packed`` (values in ``[0, space)``, or anything
    sortable when ``space`` is ``PACK_LIMIT``) and each id's first row."""
    row_bits = n_rows.bit_length()
    if space <= DIRECT_ADDRESS_SLOTS_PER_ROW * n_rows:
        present = _present(packed, space)
        n_ids = int(np.count_nonzero(present))
        if n_ids == space:
            ids = packed.astype(np.intp, copy=False)
        else:
            remap = present.astype(np.intp)
            np.cumsum(remap, out=remap)
            remap -= 1
            ids = remap[packed]
        first = np.full(n_ids, n_rows, dtype=np.intp)
        np.minimum.at(first, ids, np.arange(n_rows, dtype=np.intp))
        return ids, first
    if space << row_bits < 2 * PACK_LIMIT:
        # Sparse integers.
        tagged = tagged_sort(packed, row_bits)
        rows = tagged & ((1 << row_bits) - 1)
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
