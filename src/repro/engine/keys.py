"""Exact join-key normalization.

Joins must be exact, so unlike the Bloom path (which may hash-combine),
both sides' key tuples are mapped to one ``int64`` per row such that two
rows get the same number exactly when their tuples are equal.  A single
column is its own identity value (:func:`single_key_i64`).  Several
columns are packed positionally, sort-free: each column pair contributes
``value - low`` with ``low`` and the span taken from one min/max pass
over both sides (:func:`~repro.engine.factorize.int_span`, the grouping
kernel's code derivation), each multiplied by the spans of the columns
after it.  The packing is collision-free because the product of the
spans is checked, in Python ints, to stay below 2⁶² — true of every
integer and date composite in TPC-H and SSB.

Columns whose identity values are spread over the whole 64-bit range —
string hashes, float bit patterns — break that bound.  Those tuples are
dictionary-encoded instead: ``np.unique`` over the union of both sides
per column, the dense codes packed the same way, with a hash-combine of
the codes (collision odds negligible) if even their cardinalities
multiply past 2⁶².

String columns are identified by their 64-bit FNV-1a hash — exactness
then holds up to hash collisions, which at n ≲ 10⁸ distinct strings is a
< 10⁻³ event for the whole workload and never arises in TPC-H (no string
join keys).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ExecutionError
from ..filters.hashing import column_to_u64, hash_combine, splitmix64
from ..storage.column import Column
from .factorize import PACK_LIMIT, int_span


def single_key_i64(column: Column) -> np.ndarray:
    """Normalize one key column to ``int64`` identity values."""
    return column_to_u64(column).view(np.int64)


def normalize_join_keys(
    left_cols: list[Column], right_cols: list[Column]
) -> tuple[np.ndarray, np.ndarray]:
    """Normalize both sides' key columns to comparable ``int64`` arrays.

    Returns ``(left_keys, right_keys)`` such that
    ``left_keys[i] == right_keys[j]`` iff the logical key tuples match
    (modulo the string-hash caveat in the module docstring).
    """
    if len(left_cols) != len(right_cols):
        raise ExecutionError("join key arity mismatch")
    if len(left_cols) == 0:
        raise ExecutionError("join requires at least one key column")
    left = [single_key_i64(column) for column in left_cols]
    right = [single_key_i64(column) for column in right_cols]
    if len(left) == 1:
        return left[0], right[0]

    bounds = [int_span(lvals, rvals) for lvals, rvals in zip(left, right)]
    if math.prod(span for _, span in bounds) >= PACK_LIMIT:
        return _pack_union_codes(left, right)
    return _pack(left, bounds), _pack(right, bounds)


def _pack(columns: list[np.ndarray], bounds: list[tuple[int, int]]) -> np.ndarray:
    """``Σ (valueᵢ - lowᵢ) · strideᵢ``, the first column most significant."""
    packed = columns[0] - bounds[0][0]
    for values, (low, span) in zip(columns[1:], bounds[1:]):
        packed *= span
        packed += values - low
    return packed


def _pack_union_codes(
    left: list[np.ndarray], right: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Pack dense per-column codes over the union of both sides."""
    n_left = len(left[0])
    codes: list[np.ndarray] = []
    cards: list[tuple[int, int]] = []
    for lvals, rvals in zip(left, right):
        union, inverse = np.unique(np.concatenate([lvals, rvals]), return_inverse=True)
        codes.append(inverse)
        cards.append((0, len(union)))
    if math.prod(card for _, card in cards) < PACK_LIMIT:
        packed = _pack(codes, cards)
    else:
        # Cardinality overflow: fall back to hash combination
        # (probabilistic, collision odds negligible; see module docstring).
        hashed = splitmix64(codes[0].astype(np.uint64))
        for column in codes[1:]:
            hashed = hash_combine(hashed, splitmix64(column.astype(np.uint64)))
        packed = hashed.view(np.int64)
    return packed[:n_left], packed[n_left:]
