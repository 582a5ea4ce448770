"""Presence bitmap over a dense integer key range.

Every TPC-H and SSB join key is a dense integer, so the surviving keys
of a relation usually fill a short range ``[low, low + span)``.  One bit
per integer of that range is then an **exact** filter that is often
*smaller* than the Bloom filter it replaces (paper §3.2, "Filter
Type"): a date range of 110 K orders keeps ``o_orderkey`` within a span
of 110 K, i.e. 13.75 KB of bits against a 165 KB Bloom filter at
fpp 0.01.

* **Build** is one scatter into a ``span``-long boolean array, a morsel
  of keys at a time, and one ``packbits`` — no hash.
* **Probe** takes the keys ``column_to_u64`` normalizes them to (the
  normalization the Bloom and exact filters hash), computes
  ``k = key − low`` in ``uint64`` — wrap-around makes every key below
  ``low`` huge, so ``k < span`` is the whole range test for any int64
  — and gathers bit ``k``.  No false positives, so the answer is the
  semi-join's.

When it is used
---------------
:func:`plan` is the whole rule:
:func:`~repro.core.transfer.build_filter`, its memory-budget estimate
and the cache extension (:meth:`BitmapFilter.extended`) all ask it.
A bitmap ships instead of
the filter kind asked for when the source has a single
``INT64``/``DATE`` key column and the span of its non-NULL surviving
keys is at most :func:`span_limit`: the Bloom filter's bit count at
its ``fpp`` (so the packed bitmap is never larger), or the exact hash
set's *byte* count (so even the byte-per-integer array the build
scatters into is no larger than the set).  The bitmap carries the row
count and ``fpp`` it was sized against, so an extension over appended
rows applies the same rule to the merged rows and is therefore exactly
what a fresh build would ship.

NULL keys never match a join, so NULL source rows insert nothing and
NULL probe rows never pass.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..storage.column import Column, DType
from .bloom import bloom_bits, morsels
from .hashset import hash_set_bytes

_U64 = np.uint64
_WRAP = (1 << 64) - 1
_NO_BITS = np.zeros(0, dtype=np.uint8)

#: Key column types a bitmap can be built over: integers compared by value.
DENSE_TYPES = (DType.INT64, DType.DATE)


def span_limit(rows: int, fpp: float | None) -> int:
    """The widest span a bitmap over ``rows`` keys may take: the bit
    count of the Bloom filter at ``fpp``, or the byte count of the exact
    hash set when ``fpp`` is ``None``."""
    return hash_set_bytes(rows) if fpp is None else bloom_bits(rows, fpp)


def plan(
    columns: Sequence[Column],
    rows: np.ndarray | None,
    fpp: float | None,
    held: BitmapFilter | None = None,
) -> tuple[int, int] | None:
    """``(low, span)`` of the bitmap over the non-NULL keys of ``rows``
    (``None`` = all) of ``columns`` — and of ``held``'s keys and rows,
    when extending it — or ``None`` when no bitmap ships: the key is not
    one ``INT64``/``DATE`` column, or the span exceeds
    :func:`span_limit` of every row covered.

    One min/max pass, a morsel at a time (Python ints, no overflow)."""
    if len(columns) != 1 or columns[0].dtype not in DENSE_TYPES:
        return None
    (column,) = columns
    ends: list[int] = []
    covered = _count(column, rows)
    if held is not None:
        covered += held.rows
        if held.span:
            ends += [held.low, held.low + held.span - 1]
    for values in _values(column, rows):
        if len(values):
            ends += [int(values.min()), int(values.max())]
    low = min(ends, default=0)
    span = max(ends) - low + 1 if ends else 0
    return (low, span) if span <= span_limit(covered, fpp) else None


def _count(column: Column, rows: np.ndarray | None) -> int:
    return len(column) if rows is None else len(rows)


def _values(column: Column, rows: np.ndarray | None) -> Iterator[np.ndarray]:
    """The non-NULL keys of ``rows`` (``None`` = all) of ``column``, as
    ``int64``, one morsel at a time."""
    for span in morsels(0, _count(column, rows)):
        at = span if rows is None else rows[span]
        values = column.data[at]
        if column.valid is not None:
            values = values[column.valid[at]]
        yield values.astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False)
class BitmapFilter:
    """One bit per integer of ``[low, low + span)``, set for the keys
    present.

    ``rows`` is the number of source rows the bitmap covers, NULL rows
    included, and ``fpp`` the false-positive target of the Bloom filter
    it replaces (``None`` for an exact set): together they fix the size
    rule an extension must keep obeying.
    """

    low: int
    span: int
    rows: int
    fpp: float | None
    bits: np.ndarray  # packed little-endian, ceil(span / 8) bytes

    @staticmethod
    def build(
        column: Column,
        rows: np.ndarray | None,
        fpp: float | None,
        planned: tuple[int, int],
    ) -> BitmapFilter:
        """The bitmap of the non-NULL keys of ``rows`` (``None`` = all)
        of ``column``, over the ``(low, span)`` :func:`plan` returned
        for the same arguments."""
        return BitmapFilter(0, 0, 0, fpp, _NO_BITS)._merged(column, rows, planned)

    def extended(
        self, column: Column, rows: np.ndarray | None
    ) -> BitmapFilter | None:
        """What :meth:`build` returns over this bitmap's rows plus
        ``rows`` of ``column`` — ``None`` exactly when a fresh build
        over all of them would not pick a bitmap.  A new object; this
        one is never written."""
        planned = plan([column], rows, self.fpp, held=self)
        return None if planned is None else self._merged(column, rows, planned)

    def _merged(
        self, column: Column, rows: np.ndarray | None, planned: tuple[int, int]
    ) -> BitmapFilter:
        low, span = planned
        present = np.zeros(span, dtype=np.bool_)
        if self.span:  # the held bits, moved to their offset in the new span
            start = self.low - low
            present[start : start + self.span] = np.unpackbits(
                self.bits, count=self.span, bitorder="little"
            ).view(np.bool_)
        for values in _values(column, rows):
            present[values - low] = True
        return BitmapFilter(
            low,
            span,
            self.rows + _count(column, rows),
            self.fpp,
            np.packbits(present, bitorder="little"),
        )

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask of 64-bit keys (``int64``, or the ``uint64``
        of ``column_to_u64``)."""
        if self.span == 0:
            return np.zeros(len(keys), dtype=np.bool_)
        offset = keys.view(_U64) - _U64(self.low & _WRAP)  # wraps below low
        inside = offset < _U64(self.span)
        # Out-of-range offsets read the last byte; ``inside`` drops them.
        byte = self.bits.take((offset >> _U64(3)).view(np.intp), mode="clip")
        byte >>= (offset & _U64(7)).astype(np.uint8)
        byte &= np.uint8(1)
        return byte.view(np.bool_) & inside

    @property
    def exact(self) -> bool:
        """Bitmaps admit no false positives."""
        return True

    def size_bytes(self) -> int:
        """Memory footprint of the packed bits."""
        return self.bits.nbytes
