"""Presence bitmap over a dense integer key range.

Every TPC-H and SSB join key is a dense integer, so the surviving keys
of a relation usually fill a short range ``[low, low + span)``.  One bit
per integer of that range is then an **exact** filter (paper §3.2,
"Filter Type"), and up to a cache-sized span it is cheaper to probe
than a Bloom filter, whose false positives also travel on into the
joins: a date range of 110 K orders keeps ``o_orderkey`` within a span
of 110 K, i.e. 13.75 KB of bits against a 165 KB Bloom filter at
fpp 0.01.

* **Build** is one scatter into a ``span``-long boolean array, a morsel
  of keys at a time, and one ``packbits`` — no hash.
* **Probe** (:meth:`BitmapFilter.membership`) unpacks the bits once
  into a ``span + 2`` boolean table that is False at both ends.  Each
  morsel of keys — as ``column_to_u64`` normalizes them, the
  normalization the Bloom and exact filters hash — is then one
  ``table.take(key − (low − 1), mode="clip")`` with the subtraction in
  wrapping ``uint64``: every key outside the span, ``±2⁶³`` included,
  lands below 1 or above ``span`` as ``intp`` and clips onto a False
  end.  No hash
  and no false positives, so the answer is the semi-join's.  The packed
  bits stay the stored, cached and charged form.

When it is used
---------------
:func:`plan` is the whole rule:
:func:`~repro.core.transfer.build_filter` and its memory-budget
estimate both ask it.  A bitmap ships instead of
the filter kind asked for when the source has a single
``INT64``/``DATE`` key column and the span of its non-NULL surviving
keys is at most :func:`span_limit`: the larger of :data:`CACHE_BITS`
(the probe table then stays cache-resident) and the size of the filter
it replaces — the Bloom filter's bit count at its ``fpp`` (the packed
bitmap is no larger), or the exact hash set's *byte* count (the
byte-per-integer array the build scatters into is no larger than the
set).

NULL keys never match a join, so NULL source rows insert nothing and
NULL probe rows never pass.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..storage.column import Column, DType
from .bloom import bloom_bits, morsels
from .hashset import hash_set_bytes

_U64 = np.uint64
_WRAP = (1 << 64) - 1

#: Key column types a bitmap can be built over: integers compared by value.
DENSE_TYPES = (DType.INT64, DType.DATE)

#: A span every bitmap may take, however few keys it holds: 128 KiB
#: packed, a 1 MiB probe table, within a 2 MiB-per-core L2.  Chosen from
#: the span sweep of ``benchmarks/filter_kernels.py`` (3 M probe keys,
#: 2-vCPU Xeon): the byte-table probe, unpack included, costs
#: 1.7–2.7 ns/key up to 2²⁰ bits, then 3.8 at 2²¹ and 7.7 at 2²³ as the
#: table leaves L2 (the packed-bit gather it replaced: 3.8–5.4; hashing
#: plus a Bloom probe: 8.6–11.4).
CACHE_BITS = 1 << 20


def span_limit(rows: int, fpp: float | None) -> int:
    """The widest span a bitmap over ``rows`` keys may take:
    :data:`CACHE_BITS`, or more when the filter it replaces is larger —
    the bit count of the Bloom filter at ``fpp``, or the byte count of
    the exact hash set when ``fpp`` is ``None``."""
    replaced = hash_set_bytes(rows) if fpp is None else bloom_bits(rows, fpp)
    return max(CACHE_BITS, replaced)


def plan(
    columns: Sequence[Column],
    rows: np.ndarray | None,
    fpp: float | None,
) -> tuple[int, int] | None:
    """``(low, span)`` of the bitmap over the non-NULL keys of ``rows``
    (``None`` = all) of ``columns``, or ``None`` when no bitmap ships:
    the key is not one ``INT64``/``DATE`` column, or the span exceeds
    :func:`span_limit` of every row covered.

    One min/max pass, a morsel at a time (Python ints, no overflow)."""
    if len(columns) != 1 or columns[0].dtype not in DENSE_TYPES:
        return None
    (column,) = columns
    ends: list[int] = []
    for values in _values(column, rows):
        if len(values):
            ends += [int(values.min()), int(values.max())]
    low = min(ends, default=0)
    span = max(ends) - low + 1 if ends else 0
    if span > span_limit(_count(column, rows), fpp):
        return None
    return low, span


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

    ``fpp`` is the false-positive target of the Bloom filter it
    replaces (``None`` for an exact set): the size rule it was built
    under.
    """

    low: int
    span: int
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
        low, span = planned
        present = np.zeros(span, dtype=np.bool_)
        for values in _values(column, rows):
            present[values - low] = True
        return BitmapFilter(low, span, fpp, np.packbits(present, bitorder="little"))

    def membership(self) -> Callable[[np.ndarray], np.ndarray]:
        """The membership test of 64-bit keys (``int64``, or the
        ``uint64`` of ``column_to_u64``): unpack the bits once, then
        call it once per morsel.

        Entry ``key − (low − 1)`` of the ``span + 2`` table is the key's
        bit.  Taken mod 2⁶⁴ and read as ``intp``, that offset lies in
        ``[1, span]`` only for keys of the span (two ``int64`` values
        congruent mod 2⁶⁴ are equal), so every other key's offset is
        ``≤ 0`` or ``> span`` and ``clip`` folds it onto a False end."""
        table = np.zeros(self.span + 2, dtype=np.bool_)
        table[1:-1] = np.unpackbits(
            self.bits, count=self.span, bitorder="little"
        ).view(np.bool_)
        origin = _U64((self.low - 1) & _WRAP)

        def contains(keys: np.ndarray) -> np.ndarray:
            offset = keys.view(_U64) - origin
            return table.take(offset.view(np.intp), mode="clip")

        return contains

    @property
    def exact(self) -> bool:
        """Bitmaps admit no false positives."""
        return True

    def size_bytes(self) -> int:
        """Memory footprint of the packed bits."""
        return self.bits.nbytes
