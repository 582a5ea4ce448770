#!/usr/bin/env python3
"""ns/key of the pre-filter kernel's steps (README, "Pre-filter kernel").

    python3 benchmarks/filter_kernels.py [KEYS]

Hashes KEYS (default 3 000 000) INT64 join keys, builds Bloom filters
of 27 000 and 750 000 keys (a dimension's and ``orders``' survivors at
SF 0.5) and probes the KEYS against each — once as one whole-array call
per step and once as the morsel loop the engine runs (hash a slice,
use it, next slice).  Beside each Bloom pair, the exact hash set over
the same keys (build and probe, whole-array only), and the presence
bitmap over the same number of keys drawn from a dense range (a date range of
``o_orderkey``): build as the span pass (``plan``) + one scatter +
``packbits``, probe as one unpack into the byte table + normalize and
clipped ``take`` per morsel, with sizes and false positives next to a
Bloom filter over the same keys.  Min of 5.

Then the span sweep behind ``bitmap.CACHE_BITS``: bitmaps of
``span / 64`` keys over spans of 2¹² … 2²³ bits, each probed by the
KEYS drawn from the span — the byte-table probe (unpack included)
beside the packed-bit gather it replaced and beside hashing plus a
Bloom probe over the same keys.  Last, the measured false-positive rate
at three targets.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.filters.bitmap import BitmapFilter, plan  # noqa: E402
from repro.filters.bloom import MORSEL_KEYS, BloomFilter, morsels  # noqa: E402
from repro.filters.exact import ExactFilter  # noqa: E402
from repro.filters.hashing import bloom_keys, column_to_u64  # noqa: E402
from repro.storage.column import Column  # noqa: E402


Step = Callable[[], object]


def best_ns(fn: Step, keys: int, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best / keys * 1e9


def table_probe(bitmap: BitmapFilter, column: Column, n: int) -> list[np.ndarray]:
    """The engine's bitmap probe: unpack once, one ``take`` per morsel."""
    contains = bitmap.membership()
    return [contains(column_to_u64(column, span)) for span in morsels(0, n)]


def packed_probe(bitmap: BitmapFilter, column: Column, n: int) -> list[np.ndarray]:
    """The packed-bit gather the byte table replaced, for comparison:
    a range test, then byte ``k >> 3`` shifted by ``k & 7``."""
    out = []
    for span in morsels(0, n):
        offset = column_to_u64(column, span) - np.uint64(bitmap.low)
        inside = offset < np.uint64(bitmap.span)
        byte = bitmap.bits.take((offset >> np.uint64(3)).view(np.intp), mode="clip")
        byte >>= (offset & np.uint64(7)).astype(np.uint8)
        byte &= np.uint8(1)
        out.append(byte.view(np.bool_) & inside)
    return out


def bloom_probe(bloom: BloomFilter, column: Column, n: int) -> list[np.ndarray]:
    """Hash a morsel, probe the Bloom filter with it."""
    return [bloom.contains_hashes(bloom_keys([column], span)) for span in morsels(0, n)]


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
    rng = np.random.default_rng(0)
    probe_column = [Column.from_ints(rng.integers(1, n, n))]
    whole = slice(0, n)
    print(f"{n} keys, morsel = {MORSEL_KEYS} keys; ns/key, whole-array | morsel loop")

    def row(name: str, one_call: Step, loop: Step | None, keys: int) -> None:
        looped = "     —" if loop is None else f"{best_ns(loop, keys):6.1f}"
        print(f"{name:44s} {best_ns(one_call, keys):6.1f} | {looped}")

    row(
        "hash",
        lambda: bloom_keys(probe_column, whole),
        lambda: [bloom_keys(probe_column, span) for span in morsels(0, n)],
        n,
    )
    for members in (27_000, 750_000):
        build_column = [Column.from_ints(rng.integers(1, n, members))]
        build_hashes = bloom_keys(build_column)
        probe_hashes = bloom_keys(probe_column)

        def build_loop() -> BloomFilter:
            filt = BloomFilter(capacity=members, fpp=0.01)
            for span in morsels(0, members):
                filt.add_hashes(build_hashes[span])
            return filt

        filt = build_loop()
        row(
            f"build, {members} keys",
            lambda: BloomFilter(capacity=members, fpp=0.01).add_hashes(build_hashes),
            build_loop,
            members,
        )
        row(
            f"probe, {members}-key filter",
            lambda: filt.contains_hashes(probe_hashes),
            lambda: [filt.contains_hashes(probe_hashes[span]) for span in morsels(0, n)],
            n,
        )
        row(
            f"hash + probe, {members}-key filter",
            lambda: filt.contains_hashes(bloom_keys(probe_column, whole)),
            lambda: [
                filt.contains_hashes(bloom_keys(probe_column, span))
                for span in morsels(0, n)
            ],
            n,
        )

        # The exact kind (Yannakakis, filter_type="exact") over the same
        # keys: one insert and one probe per key, whole-array.
        build_u64 = column_to_u64(build_column[0])
        exact = ExactFilter.from_keys(build_u64)
        row(
            f"exact set build, {members} keys",
            lambda: ExactFilter.from_keys(build_u64),
            None,
            members,
        )
        row(
            f"exact set probe, {members}-key set",
            lambda: exact.contains_keys(column_to_u64(probe_column[0])),
            None,
            n,
        )

        # The bitmap twin: as many keys, one contiguous run of them.
        start = int(rng.integers(1, max(2, n - members)))
        dense = np.arange(start, start + members, dtype=np.int64)
        dense_column = Column.from_ints(dense)

        def build_bitmap() -> BitmapFilter:  # the span pass, then the scatter
            planned = plan([dense_column], None, 0.01)
            assert planned is not None  # a dense run always fits
            return BitmapFilter.build(dense_column, None, 0.01, planned)

        bitmap = build_bitmap()
        row(f"bitmap plan + build, {members} keys", build_bitmap, None, members)
        row(
            f"bitmap probe (byte table), {members}-key bitmap",
            lambda: bitmap.membership()(column_to_u64(probe_column[0], whole)),
            lambda: table_probe(bitmap, probe_column[0], n),
            n,
        )
        twin = BloomFilter.from_keys(dense.view(np.uint64), fpp=0.01)
        truth = bitmap.membership()(column_to_u64(probe_column[0]))
        false_pos = int((twin.contains_keys(column_to_u64(probe_column[0])) & ~truth).sum())
        print(
            f"  {members}-key run: bitmap {bitmap.size_bytes()} B, 0 false positives; "
            f"Bloom {twin.size_bytes()} B, {false_pos} false positives "
            f"beside {int(truth.sum())} true matches"
        )

    print(
        f"span sweep, {n} probe keys inside the span; ns/key, morsel loop: "
        "byte table (unpack included) | packed gather | hash + Bloom probe"
    )
    for shift in range(12, 24):
        span = 1 << shift
        keys = np.concatenate([[0, span - 1], rng.integers(0, span, span // 64)])
        column = Column.from_ints(keys.astype(np.int64))
        bitmap = BitmapFilter.build(column, None, 0.01, (0, span))
        bloom = BloomFilter.from_keys(column.data.view(np.uint64), fpp=0.01)
        inside = Column.from_ints(rng.integers(0, span, n))
        print(
            f"  2^{shift:<2} bits: {bitmap.size_bytes() / 1024:8.1f} KiB packed, "
            f"Bloom {bloom.size_bytes() / 1024:7.1f} KiB   "
            f"{best_ns(lambda: table_probe(bitmap, inside, n), n):5.1f} | "
            f"{best_ns(lambda: packed_probe(bitmap, inside, n), n):5.1f} | "
            f"{best_ns(lambda: bloom_probe(bloom, inside, n), n):5.1f}"
        )

    members = rng.integers(0, 2**62, 200_000).astype(np.uint64)
    others = (rng.integers(0, 2**62, 2_000_000) | (1 << 62)).astype(np.uint64)
    for target in (0.05, 0.01, 0.001):
        filt = BloomFilter.from_keys(members, fpp=target)
        measured = filt.contains_keys(others).mean()
        print(
            f"fpp target {target:<6} measured {measured:.4f}   "
            f"k = {filt.num_hashes}, {filt.size_bytes() * 8 / len(members):.1f} bits/key"
        )


if __name__ == "__main__":
    main()
