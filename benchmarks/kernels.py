#!/usr/bin/env python3
"""ns per key or row of the engine's kernels (README, "Pre-filter
kernel", "Join kernel" and "Aggregation").

    python3 benchmarks/kernels.py [ROWS]

Three sections over ROWS (default 3 000 000) keys or rows, min of 5
per line.

**Pre-filter kernel.**  Hashes ROWS INT64 join keys, builds Bloom
filters of 27 000 and 750 000 keys (a dimension's and ``orders``'
survivors at SF 0.5) and probes the ROWS keys against each — once as
one whole-array call per step and once as the morsel loop the engine
runs (hash a slice, use it, next slice).  Beside each Bloom pair, the
exact hash set over the same keys (build and probe, whole-array only),
and the presence bitmap over the same number of keys drawn from a
dense range (a date range of ``o_orderkey``): build as the span pass
(``plan``) + one scatter + ``packbits``, probe as one unpack into the
byte table + normalize and clipped ``take`` per morsel, with sizes and
false positives next to a Bloom filter over the same keys.  Then the
span sweep behind ``bitmap.CACHE_BITS``: bitmaps of ``span / 64`` keys
over spans of 2¹² … 2²³ bits, each probed by ROWS keys drawn from the
span — the byte-table probe (unpack included) beside the packed-bit
gather it replaced and beside hashing plus a Bloom probe over the same
keys.  Last, the measured false-positive rate at three targets.

**Join kernel.**  ROWS is the larger side; the other sides keep the
TPC-H SF 0.5 proportions (``orders`` = ROWS/4, ``partsupp`` =
ROWS/7.5).  Each line is one ``join_indices`` call — build the index,
probe it, enumerate the pairs — over build + probe rows; the paths are
chosen by ``repro.engine.hashjoin.BuildIndex`` from the keys alone,
this script only makes keys that land on each of them.  The "one
partner per probe row" line times the operator instead: ``hash_join``
of a probe view with a selection vector against unique dense build
keys, where every probe row finds one partner and the probe side is
kept in place, plus one read of a probe-side column.  The last lines
time composite-key packing (``normalize_join_keys``) on its own.

**Grouping kernel.**  One key column per path over ROWS rows, shuffled
except on the runs path, whose keys arrive in order, as ``l_orderkey``
does in ``lineitem``.  The paths are chosen by
``repro.engine.factorize.group_rows`` from the columns alone; this
script only builds columns that land on each of them.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.engine.factorize import group_rows  # noqa: E402
from repro.engine.hashjoin import hash_join, join_indices  # noqa: E402
from repro.engine.keys import normalize_join_keys  # noqa: E402
from repro.filters.bitmap import BitmapFilter, plan  # noqa: E402
from repro.filters.bloom import MORSEL_KEYS, BloomFilter, morsels  # noqa: E402
from repro.filters.exact import ExactFilter  # noqa: E402
from repro.filters.hashing import bloom_keys, column_to_u64  # noqa: E402
from repro.storage.column import Column  # noqa: E402
from repro.storage.table import Table  # noqa: E402
from repro.storage.view import TableView  # noqa: E402

Step = Callable[[], object]


def best_seconds(fn: Step, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_ns(fn: Step, keys: int) -> float:
    return best_seconds(fn) / keys * 1e9


# ----------------------------------------------------------------------
# Pre-filter kernel
# ----------------------------------------------------------------------
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


def filter_kernels(n: int) -> None:
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


# ----------------------------------------------------------------------
# Join kernel
# ----------------------------------------------------------------------
def join_kernels(n: int) -> None:
    rng = np.random.default_rng(0)
    orders = np.arange(n // 4, dtype=np.int64) * 4 + 1  # o_orderkey: 1 in 4 used
    lineitem = np.sort(rng.choice(orders, n))  # l_orderkey, clustered
    parts, supps = n // 30, n // 600
    partsupp = rng.choice(parts * supps, int(n / 7.5), replace=False)
    ps_columns = [Column.from_ints(partsupp // supps), Column.from_ints(partsupp % supps)]
    l_partsupp = rng.choice(partsupp, n)
    l_columns = [Column.from_ints(l_partsupp // supps), Column.from_ints(l_partsupp % supps)]
    l_packed, ps_packed = normalize_join_keys(l_columns, ps_columns)

    def line(name: str, build: int, probe: int, pairs: int, seconds: float) -> None:
        print(
            f"{name:52s} {build:9d} {probe:9d} {pairs:9d} "
            f"{seconds * 1e3:8.1f} ms {seconds / (build + probe) * 1e9:6.1f} ns/row"
        )

    # name -> (probe keys, build keys)
    cases = {
        "dense unique build (orders), clustered probe": (lineitem, orders),
        "dense unique build (orders), shuffled probe": (rng.permutation(lineitem), orders),
        "dense duplicate build (lineitem), in bucket order": (orders, lineitem),
        "dense duplicate build (lineitem), shuffled": (orders, rng.permutation(lineitem)),
        "sparse unique composite build (partsupp), hashed": (l_packed, ps_packed),
        "tiny build (25 nations)": (rng.integers(0, 25, n), np.arange(25)),
    }
    print(f"{'path':52s} {'build':>9s} {'probe':>9s} {'pairs':>9s}")
    for name, (probe, build) in cases.items():
        seconds = best_seconds(lambda: join_indices(probe, build))
        pairs = len(join_indices(probe, build)[0])
        line(name, len(build), len(probe), pairs, seconds)

    # Every other lineitem row survives (a transfer's selection vector);
    # each finds its one order.
    l_table = Table("l", {
        "l_orderkey": Column.from_ints(lineitem),
        "l_quantity": Column.from_floats(rng.random(n)),
    })
    o_table = Table("o", {"o_orderkey": Column.from_ints(orders)})
    survivors = np.arange(0, n, 2)

    def one_partner() -> None:
        probe = TableView.over(l_table, rows=survivors)
        joined, stat = hash_join(probe, o_table, ["l_orderkey"], ["o_orderkey"])
        assert stat.probe_kept
        joined.column("l_quantity")

    line(
        "one partner per probe row: hash_join + 1 column read",
        len(orders), len(survivors), len(survivors), best_seconds(one_partner),
    )

    packings = {
        "pack (partkey, suppkey), span product < 2**62": (l_columns, ps_columns),
        "pack (float, int), np.unique route": (
            [Column.from_floats(l_columns[0].data.astype(np.float64)), l_columns[1]],
            [Column.from_floats(ps_columns[0].data.astype(np.float64)), ps_columns[1]],
        ),
    }
    for name, (left, right) in packings.items():
        seconds = best_seconds(lambda: normalize_join_keys(left, right))
        rows = len(left[0]) + len(right[0])
        print(f"{name:82s} {seconds * 1e3:8.1f} ms {seconds / rows * 1e9:6.1f} ns/row")


# ----------------------------------------------------------------------
# Grouping kernel
# ----------------------------------------------------------------------
def grouping_paths(n: int) -> None:
    rng = np.random.default_rng(0)
    few = rng.integers(1, n // 30 + 1, n)  # l_partkey: 30 rows per group
    many = rng.integers(1, n // 4 + 1, n)  # l_orderkey: 4 rows per group
    cases = {
        "direct address, rows/30 groups": [Column.from_ints(few)],
        "direct address, rows/4 groups": [Column.from_ints(many)],
        "  + a dependent column (skipped)": [
            Column.from_ints(many),
            Column.from_ints(many * 7 + 3),
        ],
        "runs, rows/4 groups in key order": [Column.from_ints(np.sort(many))],
        "direct address, 25 x 7 groups in two columns": [
            Column.from_ints(rng.integers(0, 25, n)),
            Column.from_ints(rng.integers(1992, 1999, n)),
        ],
        "row-tagged sort, rows/4 groups spread over 2**40": [
            Column.from_ints(many * 1_400_000)
        ],
        "np.unique, rows/4 float groups": [
            Column.from_floats(many.astype(np.float64))
        ],
    }
    for name, columns in cases.items():
        best = best_seconds(lambda: group_rows(columns, n))
        print(f"{name:50s} {best * 1e3:8.1f} ms {best / n * 1e9:6.1f} ns/row")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
    for section in (filter_kernels, join_kernels, grouping_paths):
        section(n)
        print()


if __name__ == "__main__":
    main()
