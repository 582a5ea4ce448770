#!/usr/bin/env python3
"""ns per input row of each path of the join kernel (README, "Join kernel").

    python3 benchmarks/join_kernels.py [ROWS]

ROWS (default 3 000 000) is the larger side; the other sides keep the
TPC-H SF 0.5 proportions (``orders`` = ROWS/4, ``partsupp`` = ROWS/7.5).
Each line is one ``join_indices`` call — build the index, probe it,
enumerate the pairs — over build + probe rows, min of 5; the paths are
chosen by ``repro.engine.hashjoin.BuildIndex`` from the keys alone, this
script only makes keys that land on each of them.  The "one partner per
probe row" line times the operator instead: ``hash_join`` of a probe
view with a selection vector against unique dense build keys, where
every probe row finds one partner and the probe side is kept in place,
plus one read of a probe-side column.  The last lines time
composite-key packing (``normalize_join_keys``) on its own.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.engine.hashjoin import hash_join, join_indices  # noqa: E402
from repro.engine.keys import normalize_join_keys  # noqa: E402
from repro.storage.column import Column  # noqa: E402
from repro.storage.table import Table  # noqa: E402
from repro.storage.view import TableView  # noqa: E402


def best_seconds(fn: Callable[[], object], repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
    rng = np.random.default_rng(0)
    orders = np.arange(n // 4, dtype=np.int64) * 4 + 1  # o_orderkey: 1 in 4 used
    lineitem = np.sort(rng.choice(orders, n))  # l_orderkey, clustered
    parts, supps = n // 30, n // 600
    partsupp = rng.choice(parts * supps, int(n / 7.5), replace=False)
    ps_columns = [Column.from_ints(partsupp // supps), Column.from_ints(partsupp % supps)]
    l_partsupp = rng.choice(partsupp, n)
    l_columns = [Column.from_ints(l_partsupp // supps), Column.from_ints(l_partsupp % supps)]
    l_packed, ps_packed = normalize_join_keys(l_columns, ps_columns)

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
        rows = len(probe) + len(build)
        pairs = len(join_indices(probe, build)[0])
        print(
            f"{name:52s} {len(build):9d} {len(probe):9d} {pairs:9d} "
            f"{seconds * 1e3:8.1f} ms {seconds / rows * 1e9:6.1f} ns/row"
        )

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

    seconds = best_seconds(one_partner)
    rows = len(survivors) + len(orders)
    name = "one partner per probe row: hash_join + 1 column read"
    print(
        f"{name:52s} {len(orders):9d} {len(survivors):9d} {len(survivors):9d} "
        f"{seconds * 1e3:8.1f} ms {seconds / rows * 1e9:6.1f} ns/row"
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


if __name__ == "__main__":
    main()
