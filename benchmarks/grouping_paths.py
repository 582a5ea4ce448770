#!/usr/bin/env python3
"""ns/row of each path of the grouping kernel (README, "Aggregation").

    python3 benchmarks/grouping_paths.py [ROWS]

One key column per path over ROWS (default 3 000 000) rows, min of 5.
The rows are shuffled except on the runs path, whose keys arrive in
order, as ``l_orderkey`` does in ``lineitem``.  The paths are chosen by
``repro.engine.factorize.group_rows`` from the columns alone; this
script only builds columns that land on each of them.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.engine.factorize import group_rows  # noqa: E402
from repro.storage.column import Column  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
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
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            group_rows(columns, n)
            best = min(best, time.perf_counter() - start)
        print(f"{name:50s} {best * 1e3:8.1f} ms {best / n * 1e9:6.1f} ns/row")


if __name__ == "__main__":
    main()
