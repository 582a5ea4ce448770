"""Benchmark fixtures.

Scale factors are our SF1/SF10 stand-ins (DESIGN.md §2): the paper ran
TPC-H SF 1 and SF 10 on a C++ vectorized engine; a pure-Python engine
is orders of magnitude slower per tuple, so the stand-ins shrink the
data while preserving every selectivity, and can be scaled via the
``REPRO_SF_SMALL`` / ``REPRO_SF_LARGE`` environment variables.

The defaults are a *calibration*, not a constant: they must keep
per-query work well above the Python fixed-dispatch floor (~1 ms of
planning/graph building per query), or the paper's strategy ordering
drowns in noise.  After the PR 1–2 hot-path work (blocked Bloom
filters, hash caching, late materialization) the engine runs ~2.5×
faster per tuple, so the stand-ins moved up accordingly:
0.02/0.1 → 0.05/0.25 (ratio preserved).  If a future perf PR makes
queries another big step faster, scale these up again rather than
loosening the figure-shape assertions.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.storage import Catalog, Column, DType, Table
from repro.tpch import generate_tpch

SF_SMALL = float(os.environ.get("REPRO_SF_SMALL", "0.05"))
SF_LARGE = float(os.environ.get("REPRO_SF_LARGE", "0.25"))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def artifact():
    """Write a regenerated paper table/figure to benchmarks/results/ and
    echo it to the test output."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (RESULTS_DIR / name).write_text(text + "\n")
        print()
        print(text)

    return write


@pytest.fixture(scope="session")
def catalog_small():
    """The paper's SF1 stand-in."""
    return generate_tpch(sf=SF_SMALL, seed=0)


@pytest.fixture(scope="session")
def catalog_large():
    """The paper's SF10 stand-in."""
    return generate_tpch(sf=SF_LARGE, seed=0)


@pytest.fixture(scope="session")
def catalog_large_sparse(catalog_large):
    """``catalog_large`` with every INT64 ``*key`` column shifted left 24
    bits.  Every join matches as before, but no key span fits a presence
    bitmap, so edges ship the Bloom filter or exact hash set they ask
    for: the catalog on which §3.2's filter types still differ."""
    out = Catalog()
    for name in catalog_large.names():
        table = catalog_large.get(name)
        out.register(
            Table(
                name,
                {
                    c: Column.from_ints(col.data << 24)
                    if c.endswith("key") and col.dtype is DType.INT64
                    else col
                    for c, col in table.columns.items()
                },
            )
        )
    return out
