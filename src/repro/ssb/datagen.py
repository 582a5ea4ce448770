"""Star Schema Benchmark (SSB) data generator.

SSB is the workload family the paper's closest prior work (LIP [39])
evaluates on: one denormalized fact table (``lineorder``) and four
dimensions (``date``, ``customer``, ``supplier``, ``part``).  Predicate
transfer on a pure star degenerates to one-hop Bloom join, so SSB is
the boundary case where BloomJoin and PredTrans should converge — the
SSB benches verify exactly that.

The generator follows the SSB spec's schemas and value families
(regions/nations/cities, MFGR mfgr→category→brand hierarchy, yyyymmdd
date keys); cardinalities scale linearly with SF.  Deterministic per
``(sf, seed)``.
"""

from __future__ import annotations

import numpy as np

from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.table import Table
from ..tpch.text import NATIONS, REGIONS, joined_pool

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_SHIPMODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
_COLORS = ["red", "green", "blue", "ivory", "peach", "olive", "azure", "linen"]
_MONTHS = [
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
]
_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def _scaled(base: int, sf: float) -> int:
    return max(1, int(round(base * sf)))


def _mfgr_column(numbers: np.ndarray, lo: int, hi: int) -> Column:
    """``MFGR#<number>`` for each of ``numbers``, all in ``[lo, hi)``."""
    return Column.from_pool(numbers - lo, [f"MFGR#{k}" for k in range(lo, hi)])


class SSBGenerator:
    """Deterministic scaled SSB generator (see module docstring)."""

    def __init__(self, sf: float = 0.01, seed: int = 0) -> None:
        self.sf = sf
        self.rng = np.random.default_rng(np.random.PCG64(seed ^ 0x55B))
        self.num_customers = _scaled(30_000, sf)
        self.num_suppliers = _scaled(2_000, sf)
        self.num_parts = _scaled(200_000, sf)
        self.num_lineorders = _scaled(6_000_000, sf)

    def generate(self) -> Catalog:
        """Generate all five SSB tables into a fresh catalog."""
        catalog = Catalog()
        date = self.date_dim()
        catalog.register(date)
        catalog.register(self.customer())
        catalog.register(self.supplier())
        catalog.register(self.part())
        catalog.register(self.lineorder(date))
        return catalog

    # ------------------------------------------------------------------
    def date_dim(self) -> Table:
        """The 7-year (1992–1998) date dimension, yyyymmdd keys."""
        keys: list[int] = []
        years: list[int] = []
        monthnums: list[int] = []
        weeks: list[int] = []
        months: list[str] = []
        yearmonths: list[str] = []
        for year in range(1992, 1999):
            day_of_year = 0
            for month_index, n_days in enumerate(_DAYS_IN_MONTH):
                for day in range(1, n_days + 1):
                    day_of_year += 1
                    keys.append(year * 10_000 + (month_index + 1) * 100 + day)
                    years.append(year)
                    months.append(_MONTHS[month_index])
                    monthnums.append(year * 100 + month_index + 1)
                    weeks.append((day_of_year - 1) // 7 + 1)
                    yearmonths.append(f"{_MONTHS[month_index][:3]}{year}")
        return Table(
            "date",
            {
                "d_datekey": Column.from_ints(np.asarray(keys)),
                "d_year": Column.from_ints(np.asarray(years)),
                "d_month": Column.from_strings(months),
                "d_yearmonthnum": Column.from_ints(np.asarray(monthnums)),
                "d_yearmonth": Column.from_strings(yearmonths),
                "d_weeknuminyear": Column.from_ints(np.asarray(weeks)),
            },
        )

    def _geo(self, n: int) -> tuple[Column, Column, Column]:
        """(city, nation, region) columns following SSB's NATION0-9 cities:
        a city is its nation's name cut or padded to 9 characters plus
        one digit."""
        nation_ids = self.rng.integers(0, len(NATIONS), size=n)
        city_digit = self.rng.integers(0, 10, size=n)
        names = [name for name, _ in NATIONS]
        region_ids = np.asarray([region for _, region in NATIONS])
        cities = [f"{name[:9]:9s}{digit}" for name in names for digit in range(10)]
        return (
            Column.from_pool(nation_ids * 10 + city_digit, cities),
            Column.from_pool(nation_ids, names),
            Column.from_pool(region_ids[nation_ids], REGIONS),
        )

    def customer(self) -> Table:
        """SSB customer dimension."""
        n = self.num_customers
        keys = np.arange(1, n + 1, dtype=np.int64)
        city, nation, region = self._geo(n)
        seg_codes = self.rng.integers(0, len(_SEGMENTS), size=n)
        return Table(
            "customer",
            {
                "c_custkey": Column.from_ints(keys),
                "c_name": Column.from_strings([f"Customer#{k:09d}" for k in keys]),
                "c_city": city,
                "c_nation": nation,
                "c_region": region,
                "c_mktsegment": Column.from_codes(
                    seg_codes.astype(np.int32),
                    np.asarray(_SEGMENTS, dtype=object),
                ),
            },
        )

    def supplier(self) -> Table:
        """SSB supplier dimension."""
        n = self.num_suppliers
        keys = np.arange(1, n + 1, dtype=np.int64)
        city, nation, region = self._geo(n)
        return Table(
            "supplier",
            {
                "s_suppkey": Column.from_ints(keys),
                "s_name": Column.from_strings([f"Supplier#{k:09d}" for k in keys]),
                "s_city": city,
                "s_nation": nation,
                "s_region": region,
            },
        )

    def part(self) -> Table:
        """SSB part dimension with the MFGR#m / MFGR#mc / MFGR#mcbb
        manufacturer → category → brand1 hierarchy."""
        n = self.num_parts
        rng = self.rng
        keys = np.arange(1, n + 1, dtype=np.int64)
        mfgr = rng.integers(1, 6, size=n)
        category = mfgr * 10 + rng.integers(1, 6, size=n)
        brand = category * 100 + rng.integers(1, 41, size=n)
        color_codes = [rng.integers(0, len(_COLORS), size=n) for _ in range(2)]
        return Table(
            "part",
            {
                "p_partkey": Column.from_ints(keys),
                "p_name": Column.from_pool(
                    *joined_pool(color_codes, (_COLORS, _COLORS))
                ),
                "p_mfgr": _mfgr_column(mfgr, 1, 6),
                "p_category": _mfgr_column(category, 11, 56),
                "p_brand1": _mfgr_column(brand, 1101, 5541),
                "p_size": Column.from_ints(rng.integers(1, 51, size=n).astype(np.int64)),
            },
        )

    def lineorder(self, date: Table) -> Table:
        """SSB fact table; foreign keys into all four dimensions."""
        n = self.num_lineorders
        rng = self.rng
        datekeys = date.column("d_datekey").data
        price = rng.integers(90_000, 200_001, size=n) / 100.0
        discount = rng.integers(0, 11, size=n).astype(np.int64)
        quantity = rng.integers(1, 51, size=n).astype(np.int64)
        revenue = price * quantity * (100 - discount) / 100.0
        return Table(
            "lineorder",
            {
                "lo_orderkey": Column.from_ints(
                    np.arange(1, n + 1, dtype=np.int64)
                ),
                "lo_custkey": Column.from_ints(
                    rng.integers(1, self.num_customers + 1, size=n).astype(np.int64)
                ),
                "lo_partkey": Column.from_ints(
                    rng.integers(1, self.num_parts + 1, size=n).astype(np.int64)
                ),
                "lo_suppkey": Column.from_ints(
                    rng.integers(1, self.num_suppliers + 1, size=n).astype(np.int64)
                ),
                "lo_orderdate": Column.from_ints(
                    datekeys[rng.integers(0, len(datekeys), size=n)].astype(np.int64)
                ),
                "lo_quantity": Column.from_ints(quantity),
                "lo_extendedprice": Column.from_floats(price * quantity),
                "lo_discount": Column.from_ints(discount),
                "lo_revenue": Column.from_floats(revenue),
                "lo_supplycost": Column.from_floats(price * 0.6),
                "lo_shipmode": Column.from_codes(
                    rng.integers(0, len(_SHIPMODES), size=n).astype(np.int32),
                    np.asarray(_SHIPMODES, dtype=object),
                ),
            },
        )


def generate_ssb(sf: float = 0.01, seed: int = 0) -> Catalog:
    """Generate an SSB catalog at the given scale factor."""
    return SSBGenerator(sf=sf, seed=seed).generate()
