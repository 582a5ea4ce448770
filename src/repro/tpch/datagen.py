"""TPC-H data generator (dbgen substitute).

Generates all eight TPC-H tables at any scale factor with NumPy,
following the specification's schemas, key structure, value formulas and
distributions:

* exact key formulas where the spec gives them (partsupp's supplier
  rotation, part retail prices, customer phone country codes,
  orderstatus derived from lineitem linestatus, 2/3 of customers having
  orders, sparse lineitem dates anchored on the order date);
* spec-rate injection of the comment patterns the queries test
  (``%special%requests%`` for Q13, ``%Customer%Complaints%`` for Q16);
* uniform distributions elsewhere, as in dbgen.

Free-text columns draw from bounded pools instead of dbgen's grammar
(documented substitution — predicate selectivities are preserved, text
entropy is not).  Generation is deterministic per ``(sf, seed)``.
"""

from __future__ import annotations

import numpy as np

from ..storage.catalog import Catalog
from ..storage.column import Column
from ..storage.dates import date_to_days
from ..storage.table import Table
from . import text

_START = date_to_days("1992-01-01")
_CURRENT = date_to_days("1995-06-17")
_END = date_to_days("1998-08-02")


def _scaled(base: int, sf: float) -> int:
    return max(1, int(round(base * sf)))


class TPCHGenerator:
    """Deterministic scaled TPC-H generator.

    Parameters
    ----------
    sf:
        Scale factor.  SF 1 matches the spec's nominal sizes (6M
        lineitems); the benchmark suite uses 0.01/0.1 as its SF1/SF10
        stand-ins (see DESIGN.md §2).
    seed:
        RNG seed; identical ``(sf, seed)`` produce identical catalogs.
    """

    def __init__(self, sf: float = 0.01, seed: int = 0) -> None:
        self.sf = sf
        self.rng = np.random.default_rng(np.random.PCG64(seed))
        self.num_suppliers = _scaled(10_000, sf)
        self.num_parts = _scaled(200_000, sf)
        self.num_customers = _scaled(150_000, sf)
        self.num_orders = _scaled(1_500_000, sf)
        self._comment_pool = text.comment_pool(self.rng, 4_000)

    # ------------------------------------------------------------------
    def generate(self) -> Catalog:
        """Generate all eight tables into a fresh catalog."""
        catalog = Catalog()
        catalog.register(self.region())
        catalog.register(self.nation())
        catalog.register(self.supplier())
        part = self.part()
        catalog.register(part)
        catalog.register(self.partsupp())
        catalog.register(self.customer())
        orders, lineitem = self.orders_and_lineitem(part)
        catalog.register(orders)
        catalog.register(lineitem)
        return catalog

    # ------------------------------------------------------------------
    def _comments(self, n: int) -> Column:
        codes = self.rng.integers(0, len(self._comment_pool), size=n)
        return Column.from_codes(codes.astype(np.int32), self._comment_pool)

    def _pool_strings(self, n: int, pool: list[str]) -> Column:
        codes = self.rng.integers(0, len(pool), size=n)
        return Column.from_codes(codes.astype(np.int32), np.asarray(pool, dtype=object))

    def _money(self, n: int, low: float, high: float) -> np.ndarray:
        cents = self.rng.integers(int(low * 100), int(high * 100) + 1, size=n)
        return cents / 100.0

    def _phones(self, nationkeys: np.ndarray) -> Column:
        rng = self.rng
        parts = rng.integers(100, 1000, size=(len(nationkeys), 2))
        last = rng.integers(1000, 10_000, size=len(nationkeys))
        values = [
            f"{10 + nk}-{a}-{b}-{c}"
            for nk, (a, b), c in zip(nationkeys, parts, last)
        ]
        return Column.from_strings(values)

    # ------------------------------------------------------------------
    def region(self) -> Table:
        """The fixed five-row region table."""
        return Table(
            "region",
            {
                "r_regionkey": Column.from_ints(np.arange(5)),
                "r_name": Column.from_strings(text.REGIONS),
                "r_comment": self._comments(5),
            },
        )

    def nation(self) -> Table:
        """The fixed 25-row nation table (spec's nation→region map)."""
        names = [n for n, _ in text.NATIONS]
        regionkeys = np.asarray([r for _, r in text.NATIONS], dtype=np.int64)
        return Table(
            "nation",
            {
                "n_nationkey": Column.from_ints(np.arange(25)),
                "n_name": Column.from_strings(names),
                "n_regionkey": Column.from_ints(regionkeys),
                "n_comment": self._comments(25),
            },
        )

    def supplier(self) -> Table:
        """Suppliers, with Q16's Customer-Complaints comments at spec rate."""
        n = self.num_suppliers
        rng = self.rng
        keys = np.arange(1, n + 1, dtype=np.int64)
        names = Column.from_strings([f"Supplier#{k:09d}" for k in keys])
        nationkeys = rng.integers(0, 25, size=n)

        # Comments: spec plants 5 "Customer Complaints" suppliers per
        # 10k; guarantee at least one at tiny scale factors.
        base_codes = rng.integers(0, len(self._comment_pool), size=n)
        n_complaints = max(1, int(round(n * 5 / 10_000)))
        complaint_strings = text.customer_complaints_comments(rng, n_complaints)
        dictionary = np.concatenate([self._comment_pool, complaint_strings])
        complaint_rows = rng.choice(n, size=n_complaints, replace=False)
        base_codes[complaint_rows] = len(self._comment_pool) + np.arange(n_complaints)

        return Table(
            "supplier",
            {
                "s_suppkey": Column.from_ints(keys),
                "s_name": names,
                "s_address": self._comments(n),
                "s_nationkey": Column.from_ints(nationkeys.astype(np.int64)),
                "s_phone": self._phones(nationkeys),
                "s_acctbal": Column.from_floats(self._money(n, -999.99, 9999.99)),
                "s_comment": Column.from_codes(
                    base_codes.astype(np.int32), dictionary
                ),
            },
        )

    def part(self) -> Table:
        """Parts: spec brand/type/container structure and price formula."""
        n = self.num_parts
        rng = self.rng
        keys = np.arange(1, n + 1, dtype=np.int64)
        mfgr = rng.integers(1, 6, size=n)
        brand = mfgr * 10 + rng.integers(1, 6, size=n)
        type_syllables = (
            text.TYPE_SYLLABLE_1, text.TYPE_SYLLABLE_2, text.TYPE_SYLLABLE_3
        )
        type_codes = [rng.integers(0, len(s), size=n) for s in type_syllables]
        container_syllables = (text.CONTAINER_SYLLABLE_1, text.CONTAINER_SYLLABLE_2)
        container_codes = [rng.integers(0, len(s), size=n) for s in container_syllables]
        # Spec formula: (90000 + ((partkey/10) mod 20001) + 100*(partkey mod 1000)) / 100
        retail = (90_000 + (keys // 10) % 20_001 + 100 * (keys % 1_000)) / 100.0
        return Table(
            "part",
            {
                "p_partkey": Column.from_ints(keys),
                "p_name": Column.from_strings(text.part_names(rng, n)),
                "p_mfgr": Column.from_pool(
                    mfgr - 1, [f"Manufacturer#{m}" for m in range(1, 6)]
                ),
                "p_brand": Column.from_pool(
                    brand - 11, [f"Brand#{b}" for b in range(11, 56)]
                ),
                "p_type": Column.from_pool(
                    *text.joined_pool(type_codes, type_syllables)
                ),
                "p_size": Column.from_ints(rng.integers(1, 51, size=n).astype(np.int64)),
                "p_container": Column.from_pool(
                    *text.joined_pool(container_codes, container_syllables)
                ),
                "p_retailprice": Column.from_floats(retail),
                "p_comment": self._comments(n),
            },
        )

    def _partsupp_suppkey(self, partkeys: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Spec's supplier rotation: the i-th (0..3) supplier of a part."""
        s = self.num_suppliers
        return (partkeys + i * (s // 4 + (partkeys - 1) // s)) % s + 1

    def partsupp(self) -> Table:
        """Four partsupp rows per part, spec supplier rotation."""
        p = np.repeat(np.arange(1, self.num_parts + 1, dtype=np.int64), 4)
        i = np.tile(np.arange(4, dtype=np.int64), self.num_parts)
        n = len(p)
        return Table(
            "partsupp",
            {
                "ps_partkey": Column.from_ints(p),
                "ps_suppkey": Column.from_ints(self._partsupp_suppkey(p, i)),
                "ps_availqty": Column.from_ints(
                    self.rng.integers(1, 10_000, size=n).astype(np.int64)
                ),
                "ps_supplycost": Column.from_floats(self._money(n, 1.0, 1000.0)),
                "ps_comment": self._comments(n),
            },
        )

    def customer(self) -> Table:
        """Customers with spec phone country codes (10 + nationkey)."""
        n = self.num_customers
        rng = self.rng
        keys = np.arange(1, n + 1, dtype=np.int64)
        nationkeys = rng.integers(0, 25, size=n)
        return Table(
            "customer",
            {
                "c_custkey": Column.from_ints(keys),
                "c_name": Column.from_strings([f"Customer#{k:09d}" for k in keys]),
                "c_address": self._comments(n),
                "c_nationkey": Column.from_ints(nationkeys.astype(np.int64)),
                "c_phone": self._phones(nationkeys),
                "c_acctbal": Column.from_floats(self._money(n, -999.99, 9999.99)),
                "c_mktsegment": self._pool_strings(n, text.SEGMENTS),
                "c_comment": self._comments(n),
            },
        )

    def orders_and_lineitem(self, part: Table) -> tuple[Table, Table]:
        """Orders and lineitem together (statuses/prices derive from items).

        Spec properties preserved: only custkeys not divisible by 3
        receive orders (so Q13/Q22 see customers without orders); 1–7
        lineitems per order; ship/commit/receipt dates anchored on the
        order date; o_orderstatus and o_totalprice derived from the
        order's lineitems.
        """
        rng = self.rng
        n_ord = self.num_orders
        orderkeys = np.arange(1, n_ord + 1, dtype=np.int64)

        eligible = np.arange(1, self.num_customers + 1, dtype=np.int64)
        eligible = eligible[eligible % 3 != 0]
        custkeys = rng.choice(eligible, size=n_ord, replace=True)

        # Orders are emitted in o_orderdate order, modeling time-ordered
        # ingest (facts appended as they happen — the layout every
        # warehouse's date-clustered fact table has).  The date
        # *distribution* is unchanged; only row position correlates with
        # time, which is what makes partition zone maps on
        # o_orderdate / l_shipdate prune date-filtered scans.
        orderdates = np.sort(rng.integers(_START, _END - 151 + 1, size=n_ord))

        items_per_order = rng.integers(1, 8, size=n_ord)
        n_li = int(items_per_order.sum())
        order_idx = np.repeat(np.arange(n_ord), items_per_order)

        l_orderkey = orderkeys[order_idx]
        first_of_order = np.concatenate(
            [[0], np.cumsum(items_per_order)[:-1]]
        )
        l_linenumber = np.arange(n_li, dtype=np.int64) - first_of_order[order_idx] + 1

        l_partkey = rng.integers(1, self.num_parts + 1, size=n_li).astype(np.int64)
        l_suppkey = self._partsupp_suppkey(
            l_partkey, rng.integers(0, 4, size=n_li).astype(np.int64)
        )
        l_quantity = rng.integers(1, 51, size=n_li).astype(np.float64)
        retail = part.column("p_retailprice").data
        l_extendedprice = l_quantity * retail[l_partkey - 1]
        l_discount = rng.integers(0, 11, size=n_li) / 100.0
        l_tax = rng.integers(0, 9, size=n_li) / 100.0

        odate_per_item = orderdates[order_idx]
        l_shipdate = odate_per_item + rng.integers(1, 122, size=n_li)
        l_commitdate = odate_per_item + rng.integers(30, 91, size=n_li)
        l_receiptdate = l_shipdate + rng.integers(1, 31, size=n_li)

        # Flags and statuses stay codes into their letters until the
        # columns are built: returnflag into A/N/R (R or A once received
        # by CURRENTDATE, else N), linestatus into F/O (O while shipping
        # after CURRENTDATE), orderstatus into F/O/P (O if every line is
        # open, F if none, else P).
        shipped = l_receiptdate <= _CURRENT
        returnflag = np.where(shipped, np.where(rng.random(n_li) < 0.5, 2, 0), 1)
        is_open = l_shipdate > _CURRENT

        # Derived order columns.
        open_counts = np.bincount(order_idx, weights=is_open, minlength=n_ord)
        status = np.where(
            open_counts == items_per_order, 1, np.where(open_counts == 0, 0, 2)
        )
        gross = l_extendedprice * (1.0 + l_tax) * (1.0 - l_discount)
        totalprice = np.bincount(order_idx, weights=gross, minlength=n_ord)

        # Q13's %special%requests% comments at ~1% of orders.
        base_codes = rng.integers(0, len(self._comment_pool), size=n_ord)
        n_special = max(1, int(round(n_ord * 0.01)))
        special = text.special_requests_comments(rng, n_special)
        o_dict = np.concatenate([self._comment_pool, special])
        special_rows = rng.choice(n_ord, size=n_special, replace=False)
        base_codes[special_rows] = len(self._comment_pool) + np.arange(n_special)

        orders = Table(
            "orders",
            {
                "o_orderkey": Column.from_ints(orderkeys),
                "o_custkey": Column.from_ints(custkeys),
                "o_orderstatus": Column.from_pool(status, ["F", "O", "P"]),
                "o_totalprice": Column.from_floats(totalprice),
                "o_orderdate": Column.from_days(orderdates),
                "o_orderpriority": self._pool_strings(n_ord, text.PRIORITIES),
                "o_clerk": self._pool_strings(
                    n_ord, [f"Clerk#{i:09d}" for i in range(1, 1001)]
                ),
                "o_shippriority": Column.from_ints(np.zeros(n_ord, dtype=np.int64)),
                "o_comment": Column.from_codes(base_codes.astype(np.int32), o_dict),
            },
        )
        lineitem = Table(
            "lineitem",
            {
                "l_orderkey": Column.from_ints(l_orderkey),
                "l_partkey": Column.from_ints(l_partkey),
                "l_suppkey": Column.from_ints(l_suppkey),
                "l_linenumber": Column.from_ints(l_linenumber),
                "l_quantity": Column.from_floats(l_quantity),
                "l_extendedprice": Column.from_floats(l_extendedprice),
                "l_discount": Column.from_floats(l_discount),
                "l_tax": Column.from_floats(l_tax),
                "l_returnflag": Column.from_pool(returnflag, ["A", "N", "R"]),
                "l_linestatus": Column.from_pool(is_open.view(np.int8), ["F", "O"]),
                "l_shipdate": Column.from_days(l_shipdate),
                "l_commitdate": Column.from_days(l_commitdate),
                "l_receiptdate": Column.from_days(l_receiptdate),
                "l_shipinstruct": self._pool_strings(n_li, text.INSTRUCTIONS),
                "l_shipmode": self._pool_strings(n_li, text.MODES),
                "l_comment": self._comments(n_li),
            },
        )
        return orders, lineitem


def generate_tpch(sf: float = 0.01, seed: int = 0) -> Catalog:
    """Generate a TPC-H catalog at the given scale factor (see
    :class:`TPCHGenerator`)."""
    return TPCHGenerator(sf=sf, seed=seed).generate()
