"""Engine results against SQLite running the TPC-H query text.

The oracle shares no code with the engine: the catalog is loaded into
stdlib ``sqlite3`` (values from :meth:`Column.to_pylist`, dates as ISO
strings, which compare in date order), and each query runs from its
TPC-H text with the parameters of the engine's spec; ``c1``–``c3``, the
cyclic and cross-product shapes, run from SQL written for their specs.
Results are compared as multisets of rows, floats at a relative 1e-9,
under every strategy.  A query joins the check by adding its text to
``QUERIES``.

A ``"stripped-<id>"`` key is query ``<id>`` with every local predicate
of its relations dropped: the benchmark's transfer-adverse join graphs,
whose full-size foreign-key joins give every probe row one partner.
"""

from __future__ import annotations

import dataclasses
import math
import sqlite3

import pytest

from repro.core.runner import STRATEGIES, RunConfig, run_query
from repro.plan.query import QuerySpec
from repro.storage.catalog import Catalog
from repro.storage.column import DType
from repro.tpch import generate_tpch, get_query

SF, SEED = 0.01, 1

#: TPC-H query text by query number, parameters as in the engine's spec.
QUERIES: dict[int | str, str] = {
    1: """
        SELECT l_returnflag, l_linestatus,
               SUM(l_quantity) AS sum_qty,
               SUM(l_extendedprice) AS sum_base_price,
               SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
               SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax))
                 AS sum_charge,
               AVG(l_quantity) AS avg_qty,
               AVG(l_extendedprice) AS avg_price,
               AVG(l_discount) AS avg_disc,
               COUNT(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    2: """
        SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address,
               s_phone, s_comment
        FROM part, supplier, partsupp, nation, region
        WHERE p_partkey = ps_partkey
          AND s_suppkey = ps_suppkey
          AND p_size = 15
          AND p_type LIKE '%BRASS'
          AND s_nationkey = n_nationkey
          AND n_regionkey = r_regionkey
          AND r_name = 'EUROPE'
          AND ps_supplycost = (
                SELECT MIN(ps_supplycost)
                FROM partsupp, supplier, nation, region
                WHERE p_partkey = ps_partkey
                  AND s_suppkey = ps_suppkey
                  AND s_nationkey = n_nationkey
                  AND n_regionkey = r_regionkey
                  AND r_name = 'EUROPE')
        ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
        LIMIT 100
    """,
    3: """
        SELECT l_orderkey, o_orderdate, o_shippriority,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate < '1995-03-15'
          AND l_shipdate > '1995-03-15'
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10
    """,
    4: """
        SELECT o_orderpriority, COUNT(*) AS order_count
        FROM orders
        WHERE o_orderdate >= '1993-07-01'
          AND o_orderdate < '1993-10-01'
          AND EXISTS (
                SELECT * FROM lineitem
                WHERE l_orderkey = o_orderkey
                  AND l_commitdate < l_receiptdate)
        GROUP BY o_orderpriority
        ORDER BY o_orderpriority
    """,
    5: """
        SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey
          AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey
          AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= '1994-01-01'
          AND o_orderdate < '1995-01-01'
        GROUP BY n_name
        ORDER BY revenue DESC
    """,
    6: """
        SELECT SUM(l_extendedprice * l_discount) AS revenue
        FROM lineitem
        WHERE l_shipdate >= '1994-01-01'
          AND l_shipdate < '1995-01-01'
          AND l_discount BETWEEN 0.05 AND 0.07
          AND l_quantity < 24
    """,
    7: """
        SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue
        FROM (
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   CAST(strftime('%Y', l_shipdate) AS INTEGER) AS l_year,
                   l_extendedprice * (1 - l_discount) AS volume
            FROM supplier, lineitem, orders, customer, nation n1, nation n2
            WHERE s_suppkey = l_suppkey
              AND o_orderkey = l_orderkey
              AND c_custkey = o_custkey
              AND s_nationkey = n1.n_nationkey
              AND c_nationkey = n2.n_nationkey
              AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
                OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
              AND l_shipdate BETWEEN '1995-01-01' AND '1996-12-31'
        ) AS shipping
        GROUP BY supp_nation, cust_nation, l_year
        ORDER BY supp_nation, cust_nation, l_year
    """,
    8: """
        SELECT o_year,
               SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END)
                 / SUM(volume) AS mkt_share
        FROM (
            SELECT CAST(strftime('%Y', o_orderdate) AS INTEGER) AS o_year,
                   l_extendedprice * (1 - l_discount) AS volume,
                   n2.n_name AS nation
            FROM part, supplier, lineitem, orders, customer,
                 nation n1, nation n2, region
            WHERE p_partkey = l_partkey
              AND s_suppkey = l_suppkey
              AND l_orderkey = o_orderkey
              AND o_custkey = c_custkey
              AND c_nationkey = n1.n_nationkey
              AND n1.n_regionkey = r_regionkey
              AND r_name = 'AMERICA'
              AND s_nationkey = n2.n_nationkey
              AND o_orderdate BETWEEN '1995-01-01' AND '1996-12-31'
              AND p_type = 'ECONOMY ANODIZED STEEL'
        ) AS all_nations
        GROUP BY o_year
        ORDER BY o_year
    """,
    9: """
        SELECT nation, o_year, SUM(amount) AS sum_profit
        FROM (
            SELECT n_name AS nation,
                   CAST(strftime('%Y', o_orderdate) AS INTEGER) AS o_year,
                   l_extendedprice * (1 - l_discount)
                     - ps_supplycost * l_quantity AS amount
            FROM part, supplier, lineitem, partsupp, orders, nation
            WHERE s_suppkey = l_suppkey
              AND ps_suppkey = l_suppkey
              AND ps_partkey = l_partkey
              AND p_partkey = l_partkey
              AND o_orderkey = l_orderkey
              AND s_nationkey = n_nationkey
              AND p_name LIKE '%green%'
        ) AS profit
        GROUP BY nation, o_year
        ORDER BY nation, o_year DESC
    """,
    10: """
        SELECT c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
               c_comment, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND o_orderdate >= '1993-10-01'
          AND o_orderdate < '1994-01-01'
          AND l_returnflag = 'R'
          AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address,
                 c_comment
        ORDER BY revenue DESC
        LIMIT 20
    """,
    # The spec scales the HAVING fraction as 0.0001 / SF.
    11: f"""
        SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
        FROM partsupp, supplier, nation
        WHERE ps_suppkey = s_suppkey
          AND s_nationkey = n_nationkey
          AND n_name = 'GERMANY'
        GROUP BY ps_partkey
        HAVING SUM(ps_supplycost * ps_availqty) > (
                SELECT SUM(ps_supplycost * ps_availqty) * {0.0001 / SF!r}
                FROM partsupp, supplier, nation
                WHERE ps_suppkey = s_suppkey
                  AND s_nationkey = n_nationkey
                  AND n_name = 'GERMANY')
        ORDER BY value DESC
    """,
    12: """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority = '1-URGENT'
                          OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                         AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
          AND l_shipmode IN ('MAIL', 'SHIP')
          AND l_commitdate < l_receiptdate
          AND l_shipdate < l_commitdate
          AND l_receiptdate >= '1994-01-01'
          AND l_receiptdate < '1995-01-01'
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """,
    13: """
        SELECT c_count, COUNT(*) AS custdist
        FROM (
            SELECT c_custkey, COUNT(o_orderkey) AS c_count
            FROM customer LEFT OUTER JOIN orders
              ON c_custkey = o_custkey
             AND o_comment NOT LIKE '%special%requests%'
            GROUP BY c_custkey
        ) AS c_orders
        GROUP BY c_count
        ORDER BY custdist DESC, c_count DESC
    """,
    14: """
        SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0 END)
                 / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= '1995-09-01'
          AND l_shipdate < '1995-10-01'
    """,
    15: """
        WITH revenue AS (
            SELECT l_suppkey AS supplier_no,
                   SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
            FROM lineitem
            WHERE l_shipdate >= '1996-01-01'
              AND l_shipdate < '1996-04-01'
            GROUP BY l_suppkey)
        SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
        FROM supplier, revenue
        WHERE s_suppkey = supplier_no
          AND total_revenue = (SELECT MAX(total_revenue) FROM revenue)
        ORDER BY s_suppkey
    """,
    16: """
        SELECT p_brand, p_type, p_size,
               COUNT(DISTINCT ps_suppkey) AS supplier_cnt
        FROM partsupp, part
        WHERE p_partkey = ps_partkey
          AND p_brand <> 'Brand#45'
          AND p_type NOT LIKE 'MEDIUM POLISHED%'
          AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
          AND ps_suppkey NOT IN (
                SELECT s_suppkey FROM supplier
                WHERE s_comment LIKE '%Customer%Complaints%')
        GROUP BY p_brand, p_type, p_size
        ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
    """,
    17: """
        SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly
        FROM lineitem, part
        WHERE p_partkey = l_partkey
          AND p_brand = 'Brand#23'
          AND p_container = 'MED BOX'
          AND l_quantity < (
                SELECT 0.2 * AVG(l_quantity) FROM lineitem
                WHERE l_partkey = p_partkey)
    """,
    18: """
        SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
               SUM(l_quantity)
        FROM customer, orders, lineitem
        WHERE o_orderkey IN (
                SELECT l_orderkey FROM lineitem
                GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)
          AND c_custkey = o_custkey
          AND o_orderkey = l_orderkey
        GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
        ORDER BY o_totalprice DESC, o_orderdate
        LIMIT 100
    """,
    19: """
        SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM lineitem, part
        WHERE (p_partkey = l_partkey
               AND p_brand = 'Brand#12'
               AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
               AND l_quantity >= 1 AND l_quantity <= 1 + 10
               AND p_size BETWEEN 1 AND 5
               AND l_shipmode IN ('AIR', 'AIR REG')
               AND l_shipinstruct = 'DELIVER IN PERSON')
           OR (p_partkey = l_partkey
               AND p_brand = 'Brand#23'
               AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
               AND l_quantity >= 10 AND l_quantity <= 10 + 10
               AND p_size BETWEEN 1 AND 10
               AND l_shipmode IN ('AIR', 'AIR REG')
               AND l_shipinstruct = 'DELIVER IN PERSON')
           OR (p_partkey = l_partkey
               AND p_brand = 'Brand#34'
               AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
               AND l_quantity >= 20 AND l_quantity <= 20 + 10
               AND p_size BETWEEN 1 AND 15
               AND l_shipmode IN ('AIR', 'AIR REG')
               AND l_shipinstruct = 'DELIVER IN PERSON')
    """,
    20: """
        SELECT s_name, s_address
        FROM supplier, nation
        WHERE s_suppkey IN (
                SELECT ps_suppkey FROM partsupp
                WHERE ps_partkey IN (
                        SELECT p_partkey FROM part
                        WHERE p_name LIKE 'forest%')
                  AND ps_availqty > (
                        SELECT 0.5 * SUM(l_quantity) FROM lineitem
                        WHERE l_partkey = ps_partkey
                          AND l_suppkey = ps_suppkey
                          AND l_shipdate >= '1994-01-01'
                          AND l_shipdate < '1995-01-01'))
          AND s_nationkey = n_nationkey
          AND n_name = 'CANADA'
        ORDER BY s_name
    """,
    21: """
        SELECT s_name, COUNT(*) AS numwait
        FROM supplier, lineitem l1, orders, nation
        WHERE s_suppkey = l1.l_suppkey
          AND o_orderkey = l1.l_orderkey
          AND o_orderstatus = 'F'
          AND l1.l_receiptdate > l1.l_commitdate
          AND EXISTS (
                SELECT * FROM lineitem l2
                WHERE l2.l_orderkey = l1.l_orderkey
                  AND l2.l_suppkey <> l1.l_suppkey)
          AND NOT EXISTS (
                SELECT * FROM lineitem l3
                WHERE l3.l_orderkey = l1.l_orderkey
                  AND l3.l_suppkey <> l1.l_suppkey
                  AND l3.l_receiptdate > l3.l_commitdate)
          AND s_nationkey = n_nationkey
          AND n_name = 'SAUDI ARABIA'
        GROUP BY s_name
        ORDER BY numwait DESC, s_name
        LIMIT 100
    """,
    22: """
        SELECT cntrycode, COUNT(*) AS numcust, SUM(c_acctbal) AS totacctbal
        FROM (
            SELECT SUBSTR(c_phone, 1, 2) AS cntrycode, c_acctbal
            FROM customer
            WHERE SUBSTR(c_phone, 1, 2)
                    IN ('13', '31', '23', '29', '30', '18', '17')
              AND c_acctbal > (
                    SELECT AVG(c_acctbal) FROM customer
                    WHERE c_acctbal > 0.00
                      AND SUBSTR(c_phone, 1, 2)
                            IN ('13', '31', '23', '29', '30', '18', '17'))
              AND NOT EXISTS (
                    SELECT * FROM orders WHERE o_custkey = c_custkey)
        ) AS custsale
        GROUP BY cntrycode
        ORDER BY cntrycode
    """,
    "stripped-3": """
        SELECT l_orderkey, o_orderdate, o_shippriority,
               SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
        GROUP BY l_orderkey, o_orderdate, o_shippriority
        ORDER BY revenue DESC, o_orderdate
        LIMIT 10
    """,
    "stripped-5": """
        SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
        FROM customer, orders, lineitem, supplier, nation, region
        WHERE c_custkey = o_custkey
          AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey
          AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey
          AND n_regionkey = r_regionkey
        GROUP BY n_name
        ORDER BY revenue DESC
    """,
    # The nation pair is a residual of the join graph, not a local
    # predicate: stripping keeps it.
    "stripped-7": """
        SELECT supp_nation, cust_nation, l_year, SUM(volume) AS revenue
        FROM (
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   CAST(strftime('%Y', l_shipdate) AS INTEGER) AS l_year,
                   l_extendedprice * (1 - l_discount) AS volume
            FROM supplier, lineitem, orders, customer, nation n1, nation n2
            WHERE s_suppkey = l_suppkey
              AND o_orderkey = l_orderkey
              AND c_custkey = o_custkey
              AND s_nationkey = n1.n_nationkey
              AND c_nationkey = n2.n_nationkey
              AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
                OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
        ) AS shipping
        GROUP BY supp_nation, cust_nation, l_year
        ORDER BY supp_nation, cust_nation, l_year
    """,
    "stripped-12": """
        SELECT l_shipmode,
               SUM(CASE WHEN o_orderpriority = '1-URGENT'
                          OR o_orderpriority = '2-HIGH'
                        THEN 1 ELSE 0 END) AS high_line_count,
               SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                         AND o_orderpriority <> '2-HIGH'
                        THEN 1 ELSE 0 END) AS low_line_count
        FROM orders, lineitem
        WHERE o_orderkey = l_orderkey
        GROUP BY l_shipmode
        ORDER BY l_shipmode
    """,
    "stripped-14": """
        SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                                THEN l_extendedprice * (1 - l_discount)
                                ELSE 0 END)
               / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
    """,
    "stripped-c1": """
        SELECT n_name, COUNT(n_nationkey) AS pairs,
               SUM(s_acctbal) AS supplier_acctbal
        FROM supplier, customer, nation
        WHERE s_nationkey = n_nationkey
          AND c_nationkey = n_nationkey
          AND s_nationkey = c_nationkey
        GROUP BY n_name
        ORDER BY n_name
    """,
    # The cyclic and disconnected shapes of tpch/queries/extra.py.
    "c1": """
        SELECT n_name, COUNT(n_nationkey) AS pairs,
               SUM(s_acctbal) AS supplier_acctbal
        FROM supplier, customer, nation
        WHERE s_nationkey = n_nationkey
          AND c_nationkey = n_nationkey
          AND s_nationkey = c_nationkey
          AND s_acctbal > 0.0
          AND c_mktsegment = 'BUILDING'
        GROUP BY n_name
        ORDER BY n_name
    """,
    "c2": """
        SELECT r_name, COUNT(r_regionkey) AS nation_pairs
        FROM nation n1, nation n2, region
        WHERE n1.n_regionkey = r_regionkey
          AND n2.n_regionkey = r_regionkey
          AND n1.n_regionkey = n2.n_regionkey
          AND n1.n_nationkey < n2.n_nationkey
          AND r_name IN ('ASIA', 'EUROPE')
        GROUP BY r_name
        ORDER BY r_name
    """,
    "c3": """
        SELECT n_name, COUNT(s_suppkey) AS suppliers, SUM(s_acctbal) AS acctbal
        FROM nation, region, supplier
        WHERE n_regionkey = r_regionkey
          AND r_name = 'AFRICA'
          AND s_acctbal > 9000.0
        GROUP BY n_name
        ORDER BY n_name
    """,
}

_SQL_TYPES = {
    DType.INT64: "INTEGER",
    DType.FLOAT64: "REAL",
    DType.BOOL: "INTEGER",
    DType.DATE: "TEXT",
    DType.STRING: "TEXT",
}

#: Lookup indexes for the correlated subqueries; they change no result.
_INDEXES = (
    "CREATE INDEX lineitem_orderkey ON lineitem (l_orderkey)",
    "CREATE INDEX lineitem_partsupp ON lineitem (l_partkey, l_suppkey)",
    "CREATE INDEX partsupp_partkey ON partsupp (ps_partkey)",
    "CREATE INDEX orders_custkey ON orders (o_custkey)",
)


def spec_of(query: int | str) -> QuerySpec:
    """The engine's spec of a ``QUERIES`` key."""
    if isinstance(query, int) or not query.startswith("stripped-"):
        return get_query(query, sf=SF)
    base = query.removeprefix("stripped-")
    spec = get_query(int(base) if base.isdigit() else base, sf=SF)
    return dataclasses.replace(
        spec,
        relations=[dataclasses.replace(r, predicate=None) for r in spec.relations],
    )


def load_sqlite(catalog: Catalog) -> sqlite3.Connection:
    """Every table of ``catalog`` in an in-memory SQLite database."""
    db = sqlite3.connect(":memory:")
    # SQL's LIKE is case-sensitive; SQLite's is not by default.
    db.execute("PRAGMA case_sensitive_like = ON")
    for name in catalog.names():
        table = catalog.get(name)
        columns = table.column_names
        types = ", ".join(
            f"{c} {_SQL_TYPES[table.column(c).dtype]}" for c in columns
        )
        db.execute(f"CREATE TABLE {name} ({types})")
        rows = zip(*(table.column(c).to_pylist() for c in columns))
        marks = ", ".join("?" * len(columns))
        db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    for statement in _INDEXES:
        db.execute(statement)
    return db


def _canonical(rows: list[tuple]) -> list[tuple]:
    """Rows in an order that ignores float rounding: by every non-float
    field first."""

    def key(row: tuple) -> tuple:
        fixed = tuple(
            (v is None, v) for v in row if not isinstance(v, float)
        )
        return fixed + tuple(v for v in row if isinstance(v, float))

    return sorted(rows, key=key)


def assert_same_rows(got: list[tuple], want: list[tuple]) -> None:
    """Multiset equality, floats at a relative 1e-9."""
    assert len(got) == len(want)
    for g, w in zip(_canonical(got), _canonical(want)):
        assert len(g) == len(w), (g, w)
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-9), (g, w)
            else:
                assert a == b, (g, w)


@pytest.fixture(scope="module")
def catalog() -> Catalog:
    return generate_tpch(sf=SF, seed=SEED)


@pytest.fixture(scope="module")
def sqlite_rows(catalog) -> dict[int, list[tuple]]:
    db = load_sqlite(catalog)
    try:
        return {q: db.execute(text).fetchall() for q, text in QUERIES.items()}
    finally:
        db.close()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("query", sorted(QUERIES, key=str))
def test_engine_equals_sqlite(catalog, sqlite_rows, query, strategy):
    result = run_query(spec_of(query), catalog, config=RunConfig(strategy=strategy))
    assert_same_rows(result.table.to_rows(), sqlite_rows[query])


def test_oracle_sees_rows(sqlite_rows):
    # An empty result would make the comparison vacuous.
    assert all(sqlite_rows[q] for q in QUERIES)
