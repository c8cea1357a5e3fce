"""TPC-H shape completion (Q4/Q6/Q10/Q14... adapted to reduced schemas).

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import datetime as _dt

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.functions.relational import pre_aggregated_sum

from goose_parser_ray.queries._shared import _cents, _read


# ---------------------------------------------------------------------------
# TPC-H shape completion (Q4/Q6/Q10/Q14… adapted to the reduced schemas —
# no partsupp / commitdate / shipmode in the testdata; each query keeps the
# original's distinctive join/agg pattern on the columns that exist)
# ---------------------------------------------------------------------------


def q_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: single-table filtered global aggregate. All three
    predicates ride the one column-pruned scan; revenue = price_cents ×
    disc_pct is exact integer c4; the global sum is a constant-key
    pre-aggregate (one partial row per batch crosses the wire)."""
    ds = _read(
        sf_dir, "lineitem",
        ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1998, 1, 1)

    def sel(t: pa.Table) -> pa.Table:
        disc_pct = _cents(t["l_discount"])
        keep = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            ),
            pc.and_(
                pc.and_(
                    pc.greater_equal(disc_pct, pa.scalar(5, pa.int64())),
                    pc.less_equal(disc_pct, pa.scalar(7, pa.int64())),
                ),
                pc.less(t["l_quantity"], pa.scalar(24.0)),
            ),
        )
        t2 = t.filter(keep)
        rev = pc.multiply(_cents(t2["l_extendedprice"]), _cents(t2["l_discount"]))
        n = len(t2)
        return pa.Table.from_pydict(
            {"k": pa.array([0] * n, pa.int64()), "rev": rev}
        )

    agg = pre_aggregated_sum(
        ds.map_batches(sel, batch_format="pyarrow"),
        keys=["k"], sums={"rev": "revenue_c4"}, count_alias="n_items",
    )
    return agg.drop_columns(["k"])


SQL_FORECAST_REVENUE = """
SELECT CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                * CAST(ROUND(100 * l_discount) AS BIGINT)) AS BIGINT)
           AS revenue_c4,
       COUNT(*) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
  AND CAST(ROUND(100 * l_discount) AS BIGINT) BETWEEN 5 AND 7
  AND l_quantity < 24
"""


def q_priority_semi(sf_dir: str):
    """TPC-H Q4 shape: EXISTS semi-join + priority rollup. The testdata has
    no commit/receipt dates, so "late" adapts to l_shipdate > o_orderdate —
    a BOTH-SIDES predicate, which keeps the real Q4 structure: the semi-join
    cannot collapse to a key filter, it needs the join. One hash join
    (date-filtered orders ⋈ keys+shipdate lineitem projection), vectorized
    lateness filter, distinct (orderkey, priority) via a keyed pre-aggregate,
    then a tiny per-priority count."""
    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1997, 4, 1)

    def sel_orders(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        )
        return t.select(["o_orderkey", "o_orderdate", "o_orderpriority"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(sel_orders, batch_format="pyarrow")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    ).map_batches(
        lambda t: t.filter(
            pc.greater(t["l_shipdate"], t["o_orderdate"])
        ).select(["l_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )
    distinct_orders = pre_aggregated_sum(
        joined, keys=["l_orderkey", "o_orderpriority"], sums={},
        count_alias="__n",
    ).drop_columns(["__n"])
    return pre_aggregated_sum(
        distinct_orders, keys=["o_orderpriority"], sums={},
        count_alias="order_count",
    )


SQL_PRIORITY_SEMI = """
SELECT o_orderpriority, COUNT(*) AS order_count
FROM orders
WHERE o_orderdate >= TIMESTAMP '1997-01-01'
  AND o_orderdate <  TIMESTAMP '1997-04-01'
  AND EXISTS (
    SELECT 1 FROM lineitem
    WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate
  )
GROUP BY o_orderpriority
"""


def q_returned_customers(sf_dir: str):
    """TPC-H Q10 shape: returned-item revenue per customer, top 20. ONE
    large×large hash join (returnflag-filtered lineitem ⋈ quarter-filtered
    orders); the customer dimension (name, nation name) attaches AFTER the
    per-custkey rollup — the broadcast lookup touches one row per customer,
    not one per lineitem."""
    import pyarrow.parquet as pq

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1997, 4, 1)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nidx = pc.index_in(cust["c_nationkey"], value_set=nation["n_nationkey"].combine_chunks())
    cust = cust.append_column("n_name", pc.take(nation["n_name"].combine_chunks(), nidx))
    cref = ray.put(
        (
            cust["c_custkey"].combine_chunks(),
            cust["c_name"].combine_chunks(),
            cust["n_name"].combine_chunks(),
        )
    )

    def sel_orders(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        )
        return t.select(["o_orderkey", "o_custkey"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(sel_orders, batch_format="pyarrow")

    def sel_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        return pa.Table.from_pydict({"l_orderkey": t["l_orderkey"], "rev": rev})

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    ).map_batches(sel_li, batch_format="pyarrow")

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    per_cust = pre_aggregated_sum(
        joined.map_batches(
            lambda t: t.select(["o_custkey", "rev"]), batch_format="pyarrow"
        ),
        keys=["o_custkey"], sums={"rev": "revenue_c4"},
    )

    def attach(t: pa.Table) -> pa.Table:
        ck, cn, nn = ray.get(cref)
        idx = pc.index_in(t["o_custkey"], value_set=ck)
        return pa.Table.from_pydict(
            {
                "c_custkey": t["o_custkey"],
                "c_name": pc.take(cn, idx),
                "n_name": pc.take(nn, idx),
                "revenue_c4": t["revenue_c4"],
            }
        )

    return (
        per_cust.map_batches(attach, batch_format="pyarrow")
        .sort(["revenue_c4", "c_custkey"], descending=[True, False])
        .limit(20)
    )


SQL_RETURNED_CUSTOMERS = """
SELECT c_custkey, c_name, n_name,
       CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
           AS revenue_c4
FROM customer
JOIN nation   ON n_nationkey = c_nationkey
JOIN orders   ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE o_orderdate >= TIMESTAMP '1997-01-01'
  AND o_orderdate <  TIMESTAMP '1997-04-01'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, n_name
ORDER BY revenue_c4 DESC, c_custkey ASC
LIMIT 20
"""


def q_promo_share(sf_dir: str):
    """TPC-H Q14 shape: conditional revenue share (PROMO parts / all parts)
    in one month. The part dimension collapses to a broadcast key set
    (`ray.put` once, `pc.is_in` per batch); both the conditional and total
    sums ride ONE scan as integer c4 partials; the final basis-point share
    mirrors the SQL twin's float op order exactly (one scalar division)."""
    import pyarrow.parquet as pq
    import pandas as pd
    import math

    lo, hi = _dt.datetime(1997, 3, 1), _dt.datetime(1997, 4, 1)
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    promo_keys = part.filter(pc.equal(part["p_type"], "PROMO"))[
        "p_partkey"
    ].combine_chunks()
    pref = ray.put(promo_keys)

    def sel(t: pa.Table) -> pa.Table:
        pk = ray.get(pref)
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        is_promo = pc.is_in(t["l_partkey"], value_set=pk)
        promo_rev = pc.if_else(is_promo, rev, pa.scalar(0, pa.int64()))
        n = len(t)
        return pa.Table.from_pydict(
            {"k": pa.array([0] * n, pa.int64()), "promo": promo_rev, "total": rev}
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(sel, batch_format="pyarrow")
    agg = pre_aggregated_sum(
        li, keys=["k"],
        sums={"promo": "promo_revenue_c4", "total": "total_revenue_c4"},
    ).to_pandas()
    p = int(agg["promo_revenue_c4"].iloc[0])
    t = int(agg["total_revenue_c4"].iloc[0])
    # DuckDB ROUND = half away from zero; both operands are non-negative
    share_bp = int(math.floor(10000.0 * float(p) / float(t) + 0.5))
    return pd.DataFrame(
        {
            "promo_revenue_c4": [np.int64(p)],
            "total_revenue_c4": [np.int64(t)],
            "promo_share_bp": [np.int64(share_bp)],
        }
    )


SQL_PROMO_SHARE = """
WITH s AS (
  SELECT
    CAST(SUM(CASE WHEN p_type = 'PROMO'
                  THEN CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                       * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))
                  ELSE 0 END) AS BIGINT) AS promo_revenue_c4,
    CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
             * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
        AS total_revenue_c4
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE l_shipdate >= TIMESTAMP '1997-03-01'
    AND l_shipdate <  TIMESTAMP '1997-04-01'
)
SELECT promo_revenue_c4, total_revenue_c4,
       CAST(ROUND(10000.0 * promo_revenue_c4 / total_revenue_c4) AS BIGINT)
           AS promo_share_bp
FROM s
"""


def q_volume_shipping(sf_dir: str):
    """TPC-H Q7 shape: bilateral shipping volume between two nations by
    year. Supplier and customer nationkeys resolve MAP-SIDE via two
    broadcast key→nation lookups (each dimension `ray.put` once), both
    pre-filtered to the two nations of interest so the hash join moves only
    qualifying rows; the cross-pair constraint (supp ≠ cust nation) is a
    vectorized post-join filter; group by (supp_nation, cust_nation, year)."""
    import pyarrow.parquet as pq

    nat_a, nat_b = "NATION_1", "NATION_2"
    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    keys2 = nation.filter(pc.is_in(nation["n_name"], value_set=pa.array([nat_a, nat_b])))
    nk = keys2["n_nationkey"].combine_chunks()
    nn = keys2["n_name"].combine_chunks()

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    sup = sup.filter(pc.is_in(sup["s_nationkey"], value_set=nk))
    sidx = pc.index_in(sup["s_nationkey"], value_set=nk)
    sref = ray.put((sup["s_suppkey"].combine_chunks(), pc.take(nn, sidx).combine_chunks()))

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=nk))
    cidx = pc.index_in(cust["c_nationkey"], value_set=nk)
    cref = ray.put((cust["c_custkey"].combine_chunks(), pc.take(nn, cidx).combine_chunks()))

    def sel_orders(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cref)
        idx = pc.index_in(t["o_custkey"], value_set=ck)
        t = t.append_column("cust_nation", pc.take(cn, idx))
        t = t.filter(pc.is_valid(t["cust_nation"]))
        return t.select(["o_orderkey", "cust_nation"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        sel_orders, batch_format="pyarrow"
    )

    def sel_li(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(sref)
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        supp_nation = pc.take(sn, idx)
        t = t.append_column("supp_nation", supp_nation)
        t = t.filter(pc.is_valid(t["supp_nation"]))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        year = pc.cast(pc.year(t["l_shipdate"]), pa.int64())
        return pa.Table.from_pydict(
            {
                "l_orderkey": t["l_orderkey"],
                "supp_nation": t["supp_nation"],
                "l_year": year,
                "rev": rev,
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(sel_li, batch_format="pyarrow")
    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    ).map_batches(
        lambda t: t.filter(
            pc.not_equal(t["supp_nation"], t["cust_nation"])
        ).select(["supp_nation", "cust_nation", "l_year", "rev"]),
        batch_format="pyarrow",
    )
    return pre_aggregated_sum(
        joined, keys=["supp_nation", "cust_nation", "l_year"],
        sums={"rev": "revenue_c4"},
    )


SQL_VOLUME_SHIPPING = """
SELECT sn.n_name AS supp_nation,
       cn.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
           AS revenue_c4
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN customer ON c_custkey = o_custkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
WHERE sn.n_name IN ('NATION_1', 'NATION_2')
  AND cn.n_name IN ('NATION_1', 'NATION_2')
  AND sn.n_name <> cn.n_name
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3
"""


def q_market_share(sf_dir: str):
    """TPC-H Q8 shape: one nation's share of a region's market for one part
    type, by order year. Three dimension filters collapse to broadcast key
    sets (ASIA customers, ECONOMY parts) and one key→nation lookup
    (suppliers); numerator (NATION_7 suppliers) and denominator ride the
    same scan as conditional integer sums; share in basis points mirrors
    the SQL twin's single float division per year."""
    import pyarrow.parquet as pq
    import pandas as pd
    import math

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1998, 1, 1)
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    asia_rk = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"][0].as_py()
    asia_nk = nation.filter(pc.equal(nation["n_regionkey"], asia_rk))[
        "n_nationkey"
    ].combine_chunks()
    target_nk = nation.filter(pc.equal(nation["n_name"], "NATION_7"))[
        "n_nationkey"
    ][0].as_py()

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    cust_keys = cust.filter(pc.is_in(cust["c_nationkey"], value_set=asia_nk))[
        "c_custkey"
    ].combine_chunks()
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    part_keys = part.filter(pc.equal(part["p_type"], "ECONOMY"))[
        "p_partkey"
    ].combine_chunks()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    target_sup = sup.filter(pc.equal(sup["s_nationkey"], target_nk))[
        "s_suppkey"
    ].combine_chunks()
    cref, pref, tref = ray.put(cust_keys), ray.put(part_keys), ray.put(target_sup)

    def sel_orders(t: pa.Table) -> pa.Table:
        ck = ray.get(cref)
        t = t.filter(
            pc.and_(
                pc.and_(
                    pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)),
                ),
                pc.is_in(t["o_custkey"], value_set=ck),
            )
        )
        year = pc.cast(pc.year(t["o_orderdate"]), pa.int64())
        return pa.Table.from_pydict({"o_orderkey": t["o_orderkey"], "o_year": year})

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(sel_orders, batch_format="pyarrow")

    def sel_li(t: pa.Table) -> pa.Table:
        pk, tk = ray.get(pref), ray.get(tref)
        t = t.filter(pc.is_in(t["l_partkey"], value_set=pk))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        is_target = pc.is_in(t["l_suppkey"], value_set=tk)
        target_rev = pc.if_else(is_target, rev, pa.scalar(0, pa.int64()))
        return pa.Table.from_pydict(
            {"l_orderkey": t["l_orderkey"], "rev": rev, "target_rev": target_rev}
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(sel_li, batch_format="pyarrow")
    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    per_year = pre_aggregated_sum(
        joined.map_batches(
            lambda t: t.select(["o_year", "rev", "target_rev"]),
            batch_format="pyarrow",
        ),
        keys=["o_year"],
        sums={"target_rev": "nation_revenue_c4", "rev": "total_revenue_c4"},
    ).to_pandas().sort_values("o_year")
    share = [
        int(math.floor(10000.0 * float(p) / float(t) + 0.5)) if t else 0
        for p, t in zip(per_year["nation_revenue_c4"], per_year["total_revenue_c4"])
    ]
    return pd.DataFrame(
        {
            "o_year": per_year["o_year"].astype(np.int64).to_numpy(),
            "nation_revenue_c4": per_year["nation_revenue_c4"].astype(np.int64).to_numpy(),
            "total_revenue_c4": per_year["total_revenue_c4"].astype(np.int64).to_numpy(),
            "share_bp": np.array(share, np.int64),
        }
    )


SQL_MARKET_SHARE = """
WITH v AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         CAST(ROUND(100 * l_extendedprice) AS BIGINT)
             * (100 - CAST(ROUND(100 * l_discount) AS BIGINT)) AS rev,
         CASE WHEN sn.n_name = 'NATION_7'
              THEN CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                   * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))
              ELSE 0 END AS target_rev
  FROM lineitem
  JOIN orders   ON o_orderkey = l_orderkey
  JOIN part     ON p_partkey = l_partkey
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation sn ON sn.n_nationkey = s_nationkey
  JOIN customer ON c_custkey = o_custkey
  JOIN nation cn ON cn.n_nationkey = c_nationkey
  JOIN region   ON r_regionkey = cn.n_regionkey
  WHERE r_name = 'ASIA' AND p_type = 'ECONOMY'
    AND o_orderdate >= TIMESTAMP '1996-01-01'
    AND o_orderdate <  TIMESTAMP '1998-01-01'
)
SELECT o_year,
       CAST(SUM(target_rev) AS BIGINT) AS nation_revenue_c4,
       CAST(SUM(rev) AS BIGINT) AS total_revenue_c4,
       CAST(ROUND(10000.0 * SUM(target_rev) / SUM(rev)) AS BIGINT) AS share_bp
FROM v GROUP BY o_year
"""


def q_product_profit(sf_dir: str):
    """TPC-H Q9 shape: profit by supplier nation × year for a part-name
    family. No partsupp in the testdata, so cost adapts to
    p_retailprice × quantity (same join topology, same LIKE-filtered part
    dimension). Part keys+retail cents and supplier nations broadcast once;
    profit = rev_c4 − cost_c4 stays integer; one partial-aggregate, no
    large×large join at all (the order side isn't needed — year comes from
    l_shipdate)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_retailprice"])
    part = part.filter(pc.match_substring(part["p_name"], "gear"))
    pref = ray.put(
        (
            part["p_partkey"].combine_chunks(),
            _cents(part["p_retailprice"]).combine_chunks(),
        )
    )
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    nidx = pc.index_in(sup["s_nationkey"], value_set=nation["n_nationkey"].combine_chunks())
    sref = ray.put(
        (sup["s_suppkey"].combine_chunks(),
         pc.take(nation["n_name"].combine_chunks(), nidx).combine_chunks())
    )

    def sel(t: pa.Table) -> pa.Table:
        pk, pr = ray.get(pref)
        sk, sn = ray.get(sref)
        idx = pc.index_in(t["l_partkey"], value_set=pk)
        t = t.append_column("__pidx", idx).filter(pc.is_valid(idx))
        retail_c = pc.take(pr, t["__pidx"])
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        qty = pc.cast(t["l_quantity"], pa.int64())
        cost = pc.multiply(pc.multiply(retail_c, qty), pa.scalar(100, pa.int64()))
        sidx = pc.index_in(t["l_suppkey"], value_set=sk)
        return pa.Table.from_pydict(
            {
                "n_name": pc.take(sn, sidx),
                "l_year": pc.cast(pc.year(t["l_shipdate"]), pa.int64()),
                "profit": pc.subtract(rev, cost),
            }
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    ).map_batches(sel, batch_format="pyarrow")
    return pre_aggregated_sum(
        li, keys=["n_name", "l_year"], sums={"profit": "profit_c4"}
    )


SQL_PRODUCT_PROFIT = """
SELECT n_name,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))
                - CAST(ROUND(100 * p_retailprice) AS BIGINT)
                  * CAST(l_quantity AS BIGINT) * 100) AS BIGINT) AS profit_c4
FROM lineitem
JOIN part     ON p_partkey = l_partkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
WHERE p_name LIKE '%gear%'
GROUP BY n_name, l_year
"""


def q_late_priority(sf_dir: str):
    """TPC-H Q12 shape: late-shipment counts split by order priority. The
    testdata has no shipmode/commit/receipt dates, so the grouping column
    adapts to l_linestatus and "late" to l_shipdate > o_orderdate + 60
    days — still a both-sides predicate requiring the join, with the
    CASE-sum priority split of the original. Orders project to
    (key, date, priority); ONE hash join; everything after is vectorized
    conditional sums."""
    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1998, 1, 1)

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]
    )
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linestatus", "l_shipdate"]).map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        ),
        batch_format="pyarrow",
    )

    def classify(t: pa.Table) -> pa.Table:
        late = pc.greater(
            t["l_shipdate"],
            pc.add(t["o_orderdate"], pa.scalar(_dt.timedelta(days=60))),
        )
        t = t.filter(late)
        is_high = pc.is_in(
            t["o_orderpriority"], value_set=pa.array(["1-URGENT", "2-HIGH"])
        )
        one = pa.scalar(1, pa.int64())
        zero = pa.scalar(0, pa.int64())
        return pa.Table.from_pydict(
            {
                "l_linestatus": t["l_linestatus"],
                "high": pc.if_else(is_high, one, zero),
                "low": pc.if_else(is_high, zero, one),
            }
        )

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    ).map_batches(classify, batch_format="pyarrow")
    return pre_aggregated_sum(
        joined, keys=["l_linestatus"],
        sums={"high": "high_line_count", "low": "low_line_count"},
    )


SQL_LATE_PRIORITY = """
SELECT l_linestatus,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem JOIN orders ON o_orderkey = l_orderkey
WHERE l_shipdate >= TIMESTAMP '1997-01-01'
  AND l_shipdate <  TIMESTAMP '1998-01-01'
  AND l_shipdate > o_orderdate + INTERVAL 60 DAY
GROUP BY l_linestatus
"""


def q_min_cost_supplier(sf_dir: str):
    """TPC-H Q2 shape: correlated-min supplier per part. No partsupp table,
    so the part↔supplier relation is the DISTINCT (l_partkey, l_suppkey)
    pairs observed in lineitem, and "cost" adapts to s_acctbal — the
    correlated structure survives: per-part MIN over a joined dimension
    attribute, then keep exactly the (part, supplier) rows achieving it
    (ties kept, like the SQL twin). Distinct pairs via keyed pre-aggregate;
    supplier/nation dimensions broadcast; per-part min is a second tiny
    aggregate joined back map-side."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    eur_rk = region.filter(pc.equal(region["r_name"], "EUROPE"))["r_regionkey"][0].as_py()
    eur_nk = nation.filter(pc.equal(nation["n_regionkey"], eur_rk))[
        "n_nationkey"
    ].combine_chunks()
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    gear_keys = part.filter(pc.match_substring(part["p_name"], "gear"))[
        "p_partkey"
    ].combine_chunks()
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
    )
    sup = sup.filter(pc.is_in(sup["s_nationkey"], value_set=eur_nk))
    nidx = pc.index_in(sup["s_nationkey"], value_set=nation["n_nationkey"].combine_chunks())
    sref = ray.put(
        (
            sup["s_suppkey"].combine_chunks(),
            sup["s_name"].combine_chunks(),
            pc.take(nation["n_name"].combine_chunks(), nidx).combine_chunks(),
            _cents(sup["s_acctbal"]).combine_chunks(),
        )
    )
    pref = ray.put(gear_keys)

    def sel(t: pa.Table) -> pa.Table:
        pk = ray.get(pref)
        sk = ray.get(sref)[0]
        t = t.filter(
            pc.and_(
                pc.is_in(t["l_partkey"], value_set=pk),
                pc.is_in(t["l_suppkey"], value_set=sk),
            )
        )
        return t.select(["l_partkey", "l_suppkey"])

    pairs = pre_aggregated_sum(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            sel, batch_format="pyarrow"
        ),
        keys=["l_partkey", "l_suppkey"], sums={}, count_alias="__n",
    ).drop_columns(["__n"])

    def attach_bal(t: pa.Table) -> pa.Table:
        sk, _, _, bal = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        return t.append_column("bal_cents", pc.take(bal, idx))

    with_bal = pairs.map_batches(attach_bal, batch_format="pyarrow")
    # per-part min over the joined attribute (the correlated subquery)
    from ray.data.aggregate import Min

    mins = with_bal.groupby(["l_partkey"]).aggregate(
        Min("bal_cents", alias_name="min_bal")
    )
    winners = with_bal.join(
        mins, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_partkey",), right_on=("l_partkey",),
    ).map_batches(
        lambda t: t.filter(pc.equal(t["bal_cents"], t["min_bal"])),
        batch_format="pyarrow",
    )

    def attach_dims(t: pa.Table) -> pa.Table:
        sk, sname, snat, _ = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        return pa.Table.from_pydict(
            {
                "p_partkey": t["l_partkey"],
                "s_name": pc.take(sname, idx),
                "n_name": pc.take(snat, idx),
                "bal_cents": t["bal_cents"],
            }
        )

    return winners.map_batches(attach_dims, batch_format="pyarrow")


SQL_MIN_COST_SUPPLIER = """
WITH ps AS (
  SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
  JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE '%gear%'
)
SELECT l_partkey AS p_partkey, s_name, n_name,
       CAST(ROUND(100 * s_acctbal) AS BIGINT) AS bal_cents
FROM ps
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation   ON n_nationkey = s_nationkey
JOIN region   ON r_regionkey = n_regionkey
WHERE r_name = 'EUROPE'
  AND CAST(ROUND(100 * s_acctbal) AS BIGINT) = (
    SELECT MIN(CAST(ROUND(100 * s2.s_acctbal) AS BIGINT))
    FROM ps ps2
    JOIN supplier s2 ON s2.s_suppkey = ps2.l_suppkey
    JOIN nation n2   ON n2.n_nationkey = s2.s_nationkey
    JOIN region r2   ON r2.r_regionkey = n2.n_regionkey
    WHERE r2.r_name = 'EUROPE' AND ps2.l_partkey = ps.l_partkey
  )
"""


def q_important_parts(sf_dir: str):
    """TPC-H Q11 shape: per-group value filtered against a GLOBAL scalar
    (HAVING value > total/1000). One scan produces per-part c4 partials
    restricted to NATION_3 suppliers; the global total re-aggregates the
    SAME partial stream (no second scan); the threshold compare is the
    integer cross-multiplication value×1000 > total — exact on both
    engines, no float division anywhere."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nk = nation.filter(pc.equal(nation["n_name"], "NATION_3"))["n_nationkey"][0].as_py()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    skeys = sup.filter(pc.equal(sup["s_nationkey"], nk))["s_suppkey"].combine_chunks()
    sref = ray.put(skeys)

    def sel(t: pa.Table) -> pa.Table:
        sk = ray.get(sref)
        t = t.filter(pc.is_in(t["l_suppkey"], value_set=sk))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        return pa.Table.from_pydict({"l_partkey": t["l_partkey"], "rev": rev})

    per_part = pre_aggregated_sum(
        _read(
            sf_dir, "lineitem",
            ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ).map_batches(sel, batch_format="pyarrow"),
        keys=["l_partkey"], sums={"rev": "value_c4"},
    )
    total = int(
        per_part.map_batches(
            lambda t: pa.Table.from_pydict(
                {"k": pa.array([0] * len(t), pa.int64()), "v": t["value_c4"]}
            ),
            batch_format="pyarrow",
        )
        .groupby(["k"])
        .sum("v")
        .to_pandas()["sum(v)"]
        .iloc[0]
    )
    thresh = ray.put(total)
    return per_part.map_batches(
        lambda t: t.filter(
            pc.greater(
                pc.multiply(t["value_c4"], pa.scalar(1000, pa.int64())),
                pa.scalar(ray.get(thresh), pa.int64()),
            )
        ),
        batch_format="pyarrow",
    )


SQL_IMPORTANT_PARTS = """
WITH v AS (
  SELECT l_partkey,
         CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                  * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
             AS value_c4
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  WHERE n_name = 'NATION_3'
  GROUP BY l_partkey
)
SELECT l_partkey, value_c4 FROM v
WHERE value_c4 * 1000 > (SELECT SUM(value_c4) FROM v)
"""


def q_top_supplier(sf_dir: str):
    """TPC-H Q15 shape: supplier(s) achieving the maximum quarter revenue
    (the view + MAX-scalar equality of the original). Per-supplier c4
    rollup from one filtered scan; the max is a driver scalar off the tiny
    aggregate; ties all survive, exactly like the SQL twin."""
    import pyarrow.parquet as pq

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1997, 4, 1)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    sref = ray.put((sup["s_suppkey"].combine_chunks(), sup["s_name"].combine_chunks()))

    def sel(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                pc.less(t["l_shipdate"], pa.scalar(hi)),
            )
        )
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        return pa.Table.from_pydict({"l_suppkey": t["l_suppkey"], "rev": rev})

    per_sup = pre_aggregated_sum(
        _read(
            sf_dir, "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(sel, batch_format="pyarrow"),
        keys=["l_suppkey"], sums={"rev": "total_revenue_c4"},
    ).to_pandas()
    best = int(per_sup["total_revenue_c4"].max())
    win = per_sup[per_sup["total_revenue_c4"] == best].copy()
    sk, sn = ray.get(sref)
    idx = pc.index_in(pa.array(win["l_suppkey"].to_numpy()), value_set=sk)
    win["s_name"] = pc.take(sn, idx).to_pylist()
    win = win.rename(columns={"l_suppkey": "s_suppkey"})
    return win[["s_suppkey", "s_name", "total_revenue_c4"]].reset_index(drop=True)


SQL_TOP_SUPPLIER = """
WITH r AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                  * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
             AS total_revenue_c4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1997-04-01'
  GROUP BY l_suppkey
)
SELECT r.s_suppkey, s_name, total_revenue_c4
FROM r JOIN supplier ON supplier.s_suppkey = r.s_suppkey
WHERE total_revenue_c4 = (SELECT MAX(total_revenue_c4) FROM r)
"""


def q_part_supplier_counts(sf_dir: str):
    """TPC-H Q16 shape: distinct supplier counts per part group with a
    NOT-IN supplier exclusion. The part↔supplier relation is the distinct
    (l_partkey, l_suppkey) pairs from lineitem (no partsupp); excluded
    suppliers (negative balance) and part attributes are broadcast; count
    = a second distinct-collapse on (brand, type, size, suppkey) then a
    keyed count — both exchanges move only collapsed keys."""
    import pyarrow.parquet as pq

    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_type", "p_size"]
    )
    part = part.filter(
        pc.and_(
            pc.not_equal(part["p_brand"], "Brand#1"),
            pc.is_in(part["p_size"], value_set=pa.array([5, 10, 15, 20, 25], pa.int64())),
        )
    )
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"])
    bad = sup.filter(pc.less(sup["s_acctbal"], 0.0))["s_suppkey"].combine_chunks()
    pref = ray.put(
        (
            part["p_partkey"].combine_chunks(),
            part["p_brand"].combine_chunks(),
            part["p_type"].combine_chunks(),
            pc.cast(part["p_size"], pa.int64()).combine_chunks(),
        )
    )
    bref = ray.put(bad)

    def sel(t: pa.Table) -> pa.Table:
        pk, _, _, _ = ray.get(pref)
        bs = ray.get(bref)
        t = t.filter(
            pc.and_(
                pc.is_in(t["l_partkey"], value_set=pk),
                pc.invert(pc.is_in(t["l_suppkey"], value_set=bs)),
            )
        )
        return t.select(["l_partkey", "l_suppkey"])

    pairs = pre_aggregated_sum(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            sel, batch_format="pyarrow"
        ),
        keys=["l_partkey", "l_suppkey"], sums={}, count_alias="__n",
    ).drop_columns(["__n"])

    def attach(t: pa.Table) -> pa.Table:
        pk, pb, pt, psz = ray.get(pref)
        idx = pc.index_in(t["l_partkey"], value_set=pk)
        return pa.Table.from_pydict(
            {
                "p_brand": pc.take(pb, idx),
                "p_type": pc.take(pt, idx),
                "p_size": pc.take(psz, idx),
                "l_suppkey": t["l_suppkey"],
            }
        )

    grp = pre_aggregated_sum(
        pairs.map_batches(attach, batch_format="pyarrow"),
        keys=["p_brand", "p_type", "p_size", "l_suppkey"], sums={},
        count_alias="__n",
    ).drop_columns(["__n"])
    return pre_aggregated_sum(
        grp, keys=["p_brand", "p_type", "p_size"], sums={},
        count_alias="supplier_cnt",
    )


SQL_PART_SUPPLIER_COUNTS = """
SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
       COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) ps
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> 'Brand#1'
  AND p_size IN (5, 10, 15, 20, 25)
  AND l_suppkey NOT IN (
    SELECT s_suppkey FROM supplier WHERE s_acctbal < 0
  )
GROUP BY p_brand, p_type, p_size
"""


def q_small_qty_revenue(sf_dir: str):
    """TPC-H Q17 shape: revenue lost to small-quantity orders of one brand's
    parts. The correlated per-part ``avg(l_quantity)`` becomes ONE extra
    pass over the (brand-filtered) lineitem — a per-part (sum, count)
    partial aggregate — hash-joined back onto the same filtered rows; the
    ``qty < 0.2 * avg`` predicate is the integer cross-multiplication
    ``qty_c2 * 5 * n < sum_c2`` (exact, no float threshold), and the final
    yearly average is ONE scalar float division mirrored by the SQL twin.
    Brand part keys broadcast via ``ray.put`` (one brand ≈ |part|/|brands|
    keys — small at any corpus scale)."""
    import pyarrow.parquet as pq
    import pandas as pd
    import math

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    bkeys = part.filter(pc.equal(part["p_brand"], "Brand#1"))[
        "p_partkey"
    ].combine_chunks()
    bref = ray.put(bkeys)

    def sel(t: pa.Table) -> pa.Table:
        keys = ray.get(bref)
        t = t.filter(pc.is_in(t["l_partkey"], value_set=keys))
        return pa.Table.from_pydict(
            {
                "l_partkey": t["l_partkey"],
                "qty_c2": _cents(t["l_quantity"]),
                "price_c2": _cents(t["l_extendedprice"]),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"]
    ).map_batches(sel, batch_format="pyarrow")

    per_part = pre_aggregated_sum(
        li, keys=["l_partkey"], sums={"qty_c2": "sum_q"}, count_alias="n"
    )

    def small(t: pa.Table) -> pa.Table:
        keep = pc.less(
            pc.multiply(
                pc.multiply(t["qty_c2"], pa.scalar(5, pa.int64())), t["n"]
            ),
            t["sum_q"],
        )
        t = t.filter(keep)
        n = len(t)
        return pa.Table.from_pydict(
            {"k": pa.array([0] * n, pa.int64()), "price_c2": t["price_c2"]}
        )

    joined = li.join(
        per_part.map_batches(
            lambda t: t.rename_columns(["pk", "sum_q", "n"]),
            batch_format="pyarrow",
        ),
        join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_partkey",), right_on=("pk",),
    ).map_batches(small, batch_format="pyarrow")
    agg = pre_aggregated_sum(
        joined, keys=["k"], sums={"price_c2": "total_c2"}
    ).to_pandas()
    total = int(agg["total_c2"].iloc[0]) if len(agg) else 0
    avg_yearly = int(math.floor(float(total) / 7.0 + 0.5)) if total >= 0 else 0
    return pd.DataFrame(
        {"total_c2": [np.int64(total)], "avg_yearly_c2": [np.int64(avg_yearly)]}
    )


SQL_SMALL_QTY_REVENUE = """
WITH brand_li AS (
  SELECT l_partkey,
         CAST(ROUND(100 * l_quantity) AS BIGINT) AS qty_c2,
         CAST(ROUND(100 * l_extendedprice) AS BIGINT) AS price_c2
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_brand = 'Brand#1'
), per_part AS (
  SELECT l_partkey, CAST(SUM(qty_c2) AS BIGINT) AS sum_q,
         COUNT(*) AS n
  FROM brand_li GROUP BY l_partkey
), s AS (
  SELECT CAST(COALESCE(SUM(b.price_c2), 0) AS BIGINT) AS total_c2
  FROM brand_li b JOIN per_part p ON b.l_partkey = p.l_partkey
  WHERE b.qty_c2 * 5 * p.n < p.sum_q
)
SELECT total_c2,
       CAST(ROUND(total_c2 / 7.0) AS BIGINT) AS avg_yearly_c2
FROM s
"""


def q_large_volume_customers(sf_dir: str):
    """TPC-H Q18 shape: customers behind very large orders. Per-order
    quantity total via the partial/combiner aggregate (no raw-row shuffle),
    HAVING filter on the small per-order stream, ONE hash join back to
    orders for (custkey, date, price), and the customer name resolves
    map-side from a broadcast key→name lookup. At 100 TB the only all-to-all
    is the per-order partial aggregate; the post-HAVING stream is ~1% of
    orders."""
    import pyarrow.parquet as pq

    threshold_c2 = 250 * 100  # sum(l_quantity) > 250
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    cref = ray.put(
        (cust["c_custkey"].combine_chunks(), cust["c_name"].combine_chunks())
    )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {"l_orderkey": t["l_orderkey"], "qty_c2": _cents(t["l_quantity"])}
        ),
        batch_format="pyarrow",
    )
    per_order = pre_aggregated_sum(
        li, keys=["l_orderkey"], sums={"qty_c2": "sum_qty_c2"}
    ).map_batches(
        lambda t: t.filter(
            pc.greater(t["sum_qty_c2"], pa.scalar(threshold_c2, pa.int64()))
        ),
        batch_format="pyarrow",
    )

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "o_orderkey": t["o_orderkey"],
                "o_custkey": t["o_custkey"],
                "o_orderdate": t["o_orderdate"],
                "totalprice_c2": _cents(t["o_totalprice"]),
            }
        ),
        batch_format="pyarrow",
    )

    def attach_name(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cref)
        idx = pc.index_in(t["o_custkey"], value_set=ck)
        return t.append_column("c_name", pc.take(cn, idx))

    return per_order.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    ).map_batches(attach_name, batch_format="pyarrow").select_columns(
        ["c_name", "o_custkey", "l_orderkey", "o_orderdate", "totalprice_c2",
         "sum_qty_c2"]
    )


SQL_LARGE_VOLUME_CUSTOMERS = """
SELECT c_name, o_custkey, o_orderkey AS l_orderkey, o_orderdate,
       CAST(ROUND(100 * o_totalprice) AS BIGINT) AS totalprice_c2,
       CAST(SUM(CAST(ROUND(100 * l_quantity) AS BIGINT)) AS BIGINT)
           AS sum_qty_c2
FROM orders
JOIN lineitem ON l_orderkey = o_orderkey
JOIN customer ON c_custkey = o_custkey
GROUP BY c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice
HAVING SUM(CAST(ROUND(100 * l_quantity) AS BIGINT)) > 25000
"""


def q_bracket_revenue(sf_dir: str):
    """TPC-H Q19 shape: discounted revenue under an OR-of-ANDs bracket
    predicate mixing part attributes (brand, size) with line attributes
    (quantity). Part (brand, size) resolve map-side from ONE broadcast
    lookup pre-filtered to the three brands; the three brackets evaluate as
    vectorized boolean algebra in a single lineitem scan — no join moves
    any data, and the result is one integer-cents row."""
    import pyarrow.parquet as pq
    import pandas as pd

    brands = ["Brand#1", "Brand#2", "Brand#3"]
    part = pq.read_table(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    )
    part = part.filter(pc.is_in(part["p_brand"], value_set=pa.array(brands)))
    pref = ray.put(
        (
            part["p_partkey"].combine_chunks(),
            part["p_brand"].combine_chunks(),
            pc.cast(part["p_size"], pa.int64()).combine_chunks(),
        )
    )

    def bracket(brand_col, size_col, qty, brand, size_hi, q_lo, q_hi):
        return pc.and_(
            pc.and_(
                pc.equal(brand_col, brand),
                pc.and_(
                    pc.greater_equal(size_col, pa.scalar(1, pa.int64())),
                    pc.less_equal(size_col, pa.scalar(size_hi, pa.int64())),
                ),
            ),
            pc.and_(
                pc.greater_equal(qty, pa.scalar(q_lo * 100, pa.int64())),
                pc.less_equal(qty, pa.scalar(q_hi * 100, pa.int64())),
            ),
        )

    def sel(t: pa.Table) -> pa.Table:
        pk, pb, psz = ray.get(pref)
        idx = pc.index_in(t["l_partkey"], value_set=pk)
        brand = pc.take(pb, idx)
        size = pc.take(psz, idx)
        qty = _cents(t["l_quantity"])
        keep = pc.or_(
            pc.or_(
                bracket(brand, size, qty, "Brand#1", 5, 1, 11),
                bracket(brand, size, qty, "Brand#2", 10, 10, 20),
            ),
            bracket(brand, size, qty, "Brand#3", 15, 20, 30),
        )
        keep = pc.and_(pc.is_valid(brand), keep)
        t = t.filter(pc.fill_null(keep, False))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        n = len(t)
        return pa.Table.from_pydict(
            {"k": pa.array([0] * n, pa.int64()), "rev": rev}
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(sel, batch_format="pyarrow")
    agg = pre_aggregated_sum(li, keys=["k"], sums={"rev": "revenue_c4"}).to_pandas()
    total = int(agg["revenue_c4"].iloc[0]) if len(agg) else 0
    return pd.DataFrame({"revenue_c4": [np.int64(total)]})


SQL_BRACKET_REVENUE = """
SELECT CAST(COALESCE(SUM(
         CAST(ROUND(100 * l_extendedprice) AS BIGINT)
         * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))), 0) AS BIGINT)
       AS revenue_c4
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 5
       AND CAST(ROUND(100 * l_quantity) AS BIGINT) BETWEEN 100 AND 1100)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 1 AND 10
       AND CAST(ROUND(100 * l_quantity) AS BIGINT) BETWEEN 1000 AND 2000)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 1 AND 15
       AND CAST(ROUND(100 * l_quantity) AS BIGINT) BETWEEN 2000 AND 3000)
"""


def q_dominant_suppliers(sf_dir: str):
    """TPC-H Q20 shape: suppliers to flag for a promotion — here, suppliers
    in one nation who DOMINATE some 'red '-prefixed part (shipped more than
    half that part's total 1997 quantity). The partsupp availability
    subquery adapts to nested shipped-quantity aggregates: per
    (part, supplier) totals roll up from the partial/combiner aggregate,
    the per-part denominator is a second rollup OVER THE FIRST (tiny)
    stream — no second corpus scan — joined back by partkey; the final
    supplier semi-join resolves map-side from a broadcast nation-filtered
    name lookup. Integer c2 quantities keep the 2× comparison exact."""
    import pyarrow.parquet as pq

    lo, hi = _dt.datetime(1997, 1, 1), _dt.datetime(1998, 1, 1)
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
    red = part.filter(pc.starts_with(part["p_name"], "red "))[
        "p_partkey"
    ].combine_chunks()
    rref = ray.put(red)

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nk = nation.filter(pc.equal(nation["n_name"], "NATION_3"))["n_nationkey"][0].as_py()
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
    )
    sup = sup.filter(pc.equal(sup["s_nationkey"], nk))
    sref = ray.put(
        (sup["s_suppkey"].combine_chunks(), sup["s_name"].combine_chunks())
    )

    def sel(t: pa.Table) -> pa.Table:
        keys = ray.get(rref)
        t = t.filter(
            pc.and_(
                pc.is_in(t["l_partkey"], value_set=keys),
                pc.and_(
                    pc.greater_equal(t["l_shipdate"], pa.scalar(lo)),
                    pc.less(t["l_shipdate"], pa.scalar(hi)),
                ),
            )
        )
        return pa.Table.from_pydict(
            {
                "l_partkey": t["l_partkey"],
                "l_suppkey": t["l_suppkey"],
                "qty_c2": _cents(t["l_quantity"]),
            }
        )

    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"]
    ).map_batches(sel, batch_format="pyarrow")
    per_pair = pre_aggregated_sum(
        li, keys=["l_partkey", "l_suppkey"], sums={"qty_c2": "supp_qty"}
    )
    per_part = pre_aggregated_sum(
        per_pair, keys=["l_partkey"], sums={"supp_qty": "part_qty"}
    ).map_batches(
        lambda t: t.rename_columns(["pk", "part_qty"]), batch_format="pyarrow"
    )

    def dominant(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.greater(
                pc.multiply(t["supp_qty"], pa.scalar(2, pa.int64())),
                t["part_qty"],
            )
        )
        return t.select(["l_suppkey"])

    winners = per_pair.join(
        per_part, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_partkey",), right_on=("pk",),
    ).map_batches(dominant, batch_format="pyarrow")
    distinct = pre_aggregated_sum(
        winners, keys=["l_suppkey"], sums={}, count_alias="__n"
    ).drop_columns(["__n"])

    def attach(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        t = t.append_column("s_name", pc.take(sn, idx))
        return t.filter(pc.is_valid(t["s_name"])).select(["s_name"])

    return distinct.map_batches(attach, batch_format="pyarrow")


SQL_DOMINANT_SUPPLIERS = """
WITH red_li AS (
  SELECT l_partkey, l_suppkey,
         CAST(ROUND(100 * l_quantity) AS BIGINT) AS qty_c2
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE 'red %'
    AND l_shipdate >= TIMESTAMP '1997-01-01'
    AND l_shipdate <  TIMESTAMP '1998-01-01'
), per_pair AS (
  SELECT l_partkey, l_suppkey, CAST(SUM(qty_c2) AS BIGINT) AS supp_qty
  FROM red_li GROUP BY l_partkey, l_suppkey
), per_part AS (
  SELECT l_partkey, CAST(SUM(supp_qty) AS BIGINT) AS part_qty
  FROM per_pair GROUP BY l_partkey
)
SELECT DISTINCT s_name
FROM per_pair
JOIN per_part USING (l_partkey)
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation ON n_nationkey = s_nationkey
WHERE supp_qty * 2 > part_qty AND n_name = 'NATION_3'
"""


def q_waiting_suppliers(sf_dir: str):
    """TPC-H Q21 shape: suppliers who kept multi-supplier orders waiting —
    the SOLE late supplier on a finished order that at least one other
    supplier served on time. Lateness (no commit/receipt dates in the
    testdata) is l_shipdate > o_orderdate + 60 days, resolved by ONE hash
    join to 'F'-status orders; the exists/not-exists pair collapses to two
    rollups: per (order, supplier) any-late, then per order
    (supplier count, late-supplier count, conditional suppkey-sum) — when
    the late count is exactly 1 the sum IS the culprit's key. Supplier
    name + nation filter resolve from a broadcast lookup; output is the
    per-supplier wait count."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nk = nation.filter(pc.equal(nation["n_name"], "NATION_2"))["n_nationkey"][0].as_py()
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name", "s_nationkey"]
    )
    sup = sup.filter(pc.equal(sup["s_nationkey"], nk))
    sref = ray.put(
        (sup["s_suppkey"].combine_chunks(), sup["s_name"].combine_chunks())
    )

    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    # co-group instead of join: both rollups key on the ORDER, so one
    # orderkey-bucketed union fold computes the join AND both aggregates
    # inside each bucket — one shuffle where the old plan paid a two-sided
    # hash join plus two aggregate exchanges (measured 4.9s → see bench)
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
    nb = num_shuffle_buckets(li.count())

    def tag_orders(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderstatus"], "F"))
        out = pa.Table.from_pydict(
            {
                "okey": t["o_orderkey"],
                "suppkey": pa.array(np.zeros(t.num_rows, np.int64)),
                "d": pc.divide(
                    pc.cast(t["o_orderdate"], pa.int64()), 86_400_000_000
                ),
                "side": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )
        return _dedup.add_hash_bucket(out, "okey", nb, "__wb")

    def tag_lines(t: pa.Table) -> pa.Table:
        out = pa.Table.from_pydict(
            {
                "okey": t["l_orderkey"],
                "suppkey": t["l_suppkey"],
                "d": pc.divide(
                    pc.cast(t["l_shipdate"], pa.int64()), 86_400_000_000
                ),
                "side": pa.array(np.zeros(t.num_rows, np.int64)),
            }
        )
        return _dedup.add_hash_bucket(out, "okey", nb, "__wb")

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderstatus"]
    ).map_batches(tag_orders, batch_format="pyarrow")
    lines = li.map_batches(tag_lines, batch_format="pyarrow")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        o = g[g["side"] == 1]
        l = g[g["side"] == 0]
        m = l.merge(
            o[["okey", "d"]].rename(columns={"d": "od"}), on="okey"
        )
        if len(m) == 0:
            return pd.DataFrame(
                {
                    "l_orderkey": pd.Series([], dtype=np.int64),
                    "n_supp": pd.Series([], dtype=np.int64),
                    "n_late": pd.Series([], dtype=np.int64),
                    "supp_sum": pd.Series([], dtype=np.int64),
                }
            )
        late = (m["d"] > m["od"] + 60).astype(np.int64)
        pp = (
            pd.DataFrame(
                {"okey": m["okey"], "suppkey": m["suppkey"], "late": late}
            )
            .groupby(["okey", "suppkey"], as_index=False, sort=False)["late"]
            .max()
        )
        po = pp.assign(
            supp_sum=pp["late"] * pp["suppkey"]
        ).groupby("okey", as_index=False, sort=False).agg(
            n_supp=("suppkey", "size"),
            n_late=("late", "sum"),
            supp_sum=("supp_sum", "sum"),
        )
        return pd.DataFrame(
            {
                "l_orderkey": po["okey"].to_numpy(np.int64),
                "n_supp": po["n_supp"].to_numpy(np.int64),
                "n_late": po["n_late"].to_numpy(np.int64),
                "supp_sum": po["supp_sum"].to_numpy(np.int64),
            }
        )

    per_order = lines.union(orders).groupby("__wb").map_groups(
        fold, batch_format="pandas"
    )

    def sole(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.greater_equal(t["n_supp"], pa.scalar(2, pa.int64())),
            pc.equal(t["n_late"], pa.scalar(1, pa.int64())),
        )
        t = t.filter(keep)
        return pa.Table.from_pydict({"l_suppkey": t["supp_sum"]})

    culprits = per_order.map_batches(sole, batch_format="pyarrow")

    # supplier-domain-bounded counts: map-side partials (≤ |suppliers| rows
    # per block) + one single-block combine replace a second all-to-all
    # Aggregate exchange (measured ~3.2s of fixed shuffle cost at sf0.1)
    def partial_counts(t: pa.Table) -> pa.Table:
        import pandas as pd

        vc = pd.Series(t["l_suppkey"].to_numpy(zero_copy_only=False)).value_counts()
        return pa.Table.from_pydict(
            {
                "l_suppkey": vc.index.to_numpy(np.int64),
                "numwait": vc.to_numpy(np.int64),
            }
        )

    def combine_attach(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas().groupby("l_suppkey", as_index=False)["numwait"].sum()
        t = pa.Table.from_pandas(df, preserve_index=False)
        sk, sn = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        t = t.append_column("s_name", pc.take(sn, idx))
        return t.filter(pc.is_valid(t["s_name"])).select(["s_name", "numwait"])

    return (
        culprits.map_batches(partial_counts, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine_attach, batch_format="pyarrow")
    )


SQL_WAITING_SUPPLIERS = """
WITH f_li AS (
  SELECT l_orderkey, l_suppkey,
         CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
              THEN 1 ELSE 0 END AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
  WHERE o_orderstatus = 'F'
), per_pair AS (
  SELECT l_orderkey, l_suppkey,
         CASE WHEN SUM(late) > 0 THEN 1 ELSE 0 END AS supp_late
  FROM f_li GROUP BY l_orderkey, l_suppkey
), per_order AS (
  SELECT l_orderkey, COUNT(*) AS n_supp,
         CAST(SUM(supp_late) AS BIGINT) AS n_late,
         CAST(SUM(CASE WHEN supp_late = 1 THEN l_suppkey ELSE 0 END)
              AS BIGINT) AS supp_sum
  FROM per_pair GROUP BY l_orderkey
)
SELECT s_name, COUNT(*) AS numwait
FROM per_order
JOIN supplier ON s_suppkey = supp_sum
JOIN nation ON n_nationkey = s_nationkey
WHERE n_supp >= 2 AND n_late = 1 AND n_name = 'NATION_2'
GROUP BY s_name
"""


def q_local_supplier_volume(sf_dir: str):
    """TPC-H Q5 shape (completes the 22-query TPC-H sweep): revenue from
    orders where customer and supplier sit in the SAME nation of one
    region, for one order-date year. Both dimension chains
    (region→nation→supplier, region→nation→customer) resolve MAP-SIDE via
    broadcast key→nationkey lookups pre-filtered to the region, so the one
    hash join moves only qualifying (orderkey, nationkey, rev) rows; the
    same-nation constraint is a vectorized post-join equality filter."""
    import pyarrow.parquet as pq

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1997, 1, 1)
    region = pq.read_table(f"{sf_dir}/region.parquet")
    rk = region.filter(pc.equal(region["r_name"], "ASIA"))["r_regionkey"][0].as_py()
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    nat = nation.filter(pc.equal(nation["n_regionkey"], rk))
    nk = nat["n_nationkey"].combine_chunks()
    nn = nat["n_name"].combine_chunks()

    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    sup = sup.filter(pc.is_in(sup["s_nationkey"], value_set=nk))
    sref = ray.put((sup["s_suppkey"].combine_chunks(), sup["s_nationkey"].combine_chunks()))

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=nk))
    cref = ray.put((cust["c_custkey"].combine_chunks(), cust["c_nationkey"].combine_chunks()))
    nref = ray.put((nk, nn))

    def sel_orders(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        )
        ck, cn = ray.get(cref)
        idx = pc.index_in(t["o_custkey"], value_set=ck)
        t = t.append_column("c_nk", pc.take(cn, idx))
        t = t.filter(pc.is_valid(t["c_nk"]))
        return t.select(["o_orderkey", "c_nk"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(sel_orders, batch_format="pyarrow")

    def sel_li(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        t = t.append_column("s_nk", pc.take(sn, idx))
        t = t.filter(pc.is_valid(t["s_nk"]))
        rev = pc.multiply(
            _cents(t["l_extendedprice"]),
            pc.subtract(pa.scalar(100, pa.int64()), _cents(t["l_discount"])),
        )
        return pa.Table.from_pydict(
            {"l_orderkey": t["l_orderkey"], "s_nk": t["s_nk"], "rev": rev}
        )

    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(sel_li, batch_format="pyarrow")

    def local_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["s_nk"], t["c_nk"]))
        nk_, nn_ = ray.get(nref)
        idx = pc.index_in(t["s_nk"], value_set=nk_)
        t = t.append_column("n_name", pc.take(nn_, idx))
        return t.select(["n_name", "rev"])

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    ).map_batches(local_only, batch_format="pyarrow")
    return pre_aggregated_sum(
        joined, keys=["n_name"], sums={"rev": "revenue_c4"}
    ).sort("revenue_c4", descending=True)


SQL_LOCAL_SUPPLIER_VOLUME = """
SELECT n_name,
       CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)
                * (100 - CAST(ROUND(100 * l_discount) AS BIGINT))) AS BIGINT)
           AS revenue_c4
FROM customer
JOIN orders   ON o_custkey = c_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON s_suppkey = l_suppkey AND s_nationkey = c_nationkey
JOIN nation   ON n_nationkey = s_nationkey
JOIN region   ON r_regionkey = n_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
ORDER BY revenue_c4 DESC
"""
