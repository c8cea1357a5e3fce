"""Set ops, dense rank, chunking, correlation, latest-per-key, MAD, TPC-H shipping/regional shapes, pivot/rollup, agg builtins.

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


def q_except_users(sf_dir: str):
    """Set difference (EXCEPT) through the anti-join machinery: distinct
    clicking users minus users with any purchase over 80 — distinct sides
    via the bucketed helper, subtraction via filter_out_ids (broadcast
    is_in under its threshold, left_anti join past it — the S12 corpus
    filter exercised through the oracle-checked surface)."""
    from goose_parser_ray.functions.dedup import (
        filter_out_ids,
        num_shuffle_buckets,
    )
    from goose_parser_ray.functions.relational import distinct_rows

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    nb = num_shuffle_buckets(ev.count())
    clickers = distinct_rows(
        ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
                ["user_id"]
            ),
            batch_format="pyarrow",
        ),
        ["user_id"],
        num_buckets=nb,
    )
    big_purchasers = distinct_rows(
        ev.map_batches(
            lambda t: t.filter(
                pc.and_(
                    pc.equal(t["event_type"], "purchase"),
                    pc.greater(t["value"], 80.0),
                )
            ).select(["user_id"]),
            batch_format="pyarrow",
        ),
        ["user_id"],
        num_buckets=nb,
    )
    return filter_out_ids(
        clickers, big_purchasers, "user_id", drop_col="user_id"
    )


SQL_EXCEPT_USERS = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
EXCEPT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase' AND value > 80
"""


def q_intersect_users(sf_dir: str):
    """Set intersection (INTERSECT) — the keep-side twin of q_except_users:
    distinct clicking users ∩ distinct big-purchase users, via the tiered
    ``filter_in_ids`` semi-join (broadcast ``is_in`` under its threshold,
    hash-partitioned inner join against the distinct id stream past it)."""
    from goose_parser_ray.functions.dedup import (
        filter_in_ids,
        num_shuffle_buckets,
    )
    from goose_parser_ray.functions.relational import distinct_rows

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    nb = num_shuffle_buckets(ev.count())
    clickers = distinct_rows(
        ev.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
                ["user_id"]
            ),
            batch_format="pyarrow",
        ),
        ["user_id"],
        num_buckets=nb,
    )
    big_purchasers = distinct_rows(
        ev.map_batches(
            lambda t: t.filter(
                pc.and_(
                    pc.equal(t["event_type"], "purchase"),
                    pc.greater(t["value"], 80.0),
                )
            ).select(["user_id"]),
            batch_format="pyarrow",
        ),
        ["user_id"],
        num_buckets=nb,
    )
    return filter_in_ids(
        clickers, big_purchasers, "user_id", keep_col="user_id"
    )


SQL_INTERSECT_USERS = """
SELECT DISTINCT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT DISTINCT user_id FROM events WHERE event_type = 'purchase' AND value > 80
"""


def q_rank_dense(sf_dir: str):
    """DENSE_RANK with ties (vs q_topn_per_group's ROW_NUMBER): per
    event_type, every event whose cent-scaled value lands in the type's
    top-3 DISTINCT values — ties all emitted, so the result is independent
    of row order. Mergeable map-side prune: a row can only be in the
    global top-3-distinct if it's in its fragment's top-3-distinct, so each
    batch keeps ≤3 distinct values per type before the per-type regroup.
    (Degenerate corpora where one value dominates inflate the tie set —
    that's inherent to RANK-with-ties semantics, not the plan.)"""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def dense_top3(g: pd.DataFrame) -> pd.DataFrame:
        r = g["v_cents"].rank(method="dense", ascending=False).astype("int64")
        out = g.loc[r <= 3, ["event_id", "event_type", "v_cents"]].copy()
        out["rnk"] = r[r <= 3]
        return out

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "event_id": t["event_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_pandas(),
                "v_cents": pc.cast(
                    pc.round(
                        pc.multiply(t["value"], pa.scalar(100.0)),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ).to_numpy(zero_copy_only=False),
            }
        )
        # Vectorized GroupBy.rank — one C pass over the whole batch, and no
        # GroupBy.apply (whose include-groups frame layout is deprecated in
        # pandas 2.2 and removed in 3.0).
        r = (
            df.groupby("event_type", sort=False)["v_cents"]
            .rank(method="dense", ascending=False)
            .astype("int64")
        )
        keep = df.loc[r <= 3, ["event_id", "event_type", "v_cents"]].copy()
        keep["rnk"] = r[r <= 3]
        return pa.Table.from_pandas(keep, preserve_index=False)

    pruned = ds.map_batches(partial, batch_format="pyarrow")
    return (
        pruned.groupby("event_type")
        .map_groups(
            lambda g: dense_top3(g.drop(columns=["rnk"])),
            batch_format="pandas",
        )
    )


SQL_RANK_DENSE = """
WITH v AS (
  SELECT event_id, event_type,
         CAST(ROUND(100 * value) AS BIGINT) AS v_cents
  FROM events
), r AS (
  SELECT event_id, event_type, v_cents,
         CAST(DENSE_RANK() OVER (PARTITION BY event_type
                                 ORDER BY v_cents DESC) AS BIGINT) AS rnk
  FROM v
)
SELECT event_id, event_type, v_cents, rnk FROM r WHERE rnk <= 3
"""


def q_chunk_text(sf_dir: str):
    """Sliding-window text chunking (the RAG / context-window prep op):
    200-codepoint chunks on a 150 stride (50 overlap), chunk_id per doc.
    Vectorized fan-out: one pass per chunk INDEX (bounded by the longest
    doc in the batch), each pass a single Arrow ``utf8_slice_codeunits``
    over the rows long enough to own that chunk — no per-row Python, no
    shuffle; a doc's chunks stay in its block (ordered emission)."""
    CHUNK, STRIDE = 200, 150
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def chunks(t: pa.Table) -> pa.Table:
        lens = pc.utf8_length(t["text"]).to_numpy(zero_copy_only=False)
        n_chunks = np.maximum(lens - 1, 0) // STRIDE + 1
        parts = []
        for j in range(int(n_chunks.max()) if len(n_chunks) else 0):
            mask = pa.array(n_chunks > j)
            sub = t.filter(mask)
            piece = pc.utf8_slice_codeunits(
                sub["text"], start=j * STRIDE, stop=j * STRIDE + CHUNK
            )
            parts.append(
                pa.Table.from_arrays(
                    [
                        sub["doc_id"],
                        pa.array(
                            np.full(sub.num_rows, j, dtype=np.int64)
                        ),
                        piece,
                    ],
                    names=["doc_id", "chunk_id", "chunk"],
                )
            )
        if not parts:
            return pa.Table.from_arrays(
                [
                    pa.array([], pa.int64()),
                    pa.array([], pa.int64()),
                    pa.array([], pa.string()),
                ],
                names=["doc_id", "chunk_id", "chunk"],
            )
        return pa.concat_tables(parts)

    return ds.map_batches(chunks, batch_format="pyarrow")


SQL_CHUNK_TEXT = """
SELECT doc_id, CAST(j AS BIGINT) AS chunk_id,
       substring(text, CAST(j * 150 + 1 AS INT), 200) AS chunk
FROM documents,
     UNNEST(generate_series(0, greatest(length(text) - 1, 0) // 150)) AS t(j)
"""


def q_corr_by_flag(sf_dir: str):
    """Grouped Pearson correlation (quantity vs discount-percent per
    returnflag) from EXACT integer partials: n, Σx, Σy, Σx², Σy², Σxy over
    small-range ints — one distributed partial-aggregate pass, the closed-
    form corr evaluated identically in both engines from the same BIGINT
    sums (no association-order risk), emitted in basis points with matched
    half-away rounding. Integer headroom: x ≤ 50, y ≤ 10, so Σxy-type
    partials stay well inside int64 up to ~10^14 rows."""
    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_discount"]
    )

    def derive(t: pa.Table) -> pa.Table:
        x = pc.cast(t["l_quantity"], pa.int64())
        y = pc.cast(
            pc.round(
                pc.multiply(t["l_discount"], pa.scalar(100.0)),
                round_mode="half_towards_infinity",
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [
                t["l_returnflag"], x, y,
                pc.multiply(x, x), pc.multiply(y, y), pc.multiply(x, y),
            ],
            names=["l_returnflag", "x", "y", "xx", "yy", "xy"],
        )

    partials = pre_aggregated_sum(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["l_returnflag"],
        sums={"x": "sx", "y": "sy", "xx": "sxx", "yy": "syy", "xy": "sxy"},
        count_alias="n",
    )

    def finish(t: pa.Table) -> pa.Table:
        import pandas as pd

        d = t.to_pandas()
        n = d["n"].to_numpy(np.int64)
        sx, sy = d["sx"].to_numpy(np.int64), d["sy"].to_numpy(np.int64)
        sxx = d["sxx"].to_numpy(np.int64)
        syy = d["syy"].to_numpy(np.int64)
        sxy = d["sxy"].to_numpy(np.int64)
        num = (10000 * (n * sxy - sx * sy)).astype(np.float64)
        den = np.sqrt((n * sxx - sx * sx).astype(np.float64)) * np.sqrt(
            (n * syy - sy * sy).astype(np.float64)
        )
        corr = pa.array(num / den)
        return pa.Table.from_arrays(
            [
                t["l_returnflag"],
                pc.cast(
                    pc.round(corr, round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
            ],
            names=["l_returnflag", "corr_bp"],
        )

    return partials.map_batches(finish, batch_format="pyarrow")


SQL_CORR_BY_FLAG = """
WITH b AS (
  SELECT l_returnflag,
         CAST(l_quantity AS BIGINT) AS x,
         CAST(ROUND(100 * l_discount) AS BIGINT) AS y
  FROM lineitem
), s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(y * y) AS BIGINT) AS syy,
         CAST(SUM(x * y) AS BIGINT) AS sxy
  FROM b GROUP BY l_returnflag
)
SELECT l_returnflag,
       CAST(ROUND(CAST(10000 * (n * sxy - sx * sy) AS DOUBLE) /
                  (sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) *
                   sqrt(CAST(n * syy - sy * sy AS DOUBLE)))) AS BIGINT)
         AS corr_bp
FROM s
"""


def q_latest_per_key(sf_dir: str):
    """Arg-max dedup — keep each user's LATEST event (the 'newest crawl
    per URL' op every refreshed web corpus needs). Mergeable map-side
    prune: one row per (batch, user) survives (a user's global argmax is
    the argmax of its per-fragment argmaxes), then a user-bucketed regroup
    takes the final argmax. Deterministic tie-break (ts DESC, event_id
    DESC); ts emitted as string for cross-engine parity."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    nb = num_shuffle_buckets(ds.count())

    def argmax_latest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "ts", "event_id"],
            ascending=[True, False, False], kind="mergesort",
        )
        return g.groupby("user_id", sort=False).head(1)

    def partial(t: pa.Table) -> pa.Table:
        kept = argmax_latest(t.to_pandas())
        return _dedup.add_hash_bucket(
            pa.Table.from_pandas(kept, preserve_index=False),
            "user_id", nb, "__lb",
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        out = argmax_latest(g.drop(columns=["__lb"]))
        out["ts"] = out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return out[["user_id", "event_id", "event_type", "ts"]]

    pruned = ds.map_batches(partial, batch_format="pyarrow")
    return pruned.groupby("__lb").map_groups(finish, batch_format="pandas")


SQL_LATEST_PER_KEY = """
WITH r AS (
  SELECT user_id, event_id, event_type, ts,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
SELECT user_id, event_id, event_type,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts
FROM r WHERE rn = 1
"""


def q_mad_by_lang(sf_dir: str):
    """Median absolute deviation per language (robust spread for outlier
    gates where stddev is skew-poisoned). Two exact discrete-median passes:
    per-lang median of n_chars (tiny per-group sorted-vector result,
    quantile_disc convention) collected and broadcast, then per-lang median
    of |n_chars − med|. Both shuffles group on lang (bounded cardinality);
    at 10^12 rows each median pass swaps to the mergeable grouped quantile
    sketch with the same plumbing."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def disc_median(g: pd.DataFrame, col: str, out: str) -> pd.DataFrame:
        v = np.sort(g[col].to_numpy())
        m = int(v[max(0, int(np.ceil(0.5 * len(v))) - 1)])
        return pd.DataFrame({"lang": [g["lang"].iloc[0]], out: [m]})

    meds = (
        ds.groupby("lang")
        .map_groups(
            lambda g: disc_median(g, "n_chars", "med"), batch_format="pandas"
        )
        .to_pandas()
    )
    langs_a = pa.array(meds["lang"])
    med_a = pa.array(meds["med"].to_numpy(np.int64))

    def abs_dev(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["lang"], value_set=langs_a)
        med = pc.take(med_a, idx)
        dev = pc.abs(
            pc.subtract(pc.cast(t["n_chars"], pa.int64()), med)
        )
        return pa.Table.from_arrays([t["lang"], dev], names=["lang", "dev"])

    return (
        ds.map_batches(abs_dev, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(
            lambda g: disc_median(g, "dev", "mad"), batch_format="pandas"
        )
    )


SQL_MAD_BY_LANG = """
WITH m AS (
  SELECT lang, quantile_disc(n_chars, 0.5) AS med
  FROM documents GROUP BY lang
)
SELECT d.lang,
       CAST(quantile_disc(abs(CAST(d.n_chars AS BIGINT) - m.med), 0.5)
            AS BIGINT) AS mad
FROM documents d JOIN m USING (lang)
GROUP BY d.lang
"""


def q_shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped 3-way join composition: segment filter pushed into a
    broadcast semi-join on orders (customer keys ray.put once), date filters
    pushed to the reads, ONE hash-partitioned join (lineitem ⋈ filtered
    orders — the only large×large pair), revenue as integer cents, partial
    aggregate, global top-10 with deterministic tie-break."""
    import pyarrow.parquet as pq

    cutoff = _dt.datetime(1998, 6, 1)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))[
        "c_custkey"
    ].combine_chunks()
    kref = ray.put(keys)

    def sel_orders(t: pa.Table) -> pa.Table:
        ks = ray.get(kref)
        t = t.filter(
            pc.and_(
                pc.is_in(t["o_custkey"], value_set=ks),
                pc.less(t["o_orderdate"], pa.scalar(cutoff)),
            )
        )
        return pa.Table.from_arrays(
            [
                t["o_orderkey"],
                pc.strftime(t["o_orderdate"], "%Y-%m-%d"),
                t["o_orderpriority"],
            ],
            names=["o_orderkey", "o_orderdate", "o_orderpriority"],
        )

    orders = _read(
        sf_dir, "orders",
        ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(sel_orders, batch_format="pyarrow")

    def sel_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(cutoff)))
        rev = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        return pa.Table.from_arrays(
            [t["l_orderkey"], _cents(rev)], names=["l_orderkey", "rev_cents"]
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    ).map_batches(sel_li, batch_format="pyarrow")

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    joined = joined.map_batches(
        lambda t: t.select(
            ["l_orderkey", "o_orderdate", "o_orderpriority", "rev_cents"]
        ),
        batch_format="pyarrow",
    )
    agg = pre_aggregated_sum(
        joined,
        keys=["l_orderkey", "o_orderdate", "o_orderpriority"],
        sums={"rev_cents": "revenue_cents"},
    )
    return agg.sort(
        ["revenue_cents", "l_orderkey"], descending=[True, False]
    ).limit(10)


SQL_SHIPPING_PRIORITY = """
SELECT l_orderkey,
       strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
       o_orderpriority,
       CAST(SUM(CAST(ROUND(100 * (l_extendedprice * (1 - l_discount))) AS BIGINT)) AS BIGINT)
           AS revenue_cents
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '1998-06-01'
  AND l_shipdate  > TIMESTAMP '1998-06-01'
GROUP BY 1, 2, 3
ORDER BY revenue_cents DESC, l_orderkey ASC
LIMIT 10
"""


def q_regional_revenue(sf_dir: str):
    """TPC-H Q5-shaped 6-table composition (region→nation→customer/supplier
    ⋈ orders ⋈ lineitem): every small dimension collapses into broadcast
    lookups resolved map-side (region/nation driver-side — dozens of rows;
    customer/supplier key→nation arrays via one ``ray.put`` each), leaving
    ONE hash-partitioned large×large join (lineitem ⋈ date-filtered
    orders). The same-nation constraint (c_nationkey = s_nationkey) is a
    vectorized post-join filter. Revenue is integer-exact:
    price_cents × (100 − discount_pct), summed as BIGINT in both engines."""
    import pyarrow.parquet as pq

    lo, hi = _dt.datetime(1996, 1, 1), _dt.datetime(1997, 1, 1)
    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    asia_rk = region.filter(pc.equal(region["r_name"], "ASIA"))[
        "r_regionkey"
    ][0].as_py()
    nat = nation.filter(pc.equal(nation["n_regionkey"], asia_rk))
    nat_keys = nat["n_nationkey"].combine_chunks()
    nat_names = nat["n_name"].combine_chunks()

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    cust = cust.filter(pc.is_in(cust["c_nationkey"], value_set=nat_keys))
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sup = sup.filter(pc.is_in(sup["s_nationkey"], value_set=nat_keys))
    cref = ray.put(
        (cust["c_custkey"].combine_chunks(), cust["c_nationkey"].combine_chunks())
    )
    sref = ray.put(
        (sup["s_suppkey"].combine_chunks(), sup["s_nationkey"].combine_chunks())
    )

    def sel_orders(t: pa.Table) -> pa.Table:
        ck, cn = ray.get(cref)
        t = t.filter(
            pc.and_(
                pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                pc.less(t["o_orderdate"], pa.scalar(hi)),
            )
        )
        idx = pc.index_in(t["o_custkey"], value_set=ck)
        t = t.append_column("c_nat", pc.take(cn, idx))
        t = t.filter(pc.is_valid(t["c_nat"]))
        return t.select(["o_orderkey", "c_nat"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(sel_orders, batch_format="pyarrow")

    def sel_li(t: pa.Table) -> pa.Table:
        price_c = _cents(t["l_extendedprice"])
        disc_pct = _cents(t["l_discount"])
        rev = pc.multiply(
            price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_pct)
        )
        return pa.Table.from_arrays(
            [t["l_orderkey"], t["l_suppkey"], rev],
            names=["l_orderkey", "l_suppkey", "rev"],
        )

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(sel_li, batch_format="pyarrow")

    joined = li.join(
        orders, join_type="inner", num_partitions=_dedup._default_join_partitions(),
        on=("l_orderkey",), right_on=("o_orderkey",),
    )

    def attach_nation(t: pa.Table) -> pa.Table:
        sk, sn = ray.get(sref)
        idx = pc.index_in(t["l_suppkey"], value_set=sk)
        s_nat = pc.take(sn, idx)
        t = t.append_column("s_nat", s_nat)
        t = t.filter(
            pc.and_(pc.is_valid(s_nat), pc.equal(s_nat, t["c_nat"]))
        )
        nidx = pc.index_in(t["s_nat"], value_set=nat_keys)
        return pa.Table.from_arrays(
            [pc.take(nat_names, nidx), t["rev"]], names=["n_name", "rev"]
        )

    return pre_aggregated_sum(
        joined.map_batches(attach_nation, batch_format="pyarrow"),
        keys=["n_name"], sums={"rev": "revenue_c4"},
    )


SQL_REGIONAL_REVENUE = """
WITH li AS (
  SELECT l_orderkey, l_suppkey,
         CAST(ROUND(100 * l_extendedprice) AS BIGINT) *
         (100 - CAST(ROUND(100 * l_discount) AS BIGINT)) AS rev
  FROM lineitem
)
SELECT n_name, CAST(SUM(rev) AS BIGINT) AS revenue_c4
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN li ON li.l_orderkey = o_orderkey
JOIN supplier ON li.l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND c_nationkey = s_nationkey
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate <  TIMESTAMP '1997-01-01'
GROUP BY n_name
"""


def q_error_window_counts(sf_dir: str):
    """RANGE join (inequality join + count): for every click, the number of
    'error' events by the same user in the 10 minutes at-or-before it.
    Computed as a difference of per-user cumulative counts via two
    vectorized as-of lookups — never materializing the O(L×R) inequality
    pairs the SQL twin describes."""
    import pandas as pd

    from goose_parser_ray.functions.asof import windowed_count_bucketed
    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    nb = num_shuffle_buckets(ev.count())
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    errors = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "error")).select(
            ["user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    counted = windowed_count_bucketed(
        clicks, errors, by="user_id", ts="ts",
        window=pd.Timedelta(minutes=10), out_col="n_errors", num_buckets=nb,
    )
    return counted.map_batches(
        lambda t: t.select(["event_id", "n_errors"]),
        batch_format="pyarrow",
    )


SQL_ERROR_WINDOW_COUNTS = """
WITH c AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'
), e AS (
  SELECT user_id, ts FROM events WHERE event_type = 'error'
)
SELECT c.event_id, CAST(COUNT(e.ts) AS BIGINT) AS n_errors
FROM c LEFT JOIN e
  ON c.user_id = e.user_id
 AND e.ts <= c.ts
 AND e.ts > c.ts - INTERVAL 10 MINUTE
GROUP BY c.event_id
"""


_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_pivot_events(sf_dir: str):
    """Pivot (long→wide): per-user event-type value sums as columns — the
    wide projection is pure map-side vectorized masking (one CASE column per
    known type), so the shuffle still moves only per-user partials."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def widen(t: pa.Table) -> pa.Table:
        v = _cents(t["value"], 10000)
        cols = [t["user_id"]]
        names = ["user_id"]
        for et in _EVENT_TYPES:
            mask = pc.equal(t["event_type"], et)
            cols.append(pc.if_else(mask, v, pa.scalar(0, pa.int64())))
            names.append(f"{et}_e4")
        return pa.Table.from_arrays(cols, names=names)

    ds = ds.map_batches(widen, batch_format="pyarrow")
    return pre_aggregated_sum(
        ds,
        keys=["user_id"],
        sums={f"{et}_e4": f"{et}_e4" for et in _EVENT_TYPES},
        count_alias="n_events",
    )


SQL_PIVOT_EVENTS = """
SELECT user_id,
       """ + ",\n       ".join(
    f"CAST(SUM(CASE WHEN event_type = '{et}' THEN CAST(ROUND(10000 * value) AS BIGINT) ELSE 0 END) AS BIGINT) AS {et}_e4"
    for et in _EVENT_TYPES
) + """,
       COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


def q_rollup_lineitem(sf_dir: str):
    """ROLLUP multi-level aggregate: sums at (returnflag, linestatus),
    (returnflag) and grand-total levels. One distributed partial-agg pass at
    the FINEST level; the coarser levels derive from that tiny result on the
    driver (6 rows → 11) — no second scan, the standard rollup-from-finest
    plan."""
    import pandas as pd

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])
    ds = ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["l_returnflag"], t["l_linestatus"], pc.cast(t["l_quantity"], pa.int64())],
            names=["l_returnflag", "l_linestatus", "qty"],
        ),
        batch_format="pyarrow",
    )
    finest = pre_aggregated_sum(
        ds, keys=["l_returnflag", "l_linestatus"], sums={"qty": "sum_qty"},
        count_alias="n",
    ).to_pandas()
    lvl1 = (
        finest.groupby("l_returnflag", as_index=False)[["sum_qty", "n"]].sum()
    )
    lvl1["l_linestatus"] = None
    total = pd.DataFrame(
        {
            "l_returnflag": [None],
            "l_linestatus": [None],
            "sum_qty": [finest["sum_qty"].sum()],
            "n": [finest["n"].sum()],
        }
    )
    out = pd.concat([finest, lvl1, total], ignore_index=True)
    out["sum_qty"] = out["sum_qty"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "sum_qty", "n"]]


SQL_ROLLUP_LINEITEM = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       COUNT(*) AS n
FROM lineitem GROUP BY ROLLUP (l_returnflag, l_linestatus)
"""


def q_distinct_users_per_type(sf_dir: str):
    """Grouped EXACT distinct count at scale: map-side local dedup →
    bucketed global distinct on (event_type, user_id) (shuffle groups are
    coarse buckets, never per-user) → per-type count. The approximate
    HLL twin is q_hll_distinct_users."""
    from goose_parser_ray.functions.dedup import num_shuffle_buckets
    from goose_parser_ray.functions.relational import distinct_rows

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    nb = num_shuffle_buckets(ds.count())
    uniq = distinct_rows(ds, ["event_type", "user_id"], num_buckets=nb)
    return pre_aggregated_sum(
        uniq, keys=["event_type"], sums={}, count_alias="n_users"
    )


SQL_DISTINCT_USERS_PER_TYPE = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


def q_agg_builtins(sf_dir: str):
    """S6 via Ray's native aggregate API (Min/Max/Count) — exact-integer
    columns only, so the hash compare cannot be bitten by float sum order."""
    from ray.data.aggregate import Count, Max, Min

    ds = _read(sf_dir, "events", ["event_type", "value"])
    ds = ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["event_type"], _cents(t["value"], 10000)],
            names=["event_type", "value_e4"],
        ),
        batch_format="pyarrow",
    )
    return ds.groupby("event_type").aggregate(
        Min("value_e4", alias_name="min_e4"),
        Max("value_e4", alias_name="max_e4"),
        Count(alias_name="n"),
    )


SQL_AGG_BUILTINS = """
SELECT event_type,
       MIN(CAST(ROUND(10000 * value) AS BIGINT)) AS min_e4,
       MAX(CAST(ROUND(10000 * value) AS BIGINT)) AS max_e4,
       COUNT(*) AS n
FROM events GROUP BY event_type
"""
