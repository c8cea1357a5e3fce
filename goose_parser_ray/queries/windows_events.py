"""Windowed / event analytics: cube, mode, z-score, funnel, sessions, hopping windows, streaks, quantiles, as-of joins, sampling, ranks.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.functions.relational import broadcast_join, keyed_aggregate

from goose_parser_ray.queries._shared import _cents, _read


def _user_ts_e4(t: pa.Table) -> pa.Table:
    """(user_id, ts, v_e4) with the event value in 1e-4 units (half-away
    rounding in Arrow — matches SQL ROUND exactly)."""
    return pa.Table.from_arrays(
        [t["user_id"], t["ts"], _cents(t["value"], 10000)],
        names=["user_id", "ts", "v_e4"],
    )


def q_cube_agg(sf_dir: str):
    """CUBE over (lang, source): ONE distributed partial-aggregate pass
    produces the finest (lang, source) cells; every coarser level is
    re-aggregated from those partials — the corpus is read once and the
    cube expansion touches only the (langs × sources)-row grouped result,
    which is small BY DEFINITION of the grouping keys."""
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    base = keyed_aggregate(
        ds, ["lang", "source"],
        {"sum_chars": ("n_chars", "sum"), "n_docs": ("lang", "count")},
    ).to_pandas()

    import pandas as pd

    levels = [base]
    for keys in (["lang"], ["source"], []):
        lvl = (
            base.groupby(keys, as_index=False)[["sum_chars", "n_docs"]].sum()
            if keys
            else base[["sum_chars", "n_docs"]].sum().to_frame().T
        )
        for filled in ("lang", "source"):
            if filled not in keys:
                lvl[filled] = "ALL"
        levels.append(lvl[["lang", "source", "sum_chars", "n_docs"]])
    out = pd.concat(levels, ignore_index=True)
    out["sum_chars"] = out["sum_chars"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out


SQL_CUBE_AGG = """
SELECT COALESCE(lang, 'ALL') AS lang,
       COALESCE(source, 'ALL') AS source,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       COUNT(*) AS n_docs
FROM documents GROUP BY CUBE(lang, source)
"""


def q_mode_per_group(sf_dir: str):
    """Mode (argmax) per group: most frequent source per language,
    deterministic tie-break (higher count first, then lexicographic
    source). Distributed count partials → tiny grouped result → driver
    argmax over ≤ (langs × sources) rows."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    counts = keyed_aggregate(
        ds, ["lang", "source"],
        {"n_docs": ("lang", "count")},
    ).to_pandas()
    top = (
        counts.sort_values(
            ["lang", "n_docs", "source"],
            ascending=[True, False, True], kind="mergesort",
        )
        .drop_duplicates(subset=["lang"])
        .rename(columns={"source": "mode_source"})
        .reset_index(drop=True)
    )
    top["n_docs"] = top["n_docs"].astype("int64")
    return top[["lang", "mode_source", "n_docs"]]


SQL_MODE_PER_GROUP = """
WITH c AS (
  SELECT lang, source, COUNT(*) AS n FROM documents GROUP BY lang, source
), r AS (
  SELECT lang, source, n,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY n DESC, source ASC)
           AS rn
  FROM c
)
SELECT lang, source AS mode_source, CAST(n AS BIGINT) AS n_docs
FROM r WHERE rn = 1
"""


def q_zscore_by_type(sf_dir: str):
    """Grouped standardization (z-score per event_type): distributed
    EXACT integer partials (sum, sum-of-squares, count over e4 fixed-point
    values) → tiny per-type lut → broadcast map-side normalization. Both
    engines compute the identical float64 expression from the same exact
    BIGINT sums, so association order can't diverge; z emitted in basis
    points with matched rounding."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        v4 = _cents(t["value"], 10000)
        return pa.Table.from_arrays(
            [t["event_id"], t["event_type"], v4,
             pc.multiply(v4, v4)],
            names=["event_id", "event_type", "v4", "v4sq"],
        )

    vals = ds.map_batches(prep, batch_format="pyarrow")
    stats = keyed_aggregate(
        vals, ["event_type"],
        {"s": ("v4", "sum"), "q": ("v4sq", "sum"), "n": ("event_type", "count")},
    ).to_pandas()
    types = pa.array(stats["event_type"].tolist())
    s_arr = stats["s"].to_numpy(np.float64)
    q_arr = stats["q"].to_numpy(np.float64)
    n_arr = stats["n"].to_numpy(np.float64)
    mean = s_arr / n_arr
    std = np.sqrt((q_arr - s_arr * s_arr / n_arr) / (n_arr - 1.0))
    mean_a, std_a = pa.array(mean), pa.array(std)

    def zscore(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["event_type"], value_set=types)
        m = pc.take(mean_a, idx)
        sd = pc.take(std_a, idx)
        z = pc.divide(
            pc.multiply(
                pa.scalar(10000.0),
                pc.subtract(pc.cast(t["v4"], pa.float64()), m),
            ),
            sd,
        )
        return pa.Table.from_arrays(
            [t["event_id"], t["event_type"],
             pc.cast(pc.round(z, round_mode="half_towards_infinity"),
                     pa.int64())],
            names=["event_id", "event_type", "z_bp"],
        )

    return vals.map_batches(zscore, batch_format="pyarrow")


SQL_ZSCORE_BY_TYPE = """
WITH v AS (
  SELECT event_id, event_type,
         CAST(ROUND(10000 * value) AS BIGINT) AS v4
  FROM events
), s AS (
  SELECT event_type, CAST(SUM(v4) AS BIGINT) AS s,
         CAST(SUM(v4 * v4) AS BIGINT) AS q, COUNT(*) AS n
  FROM v GROUP BY event_type
)
SELECT v.event_id, v.event_type,
       CAST(ROUND(
         (10000.0 * (CAST(v.v4 AS DOUBLE) - CAST(s.s AS DOUBLE) / s.n))
         / sqrt((CAST(s.q AS DOUBLE)
                 - CAST(s.s AS DOUBLE) * CAST(s.s AS DOUBLE) / s.n)
                / (s.n - 1.0))
       ) AS BIGINT) AS z_bp
FROM v JOIN s USING (event_type)
"""


def q_funnel(sf_dir: str):
    """Ordered funnel analysis (view → click-after-view →
    purchase-after-click) per user: hash-bucketed users (never per-user
    shuffle groups), three vectorized groupby-min/merge passes INSIDE each
    bucket — no per-user Python. Nulls propagate for users who never reach
    a stage; timestamps emitted as strings for cross-engine parity."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def funnel_bucket(g: pd.DataFrame) -> pd.DataFrame:
        views = (
            g[g["event_type"] == "view"].groupby("user_id")["ts"].min()
            .rename("t_view")
        )
        c = g[g["event_type"] == "click"].merge(
            views, left_on="user_id", right_index=True
        )
        clicks = (
            c[c["ts"] >= c["t_view"]].groupby("user_id")["ts"].min()
            .rename("t_click")
        )
        p = g[g["event_type"] == "purchase"].merge(
            clicks, left_on="user_id", right_index=True
        )
        purch = (
            p[p["ts"] >= p["t_click"]].groupby("user_id")["ts"].min()
            .rename("t_purchase")
        )
        out = (
            views.to_frame()
            .join(clicks, how="left").join(purch, how="left")
            .reset_index()
        )
        for col in ("t_view", "t_click", "t_purchase"):
            s = out[col].dt.strftime("%Y-%m-%d %H:%M:%S")
            out[col] = s.where(s.notna(), None)
        return out

    return _dedup.bucket_groups(ds, "user_id", funnel_bucket, rows=ds.count())


SQL_FUNNEL = """
WITH v AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY user_id
), c AS (
  SELECT e.user_id, min(e.ts) AS t2
  FROM events e JOIN v ON e.user_id = v.user_id
  WHERE e.event_type = 'click' AND e.ts >= v.t1 GROUP BY e.user_id
), p AS (
  SELECT e.user_id, min(e.ts) AS t3
  FROM events e JOIN c ON e.user_id = c.user_id
  WHERE e.event_type = 'purchase' AND e.ts >= c.t2 GROUP BY e.user_id
)
SELECT v.user_id,
       strftime(v.t1, '%Y-%m-%d %H:%M:%S') AS t_view,
       strftime(c.t2, '%Y-%m-%d %H:%M:%S') AS t_click,
       strftime(p.t3, '%Y-%m-%d %H:%M:%S') AS t_purchase
FROM v LEFT JOIN c USING (user_id) LEFT JOIN p USING (user_id)
"""


def q_tfidf_top_terms(sf_dir: str):
    """Per-doc top-3 TF-IDF terms (``textstats.tfidf_top_terms``):
    integer-exact scoring (tf × N × 10000 // df — no float log, so both
    engines rank identically), map-side TF, size-gated DF attach
    (broadcast under VOCAB_BROADCAST_GUARD, hash join past it), partial
    top-k prune before a doc-bucketed exact final rank."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.textstats import tfidf_top_terms

    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return tfidf_top_terms(ds, n_docs, k=3)


SQL_TFIDF_TOP_TERMS = r"""
WITH w AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS word
  FROM documents
), tf AS (
  SELECT doc_id, word, COUNT(*) AS tf FROM w GROUP BY doc_id, word
), df AS (
  SELECT word, COUNT(DISTINCT doc_id) AS df FROM w GROUP BY word
), s AS (
  SELECT tf.doc_id, tf.word,
         CAST(tf.tf * 10000 // df.df AS BIGINT) AS score
  FROM tf JOIN df USING (word)
), r AS (
  SELECT doc_id, word, score,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, word ASC) AS rn
  FROM s
)
SELECT doc_id, word, score FROM r WHERE rn <= 3
"""


def q_events_window(sf_dir: str):
    """Tumbling 1h window as groupby over a truncated-ts key (guide
    "Streaming-shaped workloads"); hour emitted as string for type parity."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        hour = pc.strftime(pc.floor_temporal(t["ts"], unit="hour"), "%Y-%m-%d %H:00:00")
        return pa.Table.from_arrays(
            [t["event_type"], hour, _cents(t["value"], 10000)],
            names=["event_type", "hour", "value_e4"],
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return keyed_aggregate(
        ds, ["event_type", "hour"],
        {"value_e4": ("value_e4", "sum"), "n_events": ("event_type", "count")},
    )


SQL_EVENTS_WINDOW = """
SELECT event_type,
       strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
       CAST(SUM(CAST(ROUND(10000 * value) AS BIGINT)) AS BIGINT) AS value_e4,
       COUNT(*) AS n_events
FROM events GROUP BY 1, 2
"""


def q_sessionize(sf_dir: str):
    """Streaming-shaped workload (guide): sessionization with a 30-minute
    inactivity gap. Users are coalesced into hash buckets (one shuffle group
    per bucket, NOT per user — at 10⁹ users per-group overhead would dominate)
    and the windowing inside each bucket is one vectorized pandas pass over
    all of the bucket's users: sort by (user, ts), session breaks at user
    changes or >30 min gaps, cumsum for session ids."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g.groupby("user_id")["ts"].diff() > pd.Timedelta(minutes=30)
        sid = (new_user | gap).cumsum()
        out = g.groupby(sid).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            n_events=("ts", "size"),
        )
        out["session_start"] = out["session_start"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return out[["user_id", "session_start", "n_events"]]

    # data-proportional session buckets (metadata-only count on the fresh
    # parquet read): payload per shuffle group stays ~50k events at any
    # corpus size instead of events/64 (r2 VERDICT #4)
    return _dedup.bucket_groups(ds, "user_id", sessions_bucket, rows=ds.count())


SQL_SESSIONIZE = """
WITH d AS (
  SELECT user_id, ts,
         CASE WHEN LAG(ts) OVER w IS NULL
                   OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
), s AS (
  SELECT user_id, ts,
         SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts
                          ROWS UNBOUNDED PRECEDING) AS sid
  FROM d
)
SELECT user_id,
       strftime(MIN(ts), '%Y-%m-%d %H:%M:%S') AS session_start,
       COUNT(*) AS n_events
FROM s GROUP BY user_id, sid
"""


def q_topn_per_group(sf_dir: str):
    """Top-3 orders by price per market segment (window-rank shape): the
    broadcast join attaches the segment, then per-group top-N runs as ONE
    shuffle group per segment-bucket with a vectorized pandas
    sort+groupby+head inside — the classic ROW_NUMBER() OVER (PARTITION BY)
    pattern without per-key groups."""
    import pandas as pd
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["c_custkey", "segment"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, key="o_custkey")
    joined = joined.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["o_orderkey"], t["segment"], _cents(t["o_totalprice"])],
            names=["o_orderkey", "segment", "total_cents"],
        ),
        batch_format="pyarrow",
    )

    def local_topn(t: pa.Table) -> pa.Table:
        # map-side combine: only each batch's top-3 per segment survive
        df = t.to_pandas()
        df = df.sort_values(
            ["segment", "total_cents", "o_orderkey"],
            ascending=[True, False, True],
        )
        return pa.Table.from_pandas(
            df.groupby("segment", as_index=False).head(3), preserve_index=False
        )

    def final_topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["segment", "total_cents", "o_orderkey"], ascending=[True, False, True]
        )
        out = g.groupby("segment", as_index=False).head(3).copy()
        out["rnk"] = out.groupby("segment").cumcount() + 1
        return out

    ds = joined.map_batches(local_topn, batch_format="pyarrow")
    return ds.groupby("segment").map_groups(final_topn, batch_format="pandas")


SQL_TOPN_PER_GROUP = """
WITH j AS (
  SELECT o_orderkey, c_mktsegment AS segment,
         CAST(ROUND(100 * o_totalprice) AS BIGINT) AS total_cents
  FROM orders JOIN customer ON o_custkey = c_custkey
), r AS (
  SELECT o_orderkey, segment, total_cents,
         ROW_NUMBER() OVER (PARTITION BY segment
                            ORDER BY total_cents DESC, o_orderkey ASC) AS rnk
  FROM j
)
SELECT o_orderkey, segment, total_cents, rnk FROM r WHERE rnk <= 3
"""


def q_events_hopping(sf_dir: str):
    """Hopping window (1h window, 30min hop): each event flat-maps to its
    ≤2 covering windows (vectorized — two shifted truncations, concat),
    then the partial-aggregate groupby. Overlapping windows are pure
    map-side fan-out; the shuffle still moves only per-(key,window)
    partials."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def fan_out(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t["ts"], multiple=30, unit="minute")
        prev = pc.subtract(
            base, pa.scalar(1_800_000_000, pa.duration("us"))
        )
        n = t.num_rows
        etype = pa.concat_arrays([t["event_type"].combine_chunks()] * 2)
        starts = pa.concat_arrays(
            [base.combine_chunks(), prev.combine_chunks()]
        )
        vals = pa.concat_arrays([_cents(t["value"], 10000).combine_chunks()] * 2)
        win = pc.strftime(starts, "%Y-%m-%d %H:%M:00")
        return pa.Table.from_arrays(
            [etype, win, vals], names=["event_type", "win_start", "value_e4"]
        )

    ds = ds.map_batches(fan_out, batch_format="pyarrow")
    return keyed_aggregate(
        ds, ["event_type", "win_start"],
        {"value_e4": ("value_e4", "sum"), "n_events": ("event_type", "count")},
    )


SQL_EVENTS_HOPPING = """
WITH w AS (
  SELECT event_type,
         unnest([date_trunc('minute', ts) - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE,
                 date_trunc('minute', ts) - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE - INTERVAL 30 MINUTE]) AS ws,
         CAST(ROUND(10000 * value) AS BIGINT) AS value_e4
  FROM events
)
SELECT event_type,
       strftime(ws, '%Y-%m-%d %H:%M:00') AS win_start,
       CAST(SUM(value_e4) AS BIGINT) AS value_e4,
       COUNT(*) AS n_events
FROM w GROUP BY 1, 2
"""


def q_activity_streaks(sf_dir: str):
    """Gaps-and-islands: longest run of CONSECUTIVE active days per user.
    Distinct (user, day) via one map-side combined aggregate, then the
    sessionize regroup shape — users coalesced into data-proportional hash
    buckets, one vectorized pandas pass per bucket (sort, day-diff breaks,
    cumsum island ids, per-island sizes, per-user max)."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def to_days(t: pa.Table) -> pa.Table:
        day_i = pc.divide(
            pc.cast(
                pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.timestamp("s")),
                pa.int64(),
            ),
            86400,
        )
        return pa.Table.from_pydict({"user_id": t["user_id"], "day_i": day_i})

    days = keyed_aggregate(
        ds.map_batches(to_days, batch_format="pyarrow"), ["user_id", "day_i"],
        {"k": ("user_id", "count")},
    ).drop_columns(["k"])

    def streaks_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day_i"], kind="mergesort")
        brk = g["user_id"].ne(g["user_id"].shift()) | (
            g["day_i"].diff() != 1
        )
        isl = brk.cumsum()
        sizes = g.groupby(["user_id", isl], sort=False).size().reset_index(
            name="streak"
        )
        out = sizes.groupby("user_id", as_index=False)["streak"].max()
        return out.rename(columns={"streak": "max_streak"})

    return (
        _dedup.bucket_groups(days, "user_id", streaks_bucket, rows=ds.count())
        .map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "user_id": pc.cast(t["user_id"], pa.int64()),
                    "max_streak": pc.cast(t["max_streak"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


SQL_ACTIVITY_STREAKS = """
WITH d AS (
  SELECT DISTINCT user_id,
         CAST(epoch(date_trunc('day', ts)) AS BIGINT) // 86400 AS day_i
  FROM events
),
i AS (
  SELECT user_id, day_i,
         day_i - ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY day_i)
             AS grp
  FROM d
),
s AS (SELECT user_id, COUNT(*) AS streak FROM i GROUP BY user_id, grp)
SELECT user_id, CAST(MAX(streak) AS BIGINT) AS max_streak
FROM s GROUP BY user_id
"""


def q_sort_global(sf_dir: str):
    """S4 global ordered emission: full distributed sort (range-partitioned
    all-to-all) with a deterministic tie-break, emitted WITH the ordinal so
    the oracle checks order, not just membership."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[False, False])


SQL_SORT_GLOBAL = """
SELECT doc_id, n_chars FROM documents ORDER BY n_chars, doc_id
"""


def q_quantiles(sf_dir: str):
    """Exact per-group discrete quantiles (median + p95 of order price per
    segment). Discrete quantile = element at ceil(q*n)-1 of the sorted
    group — same definition as DuckDB quantile_disc, so integer-cents
    values hash-match. Per-segment groups hold sorted numpy vectors —
    vectorized, no per-row work; at 10^12 rows the same surface would
    switch to the mergeable sketch (functions/sketches.py)."""
    import pandas as pd
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["c_custkey", "segment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, key="o_custkey")
    joined = joined.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["segment"], _cents(t["o_totalprice"])],
            names=["segment", "total_cents"],
        ),
        batch_format="pyarrow",
    )

    def qtiles(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["total_cents"].to_numpy())
        n = len(v)

        def disc(q: float) -> int:
            return int(v[max(0, int(np.ceil(q * n)) - 1)])

        return pd.DataFrame(
            {
                "segment": [g["segment"].iloc[0]],
                "median_cents": [disc(0.5)],
                "p95_cents": [disc(0.95)],
                "n_orders": [n],
            }
        )

    return joined.groupby("segment").map_groups(qtiles, batch_format="pandas")


SQL_QUANTILES = """
SELECT c_mktsegment AS segment,
       CAST(quantile_disc(CAST(ROUND(100 * o_totalprice) AS BIGINT), 0.5) AS BIGINT)
           AS median_cents,
       CAST(quantile_disc(CAST(ROUND(100 * o_totalprice) AS BIGINT), 0.95) AS BIGINT)
           AS p95_cents,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_quantile_sketch(sf_dir: str):
    """Scale path for q_quantiles: mergeable log-histogram sketch (map-only
    + tiny driver merge, the HLL pattern; ≤1% relative error by bin
    construction — accuracy asserted vs exact in tests). ORACLE-CHECKED
    (r5: converted from rows-only): the twin recomputes the bin of every
    value (floor(ln(v/lo)·scale)+1), the merged histogram, and the
    geometric-midpoint estimate in SQL. Output in e2 fixed point — coarse
    enough that the ≤1-ulp libm ln/exp differences between numpy and
    DuckDB (≈1e-13 relative) cannot flip the rounding; the exact BIN
    indices are emitted alongside as integers."""
    import pandas as _pd

    from goose_parser_ray.functions.sketches import sketch_quantiles

    ds = _read(sf_dir, "orders", ["o_totalprice"])
    est, bins = sketch_quantiles(
        ds, "o_totalprice", [0.5, 0.95], return_bins=True
    )
    return _pd.DataFrame(
        {
            "median_bin": [int(bins[0.5])],
            "p95_bin": [int(bins[0.95])],
            "median_est_e2": [int(np.round(est[0.5] * 100))],
            "p95_est_e2": [int(np.round(est[0.95] * 100))],
        }
    )


SQL_QUANTILE_SKETCH = """
WITH b AS (
  SELECT CASE WHEN o_totalprice <= 1e-6 THEN 0
              ELSE LEAST(GREATEST(CAST(FLOOR(
                     LN(CAST(o_totalprice AS DOUBLE) / 1e-6)
                     * (4096 / LN(1e18))) AS BIGINT) + 1, 0), 4097)
         END AS bin
  FROM orders
),
h AS (SELECT bin, COUNT(*) AS n FROM b GROUP BY bin),
c AS (SELECT bin, SUM(n) OVER (ORDER BY bin) AS cum, SUM(n) OVER () AS tot
      FROM h),
pick AS (
  SELECT q.q, MIN(c.bin) AS bn
  FROM (VALUES (0.50), (0.95)) q(q), c
  WHERE c.cum >= GREATEST(1, CAST(CEIL(q.q * c.tot) AS BIGINT))
  GROUP BY q.q
),
est AS (
  SELECT q, bn,
         CASE WHEN bn = 0 THEN 1e-6 WHEN bn = 4097 THEN 1e12
              ELSE 1e-6 * EXP((bn - 1) * (LN(1e18) / 4096))
                        * EXP((LN(1e18) / 4096) / 2) END AS e
  FROM pick
)
SELECT CAST(MAX(CASE WHEN q = 0.50 THEN bn END) AS BIGINT) AS median_bin,
       CAST(MAX(CASE WHEN q = 0.95 THEN bn END) AS BIGINT) AS p95_bin,
       CAST(ROUND(100 * MAX(CASE WHEN q = 0.50 THEN e END)) AS BIGINT)
         AS median_est_e2,
       CAST(ROUND(100 * MAX(CASE WHEN q = 0.95 THEN e END)) AS BIGINT)
         AS p95_est_e2
FROM est
"""


def q_user_deltas(sf_dir: str):
    """LAG-shaped per-user consecutive deltas: hash-bucketed users (one
    shuffle group per bucket), vectorized sort + per-user shift inside.
    Emits (user_id, ts, delta_e4) for every event with a predecessor."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        # tie-break duplicate timestamps by value so the LAG order is
        # deterministic on both sides
        g = g.sort_values(["user_id", "ts", "v_e4"], kind="mergesort")
        prev = g.groupby("user_id")["v_e4"].shift()
        out = pd.DataFrame(
            {
                "user_id": g["user_id"],
                "ts": g["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                "delta_e4": g["v_e4"] - prev,
            }
        )
        out = out[prev.notna()]
        out["delta_e4"] = out["delta_e4"].astype("int64")
        return out

    # data-proportional buckets (r2 VERDICT #4)
    return _dedup.bucket_groups(
        ds.map_batches(_user_ts_e4, batch_format="pyarrow"), "user_id", deltas,
        rows=ds.count(),
    )


SQL_USER_DELTAS = """
WITH d AS (
  SELECT user_id, ts,
         CAST(ROUND(10000 * value) AS BIGINT) AS v_e4,
         LAG(CAST(ROUND(10000 * value) AS BIGINT))
             OVER (PARTITION BY user_id
                   ORDER BY ts, CAST(ROUND(10000 * value) AS BIGINT)) AS prev_e4
  FROM events
)
SELECT user_id,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts,
       CAST(v_e4 - prev_e4 AS BIGINT) AS delta_e4
FROM d WHERE prev_e4 IS NOT NULL
"""


def q_asof_join(sf_dir: str):
    """Temporal AS-OF join (custom operator — Ray Data has no native
    equivalent): every 'click' event attaches the value of the latest
    'purchase' AT-OR-BEFORE it by the same user, null when none precedes.
    Hash-bucketed by user (data-proportional buckets), one vectorized
    ``merge_asof`` per bucket — oracle is DuckDB's native ASOF LEFT JOIN."""
    from goose_parser_ray.functions.asof import asof_join_bucketed

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"])

    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")).select(
            ["event_id", "user_id", "ts"]
        ),
        batch_format="pyarrow",
    )
    purchases = ev.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["user_id"], t["ts"], _cents(t["value"], 10000)],
            names=["user_id", "ts", "purch_e4"],
        ).filter(pc.equal(t["event_type"], "purchase")),
        batch_format="pyarrow",
    )
    # duplicate (user_id, ts) right keys collapse to MAX inside the bucket
    # join itself (keys co-locate, so per-bucket agg is globally correct) —
    # a whole groupby-aggregate shuffle cheaper than pre-aggregating, and
    # the same deterministic winner as the oracle's MAX pre-aggregation
    joined = asof_join_bucketed(
        clicks, purchases, by="user_id", ts="ts",
        value_cols=["purch_e4"], rows=ev.count(),
        right_agg={"purch_e4": "max"},
    )
    def project(t: pa.Table) -> pa.Table:
        # Arrow %S prints fractional seconds on sub-second timestamps
        # (DuckDB's doesn't) — drop to second precision first
        ts_s = pc.cast(
            pc.floor_temporal(t["ts"], unit="second"), pa.timestamp("s")
        )
        return pa.Table.from_arrays(
            [
                t["event_id"],
                pc.strftime(ts_s, "%Y-%m-%d %H:%M:%S"),
                t["user_id"],
                t["purch_e4"],
            ],
            names=["event_id", "ts", "user_id", "purch_e4"],
        )

    return joined.map_batches(project, batch_format="pyarrow")


SQL_ASOF_JOIN = """
WITH c AS (
  SELECT event_id, user_id, ts FROM events WHERE event_type = 'click'
), p AS (
  SELECT user_id, ts,
         MAX(CAST(ROUND(10000 * value) AS BIGINT)) AS purch_e4
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, ts
)
SELECT c.event_id,
       strftime(c.ts, '%Y-%m-%d %H:%M:%S') AS ts,
       c.user_id, p.purch_e4
FROM c ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts >= p.ts
"""


def q_bloom_semi_join(sf_dir: str):
    """Bloom-filter semi-join pushdown — the prefilter shape for id sets too
    big to broadcast exactly: build the sketch map-only over the small side
    (big-purchase users), ship the packed bits once, probe the large side
    vectorized map-side. Emits probe/probable/exact counts in one row —
    false positives must be ≥ 0 and tiny, false negatives exactly 0 by
    construction (rows-only; the count invariants are the check)."""
    import pandas as _pd

    from goose_parser_ray.functions.sketches import bloom_build, bloom_contains

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    purchasers = ev.map_batches(
        lambda t: t.filter(
            pc.and_(
                pc.equal(t["event_type"], "purchase"),
                pc.greater(t["value"], 80.0),
            )
        ).select(["user_id"]),
        batch_format="pyarrow",
    )
    n_bits, n_hashes = 1 << 20, 4
    bits = bloom_build(purchasers, "user_id", n_bits=n_bits, n_hashes=n_hashes)
    bref = ray.put(bits)
    exact_ids = ray.put(
        pa.array(sorted(set(purchasers.to_pandas()["user_id"])))
    )  # exact twin is feasible at test scale — it verifies the sketch

    def probe(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        ids = t["user_id"].to_pylist()
        hits = bloom_contains(ray.get(bref), ids, n_bits, n_hashes)
        exact = pc.is_in(
            pa.array(ids, pa.int64()), value_set=ray.get(exact_ids)
        ).to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {
                "n_probes": [len(ids)],
                "n_probable": [int(hits.sum())],
                "n_exact": [int(exact.sum())],
            }
        )

    parts = ev.map_batches(probe, batch_format="pyarrow").to_pandas()
    out = _pd.DataFrame(
        {
            "n_probes": [int(parts["n_probes"].sum())],
            "n_probable": [int(parts["n_probable"].sum())],
            "n_exact": [int(parts["n_exact"].sum())],
        }
    )
    out["n_false_positives"] = out["n_probable"] - out["n_exact"]
    assert int(out["n_false_positives"][0]) >= 0  # no false negatives
    return out


def q_sources_per_lang(sf_dir: str):
    """Grouped LIST/string aggregation (collect + ordered join): the sorted
    distinct sources of every language as one string — distinct via the
    bucketed helper first (the shuffle moves distinct pairs, not raw rows),
    then a per-group ordered join."""
    import pandas as pd

    from goose_parser_ray.functions.relational import distinct_rows

    ds = _read(sf_dir, "documents", ["lang", "source"])
    uniq = distinct_rows(ds, ["lang", "source"], rows=ds.count())

    def join_sources(g: pd.DataFrame) -> pd.DataFrame:
        vals = sorted(g["source"])
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "sources": [",".join(vals)],
                "n_sources": [np.int64(len(vals))],
            }
        )

    return uniq.groupby("lang").map_groups(join_sources, batch_format="pandas")


SQL_SOURCES_PER_LANG = """
SELECT lang,
       string_agg(DISTINCT source, ',' ORDER BY source) AS sources,
       COUNT(DISTINCT source) AS n_sources
FROM documents GROUP BY lang
"""


def q_value_histogram(sf_dir: str):
    """Fixed-width histogram per event type (bin = floor(value/50)):
    map-side vectorized binning + the partial-aggregate count — the shape
    every distribution dashboard query takes at scale."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def binify(t: pa.Table) -> pa.Table:
        b = pc.cast(
            pc.floor(pc.divide(t["value"], pa.scalar(50.0))), pa.int64()
        )
        return pa.Table.from_arrays(
            [t["event_type"], b], names=["event_type", "bin"]
        )

    ds = ds.map_batches(binify, batch_format="pyarrow")
    return keyed_aggregate(ds, ["event_type", "bin"], {"n": ("event_type", "count")})


SQL_VALUE_HISTOGRAM = """
SELECT event_type, CAST(FLOOR(value / 50) AS BIGINT) AS bin, COUNT(*) AS n
FROM events GROUP BY 1, 2
"""


def q_sample_weighted(sf_dir: str):
    """Weighted sampling without replacement (Efraimidis–Spirakis A-ES),
    ORACLE-CHECKED (r5: converted from rows-only): 50 documents drawn
    with probability ∝ n_chars — map-side local top-k of the u^(1/w)
    scores, tiny merge. The uniform u is the Knuth multiplicative hash
    through the mix64 avalanche (exact 64-bit integers both engines, then
    an exact float64 (h+0.5)/2^32), so the SQL twin recomputes the
    identical scores and top-k membership. Exact parity vs a single-process
    reference is also pinned in tests."""
    from goose_parser_ray.functions.relational import weighted_sample

    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    out = weighted_sample(ds, 50, id_col="doc_id", weight_col="n_chars")
    return out.map_batches(
        lambda t: t.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )


def _sample_weighted_sql() -> str:
    from goose_parser_ray.queries.versioning_graph2 import _sql_mix64

    h = _sql_mix64(
        "(CAST(doc_id AS HUGEINT) * (2654435761 + 2 * 42))"
        " % 18446744073709551616"
    )
    return f"""
WITH s AS (
  SELECT doc_id, n_chars,
         POWER((CAST(({h}) // 4294967296 AS DOUBLE) + 0.5) / 4294967296.0,
               1.0 / GREATEST(CAST(n_chars AS DOUBLE), 1e-12)) AS sk
  FROM documents
)
SELECT doc_id, n_chars FROM s ORDER BY sk DESC, doc_id LIMIT 50
"""


SQL_SAMPLE_WEIGHTED = _sample_weighted_sql()


def q_sample_stratified(sf_dir: str):
    """Stratified proportional sampling: exactly ⌈10%⌉ of each language's
    documents, chosen by a cross-engine-exact integer hash order (Knuth
    multiplicative on doc_id — int64 arithmetic both engines compute
    identically), so the oracle can verify the exact sample membership.
    Strata are the 5 langs → per-group exact windows are safe; at high
    stratum cardinality the same plan runs over hash buckets."""
    import math

    import pandas as pd

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def add_h(t: pa.Table) -> pa.Table:
        # % 2^32 as a bit mask (Arrow has no modulo kernel); product stays
        # inside int64 for any doc_id < 2^31
        h = pc.bit_wise_and(
            pc.multiply(t["doc_id"], pa.scalar(2654435761, pa.int64())),
            pa.scalar(4294967295, pa.int64()),
        )
        return t.append_column("hv", pc.cast(h, pa.int64()))

    def take_strata(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hv", "doc_id"], kind="mergesort")
        keep = math.ceil(0.1 * len(g))
        return g.head(keep)[["doc_id", "lang"]]

    ds = ds.map_batches(add_h, batch_format="pyarrow")
    return ds.groupby("lang").map_groups(take_strata, batch_format="pandas")


SQL_SAMPLE_STRATIFIED = """
WITH h AS (
  SELECT doc_id, lang, (doc_id * 2654435761) % 4294967296 AS hv FROM documents
), r AS (
  SELECT doc_id, lang,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY hv, doc_id) AS rn,
         COUNT(*) OVER (PARTITION BY lang) AS n
  FROM h
)
SELECT doc_id, lang FROM r WHERE rn <= CEIL(0.1 * n)
"""


def q_ntile_orders(sf_dir: str):
    """NTILE(4) window: price quartile of every order within its market
    segment. Segment count is tiny so per-segment groups are exact-window
    safe (same shape as q_quantiles); inside each group the tile
    assignment replicates SQL NTILE sizing exactly (first n%4 tiles get
    one extra row) over the deterministic (price, orderkey) order."""
    import pandas as pd
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["c_custkey", "segment"])
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, key="o_custkey")
    joined = joined.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["o_orderkey"], t["segment"], _cents(t["o_totalprice"])],
            names=["o_orderkey", "segment", "total_cents"],
        ),
        batch_format="pyarrow",
    )

    def ntile4(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["total_cents", "o_orderkey"], kind="mergesort"
        ).reset_index(drop=True)
        n = len(g)
        base, extra = divmod(n, 4)
        sizes = [base + (1 if i < extra else 0) for i in range(4)]
        g["quartile"] = np.repeat(np.arange(1, 5, dtype=np.int64), sizes)
        return g[["o_orderkey", "segment", "quartile"]]

    return joined.groupby("segment").map_groups(ntile4, batch_format="pandas")


SQL_NTILE_ORDERS = """
SELECT o_orderkey, c_mktsegment AS segment,
       CAST(NTILE(4) OVER (
           PARTITION BY c_mktsegment
           ORDER BY CAST(ROUND(100 * o_totalprice) AS BIGINT), o_orderkey
       ) AS BIGINT) AS quartile
FROM orders JOIN customer ON o_custkey = c_custkey
"""


def q_grouped_quantile_sketch(sf_dir: str):
    """Scale path for q_quantiles: PER-GROUP mergeable log-histogram
    quantiles — sparse (key, bin) partial counts, no per-group sort, no
    driver-held corpus (≤2% relative error vs the exact oracle-checked
    quantiles asserted in tests). ORACLE-CHECKED (r5: converted from
    rows-only): the twin recomputes the per-segment sparse histograms and
    geometric-midpoint estimates; e2 fixed point + exact bin indices
    (the q_quantile_sketch ulp discipline)."""
    import pandas as _pd
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.sketches import grouped_sketch_quantiles

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["c_custkey", "segment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, key="o_custkey")
    df = grouped_sketch_quantiles(
        joined, "segment", "o_totalprice", [0.5, 0.95], return_bins=True
    )
    return _pd.DataFrame(
        {
            "segment": df["segment"],
            "q50_bin": df["q50_bin"].astype("int64"),
            "q95_bin": df["q95_bin"].astype("int64"),
            "q50_est_e2": np.round(df["q50"] * 100).astype("int64"),
            "q95_est_e2": np.round(df["q95"] * 100).astype("int64"),
        }
    )


SQL_GROUPED_QUANTILE_SKETCH = """
WITH j AS (
  SELECT c.c_mktsegment AS segment,
         CASE WHEN o.o_totalprice <= 1e-6 THEN 0
              ELSE LEAST(GREATEST(CAST(FLOOR(
                     LN(CAST(o.o_totalprice AS DOUBLE) / 1e-6)
                     * (4096 / LN(1e18))) AS BIGINT) + 1, 0), 4097)
         END AS bin
  FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
),
h AS (SELECT segment, bin, COUNT(*) AS n FROM j GROUP BY segment, bin),
c AS (SELECT segment, bin,
             SUM(n) OVER (PARTITION BY segment ORDER BY bin) AS cum,
             SUM(n) OVER (PARTITION BY segment) AS tot
      FROM h),
pick AS (
  SELECT c.segment, q.q, MIN(c.bin) AS bn
  FROM (VALUES (0.50), (0.95)) q(q), c
  WHERE c.cum >= GREATEST(1, CAST(CEIL(q.q * c.tot) AS BIGINT))
  GROUP BY c.segment, q.q
),
est AS (
  SELECT segment, q, bn,
         CASE WHEN bn = 0 THEN 1e-6 WHEN bn = 4097 THEN 1e12
              ELSE 1e-6 * EXP((bn - 1) * (LN(1e18) / 4096))
                        * EXP((LN(1e18) / 4096) / 2) END AS e
  FROM pick
)
SELECT segment,
       CAST(MAX(CASE WHEN q = 0.50 THEN bn END) AS BIGINT) AS q50_bin,
       CAST(MAX(CASE WHEN q = 0.95 THEN bn END) AS BIGINT) AS q95_bin,
       CAST(ROUND(100 * MAX(CASE WHEN q = 0.50 THEN e END)) AS BIGINT)
         AS q50_est_e2,
       CAST(ROUND(100 * MAX(CASE WHEN q = 0.95 THEN e END)) AS BIGINT)
         AS q95_est_e2
FROM est GROUP BY segment
"""


def q_running_totals(sf_dir: str):
    """Cumulative window (SUM OVER ROWS UNBOUNDED PRECEDING): per-user
    running value totals — the same hash-bucketed users + one vectorized
    pandas pass shape as sessionize/user_deltas (no per-user shuffle
    groups), with the (ts, v_e4) tie-break making both engines' orders
    agree."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "v_e4"], kind="mergesort")
        cum = g.groupby("user_id")["v_e4"].cumsum()
        return pd.DataFrame(
            {
                "user_id": g["user_id"],
                "ts": g["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                "cum_e4": cum.astype("int64"),
            }
        )

    return _dedup.bucket_groups(
        ds.map_batches(_user_ts_e4, batch_format="pyarrow"), "user_id", running,
        rows=ds.count(),
    )


SQL_RUNNING_TOTALS = """
SELECT user_id,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts,
       CAST(SUM(CAST(ROUND(10000 * value) AS BIGINT))
            OVER (PARTITION BY user_id
                  ORDER BY ts, CAST(ROUND(10000 * value) AS BIGINT)
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_e4
FROM events
"""


def q_window_frame_funcs(sf_dir: str):
    """Window-frame function breadth in one query, ORACLE-CHECKED:
    per-user event streams (deterministic ts→v_e4 order) computing
    CUME_DIST (exact rational kept as numerator/denominator integers —
    no float division to disagree on), NTH_VALUE(2) over the full
    partition, and FIRST/LAST of a ROWS BETWEEN 2 PRECEDING AND CURRENT
    ROW moving frame. Same scale shape as the LAG family: hash-bucketed
    users (one data-proportional shuffle), vectorized sort + rank
    arithmetic inside the group — per-group payload is a user's events,
    never the corpus."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def frames(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "v_e4"], kind="mergesort")
        out_parts = []
        for uid, u in g.groupby("user_id", sort=False):
            v = u["v_e4"].to_numpy()
            n = len(v)
            # CUME_DIST over ORDER BY v_e4: (# rows with key <= mine) / n,
            # kept as exact integers (numerator, denominator)
            order = np.argsort(v, kind="mergesort")
            sv = v[order]
            # for each row value, count of values <= it
            le = np.searchsorted(sv, v, side="right")
            # NTH_VALUE(2) over the ts order with full-partition frame
            # -1 sentinel for 1-row partitions (NULL-free on both sides)
            nth2 = np.full(n, -1, np.int64)
            if n >= 2:
                nth2[:] = v[1]
            # moving frame ROWS 2 PRECEDING .. CURRENT over ts order
            first_idx = np.maximum(np.arange(n) - 2, 0)
            frame_first = v[first_idx]
            frame_last = v  # current row closes the frame
            out_parts.append(
                pd.DataFrame(
                    {
                        "user_id": uid,
                        "ts": u["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                        "v_e4": v,
                        "cume_num": le.astype("int64"),
                        "cume_den": np.int64(n),
                        "nth2_e4": nth2,
                        "frame_first_e4": frame_first.astype("int64"),
                        "frame_last_e4": frame_last.astype("int64"),
                    }
                )
            )
        if not out_parts:
            return pd.DataFrame(
                {
                    c: pd.Series([], dtype=d)
                    for c, d in (
                        ("user_id", "int64"), ("ts", "object"),
                        ("v_e4", "int64"), ("cume_num", "int64"),
                        ("cume_den", "int64"), ("nth2_e4", "int64"),
                        ("frame_first_e4", "int64"),
                        ("frame_last_e4", "int64"),
                    )
                }
            )
        return pd.concat(out_parts, ignore_index=True)

    return _dedup.bucket_groups(
        ds.map_batches(_user_ts_e4, batch_format="pyarrow"), "user_id", frames,
        rows=ds.count(),
    )


SQL_WINDOW_FRAME_FUNCS = """
WITH d AS (
  SELECT user_id, ts, CAST(ROUND(10000 * value) AS BIGINT) AS v_e4
  FROM events
)
SELECT user_id, strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts, v_e4,
       CAST(COUNT(*) OVER (PARTITION BY user_id) * CUME_DIST()
              OVER (PARTITION BY user_id ORDER BY v_e4) AS BIGINT)
         AS cume_num,
       COUNT(*) OVER (PARTITION BY user_id) AS cume_den,
       COALESCE(NTH_VALUE(v_e4, 2) OVER (
         PARTITION BY user_id ORDER BY ts, v_e4
         ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING), -1)
         AS nth2_e4,
       FIRST_VALUE(v_e4) OVER (
         PARTITION BY user_id ORDER BY ts, v_e4
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS frame_first_e4,
       LAST_VALUE(v_e4) OVER (
         PARTITION BY user_id ORDER BY ts, v_e4
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS frame_last_e4
FROM d
"""


def q_interval_coverage(sf_dir: str):
    """Per-user interval-union coverage (the span-coalescing primitive
    behind redaction-span merging, session stitching and
    machine-utilization rollups), ORACLE-CHECKED with pure-integer
    arithmetic: each event opens an interval [ts, ts + (event_id % 50 +
    10) s) in epoch microseconds, overlapping-or-touching intervals per
    user are merged by the gaps-and-islands running-max rule
    (start ≤ max end seen so far joins the island), and the output per
    user is the raw interval count, the merged-island count and the
    exact covered microseconds. Same scale shape as sessionize: users
    coalesce into data-proportional hash buckets (one shuffle group per
    BUCKET, never per user), one vectorized pandas pass per bucket."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def coverage_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["s"] = g["ts"].astype("int64")  # us since epoch
        g["e"] = g["s"] + (g["event_id"] % 50 + 10) * 1_000_000
        g = g.sort_values(["user_id", "s", "e"], kind="mergesort")
        cm = g.groupby("user_id")["e"].cummax()
        prev = cm.groupby(g["user_id"].to_numpy()).shift()
        new_island = prev.isna() | (g["s"] > prev)
        isl_id = new_island.cumsum()
        isl = g.groupby(isl_id).agg(
            user_id=("user_id", "first"), s=("s", "min"), e=("e", "max")
        )
        isl["span"] = isl["e"] - isl["s"]
        out = isl.groupby("user_id", as_index=False).agg(
            n_merged=("span", "size"), covered_us=("span", "sum")
        )
        raw = g.groupby("user_id").size().rename("n_intervals")
        out = out.merge(raw, on="user_id")
        return out[["user_id", "n_intervals", "n_merged", "covered_us"]]

    return _dedup.bucket_groups(ds, "user_id", coverage_bucket, rows=ds.count())


SQL_INTERVAL_COVERAGE = """
WITH iv AS (
  SELECT user_id,
         epoch_us(ts) AS s,
         epoch_us(ts) + (event_id % 50 + 10) * 1000000 AS e
  FROM events
),
marked AS (
  SELECT user_id, s, e,
         CASE WHEN MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) >= s
              THEN 0 ELSE 1 END AS new_island
  FROM iv
),
islands AS (
  SELECT user_id, s, e,
         SUM(new_island) OVER (PARTITION BY user_id ORDER BY s, e
                               ROWS UNBOUNDED PRECEDING) AS isl
  FROM marked
),
merged AS (
  SELECT user_id, isl, MAX(e) - MIN(s) AS span
  FROM islands GROUP BY user_id, isl
)
SELECT m.user_id,
       CAST(c.n_intervals AS BIGINT) AS n_intervals,
       CAST(COUNT(*) AS BIGINT) AS n_merged,
       CAST(SUM(m.span) AS BIGINT) AS covered_us
FROM merged m
JOIN (SELECT user_id, COUNT(*) AS n_intervals FROM iv GROUP BY user_id) c
  ON c.user_id = m.user_id
GROUP BY m.user_id, c.n_intervals
"""


def _bloom_semi_join_sql() -> str:
    """Generated oracle for q_bloom_semi_join (r5): integer keys now hash
    via splitmix64 (functions/sketches._bloom_positions), which SQL
    replays bit-exactly — the bloom bit positions, the 4-of-4 membership
    rule, and all three counters are recomputed in DuckDB."""
    from goose_parser_ray.queries.versioning_graph2 import _sql_mix64

    n_bits = 1 << 20
    pos = (
        "(" + _sql_mix64("k.id * 2654435761 + s.s") + f") % {n_bits}"
    )
    return f"""
WITH purch AS (
  SELECT DISTINCT user_id AS id FROM events
  WHERE event_type = 'purchase' AND value > 80.0
),
clicks AS (
  SELECT user_id AS id FROM events WHERE event_type = 'click'
),
cids AS (SELECT DISTINCT id FROM clicks),
salts AS (SELECT s FROM UNNEST(generate_series(0, 3)) AS t(s)),
ppos AS (
  SELECT DISTINCT CAST({pos} AS BIGINT) AS p
  FROM purch k, salts s
),
cpos AS (
  SELECT k.id, CAST({pos} AS BIGINT) AS p
  FROM cids k, salts s
),
member AS (
  SELECT c.id
  FROM cpos c LEFT JOIN ppos ON ppos.p = c.p
  GROUP BY c.id
  HAVING SUM(CASE WHEN ppos.p IS NOT NULL THEN 1 ELSE 0 END) = 4
)
SELECT CAST((SELECT COUNT(*) FROM clicks) AS BIGINT) AS n_probes,
       CAST((SELECT COUNT(*) FROM clicks JOIN member USING (id))
            AS BIGINT) AS n_probable,
       CAST((SELECT COUNT(*) FROM clicks
             WHERE id IN (SELECT id FROM purch)) AS BIGINT) AS n_exact,
       CAST((SELECT COUNT(*) FROM clicks JOIN member USING (id))
            - (SELECT COUNT(*) FROM clicks
               WHERE id IN (SELECT id FROM purch)) AS BIGINT)
         AS n_false_positives
"""


SQL_BLOOM_SEMI_JOIN = _bloom_semi_join_sql()
