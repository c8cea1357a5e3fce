"""Graph + ML stats: regression, cohorts, set-similarity join, range windows, k-means, PageRank/HITS/triangles/k-core, chi2, skyline, gapfill, PMI, WARC, diff, PQ/IVF/LSH.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.functions.relational import pre_aggregated_sum
from goose_parser_ray.functions.similarity import ann_lsh

from goose_parser_ray.queries._shared import _cents, _pool, _read


def q_regr_by_flag(sf_dir: str):
    """Grouped simple linear regression (price-cents on quantity per
    returnflag) — slope and intercept from the same exact BIGINT partials
    as q_corr_by_flag (n, Σx, Σy, Σx², Σxy), closed form evaluated
    identically in float64 on both engines, e6/cents fixed point. Integer
    headroom: per-row xy ≤ 5·10⁸ keeps Σxy inside int64 to ~10¹⁰ rows —
    past that the partials move to float64 Kahan sums (documented, not
    needed at this surface)."""
    ds = _read(
        sf_dir, "lineitem", ["l_returnflag", "l_quantity", "l_extendedprice"]
    )

    def derive(t: pa.Table) -> pa.Table:
        x = pc.cast(t["l_quantity"], pa.int64())
        y = _cents(t["l_extendedprice"])
        return pa.Table.from_arrays(
            [t["l_returnflag"], x, y, pc.multiply(x, x), pc.multiply(x, y)],
            names=["l_returnflag", "x", "y", "xx", "xy"],
        )

    partials = pre_aggregated_sum(
        ds.map_batches(derive, batch_format="pyarrow"),
        keys=["l_returnflag"],
        sums={"x": "sx", "y": "sy", "xx": "sxx", "xy": "sxy"},
        count_alias="n",
    )

    def finish(t: pa.Table) -> pa.Table:
        d = t.to_pandas()
        n = d["n"].to_numpy(np.int64)
        sx, sy = d["sx"].to_numpy(np.int64), d["sy"].to_numpy(np.int64)
        sxx, sxy = d["sxx"].to_numpy(np.int64), d["sxy"].to_numpy(np.int64)
        slope = (n * sxy - sx * sy).astype(np.float64) / (
            n * sxx - sx * sx
        ).astype(np.float64)
        icept = (sy.astype(np.float64) - slope * sx.astype(np.float64)) / (
            n.astype(np.float64)
        )
        return pa.Table.from_arrays(
            [
                t["l_returnflag"],
                pc.cast(
                    pc.round(
                        pa.array(1e6 * slope),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
                pc.cast(
                    pc.round(
                        pa.array(icept), round_mode="half_towards_infinity"
                    ),
                    pa.int64(),
                ),
            ],
            names=["l_returnflag", "slope_e6", "intercept_cents"],
        )

    return partials.map_batches(finish, batch_format="pyarrow")


SQL_REGR_BY_FLAG = """
WITH b AS (
  SELECT l_returnflag,
         CAST(l_quantity AS BIGINT) AS x,
         CAST(ROUND(100 * l_extendedprice) AS BIGINT) AS y
  FROM lineitem
), s AS (
  SELECT l_returnflag,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
         CAST(SUM(x * x) AS BIGINT) AS sxx,
         CAST(SUM(x * y) AS BIGINT) AS sxy
  FROM b GROUP BY l_returnflag
), f AS (
  SELECT l_returnflag, n, sx, sy,
         CAST(n * sxy - sx * sy AS DOUBLE) /
         CAST(n * sxx - sx * sx AS DOUBLE) AS slope
  FROM s
)
SELECT l_returnflag,
       CAST(ROUND(1000000 * slope) AS BIGINT) AS slope_e6,
       CAST(ROUND((CAST(sy AS DOUBLE) - slope * CAST(sx AS DOUBLE))
                  / CAST(n AS DOUBLE)) AS BIGINT) AS intercept_cents
FROM f
"""


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by their FIRST active week,
    counted per week offset since that cohort week — the standard
    engagement analysis. Distributed shape: distinct (user, week) via a
    map-side per-batch dedup + one user-bucketed grouped pass that derives
    the cohort (min week) and emits (cohort, offset) rows; final tiny
    pre-aggregated count. Weeks are epoch-day//7 ints — identical
    arithmetic both engines, no date-function divergence risk."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    nb = num_shuffle_buckets(ds.count())

    def to_weeks(t: pa.Table) -> pa.Table:
        # pure integer epoch-µs → week arithmetic (no float division, so
        # no boundary-rounding divergence against the SQL twin)
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        week = (us // 1_000_000 // 86_400 // 7).astype(np.int64)
        out = pa.Table.from_arrays(
            [t["user_id"], pa.array(week)], names=["user_id", "week"]
        )
        df = out.to_pandas().drop_duplicates()  # map-side distinct combine
        out = pa.Table.from_pandas(df, preserve_index=False)
        return _dedup.add_hash_bucket(out, "user_id", nb, "__cb")

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "week"])
        cohort = g.groupby("user_id")["week"].transform("min")
        return pd.DataFrame(
            {
                "cohort_week": cohort.astype(np.int64),
                "week_offset": (g["week"] - cohort).astype(np.int64),
            }
        )

    weeks = ds.map_batches(to_weeks, batch_format="pyarrow")
    per = weeks.groupby("__cb").map_groups(per_user, batch_format="pandas")
    return pre_aggregated_sum(
        per, keys=["cohort_week", "week_offset"], sums={}, count_alias="n_users"
    )


SQL_COHORT_RETENTION = """
WITH uw AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // 1000000 // 86400 // 7 AS BIGINT) AS week
  FROM events
), c AS (
  SELECT user_id, week,
         MIN(week) OVER (PARTITION BY user_id) AS cohort_week
  FROM uw
)
SELECT cohort_week, CAST(week - cohort_week AS BIGINT) AS week_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM c GROUP BY cohort_week, week - cohort_week
"""


def q_set_similarity(sf_dir: str):
    """EXACT token-set Jaccard self-join at τ = 9/10 via AllPairs/PPJoin
    prefix filtering (``functions/dedup.py:set_similarity_join``) — the
    exact counterpart of the MinHash approximate path, with zero misses
    by the prefix-filter theorem and all-integer threshold math so the
    DuckDB twin matches bit-for-bit."""
    from goose_parser_ray.functions.dedup import set_similarity_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # τ=0.9: the synthetic docs are template-generated, so unigram sets
    # are highly similar corpus-wide — lower thresholds explode the pair
    # set (τ=0.6 → 71k pairs among 500 docs at sf0.01)
    return set_similarity_join(ds, threshold_num=9, threshold_den=10)


SQL_SET_SIMILARITY = r"""
WITH tok AS (
  SELECT DISTINCT doc_id, t.tok
  FROM documents,
       unnest(regexp_split_to_array(lower(text), '\s+')) AS t(tok)
  WHERE t.tok <> ''
), sz AS (
  SELECT doc_id, COUNT(*) AS l FROM tok GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM tok a JOIN tok b ON a.tok = b.tok AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT id_a, id_b,
       CAST(10000 * i // (sa.l + sb.l - i) AS BIGINT) AS jac_e4
FROM inter
JOIN sz sa ON sa.doc_id = id_a
JOIN sz sb ON sb.doc_id = id_b
WHERE 10 * i >= 9 * (sa.l + sb.l - i)
"""


def q_range_window(sf_dir: str):
    """Time-based sliding window (RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW) — the time-range sibling of moving_avg's ROWS window.
    Hash-bucketed users; inside each group one sort + vectorized two-pointer
    (``np.searchsorted`` on epoch-µs) + cumsum differences. RANGE semantics
    include ALL ts-peers of the current row, so the result is independent
    of intra-tie order — no tie-break column needed."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["user_id"], t["ts"], _cents(t["value"], 10000)],
            names=["user_id", "ts", "v_e4"],
        )
        return _dedup.add_hash_bucket(t, "user_id", nb, "__rw")

    HOUR_US = 3_600_000_000

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        out = []
        for _, f in g.groupby("user_id", sort=False):
            ts = f["ts"].astype("int64").to_numpy()  # epoch µs
            v = f["v_e4"].to_numpy()
            csum = np.concatenate([[0], np.cumsum(v)])
            hi = np.searchsorted(ts, ts, side="right")
            lo = np.searchsorted(ts, ts - HOUR_US, side="left")
            out.append(
                pd.DataFrame(
                    {
                        "user_id": f["user_id"],
                        "ts": f["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                        "win1h_sum_e4": (csum[hi] - csum[lo]).astype(np.int64),
                        "win1h_n": (hi - lo).astype(np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True)

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return ds.groupby("__rw").map_groups(window, batch_format="pandas")


SQL_RANGE_WINDOW = """
WITH d AS (
  SELECT user_id, ts, CAST(ROUND(10000 * value) AS BIGINT) AS v_e4 FROM events
)
SELECT user_id,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts,
       CAST(SUM(v_e4) OVER w AS BIGINT) AS win1h_sum_e4,
       CAST(COUNT(*) OVER w AS BIGINT) AS win1h_n
FROM d
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def q_event_transitions(sf_dir: str):
    """Markov transition counts over per-user event sequences: how often
    event_type A is immediately followed by B (the bigram-over-streams
    op — session-path analysis). Bucketed users, vectorized shift inside,
    tiny (A,B)-keyed count aggregate; (ts, event_id) ordering is
    deterministic on both engines."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__tb")

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev_u = g["user_id"].shift()
        prev_t = g["event_type"].shift()
        same = prev_u == g["user_id"]
        c = (
            pd.DataFrame(
                {"prev_type": prev_t[same], "next_type": g["event_type"][same]}
            )
            .groupby(["prev_type", "next_type"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return c

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    per_bucket = ds.groupby("__tb").map_groups(
        transitions, batch_format="pandas"
    )
    return pre_aggregated_sum(
        per_bucket, keys=["prev_type", "next_type"], sums={"n": "n"}
    )


SQL_EVENT_TRANSITIONS = """
WITH s AS (
  SELECT user_id, event_type,
         LAG(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type, event_type AS next_type, CAST(COUNT(*) AS BIGINT) AS n
FROM s WHERE prev_type IS NOT NULL
GROUP BY prev_type, next_type
"""


def q_first_last_per_user(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE per partition, computed mergeably: each
    batch keeps only its per-user first and last candidate rows (≤2 rows
    per user per batch move through the shuffle), the bucketed final pass
    picks the global endpoints. Deterministic (ts, event_id) order."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = num_shuffle_buckets(ds.count())

    def prune(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        )
        g = df.groupby("user_id", sort=False)
        ends = pd.concat([g.head(1), g.tail(1)]).drop_duplicates(
            subset=["user_id", "event_id"]
        )
        return _dedup.add_hash_bucket(
            pa.Table.from_pandas(ends, preserve_index=False), "user_id", nb,
            "__fb",
        )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        gb = g.groupby("user_id", sort=False)
        first = gb["event_type"].first()
        last = gb["event_type"].last()
        out = pd.DataFrame(
            {
                "user_id": first.index,
                "first_type": first.to_numpy(),
                "last_type": last.to_numpy(),
            }
        )
        return out.reset_index(drop=True)

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return pruned.groupby("__fb").map_groups(finish, batch_format="pandas")


SQL_FIRST_LAST_PER_USER = """
WITH o AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM events
)
SELECT f.user_id, f.event_type AS first_type, l.event_type AS last_type
FROM o f JOIN o l ON f.user_id = l.user_id AND f.rn = 1 AND l.rn = l.n
"""


def q_kmeans(sf_dir: str, pin: bool = True):
    """Distributed Lloyd k-means run to convergence over the embeddings
    table (rows-only: iterative, not SQL-expressible). One streaming pass
    per round, per-batch (sum, count, SSE) partials, centroids broadcast —
    the corpus never leaves the cluster. Output: per-cluster sizes plus
    the final inertia, deterministic under the fixed seed. ``pin=False``
    trades per-round lazy re-scans for zero object-store pinning (both
    modes parity-tested — init sampling and partial reduction are
    content-deterministic, independent of block layout)."""
    import pandas as pd

    from goose_parser_ray.functions.similarity import kmeans_distributed

    ds = _read(sf_dir, "embeddings", ["embedding"])
    cent, counts, history = kmeans_distributed(
        ds, "embedding", k=8, max_iters=8, seed=7, pin=pin
    )
    # Lloyd's algorithm provably never increases SSE — a hard invariant
    # (r3 VERDICT item 5 pattern); 0 here means the distributed partial
    # reduction corrupted an assignment or centroid update.
    monotone = int(
        all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    )
    # position-weighted checksum of the FULL inertia history in e6 fixed
    # point (r5 item 3): pins every Lloyd round's SSE in order — the init
    # sample, assignment pass, and partial reduction are all
    # content-deterministic, so this must be hash-stable across runs.
    hist_ck = np.int64(
        sum((i + 1) * int(round(h * 1e6)) for i, h in enumerate(history))
        % (1 << 61)
    )
    return pd.DataFrame(
        {
            "cluster_id": np.arange(len(counts), dtype=np.int64),
            "size": counts.astype(np.int64),
            "final_inertia_e3": np.int64(round(history[-1] * 1000)),
            "inertia_nonincreasing": np.full(
                len(counts), monotone, dtype=np.int64
            ),
            "inertia_history_e6_checksum": np.full(
                len(counts), hist_ck, dtype=np.int64
            ),
        }
    )


def q_pagerank(sf_dir: str):
    """PageRank (synchronized power iteration — tiered: driver bincount
    rounds under the pair guard, per-round hash-join + grouped-sum past
    it; see ``functions/graph.py``) over the supplier→part edge graph
    from lineitem. Fixed 3 rounds (tol=0) so the
    oracle can unroll the same iteration count in plain SQL; ranks are
    compared at 1e-6 resolution (FP noise across engines ≪ 0.5e-6)."""
    from goose_parser_ray.functions.graph import pagerank_distributed

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])
    ranks = pagerank_distributed(
        ds, src="l_suppkey", dst="l_partkey",
        damping=0.85, max_iters=3, tol=0.0,
    )
    return (
        ranks.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t["node"], "rank_e6": _cents(t["rank"], 1_000_000)}
            ),
            batch_format="pyarrow",
        )
        .sort(["rank_e6", "node"], descending=[True, False])
        .limit(20)
    )


SQL_PAGERANK = """
WITH edges AS (
  SELECT CAST(l_suppkey AS BIGINT) AS u, CAST(l_partkey AS BIGINT) AS v
  FROM lineitem
),
deg AS (SELECT u, COUNT(*) AS deg FROM edges GROUP BY u),
nodes AS (SELECT u AS node FROM edges UNION SELECT v FROM edges),
nn AS (SELECT COUNT(*) AS n FROM nodes),
r0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS rank FROM nodes),
d1 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r0 r JOIN deg ON deg.u = r.node),
c1 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r0 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r1 AS (SELECT nodes.node,
              (0.15 / (SELECT n FROM nn)
               + 0.85 * (SELECT dm FROM d1) / (SELECT n FROM nn))
              + 0.85 * COALESCE(c1.c, 0) AS rank
       FROM nodes LEFT JOIN c1 ON nodes.node = c1.node),
d2 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r1 r JOIN deg ON deg.u = r.node),
c2 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r1 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r2 AS (SELECT nodes.node,
              (0.15 / (SELECT n FROM nn)
               + 0.85 * (SELECT dm FROM d2) / (SELECT n FROM nn))
              + 0.85 * COALESCE(c2.c, 0) AS rank
       FROM nodes LEFT JOIN c2 ON nodes.node = c2.node),
d3 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r2 r JOIN deg ON deg.u = r.node),
c3 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r2 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r3 AS (SELECT nodes.node,
              (0.15 / (SELECT n FROM nn)
               + 0.85 * (SELECT dm FROM d3) / (SELECT n FROM nn))
              + 0.85 * COALESCE(c3.c, 0) AS rank
       FROM nodes LEFT JOIN c3 ON nodes.node = c3.node)
SELECT node, CAST(ROUND(rank * 1000000) AS BIGINT) AS rank_e6
FROM r3 ORDER BY rank_e6 DESC, node LIMIT 20
"""


def q_hits(sf_dir: str):
    """HITS hub/authority scores (Kleinberg power iteration, L1
    normalization — see ``functions/graph.py:hits_distributed``) over the
    supplier→part edge graph: suppliers are hubs, parts authorities.
    Fixed 2 rounds so the oracle unrolls the identical four half-steps in
    plain SQL; scores compare at 1e-6 resolution (same FP-noise argument
    as q_pagerank — cross-engine sum-order noise ≪ 0.5e-6)."""
    from goose_parser_ray.functions.graph import hits_distributed

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])
    scores = hits_distributed(
        ds, src="l_suppkey", dst="l_partkey", max_iters=2
    )
    return (
        scores.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t["node"],
                    "auth_e6": _cents(t["auth"], 1_000_000),
                    "hub_e6": _cents(t["hub"], 1_000_000),
                }
            ),
            batch_format="pyarrow",
        )
        .sort(["auth_e6", "node"], descending=[True, False])
        .limit(20)
    )


SQL_HITS = """
WITH edges AS (
  SELECT CAST(l_suppkey AS BIGINT) AS u, CAST(l_partkey AS BIGINT) AS v
  FROM lineitem
),
nodes AS (SELECT u AS node FROM edges UNION SELECT v FROM edges),
nn AS (SELECT COUNT(*) AS n FROM nodes),
h0 AS (SELECT node, 1.0 / (SELECT n FROM nn) AS s FROM nodes),
a1p AS (SELECT e.v AS node, SUM(h.s) AS c
        FROM edges e JOIN h0 h ON e.u = h.node GROUP BY e.v),
a1 AS (SELECT nodes.node,
              COALESCE(a1p.c, 0) / (SELECT SUM(c) FROM a1p) AS s
       FROM nodes LEFT JOIN a1p ON nodes.node = a1p.node),
h1p AS (SELECT e.u AS node, SUM(a.s) AS c
        FROM edges e JOIN a1 a ON e.v = a.node GROUP BY e.u),
h1 AS (SELECT nodes.node,
              COALESCE(h1p.c, 0) / (SELECT SUM(c) FROM h1p) AS s
       FROM nodes LEFT JOIN h1p ON nodes.node = h1p.node),
a2p AS (SELECT e.v AS node, SUM(h.s) AS c
        FROM edges e JOIN h1 h ON e.u = h.node GROUP BY e.v),
a2 AS (SELECT nodes.node,
              COALESCE(a2p.c, 0) / (SELECT SUM(c) FROM a2p) AS s
       FROM nodes LEFT JOIN a2p ON nodes.node = a2p.node),
h2p AS (SELECT e.u AS node, SUM(a.s) AS c
        FROM edges e JOIN a2 a ON e.v = a.node GROUP BY e.u),
h2 AS (SELECT nodes.node,
              COALESCE(h2p.c, 0) / (SELECT SUM(c) FROM h2p) AS s
       FROM nodes LEFT JOIN h2p ON nodes.node = h2p.node)
SELECT a2.node,
       CAST(ROUND(a2.s * 1000000) AS BIGINT) AS auth_e6,
       CAST(ROUND(h2.s * 1000000) AS BIGINT) AS hub_e6
FROM a2 JOIN h2 ON a2.node = h2.node
ORDER BY auth_e6 DESC, a2.node LIMIT 20
"""


def _copurchase_edges(sf_dir: str, mask: int = 3) -> "ray.data.Dataset":
    """Canonical (u < v, distinct) part co-purchase edges: parts linked iff
    they appear in the same order. Deterministic 1/(mask+1) order slice —
    the full graph is DENSE (avg degree ~80 at sf0.01) and wedge volume
    grows with degree²; the slice keeps the graph queries inside the
    per-query time budget while exercising the identical chain (oracles
    apply the same cut). Build = ONE orderkey-bucketed fold (per-order
    distinct + basket² pair expansion inside the bucket — orders are
    disjoint across buckets) + a cross-bucket distinct-pair aggregate;
    the old distinct + self-join + pair-distinct chain cost three
    all-to-alls. Hot-basket note: pair fan-out is basket²; the
    TPC-H-shaped order domain bounds baskets (≤7 items), and inputs
    without that invariant should route through the ``_capped_baskets``
    guard (see q_frequent_pairs) first."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    nb = num_shuffle_buckets(li.count())

    def slice_and_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["l_orderkey"], t["l_partkey"]], names=["o", "p"]
        )
        t = t.filter(
            pc.equal(
                pc.bit_wise_and(t["o"], pa.scalar(mask, pa.int64())), 0
            )
        )
        return _dedup.add_hash_bucket(t, "o", nb, "__cb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # orders are disjoint across buckets: per-order distinct + the
        # basket² pair expansion both complete inside the bucket — one
        # shuffle replaces the old distinct + self-join + pair-distinct
        # chain (three all-to-alls). Basket size is bounded (≤7 items in
        # the TPC-H shape; see the hot-basket note above).
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "u": pd.Series([], dtype=np.int64),
                    "v": pd.Series([], dtype=np.int64),
                }
            )
        d = g[["o", "p"]].drop_duplicates()
        m = d.merge(d, on="o")
        m = m[m["p_x"] < m["p_y"]]
        out = m[["p_x", "p_y"]].drop_duplicates()
        return pd.DataFrame(
            {
                "u": out["p_x"].to_numpy(np.int64),
                "v": out["p_y"].to_numpy(np.int64),
            }
        )

    pairs = li.map_batches(slice_and_bucket, batch_format="pyarrow").groupby(
        "__cb"
    ).map_groups(fold, batch_format="pandas")
    # cross-bucket distinct (the same pair can arise from orders in
    # different buckets only via identical (u, v) — dedupe once globally)
    return pre_aggregated_sum(
        pairs, keys=["u", "v"], sums={}, count_alias="k"
    ).drop_columns(["k"])


def q_triangles(sf_dir: str):
    """Graph analytics: exact triangle count over the part co-purchase
    graph — oriented (a<b<c) two-join method with a node-bounded
    degree-product wedge count, see ``functions/graph.py``."""
    import pandas as pd

    from goose_parser_ray.functions.graph import triangle_count

    res = triangle_count(_copurchase_edges(sf_dir))
    return pd.DataFrame(
        {
            "edges": [np.int64(res["edges"])],
            "wedges": [np.int64(res["wedges"])],
            "triangles": [np.int64(res["triangles"])],
        }
    )


SQL_TRIANGLES = """
WITH li AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE (l_orderkey & 3) = 0
),
pairs AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM li a JOIN li b ON a.o = b.o AND a.p < b.p
),
degs AS (
  SELECT node, SUM(l) AS l, SUM(r) AS r FROM (
    SELECT v AS node, 1 AS l, 0 AS r FROM pairs
    UNION ALL
    SELECT u AS node, 0 AS l, 1 AS r FROM pairs
  ) GROUP BY node
),
tri AS (
  SELECT COUNT(*) AS t
  FROM pairs e1
  JOIN pairs e2 ON e1.v = e2.u
  JOIN pairs e3 ON e3.u = e1.u AND e3.v = e2.v
)
SELECT CAST((SELECT COUNT(*) FROM pairs) AS BIGINT) AS edges,
       CAST((SELECT SUM(l * r) FROM degs) AS BIGINT) AS wedges,
       CAST((SELECT t FROM tri) AS BIGINT) AS triangles
"""


def q_kcore(sf_dir: str):
    """k-core decomposition (synchronized peel) of the co-purchase graph,
    fixed 3 rounds so the oracle can unroll the same peel as CTEs — an
    early fixed-point exit returns the identical set (further rounds are
    no-ops). See ``functions/graph.py:kcore_distributed``."""
    from goose_parser_ray.functions.graph import kcore_distributed

    # bounded-round CONTRACT: exactly 3 peel rounds, twinned by the
    # 3-round-unrolled CTE oracle — partial-by-design, hence allow_partial
    core = kcore_distributed(
        _copurchase_edges(sf_dir), k=24, max_iters=3, allow_partial=True
    )
    return core.map_batches(
        lambda t: pa.Table.from_pydict(
            {"node": pc.cast(t["node"], pa.int64()),
             "deg": pc.cast(t["deg"], pa.int64())}
        ),
        batch_format="pyarrow",
    )


SQL_KCORE = """
WITH e0 AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
        WHERE (l_orderkey & 3) = 0) a
  JOIN (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
        WHERE (l_orderkey & 3) = 0) b
  ON a.o = b.o AND a.p < b.p
),
d1 AS (SELECT node, COUNT(*) AS deg FROM
       (SELECT u AS node FROM e0 UNION ALL SELECT v FROM e0) GROUP BY node),
g1 AS (SELECT node FROM d1 WHERE deg >= 24),
e1 AS (SELECT u, v FROM e0 WHERE u IN (SELECT node FROM g1)
                             AND v IN (SELECT node FROM g1)),
d2 AS (SELECT node, COUNT(*) AS deg FROM
       (SELECT u AS node FROM e1 UNION ALL SELECT v FROM e1) GROUP BY node),
g2 AS (SELECT node FROM d2 WHERE deg >= 24),
e2 AS (SELECT u, v FROM e1 WHERE u IN (SELECT node FROM g2)
                             AND v IN (SELECT node FROM g2)),
d3 AS (SELECT node, COUNT(*) AS deg FROM
       (SELECT u AS node FROM e2 UNION ALL SELECT v FROM e2) GROUP BY node)
SELECT node, CAST(deg AS BIGINT) AS deg FROM d3 WHERE deg >= 24
"""


def q_lang_entropy(sf_dir: str):
    """Corpus diagnostics: Shannon entropy of the language mix per source
    (a mixture-balance signal for training-data curation). Two map-side
    combined aggregates + one tiny join on the (source,lang) count table —
    the raw corpus is touched exactly once."""
    # materialize the tiny (source,lang) count table — it feeds BOTH the
    # totals aggregate and the join; lazy lineage would re-scan the corpus
    # once per consumer
    counts = pre_aggregated_sum(
        _read(sf_dir, "documents", ["source", "lang"]),
        keys=["source", "lang"], sums={}, count_alias="n",
    ).materialize()
    totals = pre_aggregated_sum(counts, keys=["source"], sums={"n": "tot"})
    terms = counts.join(
        totals, join_type="inner",
        num_partitions=_dedup._default_join_partitions(), on=("source",),
    ).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "source": t["source"],
                "term": pa.array(
                    -(
                        p := t["n"].to_numpy(zero_copy_only=False)
                        / t["tot"].to_numpy(zero_copy_only=False)
                    )
                    * np.log(p)
                ),
            }
        ),
        batch_format="pyarrow",
    )
    ent = pre_aggregated_sum(terms, keys=["source"], sums={"term": "h"})
    return ent.map_batches(
        lambda t: pa.Table.from_pydict(
            {"source": t["source"], "ent_e6": _cents(t["h"], 1_000_000)}
        ),
        batch_format="pyarrow",
    )


SQL_LANG_ENTROPY = """
WITH c AS (
  SELECT source, lang, COUNT(*) AS n FROM documents GROUP BY source, lang
),
t AS (SELECT source, CAST(SUM(n) AS BIGINT) AS tot FROM c GROUP BY source)
SELECT c.source,
       CAST(ROUND(1000000 * SUM(
         -(CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))
         * LN(CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))
       )) AS BIGINT) AS ent_e6
FROM c JOIN t USING (source)
GROUP BY c.source
"""


def q_normalize_text(sf_dir: str):
    """Unicode NFC normalization as a pure map stage (the canonical web-
    corpus cleaning prefix) — oracle-paired against DuckDB's
    ``nfc_normalize`` (identical stdlib semantics; the unicode edge cases
    are locked by the unit test)."""
    from goose_parser_ray.functions.textstats import normalize_unicode

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "text_norm": normalize_unicode(t)["text_norm"],
            }
        ),
        batch_format="pyarrow",
    )


SQL_NORMALIZE_TEXT = """
SELECT doc_id, nfc_normalize(text) AS text_norm FROM documents
"""


def q_chi2_independence(sf_dir: str):
    """Pearson chi-square independence test over the lang × source
    contingency table (are languages distributed independently of
    sources?). The corpus is scanned ONCE into a map-side combined
    (lang, source) count table; the closed form runs on that bounded
    ~|langs|×|sources| table driver-side (the k-means-reduce legitimacy
    argument), including zero cells via the full cross product."""
    import pandas as pd

    counts = pre_aggregated_sum(
        _read(sf_dir, "documents", ["lang", "source"]),
        keys=["lang", "source"], sums={}, count_alias="n",
    ).to_pandas()
    piv = counts.pivot_table(
        index="lang", columns="source", values="n", fill_value=0,
        aggfunc="sum",
    ).to_numpy(dtype=np.float64)
    r = piv.sum(axis=1, keepdims=True)
    s = piv.sum(axis=0, keepdims=True)
    n = piv.sum()
    exp = r * s / n
    chi2 = float((((piv - exp) ** 2) / exp).sum())
    chi2_e6 = _cents(
        pa.chunked_array([pa.array([chi2])]), 1_000_000
    ).to_pylist()[0]
    dof = (piv.shape[0] - 1) * (piv.shape[1] - 1)
    return pd.DataFrame(
        {"chi2_e6": [np.int64(chi2_e6)], "dof": [np.int64(dof)]}
    )


SQL_CHI2_INDEPENDENCE = """
WITH c AS (
  SELECT lang, source, COUNT(*) AS n FROM documents GROUP BY lang, source
),
rl AS (SELECT lang, CAST(SUM(n) AS BIGINT) AS r FROM c GROUP BY lang),
cs AS (SELECT source, CAST(SUM(n) AS BIGINT) AS s FROM c GROUP BY source),
nn AS (SELECT CAST(SUM(n) AS BIGINT) AS N FROM c),
cells AS (
  SELECT COALESCE(c.n, 0) AS n,
         CAST(rl.r AS DOUBLE) * CAST(cs.s AS DOUBLE)
             / (SELECT N FROM nn) AS exp
  FROM rl CROSS JOIN cs
  LEFT JOIN c ON c.lang = rl.lang AND c.source = cs.source
)
SELECT CAST(ROUND(1000000 * SUM((n - exp) * (n - exp) / exp)) AS BIGINT)
           AS chi2_e6,
       CAST(((SELECT COUNT(*) FROM rl) - 1)
            * ((SELECT COUNT(*) FROM cs) - 1) AS BIGINT) AS dof
FROM cells
"""


def q_skyline(sf_dir: str):
    """Skyline / Pareto-dominance filter (cheapest-yet-largest parts:
    minimize p_retailprice, maximize p_size). Phase 1 is a vectorized
    per-block front (embarrassingly parallel — the global front is a
    subset of the union of local fronts), phase 2 re-runs the same kernel
    once over the small survivor union. Dominance is evaluated on the raw
    doubles in both engines; cents conversion is output-only."""
    from goose_parser_ray.functions.relational import pareto_front

    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])
    front = pareto_front(ds, minimize="p_retailprice", maximize="p_size")
    return front.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "p_partkey": t["p_partkey"],
                "price_cents": _cents(t["p_retailprice"]),
                "p_size": t["p_size"],
            }
        ),
        batch_format="pyarrow",
    )


SQL_SKYLINE = """
SELECT a.p_partkey,
       CAST(ROUND(a.p_retailprice * 100) AS BIGINT) AS price_cents,
       a.p_size
FROM part a
WHERE NOT EXISTS (
  SELECT 1 FROM part b
  WHERE b.p_retailprice <= a.p_retailprice AND b.p_size >= a.p_size
    AND (b.p_retailprice < a.p_retailprice OR b.p_size > a.p_size)
)
"""


def q_gapfill(sf_dir: str):
    """Time-series resample with gap filling: per-hour event counts over
    the full [min, max] span, absent hours emitted as 0 (the dense layout
    chart/alerting consumers need). Counts come from one map-side combined
    aggregate; the dense hour axis is bounded by the TIME SPAN (not the
    corpus) so it is generated driver-side and left-joined against the
    tiny count table."""
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "events", ["ts"])
    hours = ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "bucket_s": pc.multiply(
                    pc.divide(
                        pc.cast(
                            pc.cast(
                                pc.floor_temporal(t["ts"], unit="second"),
                                pa.timestamp("s"),
                            ),
                            pa.int64(),
                        ),
                        3600,
                    ),
                    3600,
                )
            }
        ),
        batch_format="pyarrow",
    )
    # pin the tiny (span-bounded) count table: deriving the span from it
    # instead of from `hours` keeps the corpus scan at exactly ONE — lazy
    # lineage would otherwise re-read events for each consumer
    counts = pre_aggregated_sum(
        hours, keys=["bucket_s"], sums={}, count_alias="n"
    ).materialize()
    span = counts.aggregate(Min("bucket_s", alias_name="lo"),
                            Max("bucket_s", alias_name="hi"))
    axis = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "bucket_s": pa.array(
                    np.arange(span["lo"], span["hi"] + 1, 3600, dtype=np.int64)
                )
            }
        )
    )
    return axis.join(
        counts, join_type="left_outer",
        num_partitions=_dedup._default_join_partitions(), on=("bucket_s",),
    ).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "bucket_s": pc.cast(t["bucket_s"], pa.int64()),
                "n": pc.cast(pc.coalesce(t["n"], 0), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_GAPFILL = """
WITH b AS (
  SELECT CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS bucket_s FROM events
),
c AS (SELECT bucket_s, COUNT(*) AS n FROM b GROUP BY bucket_s),
axis AS (
  SELECT UNNEST(generate_series(
    (SELECT MIN(bucket_s) FROM b), (SELECT MAX(bucket_s) FROM b), 3600
  )) AS bucket_s
)
SELECT axis.bucket_s, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM axis LEFT JOIN c USING (bucket_s)
"""


def q_pmi_bigrams(sf_dir: str):
    """Collocation mining: top-20 bigrams by pointwise mutual information
    (count floor 10) with the same tokenizer as q_top_words. One corpus
    scan emits BOTH pair and unigram per-batch partial counts (tagged
    rows, materialized once — the partial stream is distinct-terms-per-
    batch, far smaller than the corpus — so the lazy lineage is not
    re-executed by the two downstream aggregates); the tiny floored pair
    table then joins the unigram dictionary twice for the PMI closed form."""
    import pandas as pd

    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    ds = _read(sf_dir, "documents", ["text"])

    def partials(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = np.asarray(pc.list_flatten(words).to_pylist(), dtype=object)
        offs = words.offsets.to_numpy()
        nonempty = flat != ""
        uni = pd.Series(flat[nonempty]).value_counts()
        frames = [
            pd.DataFrame(
                {"kind": "u", "w1": uni.index, "w2": "",
                 "n": uni.to_numpy(np.int64)}
            )
        ]
        if len(flat) >= 2:
            same_doc = np.ones(len(flat) - 1, dtype=bool)
            same_doc[offs[1:-1] - 1] = False  # last token of a doc
            mask = same_doc & nonempty[:-1] & nonempty[1:]
            pr = (
                pd.DataFrame({"w1": flat[:-1][mask], "w2": flat[1:][mask]})
                .groupby(["w1", "w2"], as_index=False)
                .size()
            )
            frames.append(
                pd.DataFrame(
                    {"kind": "p", "w1": pr["w1"], "w2": pr["w2"],
                     "n": pr["size"].to_numpy(np.int64)}
                )
            )
        return pa.Table.from_pandas(pd.concat(frames), preserve_index=False)

    parts = ds.map_batches(partials, batch_format="pyarrow").materialize()
    # uni feeds a scalar aggregate AND two joins; pr feeds a scalar
    # aggregate AND the floor filter — materialize both (vocab-bounded,
    # strictly smaller than the already-pinned partial stream) so each
    # aggregation shuffle runs exactly once
    uni = pre_aggregated_sum(
        parts.filter(expr="kind == 'u'").drop_columns(["kind", "w2"]),
        keys=["w1"], sums={"n": "c"},
    ).materialize()
    pr = pre_aggregated_sum(
        parts.filter(expr="kind == 'p'").drop_columns(["kind"]),
        keys=["w1", "w2"], sums={"n": "c"},
    ).materialize()
    from ray.data.aggregate import Sum

    nw = int(uni.aggregate(Sum("c", alias_name="s"))["s"])
    npair = int(pr.aggregate(Sum("c", alias_name="s"))["s"])

    floored = pr.filter(expr="c >= 10")
    a = uni.map_batches(
        lambda t: pa.Table.from_arrays([t["w1"], t["c"]], names=["w1", "ca"]),
        batch_format="pyarrow",
    )
    b = uni.map_batches(
        lambda t: pa.Table.from_arrays([t["w1"], t["c"]], names=["w2", "cb"]),
        batch_format="pyarrow",
    )
    from goose_parser_ray.functions.relational import safe_join

    nparts = _dedup._default_join_partitions()
    joined = safe_join(
        safe_join(floored, a, num_partitions=nparts, on=("w1",)),
        b, num_partitions=nparts, on=("w2",),
    )

    def pmi(t: pa.Table) -> pa.Table:
        c = t["c"].to_numpy(zero_copy_only=False).astype(np.float64)
        ca = t["ca"].to_numpy(zero_copy_only=False).astype(np.float64)
        cb = t["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
        val = np.log((c / npair) / ((ca / nw) * (cb / nw)))
        return pa.Table.from_pydict(
            {
                "w1": t["w1"], "w2": t["w2"],
                "n": pc.cast(t["c"], pa.int64()),
                "pmi_e6": _cents(pa.chunked_array([pa.array(val)]), 1_000_000),
            }
        )

    return (
        joined.map_batches(pmi, batch_format="pyarrow")
        .sort(["pmi_e6", "w1", "w2"], descending=[True, False, False])
        .limit(20)
    )


SQL_PMI_BIGRAMS = r"""
WITH toks AS (
  SELECT regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+') AS w
  FROM documents
),
uni AS (
  SELECT word, COUNT(*) AS c FROM (SELECT unnest(w) AS word FROM toks)
  WHERE word <> '' GROUP BY word
),
nw AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM uni),
pairs AS (
  SELECT w[i] AS w1, w[i+1] AS w2
  FROM toks, UNNEST(generate_series(1, len(w) - 1)) AS t(i)
  WHERE w[i] <> '' AND w[i+1] <> ''
),
pr AS (SELECT w1, w2, COUNT(*) AS c FROM pairs GROUP BY w1, w2),
np AS (SELECT CAST(SUM(c) AS BIGINT) AS n FROM pr)
SELECT p.w1, p.w2, CAST(p.c AS BIGINT) AS n,
  CAST(ROUND(1000000 * LN(
    (CAST(p.c AS DOUBLE) / (SELECT n FROM np))
    / ((CAST(a.c AS DOUBLE) / (SELECT n FROM nw))
       * (CAST(b.c AS DOUBLE) / (SELECT n FROM nw)))
  )) AS BIGINT) AS pmi_e6
FROM pr p JOIN uni a ON p.w1 = a.word JOIN uni b ON p.w2 = b.word
WHERE p.c >= 10
ORDER BY pmi_e6 DESC, p.w1, p.w2 LIMIT 20
"""


def q_warc_roundtrip(sf_dir: str):
    """Web-archive interchange: export the corpus to WARC shards (one per
    block, streaming map sink) and read it back via the parallel framed
    parser — proving lossless doc_id/source/payload roundtrip against the
    original table (see ``sources/warc.py``)."""
    import hashlib
    import shutil

    from goose_parser_ray.sources.warc import read_warc, write_warc_shards

    out = "/tmp/warc_roundtrip_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    write_warc_shards(ds, out)
    return read_warc(out).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "source": t["source"],
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_WARC_ROUNDTRIP = """
SELECT doc_id, source, CAST(LENGTH(text) AS BIGINT) AS n_chars FROM documents
"""


def q_table_diff(sf_dir: str):
    """Snapshot diff (CDC-style migration validation): compare the
    documents table against a deterministically mutated second snapshot
    (1/8 of keys dropped, 1/8 value-bumped, 1/8 re-keyed as inserts) and
    emit only the changed keys. One full-outer hash join; unchanged rows
    are dropped map-side so the output is bounded by change volume."""
    from goose_parser_ray.functions.relational import diff_datasets

    base = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def mutate(t: pa.Table) -> pa.Table:
        m = pc.bit_wise_and(t["doc_id"], pa.scalar(7, pa.int64()))
        kept = t.filter(pc.not_equal(m, 0))
        km = pc.bit_wise_and(kept["doc_id"], pa.scalar(7, pa.int64()))
        bumped = pc.if_else(
            pc.equal(km, 1), pc.add(kept["n_chars"], 1), kept["n_chars"]
        )
        add_src = t.filter(pc.equal(m, 2))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.concat_arrays(
                    [
                        kept["doc_id"].combine_chunks(),
                        pc.add(
                            add_src["doc_id"], pa.scalar(10_000_000, pa.int64())
                        ).combine_chunks(),
                    ]
                ),
                "n_chars": pa.concat_arrays(
                    [
                        pc.cast(bumped, pa.int64()).combine_chunks(),
                        add_src["n_chars"].combine_chunks(),
                    ]
                ),
            }
        )

    snap2 = _read(sf_dir, "documents", ["doc_id", "n_chars"]).map_batches(
        mutate, batch_format="pyarrow"
    )
    return diff_datasets(base, snap2, key="doc_id", compare=["n_chars"])


SQL_TABLE_DIFF = """
WITH snap2 AS (
  SELECT doc_id, CAST(n_chars + CASE WHEN (doc_id & 7) = 1 THEN 1 ELSE 0 END
                      AS BIGINT) AS n_chars
  FROM documents WHERE (doc_id & 7) <> 0
  UNION ALL
  SELECT doc_id + 10000000 AS doc_id, n_chars
  FROM documents WHERE (doc_id & 7) = 2
)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'removed'
            WHEN a.doc_id IS NULL THEN 'added'
            ELSE 'modified' END AS change
FROM documents a FULL OUTER JOIN snap2 b USING (doc_id)
WHERE b.doc_id IS NULL OR a.doc_id IS NULL OR a.n_chars <> b.n_chars
"""


def q_pq_codes(sf_dir: str):
    """Product quantization over the embeddings table (rows-only —
    approximate by construction; determinism + reconstruction-quality
    floors are pytest-asserted): codebooks trained on one bounded seeded
    sample, vectors encoded map-side to m=4 sub-codes + exact squared
    reconstruction error. The 100 TB embedding-store compression path
    (m bytes/vector at k ≤ 256 vs 4·dim)."""
    from goose_parser_ray.functions.similarity import pq_encode, pq_train

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    books = pq_train(ds, m=4, k=16, sample_size=2000, seed=7)
    out = pq_encode(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
        books,
        concurrency=max(2, _pool() // 2),
    )
    return out.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "vec_id": t["vec_id"],
                "code0": t["code0"], "code1": t["code1"],
                "code2": t["code2"], "code3": t["code3"],
                "err_e6": _cents(t["recon_err_sq"], 1_000_000),
            }
        ),
        batch_format="pyarrow",
    )


def q_sq8_quantize(sf_dir: str):
    """Scalar 8-bit embedding quantization (FAISS SQ8 shape), ORACLE-
    CHECKED — the one vector-compression op with an exact SQL twin:
    per-dim min/max from streamed partials, elementwise double affine
    code = ROUND((v − mn)/((mx − mn)/255)) with half-away rounding on
    both engines (no summation-order exposure: per-vec code_sum is an
    int64 sum of exact integers)."""
    from goose_parser_ray.functions.similarity import sq8_encode

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return sq8_encode(ds).sort("vec_id")


SQL_SQ8_QUANTIZE = """
WITH e AS (
  SELECT vec_id, j, CAST(embedding[j] AS DOUBLE) AS v
  FROM embeddings, UNNEST(generate_series(1, len(embedding))) AS t(j)
), d AS (
  SELECT j, MIN(v) AS mn, MAX(v) AS mx FROM e GROUP BY j
), c AS (
  SELECT e.vec_id,
         CASE WHEN d.mx = d.mn THEN 0
              ELSE CAST(ROUND((e.v - d.mn) / ((d.mx - d.mn) / 255.0)) AS BIGINT)
         END AS code
  FROM e JOIN d USING (j)
)
SELECT vec_id,
       CAST(SUM(code) AS BIGINT) AS code_sum,
       CAST(MIN(code) AS BIGINT) AS code_min,
       CAST(MAX(code) AS BIGINT) AS code_max,
       CAST(COUNT(*) AS BIGINT) AS n_dims
FROM c GROUP BY vec_id ORDER BY vec_id
"""


def q_ann_ivf(sf_dir: str):
    """IVF scale-path ANN (spherical-k-means cells + nprobe + exact rerank
    — rows-only: approximate recall by construction)."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.similarity import ann_ivf

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.array_sort_indices(emb["vec_id"].combine_chunks())[:8]
    head = emb.take(order)
    qids = head["vec_id"].to_pylist()
    qmat = np.array(head["embedding"].to_pylist(), dtype=np.float32)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ann_ivf(
        ds, qids, qmat, k=5, n_centroids=16, nprobe=6,
        concurrency=max(2, _pool() // 2),
    )
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_ann_lsh(sf_dir: str):
    """Scale-path ANN: LSH bucket pruning + exact rerank (rows-only —
    approximate recall by construction)."""
    import pyarrow.parquet as pq

    head = pq.read_table(f"{sf_dir}/embeddings.parquet").slice(0, 8)
    qids = head["vec_id"].to_pylist()
    qmat = np.array(head["embedding"].to_pylist(), dtype=np.float32)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # ann_lsh chains TWO fixed actor pools (bucketer + reranker); each gets
    # half the budget or their reservations can't coexist and the streaming
    # pipeline deadlocks.
    # knobs measured on this near-random synthetic embedding table (the
    # LSH-hostile case — no cluster structure): 4 planes × 8 tables gives
    # recall@5 min 0.80 / mean 0.97 vs the oracle-checked brute force (the
    # old 6×4 sat at mean 0.48); floors asserted in tests/test_recall.py
    out = ann_lsh(
        ds, qids, qmat, k=5, dim=64, n_planes=4, n_tables=8,
        concurrency=max(1, _pool() // 2),
    )
    return out.select_columns(["query_id", "vec_id", "rank"])


def q_communities_lpa(sf_dir: str):
    """Label-propagation communities (Raghavan 2007 made deterministic),
    ORACLE-CHECKED over the DOM-extracted link graph: 3 synchronous
    rounds, neighbor-label mode with smallest-label tie-break, undirected
    (edges symmetrized, self-loops dropped). The bounded-round discipline
    makes the twin an exactly-unrolled 3-level CTE — the same oracle shape
    as q_pagerank — while the engine runs the tiered implementation
    (numpy lexsort mode under the edge guard; join + (v,label) partial
    count + v-grouped pick past it)."""
    from goose_parser_ray.functions.graph import label_propagation
    from goose_parser_ray.functions.linkgraph import extract_links

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    edges = extract_links(ds, concurrency=_pool())
    return label_propagation(edges, rounds=3).sort("node")


SQL_COMMUNITIES_LPA = """
WITH e0 AS (
  SELECT CAST(d.doc_id AS BIGINT) AS src,
         CAST((d.doc_id * 7 + g.k) % 1000 AS BIGINT) AS dst
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
), sym AS (
  SELECT src AS u, dst AS v FROM e0 WHERE src <> dst
  UNION
  SELECT dst AS u, src AS v FROM e0 WHERE src <> dst
), l0 AS (
  SELECT DISTINCT u AS node, u AS label FROM sym
), l1 AS (
  SELECT v AS node, label FROM (
    SELECT e.v AS v, l.label AS label, COUNT(*) AS c
    FROM sym e JOIN l0 l ON l.node = e.u GROUP BY e.v, l.label
  ) QUALIFY ROW_NUMBER() OVER (PARTITION BY v ORDER BY c DESC, label ASC) = 1
), l2 AS (
  SELECT v AS node, label FROM (
    SELECT e.v AS v, l.label AS label, COUNT(*) AS c
    FROM sym e JOIN l1 l ON l.node = e.u GROUP BY e.v, l.label
  ) QUALIFY ROW_NUMBER() OVER (PARTITION BY v ORDER BY c DESC, label ASC) = 1
), l3 AS (
  SELECT v AS node, label FROM (
    SELECT e.v AS v, l.label AS label, COUNT(*) AS c
    FROM sym e JOIN l2 l ON l.node = e.u GROUP BY e.v, l.label
  ) QUALIFY ROW_NUMBER() OVER (PARTITION BY v ORDER BY c DESC, label ASC) = 1
)
SELECT node, label FROM l3 ORDER BY node
"""
