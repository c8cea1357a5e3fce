"""Event-stream quality diagnostics: funnels, retention, Markov transitions, paired windows, rate spikes, seasonality, gap histograms, transition entropy, churn, mutual information.

Split from ``queries/diagnostics.py`` (r5 item 6).
See package docstring for parity rules."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import pre_aggregated_sum

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.queries._shared import _cents, _read


def q_funnel_steps(sf_dir: str):
    """Three-step conversion funnel with a 72-hour step window: per user,
    the first ``signup``, then the first ``click`` within 72 h of it, then
    the first ``purchase`` within 72 h of that click; the user's furthest
    stage (1/2/3) is emitted. One user-bucketed fold (payload = the
    user's own events) — the per-user step minima are three vectorized
    masked ``transform('min')`` passes, no joins, no per-row Python.
    Timestamps stay exact through the float64 transforms (µs since epoch
    ≈ 1.8e15 ≪ 2^53)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    nb = num_shuffle_buckets(ds.count())
    win_us = 72 * 3600 * 1_000_000

    def add_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["user_id"], pc.cast(t["ts"], pa.int64()), t["event_type"]],
            names=["user_id", "us", "event_type"],
        )
        return _dedup.add_hash_bucket(t, "user_id", nb, "__fb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "stage": pd.Series([], dtype=np.int64),
                }
            )
        g = g.reset_index(drop=True)
        uid = g["user_id"]
        us = g["us"]
        et = g["event_type"]
        t1 = us.where(et.eq("signup")).groupby(uid).transform("min")
        t2 = (
            us.where(et.eq("click") & (us >= t1) & (us <= t1 + win_us))
            .groupby(uid)
            .transform("min")
        )
        t3 = (
            us.where(et.eq("purchase") & (us >= t2) & (us <= t2 + win_us))
            .groupby(uid)
            .transform("min")
        )
        per = (
            pd.DataFrame({"user_id": uid, "t1": t1, "t2": t2, "t3": t3})
            .groupby("user_id", as_index=False)
            .min()
        )
        per = per[per["t1"].notna()]
        stage = np.where(
            per["t3"].notna(), 3, np.where(per["t2"].notna(), 2, 1)
        )
        return pd.DataFrame(
            {
                "user_id": per["user_id"].to_numpy(np.int64),
                "stage": stage.astype(np.int64),
            }
        )

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return ds.groupby("__fb").map_groups(fold, batch_format="pandas")


SQL_FUNNEL_STEPS = """
WITH u1 AS (
  SELECT user_id, MIN(ts) AS t1 FROM events
  WHERE event_type = 'signup' GROUP BY user_id
), u2 AS (
  SELECT e.user_id, MIN(e.ts) AS t2 FROM events e JOIN u1 USING (user_id)
  WHERE e.event_type = 'click' AND e.ts >= u1.t1
    AND e.ts <= u1.t1 + INTERVAL 72 HOUR
  GROUP BY e.user_id
), u3 AS (
  SELECT e.user_id, MIN(e.ts) AS t3 FROM events e JOIN u2 USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts >= u2.t2
    AND e.ts <= u2.t2 + INTERVAL 72 HOUR
  GROUP BY e.user_id
)
SELECT u1.user_id,
       CAST(CASE WHEN u3.user_id IS NOT NULL THEN 3
                 WHEN u2.user_id IS NOT NULL THEN 2 ELSE 1 END AS BIGINT)
         AS stage
FROM u1
LEFT JOIN u2 ON u1.user_id = u2.user_id
LEFT JOIN u3 ON u1.user_id = u3.user_id
"""


def q_retention(sf_dir: str):
    """Cohort retention matrix: cohort = a user's first active day,
    offset = whole weeks since that day; cell = distinct users from the
    cohort active in that week. One user-bucketed fold computes the
    cohort day and the per-user distinct (cohort, week) pairs locally
    (users are disjoint across buckets, so bucket-local distinct counts
    sum exactly); the cross-bucket exchange carries only
    (cohort_day, offset_week, count) — calendar-domain bounded at any
    corpus size."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t["ts"], pa.int64()), 86_400 * 1_000_000)
        t = pa.Table.from_arrays([t["user_id"], day], names=["user_id", "day"])
        return _dedup.add_hash_bucket(t, "user_id", nb, "__rb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series([], dtype=np.int64),
                    "offset_week": pd.Series([], dtype=np.int64),
                    "users": pd.Series([], dtype=np.int64),
                }
            )
        g = g.reset_index(drop=True)
        d0 = g.groupby("user_id")["day"].transform("min")
        p = pd.DataFrame(
            {
                "cohort_day": d0.to_numpy(np.int64),
                "offset_week": ((g["day"] - d0) // 7).to_numpy(np.int64),
                "user_id": g["user_id"],
            }
        ).drop_duplicates()
        agg = (
            p.groupby(["cohort_day", "offset_week"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "users"})
        )
        agg["users"] = agg["users"].astype(np.int64)
        return agg

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    partial = ds.groupby("__rb").map_groups(fold, batch_format="pandas")
    return pre_aggregated_sum(
        partial, keys=["cohort_day", "offset_week"], sums={"users": "users"}
    )


SQL_RETENTION = """
WITH d AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day FROM events
), f AS (
  SELECT user_id, MIN(day) AS d0 FROM d GROUP BY user_id
), p AS (
  SELECT DISTINCT d.user_id, f.d0, (d.day - f.d0) // 7 AS ow
  FROM d JOIN f USING (user_id)
)
SELECT CAST(d0 AS BIGINT) AS cohort_day, CAST(ow AS BIGINT) AS offset_week,
       CAST(COUNT(*) AS BIGINT) AS users
FROM p GROUP BY d0, ow
"""


def q_markov_transitions(sf_dir: str):
    """First-order Markov transition counts over each user's event-type
    sequence (consecutive pairs ordered by ts with event_id as the
    deterministic tie-break — the same total order the SQL LEAD twin
    uses). User-bucketed fold: one mergesort + grouped shift(-1) per
    bucket, bucket-local pair counts, then a type-domain-bounded
    (|types|² rows) cross-bucket sum."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__mb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "src_type": pd.Series([], dtype=object),
                    "dst_type": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        nxt = g.groupby("user_id")["event_type"].shift(-1)
        keep = nxt.notna()
        agg = (
            pd.DataFrame(
                {"src_type": g["event_type"][keep], "dst_type": nxt[keep]}
            )
            .groupby(["src_type", "dst_type"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )
        agg["n"] = agg["n"].astype(np.int64)
        return agg

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    partial = ds.groupby("__mb").map_groups(fold, batch_format="pandas")
    return pre_aggregated_sum(
        partial, keys=["src_type", "dst_type"], sums={"n": "n"}
    )


SQL_MARKOV_TRANSITIONS = """
WITH l AS (
  SELECT user_id, event_type AS a,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS b
  FROM events
)
SELECT a AS src_type, b AS dst_type, CAST(COUNT(*) AS BIGINT) AS n
FROM l WHERE b IS NOT NULL GROUP BY a, b
"""


def q_pair_windows(sf_dir: str):
    """Windowed stream self-join: count ordered event-type pairs (a, b)
    where b follows a for the same user within 10 minutes (strictly after
    in the (ts, event_id) total order). The scale shape: user-bucketed
    fold — inside each bucket one lexicographic sort, per-segment
    ``searchsorted`` on an int64 composite key (segment × time-span;
    bounded because users-per-bucket is data-proportional — guarded
    loudly), and per-type prefix sums turn the quadratic pair count into
    O(rows × |types|). Cross-bucket exchange is the |types|² count
    matrix."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = num_shuffle_buckets(ds.count())
    win_us = 600 * 1_000_000

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__pb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "type_a": pd.Series([], dtype=object),
                "type_b": pd.Series([], dtype=object),
                "n": pd.Series([], dtype=np.int64),
            }
        )
        if len(g) == 0:
            return empty
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        us = g["ts"].astype("int64").to_numpy()
        seg = pd.factorize(g["user_id"], sort=False)[0].astype(np.int64)
        rel = us - us.min()
        span = int(rel.max()) + win_us + 1
        if seg.max() + 1 > (2**62) // span:
            raise AssertionError(
                "composite key overflow: users-per-bucket x time-span too "
                "large — raise the bucket count"
            )
        key = seg * span + rel
        # rng[a] = first index past a's 10-minute window within a's user
        # segment (key construction keeps windows from crossing segments)
        rng = np.searchsorted(key, key + win_us, side="right")
        types, tcodes = np.unique(g["event_type"].to_numpy(), return_inverse=True)
        out_a, out_b, out_n = [], [], []
        for tb in range(len(types)):
            cum = np.concatenate(([0], np.cumsum(tcodes == tb)))
            cnt = cum[rng] - cum[np.arange(len(g)) + 1]
            if cnt.any():
                s = (
                    pd.Series(cnt)
                    .groupby(pd.Series(tcodes))
                    .sum()
                )
                for ta, n in s[s > 0].items():
                    out_a.append(types[ta])
                    out_b.append(types[tb])
                    out_n.append(int(n))
        if not out_a:
            return empty
        return pd.DataFrame(
            {
                "type_a": out_a,
                "type_b": out_b,
                "n": np.asarray(out_n, np.int64),
            }
        )

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    partial = ds.groupby("__pb").map_groups(fold, batch_format="pandas")
    return pre_aggregated_sum(partial, keys=["type_a", "type_b"], sums={"n": "n"})


SQL_PAIR_WINDOWS = """
SELECT a.event_type AS type_a, b.event_type AS type_b,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events a
JOIN events b
  ON a.user_id = b.user_id
 AND (b.ts > a.ts OR (b.ts = a.ts AND b.event_id > a.event_id))
 AND b.ts <= a.ts + INTERVAL 10 MINUTE
GROUP BY a.event_type, b.event_type
"""


def q_rate_spikes(sf_dir: str):
    """Calendar-windowed rate-spike screen: per (event_type, day) counts
    against the trailing 7 CALENDAR days (absent days count 0 — a RANGE
    frame, not a ROWS frame), spike ⇔ 7·n > 2·trail_sum with the trailing
    window nonempty. All-integer decision, so exact cross-engine. The
    exchange is day-domain bounded (types × days) — per-type day series
    fold driver-free via map_groups, windows via two searchsorted scans."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "ts"])

    def to_day(t: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(t["ts"], pa.int64()), 86_400 * 1_000_000)
        return pa.Table.from_pydict({"event_type": t["event_type"], "day": day})

    counts = pre_aggregated_sum(
        ds.map_batches(to_day, batch_format="pyarrow"),
        keys=["event_type", "day"],
        sums={},
        count_alias="n",
    )

    def windows(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="mergesort").reset_index(drop=True)
        days = g["day"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        cum = np.concatenate(([0], np.cumsum(n)))
        lo = np.searchsorted(days, days - 7, side="left")
        hi = np.searchsorted(days, days - 1, side="right")
        trail = cum[hi] - cum[lo]
        spike = (hi > lo) & (7 * n > 2 * trail)
        return pd.DataFrame(
            {
                "event_type": g["event_type"],
                "day": days,
                "n": n,
                "trail_sum": trail.astype(np.int64),
                "is_spike": spike.astype(np.int64),
            }
        )

    return counts.groupby("event_type").map_groups(
        windows, batch_format="pandas"
    )


SQL_RATE_SPIKES = """
WITH c AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM events GROUP BY 1, 2
)
SELECT event_type, CAST(day AS BIGINT) AS day, n,
       CAST(COALESCE(SUM(n) OVER w, 0) AS BIGINT) AS trail_sum,
       CAST(CASE WHEN COUNT(n) OVER w > 0
                  AND 7 * n > 2 * COALESCE(SUM(n) OVER w, 0)
                 THEN 1 ELSE 0 END AS BIGINT) AS is_spike
FROM c
WINDOW w AS (PARTITION BY event_type ORDER BY day
             RANGE BETWEEN 7 PRECEDING AND 1 PRECEDING)
"""


def q_seasonal_profile(sf_dir: str):
    """Diurnal activity profile: per (event_type, hour-of-day) event count
    and exact-cents value sum — the seasonality table ops dashboards and
    anomaly baselines read. Domain-bounded (types × 24) exchange, all
    integer."""
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def to_hour(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        hour = pc.divide(
            pc.subtract(
                us,
                pc.multiply(
                    pc.divide(us, 86_400_000_000), pa.scalar(86_400_000_000)
                ),
            ),
            3_600_000_000,
        )
        return pa.Table.from_pydict(
            {
                "event_type": t["event_type"],
                "hour": hour,
                "v": _cents(t["value"]),
            }
        )

    return pre_aggregated_sum(
        ds.map_batches(to_hour, batch_format="pyarrow"),
        keys=["event_type", "hour"],
        sums={"v": "sum_value_c"},
        count_alias="n",
    )


SQL_SEASONAL_PROFILE = """
SELECT event_type,
       CAST((epoch_us(ts) % 86400000000) // 3600000000 AS BIGINT) AS hour,
       CAST(SUM(CAST(ROUND(100 * value) AS BIGINT)) AS BIGINT)
         AS sum_value_c,
       CAST(COUNT(*) AS BIGINT) AS n
FROM events GROUP BY 1, 2
"""


def q_gap_hist(sf_dir: str):
    """Inter-arrival-time profile: per-user consecutive event gaps (µs,
    (ts, event_id) total order) rolled into power-of-two-second buckets —
    the cadence fingerprint bot/burst detectors read. User-bucketed fold
    (one mergesort + grouped diff per bucket, same shape as
    markov_transitions), exact integer frexp bucketing, ~40-bucket
    exchange."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__gb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "bucket_log2_s": pd.Series([], dtype=np.int64),
                "n_gaps": pd.Series([], dtype=np.int64),
            }
        )
        if len(g) == 0:
            return empty
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        us = g["ts"].astype("int64").to_numpy()
        same = g["user_id"].to_numpy()[1:] == g["user_id"].to_numpy()[:-1]
        gap_s = (us[1:] - us[:-1])[same] // 1_000_000
        gap_s = np.maximum(gap_s, 1)  # sub-second gaps land in bucket 0
        _m, e = np.frexp(gap_s.astype(np.float64))
        hist = pd.Series(e.astype(np.int64) - 1).value_counts()
        if hist.empty:
            return empty
        return pd.DataFrame(
            {
                "bucket_log2_s": hist.index.to_numpy(np.int64),
                "n_gaps": hist.to_numpy(np.int64),
            }
        )

    partial = ds.map_batches(add_bucket, batch_format="pyarrow").groupby(
        "__gb"
    ).map_groups(fold, batch_format="pandas")
    return pre_aggregated_sum(
        partial, keys=["bucket_log2_s"], sums={"n_gaps": "n_gaps"}
    )


SQL_GAP_HIST = """
WITH l AS (
  SELECT user_id, epoch_us(ts) AS us,
         LEAD(epoch_us(ts)) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS nxt
  FROM events
), g AS (
  SELECT GREATEST((nxt - us) // 1000000, 1) AS gap_s
  FROM l WHERE nxt IS NOT NULL
)
SELECT CAST(FLOOR(LOG2(gap_s)) AS BIGINT) AS bucket_log2_s,
       CAST(COUNT(*) AS BIGINT) AS n_gaps
FROM g GROUP BY 1
"""


def q_transition_entropy(sf_dir: str):
    """Conditional entropy of each user-sequence step, H(next | current)
    per source state — how predictable behavior is (bots collapse toward
    0; uniform browsing approaches ln |types|). Reuses the
    markov_transitions fold for the |types|²-bounded counts, then the
    fixed-point log discipline (element-wise e6 rounding, int sums, float
    ops mirrored by the twin)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__tb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "src_type": pd.Series([], dtype=object),
                    "dst_type": pd.Series([], dtype=object),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        nxt = g.groupby("user_id")["event_type"].shift(-1)
        keep = nxt.notna()
        agg = (
            pd.DataFrame(
                {"src_type": g["event_type"][keep], "dst_type": nxt[keep]}
            )
            .groupby(["src_type", "dst_type"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )
        agg["n"] = agg["n"].astype(np.int64)
        return agg

    counts = pre_aggregated_sum(
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__tb")
        .map_groups(fold, batch_format="pandas"),
        keys=["src_type", "dst_type"],
        sums={"n": "n"},
    ).to_pandas()  # |types|² — domain-bounded
    tot = counts.groupby("src_type")["n"].transform("sum").to_numpy(np.int64)
    nn = counts["n"].to_numpy(np.int64)
    # mirrored float ops: p = n/tot (per cell), term = -1e6 * ln(p) * n / tot
    term = -1_000_000.0 * (nn * np.log(nn / tot.astype(np.float64))) / tot
    counts["h_term_e6"] = np.round(term).astype(np.int64)
    out = (
        counts.groupby("src_type", as_index=False)
        .agg(n_out=("n", "sum"), h_e6=("h_term_e6", "sum"))
    )
    return pa.Table.from_pydict(
        {
            "src_type": pa.array(out["src_type"], pa.string()),
            "n_out": pa.array(out["n_out"].to_numpy(np.int64), pa.int64()),
            "h_e6": pa.array(out["h_e6"].to_numpy(np.int64), pa.int64()),
        }
    )


SQL_TRANSITION_ENTROPY = """
WITH l AS (
  SELECT user_id, event_type AS a,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
           AS b
  FROM events
), c AS (
  SELECT a, b, CAST(COUNT(*) AS BIGINT) AS n
  FROM l WHERE b IS NOT NULL GROUP BY a, b
), m AS (
  SELECT c.*, SUM(n) OVER (PARTITION BY a) AS tot FROM c
)
SELECT a AS src_type, CAST(SUM(n) AS BIGINT) AS n_out,
       CAST(SUM(CAST(ROUND(
           -1000000.0 * (n * LN(n / CAST(tot AS DOUBLE)))
           / CAST(tot AS DOUBLE)
       ) AS BIGINT)) AS BIGINT) AS h_e6
FROM m GROUP BY a
"""


def q_churn_rate(sf_dir: str):
    """Weekly churn: of the users active in week w (weeks since epoch),
    the share with no activity in w+1 — the product-health metric cohort
    dashboards lead with. User-bucketed fold — each user's distinct week
    set is bucket-local, so active/churned flags are exact without a
    cross-user shuffle; the exchange is calendar-bounded (week, counts)
    rows. The global last week is excluded on both sides (no w+1
    evidence). rate_e4 is an exact integer ratio."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    nb = num_shuffle_buckets(ds.count())

    def to_week(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        week = pc.divide(us, 7 * 86_400_000_000)
        t2 = pa.Table.from_pydict({"user_id": t["user_id"], "week": week})
        return _dedup.add_hash_bucket(t2, "user_id", nb, "__cb")

    bucketed = ds.map_batches(to_week, batch_format="pyarrow").materialize()
    gmax = int(bucketed.max("week"))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "week": pd.Series([], dtype=np.int64),
                    "active": pd.Series([], dtype=np.int64),
                    "churned": pd.Series([], dtype=np.int64),
                }
            )
        p = pd.DataFrame(
            {"u": g["user_id"], "m": g["week"].to_numpy(np.int64)}
        ).drop_duplicates()
        nxt = p.assign(m=p["m"] - 1)  # (u, m) exists at m+1 → marker at m
        p["has_next"] = (
            p.merge(nxt.assign(k=1), on=["u", "m"], how="left")["k"]
            .notna()
            .to_numpy()
        )
        p = p[p["m"] < gmax]
        out = p.groupby("m", as_index=False).agg(
            active=("u", "size"),
            churned=("has_next", lambda s: int((~s).sum())),
        )
        return pd.DataFrame(
            {
                "week": out["m"].to_numpy(np.int64),
                "active": out["active"].to_numpy(np.int64),
                "churned": out["churned"].to_numpy(np.int64),
            }
        )

    agg = pre_aggregated_sum(
        bucketed.groupby("__cb").map_groups(fold, batch_format="pandas"),
        keys=["week"],
        sums={"active": "active", "churned": "churned"},
    )
    return agg.map_batches(
        lambda t: t.append_column(
            "churn_rate_e4",
            pc.divide(pc.multiply(t["churned"], 10_000), t["active"]),
        ),
        batch_format="pyarrow",
    )


SQL_CHURN_RATE = """
WITH am AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // 604800000000 AS BIGINT) AS m
  FROM events
), gmax AS (SELECT MAX(m) AS gm FROM am),
flags AS (
  SELECT a.user_id, a.m,
         CASE WHEN b.user_id IS NULL THEN 1 ELSE 0 END AS churned
  FROM am a
  LEFT JOIN am b ON b.user_id = a.user_id AND b.m = a.m + 1
  WHERE a.m < (SELECT gm FROM gmax)
)
SELECT m AS week, CAST(COUNT(*) AS BIGINT) AS active,
       CAST(SUM(churned) AS BIGINT) AS churned,
       CAST(10000 * SUM(churned) // COUNT(*) AS BIGINT) AS churn_rate_e4
FROM flags GROUP BY m
"""


def q_mutual_info(sf_dir: str):
    """Mutual information between lang and source (how much one column
    predicts the other — the dependency screen feature selection and
    leakage audits run), under the repo's fixed-point log discipline:
    per-cell terms n_xy·ln(N·n_xy/(n_x·n_y))/N are e6-rounded ELEMENT-WISE
    and summed as int64 (exact in any order — the char_entropy/geo_mean
    recipe), with the ln argument formed by the identical float ops as the
    SQL twin. One domain-bounded (langs × sources) exchange."""
    ds = _read(sf_dir, "documents", ["lang", "source"])
    cells = pre_aggregated_sum(
        ds, keys=["lang", "source"], sums={}, count_alias="n_xy"
    ).to_pandas()  # langs × sources — domain-bounded
    n = int(cells["n_xy"].sum())
    nx = cells.groupby("lang")["n_xy"].transform("sum").to_numpy(np.int64)
    ny = cells.groupby("source")["n_xy"].transform("sum").to_numpy(np.int64)
    nxy = cells["n_xy"].to_numpy(np.int64)
    # identical float op order as the twin: N*n_xy first, then /(n_x*n_y)
    arg = (float(n) * nxy) / (nx * ny).astype(np.float64)
    term = 1_000_000.0 * (nxy * np.log(arg)) / float(n)
    mi_e6 = int(np.round(term).astype(np.int64).sum())
    return pa.Table.from_pydict(
        {
            "n_docs": pa.array([n], pa.int64()),
            "n_cells": pa.array([len(cells)], pa.int64()),
            "mi_e6": pa.array([mi_e6], pa.int64()),
        }
    )


SQL_MUTUAL_INFO = """
WITH c AS (
  SELECT lang, source, CAST(COUNT(*) AS BIGINT) AS n_xy
  FROM documents GROUP BY lang, source
), m AS (
  SELECT c.*,
         SUM(n_xy) OVER (PARTITION BY lang) AS n_x,
         SUM(n_xy) OVER (PARTITION BY source) AS n_y,
         SUM(n_xy) OVER () AS n
  FROM c
)
SELECT CAST(MAX(n) AS BIGINT) AS n_docs,
       CAST(COUNT(*) AS BIGINT) AS n_cells,
       CAST(SUM(CAST(ROUND(
           1000000.0 * (n_xy * LN((CAST(n AS DOUBLE) * n_xy)
                                  / (n_x * n_y))) / CAST(n AS DOUBLE)
       ) AS BIGINT)) AS BIGINT) AS mi_e6
FROM m
"""
