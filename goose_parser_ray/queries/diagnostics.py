"""Diagnostics + maintenance + graph breadth: Wilson CTR, funnels, retention, Markov, outliers, compaction, schema evolution, skew profile, DQ audit, PPR, random walks, assortativity, association rules, seasonal profiles, pushdown scan, mutual information.

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

from goose_parser_ray.queries._shared import _cents, _read


def q_wilson_ctr(sf_dir: str):
    """Daily click-through rate with a Wilson-style lower confidence
    bound (z = 2): the ranking-safe CTR that small-sample days can't
    game. One day-domain aggregate (map-side combine), then the bound in
    e6 fixed point with the one float subexpression written op-for-op
    like the SQL (IEEE mirror discipline) so FLOOR(SQRT(...)) lands on
    the same integer on both engines."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        keep = pc.is_in(t["event_type"], value_set=pa.array(["click", "view"]))
        t = t.filter(keep)
        day = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False) // (
            86_400 * 1_000_000
        )
        k = (
            pc.equal(t["event_type"], "click")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        g = pd.DataFrame({"day": day, "k": k}).groupby("day", sort=False).agg(
            k=("k", "sum"), n=("k", "size")
        )
        return pa.Table.from_pydict(
            {
                "day": g.index.to_numpy(np.int64),
                "k": g["k"].to_numpy(np.int64),
                "n": g["n"].to_numpy(np.int64),
            }
        )

    grouped = pre_aggregated_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["day"],
        sums={"k": "k", "n": "n"},
    )

    def bound(t: pa.Table) -> pa.Table:
        import pandas as pd

        k = t["k"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        # mirror of the SQL expression, op for op
        inner = np.floor(
            np.sqrt((k * (n - k) / n + 1.0) * 1_000_000_000_000.0)
        ).astype(np.int64)
        ki = t["k"].to_numpy(zero_copy_only=False)
        ni = t["n"].to_numpy(zero_copy_only=False)
        lb = ((ki + 2) * 1_000_000 - 2 * inner) // (ni + 4)
        day_s = pd.to_datetime(
            t["day"].to_numpy(zero_copy_only=False) * 86_400, unit="s"
        ).strftime("%Y-%m-%d")
        return pa.Table.from_pydict(
            {
                "day": pa.array(day_s, pa.string()),
                "k": t["k"],
                "n": t["n"],
                "wilson_lb_e6": pa.array(lb, pa.int64()),
            }
        )

    return grouped.map_batches(bound, batch_format="pyarrow")


SQL_WILSON_CTR = """
WITH d AS (
  SELECT CAST(ts AS DATE) AS day,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS k
  FROM events WHERE event_type IN ('click', 'view')
), g AS (
  SELECT day, CAST(SUM(k) AS BIGINT) AS k, CAST(COUNT(*) AS BIGINT) AS n
  FROM d GROUP BY day
)
SELECT strftime(day, '%Y-%m-%d') AS day, k, n,
       CAST(((k + 2) * 1000000
             - 2 * CAST(FLOOR(SQRT(
                 (CAST(k AS DOUBLE) * (CAST(n AS DOUBLE) - CAST(k AS DOUBLE))
                  / CAST(n AS DOUBLE) + 1.0) * 1000000000000.0
               )) AS BIGINT))
            // (n + 4) AS BIGINT) AS wilson_lb_e6
FROM g
"""


def q_mad_outliers(sf_dir: str):
    """Robust outlier counts per event type via median absolute
    deviation, EXACT in the cents domain: med = the rank-⌈n/2⌉ value,
    mad = the same rank statistic of |v − med|, outlier ⇔
    |v − med| > 3·mad (the 1.4826 normal-consistency constant is folded
    into the multiplier choice, keeping everything integer). The
    exchange carries one row per distinct (type, cents) — value-domain
    bounded, the same counting shape as ``gini`` — and the rank scans
    are driver-side numpy over that tiny table."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = _cents(t["value"]).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"et": t["event_type"].to_pandas(), "v": v})
            .groupby(["et", "v"], sort=False)
            .size()
        )
        idx = g.index.to_frame(index=False)
        return pa.Table.from_pydict(
            {
                "event_type": idx["et"].to_numpy(),
                "v": idx["v"].to_numpy(np.int64),
                "c": g.to_numpy(np.int64),
            }
        )

    grouped = (
        pre_aggregated_sum(
            ds.map_batches(partial, batch_format="pyarrow"),
            keys=["event_type", "v"],
            sums={"c": "c"},
        )
        .sort(["event_type", "v"])
        .to_pandas()
    )  # one row per distinct (type, cents) — domain-bounded small
    out = []
    for et, g in grouped.groupby("event_type", sort=True):
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        n = int(c.sum())
        thresh = (n + 1) // 2
        med = int(v[np.searchsorted(np.cumsum(c), thresh)])
        av = np.abs(v - med)
        order = np.argsort(av, kind="stable")
        mad = int(av[order][np.searchsorted(np.cumsum(c[order]), thresh)])
        n_out = int(c[av > 3 * mad].sum())
        out.append((et, n, med, mad, n_out))
    return pa.Table.from_pydict(
        {
            "event_type": pa.array([o[0] for o in out], pa.string()),
            "n": pa.array([o[1] for o in out], pa.int64()),
            "med_c": pa.array([o[2] for o in out], pa.int64()),
            "mad_c": pa.array([o[3] for o in out], pa.int64()),
            "n_outliers": pa.array([o[4] for o in out], pa.int64()),
        }
    )


SQL_MAD_OUTLIERS = """
WITH d AS (
  SELECT event_type, CAST(ROUND(100 * value) AS BIGINT) AS v FROM events
), c AS (
  SELECT event_type, v, CAST(COUNT(*) AS BIGINT) AS c
  FROM d GROUP BY event_type, v
), t AS (
  SELECT event_type, CAST(SUM(c) AS BIGINT) AS n FROM c GROUP BY event_type
), r AS (
  SELECT c.event_type, c.v, c.c,
         SUM(c.c) OVER (PARTITION BY c.event_type ORDER BY c.v) AS cum
  FROM c
), med AS (
  SELECT r.event_type, CAST(MIN(r.v) AS BIGINT) AS med
  FROM r JOIN t USING (event_type)
  WHERE r.cum >= (t.n + 1) // 2 GROUP BY r.event_type
), a AS (
  SELECT c.event_type, ABS(c.v - med.med) AS av, CAST(SUM(c.c) AS BIGINT) AS c
  FROM c JOIN med USING (event_type) GROUP BY 1, 2
), ar AS (
  SELECT a.event_type, a.av, a.c,
         SUM(a.c) OVER (PARTITION BY a.event_type ORDER BY a.av) AS cum
  FROM a
), mad AS (
  SELECT ar.event_type, CAST(MIN(ar.av) AS BIGINT) AS mad
  FROM ar JOIN t USING (event_type)
  WHERE ar.cum >= (t.n + 1) // 2 GROUP BY ar.event_type
)
SELECT c.event_type, MAX(t.n) AS n, MAX(med.med) AS med_c,
       MAX(mad.mad) AS mad_c,
       CAST(COALESCE(SUM(CASE WHEN ABS(c.v - med.med) > 3 * mad.mad
                              THEN c.c END), 0) AS BIGINT) AS n_outliers
FROM c
JOIN med USING (event_type) JOIN mad USING (event_type)
JOIN t USING (event_type)
GROUP BY c.event_type
"""


def q_compaction(sf_dir: str):
    """Small-file compaction round trip, ORACLE-CHECKED for row
    preservation: the documents table is deliberately shattered into tiny
    part files (the layout a per-shard-committing resumable job leaves
    behind), then ``compact_shards`` coalesces them shuffle-free — Ray
    packs small fragments into blocks at the READER, the writer re-slices
    to the target file size — and the compacted directory is read back and
    returned in full. The hash compare proves compaction is lossless; the
    file-count drop itself is asserted in tests."""
    import hashlib
    import shutil

    from goose_parser_ray.sources.io import compact_shards

    base = "/tmp/compaction_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    small, packed = base + "/small", base + "/packed"
    shutil.rmtree(base, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    ds.write_parquet(small, max_rows_per_file=8)  # the pathological layout
    stats = compact_shards(small, packed, target_rows_per_file=512)
    if stats["files_out"] > max(1, stats["files_in"] // 4):
        raise AssertionError(f"compaction did not compact: {stats}")
    return ray.data.read_parquet(packed)


SQL_COMPACTION = """
SELECT doc_id, lang, n_chars FROM documents
"""


def q_schema_evolution(sf_dir: str):
    """Schema-evolution read, ORACLE-CHECKED: the corpus is written as two
    generations of shards — OLD (doc_id as int32, no ``n_chars``; the
    schema a year-old crawl run produced) and NEW (int64 + the added
    column) — then read back through ONE ``read_evolving`` call whose
    target schema pushes the unification into the pyarrow scanner:
    per-fragment int32→int64 widening and typed-null fill for the missing
    column, no per-batch fixup stage and no driver-side schema sniffing.
    The SQL twin states the expected merged relation closed-form."""
    import hashlib
    import shutil

    import pyarrow.parquet as pq

    from goose_parser_ray.sources.io import read_evolving

    base = "/tmp/schema_evo_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(base, ignore_errors=True)

    def write_generation(t: pa.Table) -> pa.Table:
        old = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 1))
        new = t.filter(pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0))
        tag = hashlib.md5(old["doc_id"].to_string().encode()).hexdigest()[:12]
        pq.write_table(
            pa.Table.from_arrays(
                [pc.cast(old["doc_id"], pa.int32()), old["lang"]],
                names=["doc_id", "lang"],
            ),
            f"{base}/old-{tag}.parquet",
        )
        pq.write_table(
            pa.Table.from_arrays(
                [new["doc_id"], new["lang"], new["n_chars"]],
                names=["doc_id", "lang", "n_chars"],
            ),
            f"{base}/new-{tag}.parquet",
        )
        return pa.Table.from_pydict({"n": [len(t)]})

    import os

    os.makedirs(base, exist_ok=True)
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    # consume the writer stage (side-effect map — one tiny count row per block)
    ds.map_batches(write_generation, batch_format="pyarrow").count()

    target = pa.schema(
        [("doc_id", pa.int64()), ("lang", pa.string()), ("n_chars", pa.int64())]
    )
    return read_evolving(base, target)


SQL_SCHEMA_EVOLUTION = """
SELECT doc_id, lang,
       CASE WHEN doc_id % 2 = 0 THEN n_chars END AS n_chars
FROM documents
"""


def q_skew_profile(sf_dir: str):
    """Key-skew diagnostics — the profile you run BEFORE picking a join or
    groupby strategy at corpus scale: per-user event counts rolled into
    power-of-two buckets (bucket = ⌊log₂ count⌋ via exact integer frexp,
    no float log), with key count, event mass, and the largest key per
    bucket. Two bounded exchanges: per-(bucket, user) partials combine
    map-side, then the log-domain-bounded (≤ 64 rows) final fold."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id"])
    per_user = pre_aggregated_sum(
        ds, keys=["user_id"], sums={}, count_alias="cnt"
    )

    def bucketize(t: pa.Table) -> pa.Table:
        cnt = t["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        _m, e = np.frexp(cnt.astype(np.float64))
        bucket = e.astype(np.int64) - 1  # exact: cnt in [2^b, 2^(b+1))
        return pa.Table.from_pydict(
            {
                "bucket_log2": bucket,
                "n_keys": np.ones(len(cnt), np.int64),
                "n_events": cnt,
                "max_count": cnt,
            }
        )

    from ray.data.aggregate import Max, Sum

    def partial_fold(t: pa.Table) -> pa.Table:
        # map-side combine per block: the final groupby's payload is then
        # ≤ 64 log-buckets × blocks, never the per-user table (most users
        # share a handful of low buckets — an unbounded map_groups payload
        # otherwise)
        df = t.to_pandas()
        out = df.groupby("bucket_log2", as_index=False).agg(
            n_keys=("n_keys", "sum"),
            n_events=("n_events", "sum"),
            max_count=("max_count", "max"),
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        per_user.map_batches(bucketize, batch_format="pyarrow")
        .map_batches(partial_fold, batch_format="pyarrow")
        .groupby("bucket_log2")
        .aggregate(
            Sum("n_keys", alias_name="n_keys"),
            Sum("n_events", alias_name="n_events"),
            Max("max_count", alias_name="max_count"),
        )
    )


SQL_SKEW_PROFILE = """
WITH c AS (
  SELECT user_id, CAST(COUNT(*) AS BIGINT) AS cnt FROM events GROUP BY user_id
)
SELECT CAST(FLOOR(LOG2(cnt)) AS BIGINT) AS bucket_log2,
       CAST(COUNT(*) AS BIGINT) AS n_keys,
       CAST(SUM(cnt) AS BIGINT) AS n_events,
       CAST(MAX(cnt) AS BIGINT) AS max_count
FROM c GROUP BY 1
"""


def q_dq_audit(sf_dir: str):
    """Data-quality audit — the expectation-check pass a production
    pipeline runs before promoting a batch: per-check violation counts in
    ONE streaming pass (null keys, non-positive amounts, out-of-range
    timestamps) plus an exact duplicate-key count via the id-bucketed
    distinct (ids disjoint across buckets ⇒ bucket-local distinct counts
    sum exactly — the q_retention argument). Output is the tidy
    (check, n) table dashboards ingest."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    nb = num_shuffle_buckets(ds.count())
    lo = 1_262_304_000_000_000  # 2010-01-01 in µs
    hi = 1_893_456_000_000_000  # 2030-01-01 in µs

    def partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        checks = {
            "rows_total": t.num_rows,
            "null_user_id": t["user_id"].null_count,
            "nonpositive_value": int(
                pc.sum(
                    pc.cast(
                        pc.and_kleene(
                            pc.is_valid(t["value"]),
                            pc.less_equal(t["value"], 0.0),
                        ),
                        pa.int64(),
                    )
                ).as_py()
                or 0
            ),
            "ts_out_of_range": int(
                pc.sum(
                    pc.cast(
                        pc.or_kleene(pc.less(us, lo), pc.greater_equal(us, hi)),
                        pa.int64(),
                    )
                ).as_py()
                or 0
            ),
        }
        return pa.Table.from_pydict(
            {
                "check_name": pa.array(list(checks), pa.string()),
                "n": pa.array([int(v) for v in checks.values()], pa.int64()),
            }
        )

    flat = pre_aggregated_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["check_name"],
        sums={"n": "n"},
    )

    # duplicate ids: total − distinct, distinct summed over disjoint buckets
    def bucket_ids(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays([t["event_id"]], names=["event_id"])
        return _dedup.add_hash_bucket(t, "event_id", nb, "__db")

    def distinct_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"d": [np.int64(g["event_id"].nunique())]})

    per_bucket = (
        ds.map_batches(bucket_ids, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(distinct_in_bucket, batch_format="pandas")
    )
    totals = {r["check_name"]: r["n"] for r in flat.take_all()}
    # distributed scalar sum: the per-bucket table grows with the corpus
    # (rows/50k buckets) — never collect it driver-side
    n_distinct = int(per_bucket.sum("d") or 0)
    rows = sorted(totals.items()) + [
        ("dup_event_id", totals["rows_total"] - n_distinct)
    ]
    return pa.Table.from_pydict(
        {
            "check_name": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([int(r[1]) for r in rows], pa.int64()),
        }
    )


SQL_DQ_AUDIT = """
WITH e AS (
  SELECT event_id, user_id, epoch_us(ts) AS us, value FROM events
), checks AS (
  SELECT 'rows_total' AS check_name, COUNT(*) AS n FROM e
  UNION ALL
  SELECT 'null_user_id', COUNT(*) FILTER (WHERE user_id IS NULL) FROM e
  UNION ALL
  SELECT 'nonpositive_value',
         COUNT(*) FILTER (WHERE value IS NOT NULL AND value <= 0) FROM e
  UNION ALL
  SELECT 'ts_out_of_range',
         COUNT(*) FILTER (WHERE us < 1262304000000000
                             OR us >= 1893456000000000) FROM e
  UNION ALL
  SELECT 'dup_event_id',
         COUNT(*) - COUNT(DISTINCT event_id) FROM e
)
SELECT check_name, CAST(n AS BIGINT) AS n FROM checks ORDER BY check_name
"""


def q_reject_reasons(sf_dir: str):
    """Filter-cascade audit — the "why did my corpus shrink" report every
    curation run needs: each doc gets the FIRST matching rejection reason
    (too_short → too_long → bad_lang → kept, the cascade order a real
    filter applies), rolled up to (reason, n_docs, first_doc). Map-side
    partial combine; the exchange is reason-domain bounded (4 rows)."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def classify(t: pa.Table) -> pa.Table:
        n = t["n_chars"]
        reason = pc.if_else(
            pc.less(n, 100),
            pa.scalar("too_short"),
            pc.if_else(
                pc.greater(n, 400),
                pa.scalar("too_long"),
                pc.if_else(
                    pc.is_in(
                        t["lang"],
                        value_set=pa.array(["en", "de", "fr"]),
                    ),
                    pa.scalar("kept"),
                    pa.scalar("bad_lang"),
                ),
            ),
        )
        return pa.Table.from_pydict(
            {
                "reason": reason,
                "n_docs": pa.array(np.ones(t.num_rows, np.int64)),
                "first_doc": t["doc_id"],
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        out = df.groupby("reason", as_index=False).agg(
            n_docs=("n_docs", "sum"), first_doc=("first_doc", "min")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        ds.map_batches(classify, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("reason")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Min("first_doc", alias_name="first_doc"),
        )
    )


SQL_REJECT_REASONS = """
WITH r AS (
  SELECT doc_id,
         CASE WHEN n_chars < 100 THEN 'too_short'
              WHEN n_chars > 400 THEN 'too_long'
              WHEN lang IN ('en', 'de', 'fr') THEN 'kept'
              ELSE 'bad_lang' END AS reason
  FROM documents
)
SELECT reason, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(MIN(doc_id) AS BIGINT) AS first_doc
FROM r GROUP BY reason
"""


def q_arrow_roundtrip(sf_dir: str):
    """Arrow IPC (Feather v2) export → parallel ingest, ORACLE-CHECKED
    row-for-row against the source table: real shard FILES on disk (one
    per block, map-side — the same pattern as the WARC/CSV/JSONL
    roundtrips), read back through ``sources.io.read_documents``'s IPC
    branch (one read task per file; Feather-or-stream fallback). Floats
    survive IPC bit-exactly (binary columnar format — no text rounding),
    so value as exact cents on both sides compares trivially."""
    import hashlib
    import os
    import shutil

    import pyarrow.feather as feather

    from goose_parser_ray.sources.io import read_documents

    base = "/tmp/arrow_rt_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    src = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def write_shard(t: pa.Table) -> pa.Table:
        tag = hashlib.md5(t["doc_id"].to_string().encode()).hexdigest()[:12]
        feather.write_feather(t, f"{base}/shard-{tag}.feather")
        return pa.Table.from_pydict({"n": [t.num_rows]})

    src.map_batches(write_shard, batch_format="pyarrow").count()
    return read_documents(base + "/", fmt="arrow")


SQL_ARROW_ROUNDTRIP = """
SELECT doc_id, lang, n_chars FROM documents
"""


def q_winsorize(sf_dir: str):
    """Per-group winsorized mean (clip at the p05/p95 rank statistics
    before averaging — the robust-preprocessing step that tames heavy
    tails without dropping rows), EXACT in the cents domain: the p05/p95
    cut points are rank-⌈q·n⌉ values from cumulative counts (same
    discipline as grouped_quantiles), the clipped sum is Σ count·clip(v)
    over the distinct-value table, and the means are integer floor-divides.
    Exchange = one row per distinct (type, cents) — value-domain bounded."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = _cents(t["value"]).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame({"et": t["event_type"].to_pandas(), "v": v})
            .groupby(["et", "v"], sort=False)
            .size()
        )
        idx = g.index.to_frame(index=False)
        return pa.Table.from_pydict(
            {
                "event_type": idx["et"].to_numpy(),
                "v": idx["v"].to_numpy(np.int64),
                "c": g.to_numpy(np.int64),
            }
        )

    counts = pre_aggregated_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["event_type", "v"],
        sums={"c": "c"},
    )

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("v", kind="mergesort")
        v = g["v"].to_numpy(np.int64)
        c = g["c"].to_numpy(np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        lo = int(v[np.searchsorted(cum, int(np.ceil(0.05 * n)))])
        hi = int(v[np.searchsorted(cum, int(np.ceil(0.95 * n)))])
        mean_c = int(np.dot(c, v)) // n
        wins_mean_c = int(np.dot(c, np.clip(v, lo, hi))) // n
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n": [np.int64(n)],
                "p05_c": [np.int64(lo)],
                "p95_c": [np.int64(hi)],
                "mean_c": [np.int64(mean_c)],
                "wins_mean_c": [np.int64(wins_mean_c)],
            }
        )

    return counts.groupby("event_type").map_groups(pick, batch_format="pandas")


SQL_WINSORIZE = """
WITH d AS (
  SELECT event_type, CAST(ROUND(100 * value) AS BIGINT) AS v FROM events
), cut AS (
  SELECT event_type,
         CAST(quantile_disc(v, 0.05) AS BIGINT) AS lo,
         CAST(quantile_disc(v, 0.95) AS BIGINT) AS hi,
         CAST(COUNT(*) AS BIGINT) AS n,
         CAST(SUM(v) AS BIGINT) AS sv
  FROM d GROUP BY event_type
)
SELECT d.event_type, MAX(cut.n) AS n,
       MAX(cut.lo) AS p05_c, MAX(cut.hi) AS p95_c,
       CAST(MAX(cut.sv) // MAX(cut.n) AS BIGINT) AS mean_c,
       CAST(SUM(LEAST(GREATEST(d.v, cut.lo), cut.hi)) // MAX(cut.n)
            AS BIGINT) AS wins_mean_c
FROM d JOIN cut USING (event_type)
GROUP BY d.event_type
"""


def q_grouping_sets(sf_dir: str):
    """GROUPING SETS ((lang, source), (lang), ()) with an explicit
    GROUPING-id column — completes the OLAP trio next to q_cube_agg and
    q_rollup_lineitem, same scale shape: ONE distributed partial pass to
    the finest cells, every requested set re-aggregated from that
    (langs × sources)-bounded table; the corpus is read once."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    base = pre_aggregated_sum(
        ds, keys=["lang", "source"], sums={"n_chars": "sum_chars"},
        count_alias="n_docs",
    ).to_pandas()

    levels = []
    for keys, gid in ((["lang", "source"], 0), (["lang"], 1), ([], 3)):
        lvl = (
            base.groupby(keys, as_index=False)[["sum_chars", "n_docs"]].sum()
            if keys
            else base[["sum_chars", "n_docs"]].sum().to_frame().T
        )
        for filled in ("lang", "source"):
            if filled not in keys:
                lvl[filled] = "ALL"
        lvl["grouping_id"] = gid
        levels.append(
            lvl[["lang", "source", "grouping_id", "sum_chars", "n_docs"]]
        )
    out = pd.concat(levels, ignore_index=True)
    for c in ("grouping_id", "sum_chars", "n_docs"):
        out[c] = out[c].astype("int64")
    return out


SQL_GROUPING_SETS = """
SELECT COALESCE(lang, 'ALL') AS lang,
       COALESCE(source, 'ALL') AS source,
       CAST(GROUPING(lang, source) AS BIGINT) AS grouping_id,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents
GROUP BY GROUPING SETS ((lang, source), (lang), ())
"""


def q_pushdown_scan(sf_dir: str):
    """Scan-level predicate pushdown ("prune at the read"): the row
    filter rides into the pyarrow scanner via ``read_parquet(filter=…)``,
    so row groups whose min/max statistics exclude the predicate are
    never decoded and non-matching rows never enter the object store —
    the difference between scanning 100 TB and scanning the 0.1% that
    matters. Exact-cents output; the oracle states the same predicate."""
    import pyarrow.dataset as pds

    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
        filter=(pds.field("event_type") == "purchase")
        & (pds.field("value") > 300.0),
    )
    return ds.map_batches(
        lambda t: pa.Table.from_pydict(
            {"event_id": t["event_id"], "value_c": _cents(t["value"])}
        ),
        batch_format="pyarrow",
    )


SQL_PUSHDOWN_SCAN = """
SELECT event_id, CAST(ROUND(100 * value) AS BIGINT) AS value_c
FROM events
WHERE event_type = 'purchase' AND value > 300.0
"""


def q_image_pipeline(sf_dir: str):
    """REAL image transform chain, oracle-checked end to end: synthetic
    RGB gradients → PNG encode (cycling filters) → actor-pool decode →
    8×8 nearest thumbnail → PNG RE-ENCODE → second decode → exact channel
    sum. The mid-pipeline re-encode is the artifact a production
    thumbnail job writes back; the closed-form DuckDB twin recomputes the
    sampled pixels, so the hash compare proves the whole
    decode∘resize∘encode∘decode chain is bit-exact. (q_media_pipeline
    remains the disclosed-stub plumbing demo for codecs the sandbox
    can't decode.)"""
    from goose_parser_ray.functions.multimodal import PngThumbRoundtripActor
    from goose_parser_ray.functions.pngmini import encode_png

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 16 + (d & 15)
            h = 16 + ((d >> 4) & 15)
            i = np.arange(h, dtype=np.int64)[:, None, None]
            j = np.arange(w, dtype=np.int64)[None, :, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            img = ((31 * i + 17 * j + 7 * c + d) % 256).astype(np.uint8)
            payloads.append(encode_png(img, filter_mode="cycle"))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    out = ds.map_batches(
        # task pool, not actor pool: setup is an import bind — actor
        # spin-up costs more than it saves (measured on media_png:
        # stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: PngThumbRoundtripActor()(t),
        batch_format="pyarrow",
        batch_size=64,
    )
    return out.select_columns(["doc_id", "width", "height", "thumb_sum"])


SQL_IMAGE_PIPELINE = """
WITH dims AS (
  SELECT doc_id,
         16 + (doc_id & 15) AS width,
         16 + ((doc_id // 16) & 15) AS height
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height,
         (31 * ((a.i * d.height) // 8) + 17 * ((b.j * d.width) // 8)
          + 7 * e.c + d.doc_id) % 256 AS val
  FROM dims d,
       UNNEST(generate_series(0, 7)) AS a(i),
       UNNEST(generate_series(0, 7)) AS b(j),
       UNNEST(generate_series(0, 2)) AS e(c)
)
SELECT doc_id, width, height, CAST(SUM(val) AS BIGINT) AS thumb_sum
FROM pix GROUP BY doc_id, width, height
"""


def q_fk_orphans(sf_dir: str):
    """Referential-integrity audit over the star schema's five FK edges,
    ORACLE-CHECKED: per relationship, exact counts of child rows, orphan
    child rows (FK value absent from the parent), parent rows, and
    childless parents. Scale shape: per relation, child keys are
    map-side pre-aggregated to (key, cnt) partials (shuffle payload is
    DISTINCT keys, never child rows), then ONE full-outer hash join
    against the parent key column; the per-relation rollup of that join
    is another map-side partial sum, so the driver assembles exactly five
    result rows. No row-proportional collect anywhere."""
    from goose_parser_ray.functions.dedup import _default_join_partitions
    from goose_parser_ray.functions.relational import compact_for_join

    rels = [
        ("lineitem->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("orders->customer", "orders", "o_custkey", "customer", "c_custkey"),
        ("customer->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
        ("supplier->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
        ("lineitem->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ]
    np_join = _default_join_partitions()
    out = {
        "relationship": [], "n_child": [], "n_orphan_child": [],
        "n_parent": [], "n_childless_parent": [],
    }
    for name, child, ck, parent, pk in rels:
        ckeys = _read(sf_dir, child, [ck])

        def cnt_partial(t: pa.Table, _ck=ck) -> pa.Table:
            import pandas as pd
            df = pd.DataFrame({"k": t[_ck].to_numpy(zero_copy_only=False)})
            g = df.groupby("k", as_index=False).size()
            return pa.Table.from_pydict(
                {"k": pa.array(g["k"].to_numpy(), pa.int64()),
                 "cnt": pa.array(g["size"].to_numpy(), pa.int64())}
            )

        ccnt = pre_aggregated_sum(
            ckeys.map_batches(cnt_partial, batch_format="pyarrow"),
            keys=["k"], sums={"cnt": "cnt"},
        )
        pkeys = _read(sf_dir, parent, [pk]).map_batches(
            lambda t, _pk=pk: pa.Table.from_pydict(
                {"k": pc.cast(t[_pk], pa.int64()),
                 "one": pa.array(np.ones(t.num_rows, np.int64))}
            ),
            batch_format="pyarrow",
        )
        joined = compact_for_join(ccnt, np_join).join(
            compact_for_join(pkeys, np_join),
            join_type="full_outer", num_partitions=np_join,
            on=("k",), right_on=("k",), right_suffix="_p",
        )

        def roll(t: pa.Table) -> pa.Table:
            cnt = pc.fill_null(t["cnt"], 0).to_numpy(zero_copy_only=False)
            par = pc.fill_null(t["one"], 0).to_numpy(zero_copy_only=False)
            return pa.Table.from_pydict(
                {
                    "n_child": [int(cnt.sum())],
                    "n_orphan_child": [int(cnt[par == 0].sum())],
                    "n_parent": [int(par.sum())],
                    "n_childless_parent": [int(((cnt == 0) & (par == 1)).sum())],
                }
            )

        # roll emits ONE row per joined block — the driver sums a stream
        # bounded by block count, never by row count.
        sums = joined.map_batches(roll, batch_format="pyarrow").to_pandas()
        out["relationship"].append(name)
        for c in ("n_child", "n_orphan_child", "n_parent",
                  "n_childless_parent"):
            out[c].append(int(sums[c].sum()))
    return pa.Table.from_pydict(
        {k: pa.array(v) for k, v in out.items()}
    )


SQL_FK_ORPHANS = """
WITH rel AS (
  SELECT 'lineitem->orders' AS relationship,
         (SELECT COUNT(*) FROM lineitem) AS n_child,
         (SELECT COUNT(*) FROM lineitem l LEFT JOIN orders o
            ON l.l_orderkey = o.o_orderkey WHERE o.o_orderkey IS NULL)
           AS n_orphan_child,
         (SELECT COUNT(*) FROM orders) AS n_parent,
         (SELECT COUNT(*) FROM orders o LEFT JOIN
            (SELECT DISTINCT l_orderkey FROM lineitem) l
            ON o.o_orderkey = l.l_orderkey WHERE l.l_orderkey IS NULL)
           AS n_childless_parent
  UNION ALL
  SELECT 'orders->customer',
         (SELECT COUNT(*) FROM orders),
         (SELECT COUNT(*) FROM orders o LEFT JOIN customer c
            ON o.o_custkey = c.c_custkey WHERE c.c_custkey IS NULL),
         (SELECT COUNT(*) FROM customer),
         (SELECT COUNT(*) FROM customer c LEFT JOIN
            (SELECT DISTINCT o_custkey FROM orders) o
            ON c.c_custkey = o.o_custkey WHERE o.o_custkey IS NULL)
  UNION ALL
  SELECT 'customer->nation',
         (SELECT COUNT(*) FROM customer),
         (SELECT COUNT(*) FROM customer c LEFT JOIN nation n
            ON c.c_nationkey = n.n_nationkey WHERE n.n_nationkey IS NULL),
         (SELECT COUNT(*) FROM nation),
         (SELECT COUNT(*) FROM nation n LEFT JOIN
            (SELECT DISTINCT c_nationkey FROM customer) c
            ON n.n_nationkey = c.c_nationkey WHERE c.c_nationkey IS NULL)
  UNION ALL
  SELECT 'supplier->nation',
         (SELECT COUNT(*) FROM supplier),
         (SELECT COUNT(*) FROM supplier s LEFT JOIN nation n
            ON s.s_nationkey = n.n_nationkey WHERE n.n_nationkey IS NULL),
         (SELECT COUNT(*) FROM nation),
         (SELECT COUNT(*) FROM nation n LEFT JOIN
            (SELECT DISTINCT s_nationkey FROM supplier) s
            ON n.n_nationkey = s.s_nationkey WHERE s.s_nationkey IS NULL)
  UNION ALL
  SELECT 'lineitem->part',
         (SELECT COUNT(*) FROM lineitem),
         (SELECT COUNT(*) FROM lineitem l LEFT JOIN part p
            ON l.l_partkey = p.p_partkey WHERE p.p_partkey IS NULL),
         (SELECT COUNT(*) FROM part),
         (SELECT COUNT(*) FROM part p LEFT JOIN
            (SELECT DISTINCT l_partkey FROM lineitem) l
            ON p.p_partkey = l.l_partkey WHERE l.l_partkey IS NULL)
)
SELECT relationship,
       CAST(n_child AS BIGINT) AS n_child,
       CAST(n_orphan_child AS BIGINT) AS n_orphan_child,
       CAST(n_parent AS BIGINT) AS n_parent,
       CAST(n_childless_parent AS BIGINT) AS n_childless_parent
FROM rel
"""


def q_integrity_audit(sf_dir: str):
    """Bit-rot / integrity verification pass, ORACLE-CHECKED: every doc's
    payload carries the CRC32 computed at WRITE time; afterwards every
    23rd-ish payload (doc_id % 23 == 5) suffers a single flipped byte —
    the silent-corruption model a petabyte store audits for. The verify
    stage recomputes zlib.crc32 over the actual bytes and compares; a
    single-byte flip always changes CRC32, so the flag is deterministic.
    The twin states the expected verdict closed-form from the planted
    corruption rule, so the hash compare certifies the auditor found
    EXACTLY the corrupted rows (no false alarms, no misses). Scale
    shape: map-only, CRC at C speed per row, no shuffle."""
    import zlib

    def audit(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        oks, sizes = [], []
        for d, txt in zip(ids, t["text"].to_pylist()):
            payload = (txt or "").encode("utf-8")
            stored = zlib.crc32(payload)
            if d % 23 == 5 and payload:
                payload = (
                    bytes([payload[0] ^ 0xFF]) + payload[1:]
                )  # post-write corruption
            oks.append(zlib.crc32(payload) == stored)
            sizes.append(len(payload))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_bytes": pa.array(sizes, pa.int64()),
                "crc_ok": pa.array(oks, pa.bool_()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        audit, batch_format="pyarrow"
    )


SQL_INTEGRITY_AUDIT = """
SELECT doc_id,
       CAST(strlen(text) AS BIGINT) AS n_bytes,
       NOT (doc_id % 23 = 5 AND strlen(text) > 0) AS crc_ok
FROM documents
"""
