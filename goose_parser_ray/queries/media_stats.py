"""Media codecs + robust stats: line dedup, WAV/PNG/PDF/spectrum, grouped quantiles, KS, autocorr, URL canonicalization, Benford, EWMA, entropy, Mann-Whitney, attribution, TWAP, survival, Gini.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.functions.relational import pre_aggregated_sum

from goose_parser_ray.queries._shared import _cents, _pool, _read


def q_line_dedup(sf_dir: str):
    """RefinedWeb-style duplicated-passage REMOVAL (the rewrite step that
    `dup_chunks` only signals), ORACLE-CHECKED: split every doc into
    non-overlapping 8-word segments, drop every segment that occurs in ≥2
    distinct documents, and REASSEMBLE each doc from its surviving segments
    in original order. Two honest shuffles: segments hash-bucket by content
    (data-proportional count) for the distinct-doc tally, then regroup by
    doc for the rebuild. All string surgery is Arrow-vectorized — the
    segment texts come from ONE ``pc.binary_join`` over an offset-sliced
    flat word array (no per-row join), and the rebuild joins kept segments
    the same way."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import (
        add_hash_bucket,
        num_shuffle_buckets,
    )

    SEG = 8
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    nb = num_shuffle_buckets(ds.count() * 32)  # ≈ segments per doc bound

    def segments(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # empty block: the [0]-seeded starts array
            # would mismatch the zero-length repeat counts below
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "seg_no": pa.array([], pa.int64()),
                    "seg": pa.array([], pa.string()),
                    "__b": pa.array([], pa.int64()),
                }
            )
        words = pc.split_pattern(t["text"], " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        counts = counts.astype(np.int64)
        flat = pc.list_flatten(words)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_segs = (counts + SEG - 1) // SEG
        doc_ends = np.cumsum(counts)
        doc_starts = np.concatenate([[0], doc_ends[:-1]])
        total_segs = int(n_segs.sum())
        seg_doc_start = np.repeat(
            np.concatenate([[0], np.cumsum(n_segs)[:-1]]), n_segs
        )
        seg_idx = np.arange(total_segs, dtype=np.int64) - seg_doc_start
        seg_starts = np.repeat(doc_starts, n_segs) + SEG * seg_idx
        offsets = np.concatenate(
            [seg_starts, [doc_ends[-1] if len(doc_ends) else 0]]
        )
        seg_list = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
        out = pa.Table.from_pydict(
            {
                "doc_id": pa.array(
                    np.repeat(t["doc_id"].to_numpy(), n_segs)
                ),
                "seg_no": pa.array(seg_idx),
                "seg": pc.binary_join(seg_list, " "),
            }
        )
        return add_hash_bucket(out, "seg", nb)

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        docs_with = g.groupby("seg")["doc_id"].transform("nunique")
        out = g[["doc_id", "seg_no", "seg"]].copy()
        out["dup"] = (docs_with > 1).astype("int64")
        return out

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "seg_no"], kind="mergesort")
        stats = (
            g.groupby("doc_id", sort=True)
            .agg(n_segs=("seg", "size"), n_removed=("dup", "sum"))
            .reset_index()
        )
        kept = g[g["dup"] == 0]
        if len(kept):
            docs = kept["doc_id"].to_numpy()
            change = np.flatnonzero(np.diff(docs)) + 1
            offsets = np.concatenate([[0], change, [len(docs)]])
            seg_arr = pa.array(kept["seg"], pa.string())
            joined = pc.binary_join(
                pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), seg_arr),
                " ",
            )
            clean = pd.DataFrame(
                {"doc_id": docs[offsets[:-1]], "clean_text": joined.to_pandas()}
            )
        else:
            clean = pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "clean_text": pd.Series([], dtype=object),
                }
            )
        out = stats.merge(clean, on="doc_id", how="left")
        out["clean_text"] = out["clean_text"].fillna("")
        return out[["doc_id", "clean_text", "n_segs", "n_removed"]]

    marked = (
        ds.map_batches(segments, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(mark, batch_format="pandas")
        .map_batches(
            lambda t: add_hash_bucket(t, "doc_id", nb, out="__db"),
            batch_format="pyarrow",
        )
    )
    return marked.groupby("__db").map_groups(rebuild, batch_format="pandas")


SQL_LINE_DEDUP = """
WITH w AS (
  SELECT doc_id,
         unnest(string_split(text, ' ')) AS word,
         unnest(range(len(string_split(text, ' ')))) AS ord
  FROM documents
), seg AS (
  SELECT doc_id, ord // 8 AS seg_no,
         string_agg(word, ' ' ORDER BY ord) AS seg
  FROM w GROUP BY doc_id, ord // 8
), dup AS (
  SELECT seg, COUNT(DISTINCT doc_id) AS docs_with FROM seg GROUP BY seg
)
SELECT s.doc_id,
       COALESCE(string_agg(CASE WHEN d.docs_with < 2 THEN s.seg END,
                           ' ' ORDER BY s.seg_no), '') AS clean_text,
       CAST(COUNT(*) AS BIGINT) AS n_segs,
       CAST(SUM(CASE WHEN d.docs_with >= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_removed
FROM seg s JOIN dup d USING (seg)
GROUP BY s.doc_id
"""


def q_grouped_quantiles(sf_dir: str):
    """Exact per-group quantile BANDS (p25/p50/p75/p90) computed the way
    that still works at 10¹² rows: instead of sorting each group's raw
    values (q_quantiles — group payload grows with the corpus), aggregate
    to per-(lang, value) COUNTS first — the partial/combiner shuffle moves
    at most |langs| × |value domain| rows no matter the corpus size — then
    pick each quantile closed-form from the per-lang cumulative counts.
    Same quantile_disc definition as DuckDB (smallest v with
    cum(v) ≥ ⌈q·n⌉)."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    counts = pre_aggregated_sum(
        ds, keys=["lang", "n_chars"], sums={}, count_alias="cnt"
    )

    QS = [("p25", 0.25), ("p50", 0.50), ("p75", 0.75), ("p90", 0.90)]

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("n_chars", kind="mergesort")
        cum = g["cnt"].cumsum().to_numpy()
        vals = g["n_chars"].to_numpy()
        n = int(cum[-1])
        row = {"lang": [g["lang"].iloc[0]], "n_docs": [np.int64(n)]}
        for name, q in QS:
            target = int(np.ceil(q * n))
            row[name] = [np.int64(vals[np.searchsorted(cum, target)])]
        return pd.DataFrame(row)

    return counts.groupby("lang").map_groups(pick, batch_format="pandas")


SQL_GROUPED_QUANTILES = """
SELECT lang, COUNT(*) AS n_docs,
       CAST(quantile_disc(n_chars, 0.25) AS BIGINT) AS p25,
       CAST(quantile_disc(n_chars, 0.50) AS BIGINT) AS p50,
       CAST(quantile_disc(n_chars, 0.75) AS BIGINT) AS p75,
       CAST(quantile_disc(n_chars, 0.90) AS BIGINT) AS p90
FROM documents GROUP BY lang
"""


def q_geo_mean(sf_dir: str):
    """Per-group GEOMETRIC mean (the right average for multiplicative
    quantities like doc-length ratios) under the repo's fixed-point log
    discipline: each ln(n_chars) is e6-rounded per element and summed as
    int64 (exact in any order — same recipe as bm25/nb_classify), so the
    distributed sum hash-matches the SQL twin; ONE scalar exp per group at
    the end mirrors the twin's float op order."""

    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def ln_e6(t: pa.Table) -> pa.Table:
        # positive-domain guard matches the SQL twin's WHERE: DuckDB LN(0)
        # raises while numpy yields -inf — filter both sides identically
        t = t.filter(pc.greater(t["n_chars"], pa.scalar(0, pa.int64())))
        x = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)
        ln = np.floor(np.log(x) * 1e6 + 0.5).astype(np.int64)
        return pa.Table.from_pydict({"lang": t["lang"], "ln_e6": pa.array(ln)})

    agg = pre_aggregated_sum(
        ds.map_batches(ln_e6, batch_format="pyarrow"),
        keys=["lang"], sums={"ln_e6": "sum_ln_e6"}, count_alias="n_docs",
    )

    def finish(t: pa.Table) -> pa.Table:
        s = t["sum_ln_e6"].to_numpy(zero_copy_only=False).astype(np.float64)
        n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.float64)
        gm = np.floor(np.exp(s / 1e6 / n) * 100 + 0.5).astype(np.int64)
        return t.append_column("geo_mean_c2", pa.array(gm))

    return agg.map_batches(finish, batch_format="pyarrow")


SQL_GEO_MEAN = """
SELECT lang,
       CAST(SUM(CAST(ROUND(LN(n_chars) * 1000000) AS BIGINT)) AS BIGINT)
           AS sum_ln_e6,
       COUNT(*) AS n_docs,
       CAST(ROUND(EXP(SUM(CAST(ROUND(LN(n_chars) * 1000000) AS BIGINT))
                      / 1000000.0 / COUNT(*)) * 100) AS BIGINT)
           AS geo_mean_c2
FROM documents WHERE n_chars > 0 GROUP BY lang
"""


def q_window_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per hopping window (1h window / 30min
    hop) — the dedup-WITHIN-window shape the plain hopping aggregate can't
    express (distinct is not a sum). Two bounded stages: fan-out →
    per-(window, user) dedup via the map-side-combined count aggregate
    (its output is the distinct pair set), then a second rollup counts
    pairs per window. Both exchanges move per-key partials only; no raw
    event ever shuffles twice."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def fan_out(t: pa.Table) -> pa.Table:
        base = pc.floor_temporal(t["ts"], multiple=30, unit="minute")
        prev = pc.subtract(
            base, pa.scalar(1_800_000_000, pa.duration("us"))
        )
        users = pa.concat_arrays([pc.cast(t["user_id"], pa.int64()).combine_chunks()] * 2)
        starts = pa.concat_arrays(
            [base.combine_chunks(), prev.combine_chunks()]
        )
        win = pc.strftime(starts, "%Y-%m-%d %H:%M:00")
        return pa.Table.from_arrays([win, users], names=["win_start", "user_id"])

    pairs = pre_aggregated_sum(
        ds.map_batches(fan_out, batch_format="pyarrow"),
        keys=["win_start", "user_id"], sums={}, count_alias="__n",
    ).drop_columns(["__n"])
    return pre_aggregated_sum(
        pairs, keys=["win_start"], sums={}, count_alias="n_users"
    )


SQL_WINDOW_DISTINCT_USERS = """
WITH w AS (
  SELECT user_id,
         unnest([date_trunc('minute', ts) - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE,
                 date_trunc('minute', ts) - INTERVAL (EXTRACT(minute FROM ts)::INT % 30) MINUTE - INTERVAL 30 MINUTE]) AS ws
  FROM events
)
SELECT strftime(ws, '%Y-%m-%d %H:%M:00') AS win_start,
       COUNT(DISTINCT user_id) AS n_users
FROM w GROUP BY 1
"""


def q_phrase_search(sf_dir: str):
    """Exact PHRASE search (consecutive-word match) through positional
    postings — the IR operator `postings`/`bm25` can't express (bag-of-words
    scoring ignores adjacency). One pass explodes (doc, position) rows for
    the PHRASE TERMS ONLY (map-side filter — the exchange carries the three
    terms' postings, not the corpus); every candidate row re-aligns to its
    implied phrase START (pos − term_index), and a start with all three
    terms present is a match — a per-(doc, start) count==3 test, vectorized
    per doc bucket. Requires distinct phrase words (one row per word per
    position); repeated-word phrases would need per-term multiplicity."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import (
        add_hash_bucket,
        num_shuffle_buckets,
    )

    PHRASE = ["slow", "hash", "batch"]
    terms = pa.array(PHRASE)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    nb = num_shuffle_buckets(ds.count())

    def positions(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:  # empty block: see q_line_dedup.segments
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "start": pa.array([], pa.int64()),
                    "term": pa.array([], pa.int64()),
                    "__b": pa.array([], pa.int64()),
                }
            )
        words = pc.split_pattern(t["text"], " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        counts = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        counts = counts.astype(np.int64)
        flat = pc.list_flatten(words)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        ords = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            starts, counts
        )
        docs = np.repeat(t["doc_id"].to_numpy(), counts)
        tidx = pc.index_in(flat, value_set=terms)
        keep = pc.is_valid(tidx).to_numpy(zero_copy_only=False)
        tidx_np = tidx.to_numpy(zero_copy_only=False)[keep].astype(np.int64)
        out = pa.Table.from_pydict(
            {
                "doc_id": pa.array(docs[keep]),
                # phrase start this occurrence would imply
                "start": pa.array(ords[keep] - tidx_np),
                "term": pa.array(tidx_np),
            }
        )
        return add_hash_bucket(out, "doc_id", nb, out="__b")

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        # distinct phrase words → one row per (doc, start, term); a start
        # holding all 3 terms is a complete phrase occurrence
        hits = (
            g.groupby(["doc_id", "start"], sort=False)["term"]
            .size()
            .reset_index(name="k")
        )
        hits = hits[hits["k"] == len(PHRASE)]
        out = hits.groupby("doc_id", sort=False).size().reset_index(
            name="n_matches"
        )
        out["n_matches"] = out["n_matches"].astype("int64")
        return out

    return (
        ds.map_batches(positions, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(verify, batch_format="pandas")
    )


SQL_PHRASE_SEARCH = """
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word,
         unnest(range(len(string_split(text, ' ')))) AS ord
  FROM documents
)
SELECT a.doc_id, COUNT(*) AS n_matches
FROM w a
JOIN w b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
JOIN w c ON a.doc_id = c.doc_id AND c.ord = a.ord + 2
WHERE a.word = 'slow' AND b.word = 'hash' AND c.word = 'batch'
GROUP BY a.doc_id
"""


def q_ks_test(sf_dir: str):
    """Two-sample Kolmogorov–Smirnov distance between the click and error
    value distributions, ORACLE-CHECKED with pure-integer arithmetic:
    D = max_v |F₁(v)·n₂ − F₂(v)·n₁| / (n₁·n₂) over the cents-quantized
    value domain, so the numerator is an exact BIGINT prefix extremum and
    ``d_e6 = max·1e6 // (n1·n2)`` matches DuckDB ``//`` with no float
    anywhere (valid while n₁·n₂ < 2⁶³ — beyond that the statistic itself
    needs fewer than e6 digits anyway).

    Scale shape: the exchange is bounded by the score DOMAIN (map-side
    combine → grouped (v, n_click, n_error)); both CDFs ride ONE
    distributed range-bucketed scan by folding them into the signed
    per-group weight w = c₁·n₂ − c₂·n₁, whose max |inclusive prefix sum|
    IS the KS numerator."""
    import pandas as pd

    from goose_parser_ray.functions.packing import global_scan_offsets

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(["click", "error"]))
        t = t.filter(keep)
        v = _cents(t["value"]).to_numpy(zero_copy_only=False)
        pos = (
            pc.equal(t["event_type"], "click")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        g = pd.DataFrame({"v": v, "p": pos}).groupby("v", sort=False).agg(
            c1=("p", "sum"), c=("p", "size")
        )
        return pa.Table.from_pydict(
            {
                "v": g.index.to_numpy(np.int64),
                "c1": g["c1"].to_numpy(np.int64),
                "c2": (g["c"] - g["c1"]).to_numpy(np.int64),
            }
        )

    grouped = pre_aggregated_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["v"],
        sums={"c1": "c1", "c2": "c2"},
    ).materialize()  # consumed 3× (totals + scan passes); domain-bounded small
    n_groups = max(1, grouped.count())
    tot = grouped.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "n1": [int(pc.sum(t["c1"]).as_py() or 0)],
                "n2": [int(pc.sum(t["c2"]).as_py() or 0)],
            }
        ),
        batch_format="pyarrow",
    ).to_pandas()
    n1, n2 = int(tot["n1"].sum()), int(tot["n2"].sum())

    def weight(t: pa.Table) -> pa.Table:
        c1 = t["c1"].to_numpy(zero_copy_only=False)
        c2 = t["c2"].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict({"v": t["v"], "w": c1 * n2 - c2 * n1})

    scanned = global_scan_offsets(
        grouped.map_batches(weight, batch_format="pyarrow"),
        order_col="v",
        size_col="w",
        offset_col="w_before",
        n_rows=n_groups,
    )

    def local_max(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy(zero_copy_only=False)
        wb = t["w_before"].to_numpy(zero_copy_only=False)
        m = int(np.abs(wb + w).max()) if len(w) else 0
        return pa.Table.from_pydict({"m": [m]})

    parts = scanned.map_batches(local_max, batch_format="pyarrow").to_pandas()
    d_num = int(parts["m"].max()) if len(parts) else 0
    return pa.Table.from_pydict(
        {
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "d_e6": pa.array([d_num * 1_000_000 // max(1, n1 * n2)], pa.int64()),
        }
    )


SQL_KS_TEST = """
WITH s AS (
  SELECT CAST(ROUND(100 * value) AS BIGINT) AS v,
         CASE WHEN event_type = 'click' THEN 1 ELSE 0 END AS pos
  FROM events WHERE event_type IN ('click', 'error')
),
g AS (
  SELECT v, CAST(SUM(pos) AS BIGINT) AS c1,
         CAST(SUM(1 - pos) AS BIGINT) AS c2
  FROM s GROUP BY v
),
n AS (SELECT CAST(SUM(c1) AS BIGINT) AS n1, CAST(SUM(c2) AS BIGINT) AS n2 FROM g),
c AS (
  SELECT CAST(SUM(c1 * (SELECT n2 FROM n) - c2 * (SELECT n1 FROM n))
              OVER (ORDER BY v) AS BIGINT) AS f
  FROM g
)
SELECT n1, n2,
       CAST((SELECT MAX(ABS(f)) FROM c) * 1000000 // (n1 * n2) AS BIGINT) AS d_e6
FROM n
"""


def q_autocorr(sf_dir: str):
    """Pooled lag-1 autocorrelation of event values (per-user LAG pairs),
    ORACLE-CHECKED. Values quantize to integer units so every moment
    (n, Σx, Σy, Σxy, Σx², Σy²) stays below 2⁵³ at compare scale — the
    BIGINT→DOUBLE casts are then EXACT on both sides and the single float
    expression (corr_e6 via sqrt) is mirrored op-for-op, so FLOOR lands
    identically (IEEE mult/div/sqrt are correctly rounded).

    Scale shape: the user_deltas machinery — hash-bucketed users with
    data-proportional bucket count, one vectorized sort+shift per bucket,
    then six integer partials per bucket to the driver (exact in any
    accumulation order)."""
    import math

    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["user_id"], t["ts"], t["event_id"], _cents(t["value"], 1)],
            names=["user_id", "ts", "event_id", "v"],
        )
        return _dedup.add_hash_bucket(t, "user_id", nb, "__db")

    def moments(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id")["v"].shift()
        mask = prev.notna()
        x = prev[mask].to_numpy(np.int64)
        y = g.loc[mask, "v"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "n": [len(x)],
                "sx": [int(x.sum())],
                "sy": [int(y.sum())],
                "sxy": [int((x * y).sum())],
                "sxx": [int((x * x).sum())],
                "syy": [int((y * y).sum())],
            }
        )

    parts = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(moments, batch_format="pandas")
        .to_pandas()
    )
    n = int(parts["n"].sum())
    sx, sy = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxy = int(parts["sxy"].sum())
    sxx, syy = int(parts["sxx"].sum()), int(parts["syy"].sum())
    num = n * sxy - sx * sy
    denx, deny = n * sxx - sx * sx, n * syy - sy * sy
    if denx * deny == 0:
        corr_e6 = 0
    else:
        corr_e6 = int(
            math.floor(
                float(num) * 1000000.0 / math.sqrt(float(denx) * float(deny))
            )
        )
    return pa.Table.from_pydict(
        {
            "n_pairs": pa.array([n], pa.int64()),
            "corr_e6": pa.array([corr_e6], pa.int64()),
        }
    )


SQL_AUTOCORR = """
WITH d AS (
  SELECT user_id,
         CAST(ROUND(value) AS BIGINT) AS y,
         LAG(CAST(ROUND(value) AS BIGINT)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS x
  FROM events
),
p AS (SELECT x, y FROM d WHERE x IS NOT NULL),
m AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
             SUM(x * y) AS sxy, SUM(x * x) AS sxx, SUM(y * y) AS syy
      FROM p)
SELECT CAST(n AS BIGINT) AS n_pairs,
       CAST(CASE WHEN (n * sxx - sx * sx) * (n * syy - sy * sy) = 0 THEN 0
            ELSE FLOOR(CAST(n * sxy - sx * sy AS DOUBLE) * 1000000.0
                 / SQRT(CAST(n * sxx - sx * sx AS DOUBLE)
                        * CAST(n * syy - sy * sy AS DOUBLE)))
            END AS BIGINT) AS corr_e6
FROM m
"""


def q_url_canonical(sf_dir: str):
    """URL canonicalization dedup (the crawl-curation step BEFORE content
    dedup): synthesize a deterministically messy URL per document
    (scheme/host case noise, www. subdomain, :443 default port, trailing
    path slash, utm_* tracking params, #fragment), canonicalize it with
    the exact same six-step vectorized string pipeline the DuckDB twin
    runs (lower → strip fragment → strip utm params → fold :443 →
    fold www. → fold path slash), and group to (canonical url, n_docs,
    first_doc). The kept-group membership is hash-compared, so the oracle
    guards every canonicalization rule. Map-side partial combine bounds
    the exchange at (distinct canonical URLs) × blocks."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def _mod(col, m: int):
        # Arrow has no modulo kernel; id - (id // m) * m (ids non-negative)
        return pc.subtract(
            col, pc.multiply(pc.divide(col, m), pa.scalar(m, pa.int64()))
        )

    def synth_and_canon(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        m2, m3 = _mod(d, 2), _mod(d, 3)
        m4, m5, m7 = _mod(d, 4), _mod(d, 5), _mod(d, 7)
        empty = pa.scalar("")
        url = pc.binary_join_element_wise(
            pc.if_else(pc.equal(m2, 0), pa.scalar("HTTPS://"), pa.scalar("https://")),
            pc.if_else(pc.equal(m3, 0), pa.scalar("www."), empty),
            pc.if_else(pc.equal(m2, 0), pc.utf8_upper(t["source"]), t["source"]),
            pa.scalar(".EXAMPLE.com"),
            pc.if_else(pc.equal(m5, 0), pa.scalar(":443"), empty),
            pa.scalar("/p/"),
            pc.cast(m5, pa.string()),
            pc.if_else(pc.equal(m4, 0), pa.scalar("/"), empty),
            pa.scalar("?id="),
            pc.cast(m3, pa.string()),
            pc.if_else(
                pc.equal(m2, 0),
                pa.scalar("&utm_source=feed&utm_medium=rss"),
                empty,
            ),
            pc.if_else(pc.equal(m7, 0), pa.scalar("#frag"), empty),
            "",
        )
        # six canonicalization steps, op-for-op the SQL twin's order
        u = pc.utf8_lower(url)
        u = pc.replace_substring_regex(u, pattern="#.*$", replacement="")
        u = pc.replace_substring_regex(
            u, pattern="&utm_[a-z]+=[a-z]+", replacement=""
        )
        u = pc.replace_substring(u, pattern=":443/", replacement="/")
        u = pc.replace_substring(u, pattern="://www.", replacement="://")
        u = pc.replace_substring(u, pattern="/?id=", replacement="?id=")
        return pa.Table.from_pydict({"url": u, "doc_id": d})

    def partial(t: pa.Table) -> pa.Table:
        g = (
            t.to_pandas()
            .groupby("url", sort=False)
            .agg(n=("doc_id", "size"), mn=("doc_id", "min"))
        )
        # from_pydict, not from_pandas: pandas metadata makes the schema
        # unhashable for Ray's shuffle-side schema dedup (warn-spam)
        return pa.Table.from_pydict(
            {
                "url": pa.array(g.index, pa.string()),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "mn": pa.array(g["mn"].to_numpy(np.int64)),
            }
        )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("url", sort=False).agg(
            n_docs=("n", "sum"), first_doc=("mn", "min")
        )
        return out.reset_index().astype({"n_docs": "int64", "first_doc": "int64"})

    return (
        ds.map_batches(synth_and_canon, batch_format="pyarrow")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("url")
        .map_groups(merge, batch_format="pandas")
    )


SQL_URL_CANONICAL = """
WITH u AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 2 = 0 THEN 'HTTPS://' ELSE 'https://' END)
         || (CASE WHEN doc_id % 3 = 0 THEN 'www.' ELSE '' END)
         || (CASE WHEN doc_id % 2 = 0 THEN UPPER(source) ELSE source END)
         || '.EXAMPLE.com'
         || (CASE WHEN doc_id % 5 = 0 THEN ':443' ELSE '' END)
         || '/p/' || CAST(doc_id % 5 AS VARCHAR)
         || (CASE WHEN doc_id % 4 = 0 THEN '/' ELSE '' END)
         || '?id=' || CAST(doc_id % 3 AS VARCHAR)
         || (CASE WHEN doc_id % 2 = 0
             THEN '&utm_source=feed&utm_medium=rss' ELSE '' END)
         || (CASE WHEN doc_id % 7 = 0 THEN '#frag' ELSE '' END) AS url
  FROM documents
),
c AS (
  SELECT doc_id,
         REPLACE(REPLACE(REPLACE(
           REGEXP_REPLACE(
             REGEXP_REPLACE(LOWER(url), '#.*$', ''),
             '&utm_[a-z]+=[a-z]+', '', 'g'),
           ':443/', '/'), '://www.', '://'), '/?id=', '?id=') AS url
  FROM u
)
SELECT url, COUNT(*) AS n_docs, CAST(MIN(doc_id) AS BIGINT) AS first_doc
FROM c GROUP BY url
"""


def q_sentence_stats(sf_dir: str):
    """Sentence segmentation statistics per language, ORACLE-CHECKED. The
    corpus is synthetic word soup with no punctuation, so both sides first
    punctuate deterministically (REPLACE ' table ' → '. ' — sequential
    non-overlapping left-to-right in Arrow and DuckDB alike), then split
    on '[.!?]+' (RE2 in both engines), trim SPACES only (DuckDB TRIM
    strips ' ', so the engine uses utf8_trim(' ') rather than the
    all-whitespace kernel), drop empties, and aggregate (lang →
    n_sentences, sum_chars). Fully vectorized: list_flatten +
    list_parent_indices fan-out, map-side combine, tiny lang-domain
    shuffle."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        punct = pc.replace_substring(
            t["text"], pattern=" table ", replacement=". "
        )
        parts = pc.split_pattern_regex(punct, pattern="[.!?]+")
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        idx = pc.list_parent_indices(parts)
        flat = pc.utf8_trim(pc.list_flatten(parts), characters=" ")
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        lang = pc.take(t["lang"], idx).filter(keep)
        g = pd.DataFrame(
            {
                "lang": lang.to_pandas(),
                "len": pc.utf8_length(flat).to_numpy(zero_copy_only=False),
            }
        ).groupby("lang", sort=False)["len"].agg(["size", "sum"])
        return pa.Table.from_pydict(
            {
                "lang": pa.array(g.index, pa.string()),
                "n_sentences": pa.array(g["size"].to_numpy(np.int64)),
                "sum_chars": pa.array(g["sum"].to_numpy(np.int64)),
            }
        )

    return pre_aggregated_sum(
        ds.map_batches(partial, batch_format="pyarrow"),
        keys=["lang"],
        sums={"n_sentences": "n_sentences", "sum_chars": "sum_chars"},
    )


SQL_SENTENCE_STATS = """
WITH p AS (
  SELECT lang, REPLACE(text, ' table ', '. ') AS text FROM documents
),
s AS (
  SELECT lang, TRIM(x) AS sent
  FROM (
    SELECT lang, UNNEST(regexp_split_to_array(text, '[.!?]+')) AS x FROM p
  )
  WHERE TRIM(x) <> ''
)
SELECT lang,
       COUNT(*) AS n_sentences,
       CAST(SUM(LENGTH(sent)) AS BIGINT) AS sum_chars
FROM s GROUP BY lang
"""


def q_blocklist_filter(sf_dir: str):
    """Blocklist screening (the C4/RefinedWeb banned-term gate): count
    occurrences of any blocklist term per document with ONE compiled RE2
    alternation pass (scales to thousands of terms at constant scan
    count, vs one pass per term), keep offending docs. Leftmost
    non-overlapping match semantics are identical in Arrow's RE2 and
    DuckDB's regexp_extract_all, so the oracle hash-compares the full
    (doc_id, n_matches) membership."""
    pattern = "(?:spark|vector|stream)"
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def screen(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t["text"], pattern=pattern)
        out = pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "n_matches": pc.cast(n, pa.int64())}
        )
        return out.filter(pc.greater(out["n_matches"], 0))

    return ds.map_batches(screen, batch_format="pyarrow")


SQL_BLOCKLIST_FILTER = """
SELECT doc_id,
       CAST(LEN(regexp_extract_all(text, '(?:spark|vector|stream)'))
            AS BIGINT) AS n_matches
FROM documents
WHERE LEN(regexp_extract_all(text, '(?:spark|vector|stream)')) > 0
"""


def q_k_anonymize(sf_dir: str):
    """k-anonymity suppression (privacy gate before corpus release):
    drop every document whose quasi-identifier combination
    (lang, source) is shared by fewer than K=4 documents. Shape is
    broadcast-filter, not shuffle: per-batch partial counts feed a tiny
    (lang, source) groupby, the surviving key set is ``ray.put`` once,
    and each batch filters map-side with a vectorized ``is_in`` — the
    corpus itself never moves. Oracle is the window-count QUALIFY twin."""
    import pandas as pd

    K = 4
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source"])

    def partial_counts(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(t["lang"], t["source"], "|")
        vc = pa.chunked_array([key]).combine_chunks().value_counts()
        return pa.Table.from_pydict(
            {
                "key": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("key")
        .sum("n")
        .take_all()
    )  # one row per distinct (lang, source) — tiny at any corpus size
    kept = pa.array(
        sorted(r["key"] for r in counts if r["sum(n)"] >= K), pa.string()
    )
    kept_ref = ray.put(kept)

    def suppress(t: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(t["lang"], t["source"], "|")
        mask = pc.is_in(key, value_set=ray.get(kept_ref))
        return t.filter(mask)

    return ds.map_batches(suppress, batch_format="pyarrow")


SQL_K_ANONYMIZE = """
SELECT doc_id, lang, source FROM (
  SELECT doc_id, lang, source,
         COUNT(*) OVER (PARTITION BY lang, source) AS n
  FROM documents
) WHERE n >= 4
"""


def _benford_e6() -> dict[int, int]:
    """log10(1 + 1/d) in e6 fixed point — the Benford first-digit law.
    Computed once here and formatted as literals into the SQL twin so
    engine and oracle share identical constants by construction."""
    import math

    return {d: round(math.log10(1.0 + 1.0 / d) * 1_000_000) for d in range(1, 10)}


def q_benford(sf_dir: str):
    """Benford first-digit screen (fraud/synthetic-data detector for a
    numeric column): first digit of the order total in integer cents,
    observed count per digit alongside the Benford-law expectation in
    e6 fixed point (``n_total * round(log10(1+1/d)*1e6)`` — integer on
    both sides, no float drift). Digit extraction is one vectorized
    cast→slice pass; the count is a 9-group aggregate of map-side
    partials."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])
    n_total = ds.count()  # metadata-only row count
    consts = _benford_e6()

    def digits(t: pa.Table) -> pa.Table:
        cents = _cents(t["o_totalprice"])
        d = pc.cast(
            pc.utf8_slice_codeunits(pc.cast(cents, pa.string()), 0, 1), pa.int64()
        )
        vc = pa.chunked_array([d]).combine_chunks().value_counts()
        return pa.Table.from_pydict(
            {
                "digit": vc.field("values"),
                "n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    def finalize(t: pa.Table) -> pa.Table:
        exp = pa.array(
            [n_total * consts[d] for d in t["digit"].to_pylist()], pa.int64()
        )
        return pa.Table.from_pydict(
            {"digit": t["digit"], "n_obs": t["sum(n)"], "exp_e6": exp}
        )

    return (
        ds.map_batches(digits, batch_format="pyarrow")
        .groupby("digit")
        .sum("n")
        .map_batches(finalize, batch_format="pyarrow")
    )


SQL_BENFORD = f"""
WITH d AS (
  SELECT CAST(SUBSTR(CAST(CAST(ROUND(100 * o_totalprice) AS BIGINT) AS VARCHAR),
                     1, 1) AS BIGINT) AS digit
  FROM orders
), t AS (SELECT COUNT(*) AS n FROM d)
SELECT digit, COUNT(*) AS n_obs,
       CAST((SELECT n FROM t) * CASE digit
            {' '.join(f'WHEN {d} THEN {c}' for d, c in _benford_e6().items())}
            END AS BIGINT) AS exp_e6
FROM d GROUP BY digit
"""


def q_ewma_value(sf_dir: str):
    """Per-user exponentially-weighted moving average of event value —
    an inherently sequential per-key fold made distributed + vectorized:
    users are hash-bucketed (data-proportional bucket count, one shuffle
    group each), and inside a bucket the recurrence
    ``s_t = (9*s_{{t-1}} + x_t + 5) // 10`` runs step-synchronously
    across ALL users at once (one numpy pass per time-step rank, not per
    row) — loop length = max events/user, not bucket rows. The integer
    recurrence is exactly reproducible, so the DuckDB twin folds the
    same lists with ``list_reduce`` and the hash must match row-for-row."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], t["ts"], _cents(t["value"])],
            names=["event_id", "user_id", "ts", "v_c"],
        )
        return _dedup.add_hash_bucket(t, "user_id", nb, "__db")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame({"user_id": [], "ts": [], "ewma_c": []})
        # event_id tiebreak ⇒ a total order, deterministic on both sides
        g = g.sort_values(
            ["user_id", "ts", "v_c", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        x = g["v_c"].to_numpy(np.int64)
        pos = g.groupby("user_id").cumcount().to_numpy()
        s = x.copy()  # rank-0 rows: EWMA seeds at the first observation
        for k in range(1, int(pos.max()) + 1):
            idx = np.nonzero(pos == k)[0]
            # row idx-1 is the same user at rank k-1 (sorted by user,rank)
            s[idx] = (9 * s[idx - 1] + x[idx] + 5) // 10
        return pd.DataFrame(
            {
                "user_id": g["user_id"],
                "ts": g["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                "ewma_c": s,
            }
        )

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return ds.groupby("__db").map_groups(fold, batch_format="pandas")


SQL_EWMA_VALUE = """
WITH d AS (
  SELECT user_id, ts, event_id,
         CAST(ROUND(100 * value) AS BIGINT) AS v_c
  FROM events
), h AS (
  SELECT user_id, ts,
         list(v_c) OVER (PARTITION BY user_id ORDER BY ts, v_c, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS hist
  FROM d
)
SELECT user_id, strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts,
       CAST(list_reduce(hist, (s, x) -> (9*s + x + 5) // 10) AS BIGINT)
         AS ewma_c
FROM h
"""


def q_char_entropy(sf_dir: str):
    """Per-document character-level Shannon entropy in e6 fixed point —
    the classic gibberish / binary-junk detector for web-corpus quality
    gating. Pure map, zero shuffle: each batch decodes its Arrow string
    buffer ONCE into a flat codepoint array (no per-row Python), builds
    (doc, codepoint) counts with a single ``np.unique`` over a packed
    key, and folds -p·ln p per doc with ``np.bincount``. Float
    discipline: each (doc, char) term is e6-rounded THEN integer-summed,
    so the result is independent of summation order on both engines."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def ent(t: pa.Table) -> pa.Table:
        a = t["text"].combine_chunks()
        lens = pc.utf8_length(a).to_numpy(zero_copy_only=False).astype(np.int64)
        # one C decode pass: UTF-8 buffer -> str -> UTF-32 codepoint array
        off = np.frombuffer(a.buffers()[1], np.int32)
        data = np.frombuffer(a.buffers()[2], np.uint8)[off[0] : off[-1]]
        cp = np.frombuffer(
            bytes(data).decode("utf-8").encode("utf-32-le"), np.uint32
        ).astype(np.int64)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        key, counts = np.unique(doc_of * 0x110000 + cp, return_counts=True)
        d = key // 0x110000
        p = counts / lens[d].astype(np.float64)
        term_e6 = np.floor(-(p) * np.log(p) * 1_000_000.0 + 0.5)
        ent_e6 = np.bincount(d, weights=term_e6, minlength=len(lens))
        mask = lens > 0  # SQL's GROUP BY emits no row for empty text
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)[mask],
                "ent_e6": ent_e6.astype(np.int64)[mask],
            }
        )

    return ds.map_batches(ent, batch_format="pyarrow")


SQL_CHAR_ENTROPY = """
WITH c AS (
  SELECT doc_id, substring(text, gs.i, 1) AS ch
  FROM documents,
       LATERAL (SELECT unnest(generate_series(1, length(text))) AS i) gs
), k AS (
  SELECT doc_id, ch, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY doc_id, ch
), t AS (
  SELECT doc_id, CAST(SUM(n) AS BIGINT) AS tot FROM k GROUP BY doc_id
)
SELECT k.doc_id,
       CAST(SUM(CAST(ROUND(
         -(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE))
         * LN(CAST(n AS DOUBLE) / CAST(tot AS DOUBLE)) * 1000000.0
       ) AS BIGINT)) AS BIGINT) AS ent_e6
FROM k JOIN t USING (doc_id)
GROUP BY k.doc_id
"""


def q_mann_whitney(sf_dir: str):
    """Mann-Whitney U rank-sum test between the click and view value
    distributions — the non-parametric A/B twin of ``ks_test``, exact in
    integers: tie-averaged ranks are carried DOUBLED (2·avgrank =
    2·cum_before + c + 1, always integral), so rank sums and
    U = R − n(n+1)/2 never touch a float. Scale shape: the exchange is
    bounded by the cents-quantized value DOMAIN (map-side value_counts →
    tiny grouped table); the corpus crosses the wire as one row per
    distinct (type, value)."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(["click", "view"]))
        t = t.filter(keep)
        v = _cents(t["value"]).to_numpy(zero_copy_only=False)
        pos = (
            pc.equal(t["event_type"], "click")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        g = pd.DataFrame({"v": v, "p": pos}).groupby("v", sort=False).agg(
            c1=("p", "sum"), c=("p", "size")
        )
        return pa.Table.from_pydict(
            {
                "v": g.index.to_numpy(np.int64),
                "c1": g["c1"].to_numpy(np.int64),
                "c2": (g["c"] - g["c1"]).to_numpy(np.int64),
            }
        )

    grouped = (
        pre_aggregated_sum(
            ds.map_batches(partial, batch_format="pyarrow"),
            keys=["v"],
            sums={"c1": "c1", "c2": "c2"},
        )
        .sort("v")
        .to_pandas()
    )  # one row per distinct cents value — domain-bounded small
    c1 = grouped["c1"].to_numpy(np.int64)
    c2 = grouped["c2"].to_numpy(np.int64)
    c = c1 + c2
    cum_before = np.concatenate(([0], np.cumsum(c)[:-1]))
    r2 = 2 * cum_before + c + 1  # doubled tie-averaged rank per value
    n1, n2 = int(c1.sum()), int(c2.sum())
    r2_1, r2_2 = int((c1 * r2).sum()), int((c2 * r2).sum())
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(["click", "view"], pa.string()),
            "n_obs": pa.array([n1, n2], pa.int64()),
            "rank2_sum": pa.array([r2_1, r2_2], pa.int64()),
            "u2x": pa.array(
                [r2_1 - n1 * (n1 + 1), r2_2 - n2 * (n2 + 1)], pa.int64()
            ),
        }
    )


SQL_MANN_WHITNEY = """
WITH d AS (
  SELECT event_type, CAST(ROUND(100 * value) AS BIGINT) AS v
  FROM events WHERE event_type IN ('click', 'view')
), c AS (
  SELECT v, CAST(COUNT(*) AS BIGINT) AS c FROM d GROUP BY v
), r AS (
  SELECT v, 2 * (SUM(c) OVER (ORDER BY v) - c) + c + 1 AS r2 FROM c
), g AS (
  SELECT event_type, v, CAST(COUNT(*) AS BIGINT) AS n
  FROM d GROUP BY event_type, v
)
SELECT event_type,
       CAST(SUM(n) AS BIGINT) AS n_obs,
       CAST(SUM(n * r2) AS BIGINT) AS rank2_sum,
       CAST(SUM(n * r2) - SUM(n) * (SUM(n) + 1) AS BIGINT) AS u2x
FROM g JOIN r USING (v)
GROUP BY event_type
"""


def q_attribution(sf_dir: str):
    """Last-touch attribution: each purchase is credited to the user's
    most recent click no more than 7 days earlier — the marketing-
    analytics window join. Map-side prune keeps only click/purchase rows
    before the exchange; users are hash-bucketed (data-proportional
    count) and the per-user fold is cython-vectorized (groupby cummax +
    shift), never a Python loop. Ties in ts break on event_id, giving a
    total order shared with the SQL window frame."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "event_type"])
    nb = num_shuffle_buckets(ds.count())

    def prune_bucket(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["event_type"], value_set=pa.array(["click", "purchase"]))
        return _dedup.add_hash_bucket(t.filter(keep), "user_id", nb, "__ab")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_id": [], "user_id": [], "ts": [], "click_ts": []}
        )
        if len(g) == 0:
            return empty
        g = g.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        ts_us = g["ts"].astype("int64")
        click_ts = ts_us.where(g["event_type"] == "click")
        # cummax leaves NaN AT non-click rows (it only skips them for the
        # accumulation) — ffill carries the running max onto every row
        last = (
            click_ts.groupby(g["user_id"]).cummax().groupby(g["user_id"]).ffill()
        )
        prev = last.groupby(g["user_id"]).shift(1)  # strictly-preceding frame
        is_p = (g["event_type"] == "purchase") & prev.notna()
        window = prev >= ts_us - 7 * 86_400 * 1_000_000
        out = g[is_p & window]
        if len(out) == 0:
            return empty
        return pd.DataFrame(
            {
                "event_id": out["event_id"].to_numpy(np.int64),
                "user_id": out["user_id"].to_numpy(np.int64),
                "ts": out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
                "click_ts": pd.to_datetime(
                    prev[is_p & window].astype("int64"), unit="us"
                ).dt.strftime("%Y-%m-%d %H:%M:%S"),
            }
        )

    ds = ds.map_batches(prune_bucket, batch_format="pyarrow")
    return ds.groupby("__ab").map_groups(fold, batch_format="pandas")


SQL_ATTRIBUTION = """
WITH e AS (
  SELECT event_id, user_id, ts, event_type
  FROM events WHERE event_type IN ('click', 'purchase')
), a AS (
  SELECT event_id, user_id, ts, event_type,
         MAX(CASE WHEN event_type = 'click' THEN ts END) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS click_ts
  FROM e
)
SELECT event_id, user_id,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts,
       strftime(click_ts, '%Y-%m-%d %H:%M:%S') AS click_ts
FROM a
WHERE event_type = 'purchase' AND click_ts IS NOT NULL
  AND click_ts >= ts - INTERVAL 7 DAY
"""


def q_adamic_adar(sf_dir: str):
    """Adamic–Adar link prediction over the DOM-extracted link graph:
    page pairs sharing in-link targets, scored Σ 1/ln(indegree) in e6
    fixed point. The edge set comes through the REAL extraction stack
    (tokenizer → tree builder → ``a[href]`` selector), same as
    ``link_graph``; the oracle states it in closed form. Pair generation
    groups by target — group payload is the target's in-degree, bounded
    by graph structure, and the per-pair weight is e6-rounded before the
    exact integer (a,b) sum. At adversarial in-degree skew the dedup
    family's star-cap (functions/dedup.py) is the documented fallback;
    this exact variant matches the oracle pair-for-pair."""
    import pandas as pd

    from goose_parser_ray.functions.linkgraph import extract_links

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    edges = extract_links(ds, concurrency=_pool())

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "a": pd.Series([], dtype=np.int64),
                "b": pd.Series([], dtype=np.int64),
                "n": pd.Series([], dtype=np.int64),
                "w": pd.Series([], dtype=np.int64),
            }
        )
        if len(g) < 2:
            return empty
        out = []
        for _, grp in g.groupby("dst", sort=False):
            d = len(grp)
            if d < 2:
                continue
            src = np.sort(grp["src"].to_numpy(np.int64))
            w = int(np.floor(1_000_000.0 / np.log(float(d)) + 0.5))
            ia, ib = np.triu_indices(d, k=1)
            out.append(
                pd.DataFrame(
                    {
                        "a": src[ia],
                        "b": src[ib],
                        "n": np.ones(len(ia), np.int64),
                        "w": np.full(len(ia), w, np.int64),
                    }
                )
            )
        return pd.concat(out, ignore_index=True) if out else empty

    pair_ds = edges.groupby("dst").map_groups(pairs, batch_format="pandas")
    return pre_aggregated_sum(
        pair_ds, keys=["a", "b"], sums={"n": "cn", "w": "aa_e6"}
    )


SQL_ADAMIC_ADAR = """
WITH edges AS (
  SELECT d.doc_id AS src, CAST((d.doc_id * 7 + g.k) % 1000 AS BIGINT) AS dst
  FROM documents d,
       LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
), deg AS (
  SELECT dst, CAST(COUNT(*) AS BIGINT) AS d FROM edges GROUP BY dst
), p AS (
  SELECT e1.src AS a, e2.src AS b,
         CAST(ROUND(1000000.0 / LN(CAST(deg.d AS DOUBLE))) AS BIGINT) AS w
  FROM edges e1
  JOIN edges e2 USING (dst)
  JOIN deg USING (dst)
  WHERE e1.src < e2.src
)
SELECT a, b, CAST(COUNT(*) AS BIGINT) AS cn, CAST(SUM(w) AS BIGINT) AS aa_e6
FROM p GROUP BY a, b
"""


def q_twap(sf_dir: str):
    """Per-user time-weighted average value — each observation is held
    until the user's next event, so the exact aggregate is
    Σ v·gap / Σ gap. Numerator and denominator are returned as separate
    exact integers (cents × seconds) rather than a lossy quotient. Gap
    seconds mirror DuckDB ``date_diff('second', …)`` boundary-crossing
    semantics (epoch-floor difference, not duration floor). Same
    bucketed cython-vectorized per-user fold as ``attribution``."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["event_id"], t["user_id"], t["ts"], _cents(t["value"])],
            names=["event_id", "user_id", "ts", "v_c"],
        )
        return _dedup.add_hash_bucket(t, "user_id", nb, "__tb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "dur_s": pd.Series([], dtype=np.int64),
                    "twap_num": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(
            ["user_id", "ts", "v_c", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        sec = g["ts"].astype("int64") // 1_000_000  # epoch-second floor
        nxt = sec.groupby(g["user_id"]).shift(-1)
        gap = (nxt - sec).dropna().astype(np.int64)
        kept = g.loc[gap.index]
        agg = (
            pd.DataFrame(
                {
                    "user_id": kept["user_id"].to_numpy(np.int64),
                    "dur_s": gap.to_numpy(np.int64),
                    "twap_num": kept["v_c"].to_numpy(np.int64)
                    * gap.to_numpy(np.int64),
                }
            )
            .groupby("user_id", as_index=False)
            .sum()
        )
        return agg

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return ds.groupby("__tb").map_groups(fold, batch_format="pandas")


SQL_TWAP = """
WITH d AS (
  SELECT user_id, ts, event_id, CAST(ROUND(100 * value) AS BIGINT) AS v_c
  FROM events
), l AS (
  SELECT user_id, v_c,
         CAST(date_diff('second', ts,
              LEAD(ts) OVER (PARTITION BY user_id ORDER BY ts, v_c, event_id))
           AS BIGINT) AS gap_s
  FROM d
)
SELECT user_id,
       CAST(SUM(gap_s) AS BIGINT) AS dur_s,
       CAST(SUM(v_c * gap_s) AS BIGINT) AS twap_num
FROM l WHERE gap_s IS NOT NULL
GROUP BY user_id
"""


def q_survival(sf_dir: str):
    """Kaplan-Meier risk table over user lifetimes (churn analysis):
    lifetime = day-span between a user's first and last event; a user
    still active in the final 14 days is right-CENSORED. The output is
    the exact-integer KM table — deaths dᵢ and at-risk nᵢ per event
    time — from which the estimator is a trivial product; emitting the
    table instead of the product keeps the oracle float-free. Mergeable
    per-user endpoint aggregate (≤2 candidate rows per user per batch
    cross the exchange is not even needed — min/max combine natively);
    the day-domain risk table is tiny at any corpus size."""
    import pandas as pd
    from ray.data.aggregate import Max, Min

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def to_us(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "user_id": t["user_id"],
                "us": pc.cast(t["ts"], pa.int64()),
            }
        )

    spans = (
        ds.map_batches(to_us, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("us", alias_name="f"), Max("us", alias_name="l"))
    ).materialize()  # one row per user; consumed twice (max + table)
    mx = int(spans.max("l"))
    cutoff = mx - 14 * 86_400 * 1_000_000

    def lifetimes(t: pa.Table) -> pa.Table:
        f = t["f"].to_numpy(zero_copy_only=False)
        l = t["l"].to_numpy(zero_copy_only=False)
        day = 86_400 * 1_000_000
        lt = l // day - f // day  # date_diff('day') boundary crossings
        death = (l <= cutoff).astype(np.int64)
        g = pd.DataFrame({"lt": lt, "d": death}).groupby("lt", sort=False).agg(
            d=("d", "sum"), c=("d", "size")
        )
        return pa.Table.from_pydict(
            {
                "lt": g.index.to_numpy(np.int64),
                "d": g["d"].to_numpy(np.int64),
                "c": g["c"].to_numpy(np.int64),
            }
        )

    grouped = (
        pre_aggregated_sum(
            spans.map_batches(lifetimes, batch_format="pyarrow"),
            keys=["lt"],
            sums={"d": "d", "c": "c"},
        )
        .sort("lt")
        .to_pandas()
    )  # day-domain bounded small
    c = grouped["c"].to_numpy(np.int64)
    n_risk = np.cumsum(c[::-1])[::-1]  # users with lifetime >= lt
    out = pa.Table.from_pydict(
        {
            "lt": grouped["lt"].to_numpy(np.int64),
            "d": grouped["d"].to_numpy(np.int64),
            "n_risk": n_risk,
        }
    )
    return out.filter(pc.greater(out["d"], 0))


SQL_SURVIVAL = """
WITH u AS (
  SELECT user_id, MIN(ts) AS f, MAX(ts) AS l FROM events GROUP BY user_id
), m AS (SELECT MAX(l) AS mx FROM u),
s AS (
  SELECT date_diff('day', f, l) AS lt,
         CASE WHEN l <= (SELECT mx FROM m) - INTERVAL 14 DAY
              THEN 1 ELSE 0 END AS death
  FROM u
), g AS (
  SELECT lt, CAST(SUM(death) AS BIGINT) AS d,
         CAST(COUNT(*) AS BIGINT) AS c
  FROM s GROUP BY lt
)
SELECT CAST(lt AS BIGINT) AS lt, d,
       CAST(SUM(c) OVER (ORDER BY lt DESC) AS BIGINT) AS n_risk
FROM g
QUALIFY d > 0
"""


def q_gini(sf_dir: str):
    """Gini concentration coefficient of event value per event type
    (inequality screen for spend/engagement distributions), EXACT in
    integers: with values cents-quantized and tie groups occupying
    consecutive ranks, 2·Σ rank·xᵢ = Σ c·v·(2·cum_before + c + 1), so
    G = gini_num / gini_den is reported as an exact integer fraction.
    Exchange bounded by the value DOMAIN (map-side value_counts, one row
    per distinct (type, cents))."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        v = _cents(t["value"]).to_numpy(zero_copy_only=False)
        g = (
            pd.DataFrame(
                {"et": t["event_type"].to_pandas(), "v": v}
            )
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
        c = g["c"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        cb = np.concatenate(([0], np.cumsum(c)[:-1]))
        n = int(c.sum())
        sx = int((c * v).sum())
        s2 = int((c * v * (2 * cb + c + 1)).sum())
        out.append((et, n, s2 - (n + 1) * sx, n * sx))
    return pa.Table.from_pydict(
        {
            "event_type": pa.array([o[0] for o in out], pa.string()),
            "n": pa.array([o[1] for o in out], pa.int64()),
            "gini_num": pa.array([o[2] for o in out], pa.int64()),
            "gini_den": pa.array([o[3] for o in out], pa.int64()),
        }
    )


SQL_GINI = """
WITH d AS (
  SELECT event_type, CAST(ROUND(100 * value) AS BIGINT) AS v FROM events
), c AS (
  SELECT event_type, v, CAST(COUNT(*) AS BIGINT) AS c
  FROM d GROUP BY event_type, v
), r AS (
  SELECT event_type, v, c,
         SUM(c) OVER (PARTITION BY event_type ORDER BY v) - c AS cb
  FROM c
)
SELECT event_type,
       CAST(SUM(c) AS BIGINT) AS n,
       CAST(SUM(c * v * (2 * cb + c + 1)) - (SUM(c) + 1) * SUM(c * v)
            AS BIGINT) AS gini_num,
       CAST(SUM(c) * SUM(c * v) AS BIGINT) AS gini_den
FROM r GROUP BY event_type
"""
