"""IR indexing surface: KWIC, snippets, VByte + plain postings, winnowing fingerprints + dedup join, token budgets, sorted-neighborhood blocking, Z-order.

Split from ``queries/text_media.py`` (r5 item 6).
See package docstring for parity rules."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.queries._shared import _read


def q_kwic(sf_dir: str):
    """Keyword-in-context concordance (the corpus-search surface),
    ORACLE-CHECKED: first occurrence of ``data`` per document with ≤16
    chars of context each side, plus its position. One vectorized RE2
    pass — leftmost-match semantics are identical in Arrow and DuckDB, so
    the context windows hash-match exactly. Map-only at any scale."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def kwic(t: pa.Table) -> pa.Table:
        pos = pc.find_substring(t["text"], "data")
        m = pc.extract_regex(
            t["text"], r"(?P<l>.{0,16})data(?P<r>.{0,16})"
        )
        out = pa.Table.from_arrays(
            [
                t["doc_id"],
                pc.cast(pc.add(pos, 1), pa.int64()),  # 1-based like strpos
                pc.struct_field(m, "l"),
                pc.struct_field(m, "r"),
            ],
            names=["doc_id", "pos", "left_ctx", "right_ctx"],
        )
        return out.filter(pc.greater(out["pos"], 0))

    return ds.map_batches(kwic, batch_format="pyarrow").sort("doc_id")


SQL_KWIC = """
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(strpos(text, 'data') AS BIGINT) AS pos,
       regexp_extract(text, '(.{0,16})data(.{0,16})', 1) AS left_ctx,
       regexp_extract(text, '(.{0,16})data(.{0,16})', 2) AS right_ctx
FROM documents
WHERE strpos(text, 'data') > 0
ORDER BY doc_id
"""


def q_snippets(sf_dir: str):
    """Search-result snippet generation (best-passage selection),
    ORACLE-CHECKED: for the query {hash, join, merge} each document's
    token stream is scanned with a width-8 sliding window, the window
    with the most query-term hits wins (earliest start on ties — the
    deterministic tie-break every snippet UI needs), and the snippet
    text is rebuilt by re-joining exactly that token slice. Vectorized:
    one membership mask per batch, rolling sums via cumsum difference —
    no per-token Python. The DuckDB twin recomputes every window with a
    window-function rolling sum and rebuilds the identical slice with
    list_slice/array_to_string, so the hash compare certifies window
    placement AND text reconstruction. Scale shape: map-only, the query
    set is a plan constant (broadcast-by-closure), no shuffle."""
    QUERY = {"hash", "join", "merge"}
    W = 8

    def best_window(t: pa.Table) -> pa.Table:
        doc_ids, starts, hits, snips = [], [], [], []
        words = pc.split_pattern(t["text"], " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        for d, toks in zip(t["doc_id"].to_pylist(), words.to_pylist()):
            toks = toks or []
            m = np.fromiter((w in QUERY for w in toks), np.int64,
                            count=len(toks))
            if len(toks) <= W:
                s, h = 0, int(m.sum())
                win = toks
            else:
                c = np.concatenate(([0], np.cumsum(m)))
                roll = c[W:] - c[:-W]  # hits in window [s, s+W)
                s = int(np.argmax(roll))  # first max = earliest start
                h = int(roll[s])
                win = toks[s : s + W]
            doc_ids.append(d)
            starts.append(s)
            hits.append(h)
            snips.append(" ".join(win))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "start_tok": pa.array(starts, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "snippet": pa.array(snips, pa.string()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        best_window, batch_format="pyarrow"
    )


SQL_SNIPPETS = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
pos AS (
  SELECT doc_id, ts, u.i,
         CASE WHEN ts[u.i] IN ('hash', 'join', 'merge')
              THEN 1 ELSE 0 END AS m
  FROM toks, UNNEST(generate_series(1, LEN(ts))) AS u(i)
),
wins AS (
  SELECT doc_id, ts, i,
         SUM(m) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS h,
         LEN(ts) AS n
  FROM pos
),
ranked AS (
  SELECT doc_id, ts, i, h, n,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY h DESC, i ASC) AS rn
  FROM wins WHERE i <= n - 7 OR n <= 8
)
SELECT doc_id,
       CASE WHEN n <= 8 THEN 0 ELSE i - 1 END AS start_tok,
       CAST(h AS BIGINT) AS n_hits,
       CASE WHEN n <= 8 THEN array_to_string(ts, ' ')
            ELSE array_to_string(list_slice(ts, i, i + 7), ' ') END
         AS snippet
FROM ranked WHERE rn = 1
"""


def q_varbyte_postings(sf_dir: str):
    """Compressed inverted-index blocks (VByte doc-gap coding — the
    classic Lucene-style index layout), ORACLE-CHECKED end to end: the
    (term, doc) pairs are blocked by ``doc_id // 128`` (fixed block
    width, so every group is bounded at ANY corpus size — the full
    per-term posting list is never assembled anywhere), each block's
    sorted docs are delta-coded (absolute first doc, then gaps) and
    encoded through the real ``varbyte`` codec, then DECODED BACK and
    prefix-summed so the emitted checksum (sum of reconstructed doc_ids)
    certifies the byte stream round-trips exactly. n_bytes is the true
    encoded length, which the DuckDB twin states closed-form from the
    VByte 7-bits-per-byte rule. Scale shape: one-doc-one-row makes
    per-batch (term, doc) dedup globally exact; data-proportional term
    buckets; per-group work bounded by the block width."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import bucket_groups
    from goose_parser_ray.functions.varbyte import (
        decode_varbyte,
        encode_varbyte,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t["text"], " ")
        parent = pc.list_parent_indices(words)
        flat = pc.list_flatten(words)
        docs = pc.take(t["doc_id"].combine_chunks(), parent)
        keep = pc.not_equal(flat, "")
        out = pa.Table.from_arrays(
            [flat.filter(keep), docs.filter(keep)], names=["term", "doc_id"]
        )
        df = out.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    def encode_blocks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["blk"] = g["doc_id"] // 128
        terms, blks, nds, nbys, cks = [], [], [], [], []
        for (term, blk), grp in g.groupby(["term", "blk"], sort=False):
            docs = np.sort(grp["doc_id"].to_numpy(np.int64))
            deltas = np.concatenate(([docs[0]], np.diff(docs)))
            payload = encode_varbyte(deltas)
            rebuilt = np.cumsum(decode_varbyte(payload))
            terms.append(term)
            blks.append(int(blk))
            nds.append(len(docs))
            nbys.append(len(payload))
            cks.append(int(rebuilt.sum()))
        return pd.DataFrame(
            {
                "term": terms,
                "blk": np.asarray(blks, np.int64),
                "n_docs": np.asarray(nds, np.int64),
                "n_bytes": np.asarray(nbys, np.int64),
                "checksum": np.asarray(cks, np.int64),
            }
        )

    return bucket_groups(
        ds.map_batches(pairs, batch_format="pyarrow"), "term", encode_blocks,
        rows=ds.count(),
    )


SQL_VARBYTE_POSTINGS = """
WITH w AS (
  SELECT DISTINCT t.term, d.doc_id
  FROM documents d,
       LATERAL (SELECT unnest(string_split(d.text, ' ')) AS term) t
  WHERE t.term <> ''
),
b AS (
  SELECT term, doc_id, doc_id // 128 AS blk,
         MIN(doc_id) OVER (PARTITION BY term, doc_id // 128) AS first_doc
  FROM w
)
SELECT term, blk,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(CASE WHEN first_doc < 128 THEN 1
                 WHEN first_doc < 16384 THEN 2
                 WHEN first_doc < 2097152 THEN 3
                 WHEN first_doc < 268435456 THEN 4
                 ELSE 5 END
            + COUNT(*) - 1 AS BIGINT) AS n_bytes,
       CAST(SUM(doc_id) AS BIGINT) AS checksum
FROM b GROUP BY term, blk, first_doc
"""


def q_postings(sf_dir: str):
    """Capped inverted-index build (IR surface), ORACLE-CHECKED: for every
    term, its document frequency and the 5 smallest doc_ids that contain it
    (comma-joined). The cap is the scale contract — per-term payload is
    bounded at any corpus size, and the partials are mergeable (local df
    count + local 5-smallest per batch → bucketed merge keeps the 5
    smallest of the union). One doc is one row, so per-batch (term, doc)
    dedup is globally exact. Term buckets are data-proportional."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import bucket_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        words = pc.split_pattern(t["text"], " ")
        parent = pc.list_parent_indices(words)
        flat = pc.list_flatten(words)
        docs = pc.take(t["doc_id"].combine_chunks(), parent)
        keep = pc.not_equal(flat, "")
        df = pa.Table.from_arrays(
            [flat.filter(keep), docs.filter(keep)], names=["term", "doc_id"]
        ).to_pandas()
        df = df.drop_duplicates()
        df = df.sort_values(["term", "doc_id"], kind="mergesort")
        g = df.groupby("term", sort=False)
        out = g.agg(
            df_p=("doc_id", "size"),
            post_p=(
                "doc_id",
                lambda s: ",".join(map(str, s.head(5))),
            ),
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        dfsum = g.groupby("term", sort=False)["df_p"].sum()
        ex = g[["term", "post_p"]].copy()
        ex["post_p"] = ex["post_p"].str.split(",")
        ex = ex.explode("post_p")
        ex["post_p"] = ex["post_p"].astype("int64")
        ex = ex.sort_values(["term", "post_p"], kind="mergesort")
        top = ex.groupby("term", sort=False).head(5)
        posts = top.groupby("term", sort=False)["post_p"].agg(
            lambda s: ",".join(map(str, s))
        )
        out = pd.DataFrame(
            {
                "term": dfsum.index,
                "df": dfsum.to_numpy().astype("int64"),
                "top_postings": posts.reindex(dfsum.index).to_numpy(),
            }
        )
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return bucket_groups(parts, "term", merge, rows=ds.count()).sort("term")


SQL_POSTINGS = """
WITH w AS (
  SELECT DISTINCT t.term, d.doc_id
  FROM documents d,
       LATERAL (SELECT unnest(string_split(d.text, ' ')) AS term) t
  WHERE t.term <> ''
), r AS (
  SELECT term, doc_id,
         ROW_NUMBER() OVER (PARTITION BY term ORDER BY doc_id) AS rn,
         COUNT(*) OVER (PARTITION BY term) AS df
  FROM w
)
SELECT term, CAST(MAX(df) AS BIGINT) AS df,
       string_agg(CASE WHEN rn <= 5 THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS top_postings
FROM r GROUP BY term ORDER BY term
"""


def q_winnow_fingerprints(sf_dir: str):
    """Winnowing document fingerprints (the MOSS plagiarism-detection
    selection scheme) over every document, ORACLE-CHECKED: k-gram (k=8)
    codepoint-polynomial hashes, centered width-7 window minima (w=4 —
    the winnowing density guarantee), per-doc count + sum of distinct
    selected hashes. Map-only: one sliding-window matmul + window-min per
    doc inside ``map_batches`` (textstats.winnow_fingerprints_batch), no
    shuffle at all — the selection is embarrassingly parallel and the
    output is one narrow row per doc. Docs shorter than k emit nothing
    (the SQL position table has no rows for them)."""
    from goose_parser_ray.functions.textstats import (
        winnow_fingerprints_batch,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        n, s = winnow_fingerprints_batch(t["text"].to_pylist())
        keep = n > 0
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)[keep],
                "n_fp": pa.array(n[keep], pa.int64()),
                "fp_sum": pa.array(s[keep], pa.int64()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


SQL_WINNOW_FINGERPRINTS = """
WITH pos AS (
  SELECT doc_id, g.i AS i,
         CAST(ascii(substr(text, g.i    , 1)) AS BIGINT) * 1
       + CAST(ascii(substr(text, g.i + 1, 1)) AS BIGINT) * 31
       + CAST(ascii(substr(text, g.i + 2, 1)) AS BIGINT) * 961
       + CAST(ascii(substr(text, g.i + 3, 1)) AS BIGINT) * 29791
       + CAST(ascii(substr(text, g.i + 4, 1)) AS BIGINT) * 923521
       + CAST(ascii(substr(text, g.i + 5, 1)) AS BIGINT) * 28629151
       + CAST(ascii(substr(text, g.i + 6, 1)) AS BIGINT) * 887503681
       + CAST(ascii(substr(text, g.i + 7, 1)) AS BIGINT) * 27512614111 AS h
  FROM documents,
       UNNEST(generate_series(1, length(text) - 7)) AS g(i)
  WHERE length(text) >= 8
),
wm AS (
  SELECT doc_id, h,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS mn
  FROM pos
)
SELECT doc_id,
       CAST(COUNT(DISTINCT h) AS BIGINT) AS n_fp,
       CAST(SUM(DISTINCT h) AS BIGINT) AS fp_sum
FROM wm WHERE h = mn GROUP BY doc_id
"""


def q_winnow_dedup_join(sf_dir: str):
    """MOSS-style near-dup join over winnowed fingerprints (the dedup
    companion of q_winnow_fingerprints's per-doc selection),
    ORACLE-CHECKED: docs are fingerprinted with the winnowing scheme the
    SQL twin states position-for-position, over-common fingerprints are
    dropped with an IDF cut (doc-frequency > 32 — MOSS's boilerplate
    guard, which is also the scale story: per-fingerprint pair fan-out
    is bounded by C(32,2), never corpus-proportional), and pairs whose
    shared rare fingerprints cover ≥ half of the smaller doc's
    fingerprint set are emitted with exact integer evidence columns
    (n_shared, nfp_a, nfp_b). One data-proportional shuffle; per-doc
    count table broadcast under the 5M-doc guard, hash-partitioned joins
    past it (tier-parity tested)."""
    from goose_parser_ray.functions.dedup import winnow_dedup_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return winnow_dedup_pairs(ds)


SQL_WINNOW_DEDUP_JOIN = """
WITH pos AS (
  SELECT doc_id, g.i AS i,
         CAST(ascii(substr(text, g.i    , 1)) AS BIGINT) * 1
       + CAST(ascii(substr(text, g.i + 1, 1)) AS BIGINT) * 31
       + CAST(ascii(substr(text, g.i + 2, 1)) AS BIGINT) * 961
       + CAST(ascii(substr(text, g.i + 3, 1)) AS BIGINT) * 29791
       + CAST(ascii(substr(text, g.i + 4, 1)) AS BIGINT) * 923521
       + CAST(ascii(substr(text, g.i + 5, 1)) AS BIGINT) * 28629151
       + CAST(ascii(substr(text, g.i + 6, 1)) AS BIGINT) * 887503681
       + CAST(ascii(substr(text, g.i + 7, 1)) AS BIGINT) * 27512614111 AS h
  FROM documents,
       UNNEST(generate_series(1, length(text) - 7)) AS g(i)
  WHERE length(text) >= 8
),
wm AS (
  SELECT doc_id, h,
         MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS mn
  FROM pos
),
fp AS (SELECT DISTINCT doc_id, h FROM wm WHERE h = mn),
hc AS (SELECT h, COUNT(*) AS cnt FROM fp GROUP BY h),
rare AS (
  SELECT f.doc_id, f.h FROM fp f JOIN hc USING (h) WHERE hc.cnt <= 32
),
nf AS (
  SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS nfp FROM rare GROUP BY doc_id
),
pairs AS (
  SELECT a.doc_id AS a, b.doc_id AS b, CAST(COUNT(*) AS BIGINT) AS n_shared
  FROM rare a JOIN rare b ON a.h = b.h AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT p.a, p.b, p.n_shared, na.nfp AS nfp_a, nb.nfp AS nfp_b
FROM pairs p
JOIN nf na ON na.doc_id = p.a
JOIN nf nb ON nb.doc_id = p.b
WHERE 2 * p.n_shared >= least(na.nfp, nb.nfp)
"""


def q_token_budget(sf_dir: str):
    """Per-language budget fill (training-mixture shape), ORACLE-CHECKED:
    each language contributes documents in cross-engine-exact Knuth-hash
    order until its running character total would exceed 12 000. This is
    the budgeted variant of mixture resampling — deterministic membership
    (stable under re-runs/repartition), exact cumulative gate. Five langs →
    exact per-group scan; at high key cardinality the same plan runs as the
    two-pass bucketed prefix-sum scan (``functions/packing.py``)."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def add_h(t: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(t["doc_id"], pa.scalar(2654435761, pa.int64())),
            pa.scalar(4294967295, pa.int64()),
        )
        return t.append_column("hv", pc.cast(h, pa.int64()))

    def fill(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hv", "doc_id"], kind="mergesort")
        g["cum_chars"] = g["n_chars"].cumsum().astype("int64")
        g = g[g["cum_chars"] <= 12_000]
        return g[["doc_id", "lang", "n_chars", "cum_chars"]]

    ds = ds.map_batches(add_h, batch_format="pyarrow")
    return (
        ds.groupby("lang")
        .map_groups(fill, batch_format="pandas")
        .sort(["lang", "cum_chars"])
    )


SQL_TOKEN_BUDGET = """
WITH h AS (
  SELECT doc_id, lang, n_chars,
         (doc_id * 2654435761) % 4294967296 AS hv
  FROM documents
), c AS (
  SELECT doc_id, lang, n_chars,
         SUM(n_chars) OVER (PARTITION BY lang ORDER BY hv, doc_id
                            ROWS UNBOUNDED PRECEDING) AS cum
  FROM h
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, lang,
       CAST(n_chars AS BIGINT) AS n_chars, CAST(cum AS BIGINT) AS cum_chars
FROM c WHERE cum <= 12000
ORDER BY lang, cum_chars
"""


def q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking (merge/purge), ORACLE-CHECKED: every
    document pair within rank distance 2 in global (substr(text,1,12),
    doc_id) order. The order-based candidate generator alongside the
    hash-based ones (MinHash/SimHash/Hamming-1/AllPairs). Distributed as
    range-bucketed global dense rank + overlap pair windows — see
    ``functions/blocking.py``; no all-pairs, no driver materialization."""
    from goose_parser_ray.functions.blocking import sorted_neighborhood_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n = ds.count()

    def add_key(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["doc_id"], pc.utf8_slice_codeunits(t["text"], 0, 12)],
            names=["doc_id", "k"],
        )

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    pairs = sorted_neighborhood_pairs(
        keyed, key_col="k", id_col="doc_id", window=2, n_rows=n
    )
    return pairs.sort(["id_a", "id_b"])


SQL_SORTED_NEIGHBORHOOD = """
WITH r AS (
  SELECT doc_id,
         ROW_NUMBER() OVER (ORDER BY substr(text, 1, 12), doc_id) AS rn
  FROM documents
)
SELECT CAST(a.doc_id AS BIGINT) AS id_a, CAST(b.doc_id AS BIGINT) AS id_b
FROM r a JOIN r b ON b.rn - a.rn BETWEEN 1 AND 2
ORDER BY id_a, id_b
"""


def q_zorder(sf_dir: str):
    """Z-order (Morton) clustering key + multi-dimensional range query,
    ORACLE-CHECKED: interleave the low 16 bits of (l_partkey, l_suppkey)
    into a 32-bit z-value — the layout key that makes BOTH dimensions
    range-prunable from one sorted/clustered write (sort by z → parquet
    row-group min/max stats serve part-key and supp-key predicates at
    once). The query returns one z-range slice; the engine side is a pure
    vectorized map (numpy bit-spreading), the oracle states the interleave
    as 32 shift-mask terms. The production layout path is
    ``ds.sort("z").write_parquet(...)`` on the same key."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey"])

    def add_z(t: pa.Table) -> pa.Table:
        def spread(col):  # 16-bit → even-bit positions of 32
            n = col.to_numpy(zero_copy_only=False).astype(np.uint32)
            n &= np.uint32(0xFFFF)
            n = (n | n << np.uint32(8)) & np.uint32(0x00FF00FF)
            n = (n | n << np.uint32(4)) & np.uint32(0x0F0F0F0F)
            n = (n | n << np.uint32(2)) & np.uint32(0x33333333)
            n = (n | n << np.uint32(1)) & np.uint32(0x55555555)
            return n

        z = spread(t["l_partkey"]) | (spread(t["l_suppkey"]) << np.uint32(1))
        t = t.append_column("z", pa.array(z.astype(np.int64)))
        mask = pc.and_(
            pc.greater_equal(t["z"], 1_000_000), pc.less(t["z"], 1_050_000)
        )
        return t.filter(mask)

    return (
        ds.map_batches(add_z, batch_format="pyarrow")
        .select_columns(["z", "l_orderkey", "l_partkey", "l_suppkey"])
        .sort(["z", "l_orderkey"])
    )


def _sql_zorder() -> str:
    xs = " + ".join(f"(((l_partkey >> {i}) & 1) << {2 * i})" for i in range(16))
    ys = " + ".join(
        f"(((l_suppkey >> {i}) & 1) << {2 * i + 1})" for i in range(16)
    )
    return f"""
WITH m AS (
  SELECT CAST(({xs}) + ({ys}) AS BIGINT) AS z,
         CAST(l_orderkey AS BIGINT) AS l_orderkey,
         CAST(l_partkey AS BIGINT) AS l_partkey,
         CAST(l_suppkey AS BIGINT) AS l_suppkey
  FROM lineitem
)
SELECT z, l_orderkey, l_partkey, l_suppkey
FROM m WHERE z >= 1000000 AND z < 1050000
ORDER BY z, l_orderkey
"""


SQL_ZORDER = _sql_zorder()
