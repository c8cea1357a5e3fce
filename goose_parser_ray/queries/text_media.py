"""Text analysis + multimodal: lang-id, quality, fingerprints, media decode pipelines, top words, extraction surface, link graph, KWIC, postings, z-order, edit-distance, profiler.

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
from goose_parser_ray.functions.dedup import exact_dedup, minhash_dedup_keep
from goose_parser_ray.functions.multimodal import ImageDecodeActor
from goose_parser_ray.functions.relational import broadcast_join, pre_aggregated_sum
from goose_parser_ray.functions.textstats import LangIdActor, add_fingerprint
from goose_parser_ray.pipelines import build_extraction_pipeline
from goose_parser_ray.sources.corpus import wrap_flat_documents

from goose_parser_ray.queries._shared import _cents, _pool, _read


# ---------------------------------------------------------------------------
# text analysis (heuristics → rows-only)
# ---------------------------------------------------------------------------



def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(
        # task pool: init is 2.6 ms of stopword Arrow sets — actor spin-up
        # costs more than it saves (media_png measurement)
        lambda t: LangIdActor()(t), batch_format="pyarrow"
    )
    return ds.select_columns(["doc_id", "lang_pred"])


def _langid_sql() -> str:
    """Oracle generated from the SAME stopword sets + word-split pattern the
    engine uses (both sides are RE2 splits + set membership — Unicode-safe,
    unlike the old ``\\b`` patterns whose ASCII-only boundary silently never
    matched Cyrillic stopwords, r2 ADVICE)."""
    from goose_parser_ray.functions.textstats import STOPWORDS, WORD_SPLIT_RE

    order = LangIdActor.LANG_ORDER
    counts = ",\n         ".join(
        "CAST(len(list_filter(regexp_split_to_array(lower(text), '"
        + WORD_SPLIT_RE
        + "'), w -> w IN ("
        + ", ".join(f"'{w}'" for w in sorted(STOPWORDS[lang]))
        + "))) AS BIGINT) AS c_" + lang
        for lang in order
    )
    mx = "GREATEST(" + ", ".join(f"c_{lang}" for lang in order) + ")"
    cases = "\n       ".join(
        f"WHEN c_{lang} = {mx} THEN '{lang}'" for lang in order
    )
    return f"""
WITH c AS (
  SELECT doc_id,
         {counts}
  FROM documents
)
SELECT doc_id,
       CASE WHEN {mx} = 0 THEN 'und'
       {cases}
       END AS lang_pred
FROM c
"""


SQL_LANG_ID = _langid_sql()


def q_langid_confusion(sf_dir: str):
    """Language-ID CONFUSION MATRIX against the labeled lang column — the
    quality audit you run before trusting a classifier at corpus scale:
    actor-pool prediction (same LangIdActor as q_lang_id, patterns
    compiled once per actor) → map-side combined (label, prediction)
    counts; the exchange is |langs|²-bounded. The SQL twin nests the SAME
    generated stopword classifier, so the whole matrix hash-compares."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    pred = ds.map_batches(
        lambda t: LangIdActor()(t), batch_format="pyarrow"
    )
    return pre_aggregated_sum(
        pred.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["lang"], t["lang_pred"]], names=["lang", "lang_pred"]
            ),
            batch_format="pyarrow",
        ),
        keys=["lang", "lang_pred"],
        sums={},
        count_alias="n_docs",
    )


def _langid_confusion_sql() -> str:
    inner = _langid_sql().strip()
    return f"""
WITH pred AS ({inner})
SELECT d.lang, pred.lang_pred, CAST(COUNT(*) AS BIGINT) AS n_docs
FROM documents d JOIN pred ON d.doc_id = pred.doc_id
GROUP BY d.lang, pred.lang_pred
"""


SQL_LANGID_CONFUSION = _langid_confusion_sql()


def q_quality_score(sf_dir: str):
    """Quality score emitted as integer basis points (deterministic
    element-wise rounding on both sides — the float-sum parity rule from
    the module docstring applied to a scalar formula)."""
    from goose_parser_ray.functions.textstats import add_quality_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: add_quality_score(t, round_digits=None),
        batch_format="pyarrow",
    )
    ds = ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], _cents(t["quality"], 10000)],
            names=["doc_id", "quality_bp"],
        ),
        batch_format="pyarrow",
    )
    return ds


def _quality_sql() -> str:
    """Oracle mirrors add_quality_score term by term, association order
    included ((a+b)+(c+d)), from the same English stopword pattern."""
    from goose_parser_ray.functions.textstats import STOPWORDS

    pat = r"(?i)\b(?:" + "|".join(sorted(STOPWORDS["en"])) + r")\b"
    return f"""
WITH f AS (
  SELECT doc_id,
         CAST(length(text) AS DOUBLE) AS n_chars,
         CAST(length(regexp_extract_all(text, '\\S+')) AS DOUBLE) AS n_tokens,
         CAST(length(regexp_extract_all(text, '[.!?]')) AS DOUBLE) AS n_punct,
         CAST(length(regexp_extract_all(text, '{pat}')) AS DOUBLE) AS n_stop
  FROM documents
), s AS (
  SELECT doc_id,
         LEAST(n_chars / 500.0, 1.0) AS len_score,
         LEAST(n_punct, 1.0) AS punct_score,
         CASE WHEN n_chars / GREATEST(n_tokens, 1.0) >= 3.0
                   AND n_chars / GREATEST(n_tokens, 1.0) <= 12.0
              THEN 1.0 ELSE 0.0 END AS word_score,
         LEAST((n_stop / GREATEST(n_tokens, 1.0)) * 4.0, 1.0) AS stop_score
  FROM f
)
SELECT doc_id,
       CAST(ROUND(10000 * ((len_score * 0.4 + punct_score * 0.1)
                           + (word_score * 0.3 + stop_score * 0.2))) AS BIGINT)
           AS quality_bp
FROM s
"""


SQL_QUALITY_SCORE = _quality_sql()


def q_fingerprint(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(add_fingerprint, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint"])


# ---------------------------------------------------------------------------
# multimodal (stubbed decode, real plumbing)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# multimodal (stubbed decode, real plumbing)
# ---------------------------------------------------------------------------


def q_media_decode(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        # vectorized utf8 -> binary cast (same bytes as str.encode())
        return pa.Table.from_arrays(
            [t["doc_id"], pc.cast(t["text"], pa.binary())],
            names=["doc_id", "payload"],
        )

    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    ds = ds.map_batches(
        ImageDecodeActor,
        batch_format="pyarrow",
        batch_size=16,  # binary payloads: small batches (memory-aware)
        concurrency=(_pool(), _pool()),
    )

    def flatten(t: pa.Table) -> pa.Table:
        meta = t["meta"]
        return pa.Table.from_arrays(
            [
                t["doc_id"],
                pc.struct_field(meta, "width"),
                pc.struct_field(meta, "height"),
                pc.struct_field(meta, "format"),
            ],
            names=["doc_id", "width", "height", "format"],
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


def q_media_pipeline(sf_dir: str):
    """Full multimodal actor chain: payload → decode → resize → frame-sample
    → audio features (all stubs deterministic; the Ray plumbing — chained
    actor pools, small batches, list/struct schemas — is the real artifact).
    Rows-only by nature."""
    from goose_parser_ray.functions.multimodal import (
        AudioFeatureActor,
        FrameSampleActor,
        ImageResizeActor,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        # vectorized utf8 -> binary cast (same bytes as str.encode())
        return pa.Table.from_arrays(
            [t["doc_id"], pc.cast(t["text"], pa.binary())],
            names=["doc_id", "payload"],
        )

    pool = max(1, _pool() // 4)  # four chained fixed pools must coexist
    ds = ds.map_batches(to_payload, batch_format="pyarrow")
    ds = ds.map_batches(
        ImageDecodeActor, batch_format="pyarrow", batch_size=16,
        concurrency=(pool, pool),
    )
    ds = ds.map_batches(
        ImageResizeActor, batch_format="pyarrow", batch_size=16,
        concurrency=(pool, pool),
    )
    ds = ds.map_batches(
        FrameSampleActor, batch_format="pyarrow", batch_size=16,
        concurrency=(pool, pool),
    )
    ds = ds.map_batches(
        AudioFeatureActor, batch_format="pyarrow", batch_size=16,
        concurrency=(pool, pool),
    )

    def project(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                t["doc_id"],
                pc.struct_field(t["meta"], "width"),
                pc.list_value_length(t["frame_indices"]),
                pc.list_value_length(t["audio_features"]),
            ],
            names=["doc_id", "width", "n_frames", "n_mels"],
        )

    return ds.map_batches(project, batch_format="pyarrow")


def q_media_pgm(sf_dir: str):
    """REAL image pipeline, oracle-checked end to end: deterministic PGM
    payloads are synthesized per doc (gradient image, size keyed off
    doc_id), round-tripped through actual bytes (encode → binary column →
    actor-pool Netpbm decode → nearest-neighbor 8×8 thumbnail → exact
    integer mean). The DuckDB twin recomputes the sampled pixels in closed
    form — every value is integer arithmetic, so the hash compare is exact.
    This is the non-stub counterpart of the q_media_decode codec stubs."""
    from goose_parser_ray.functions.multimodal import PgmThumbnailActor
    from goose_parser_ray.functions.netpbm import encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 16 + (d & 15)
            h = 16 + ((d >> 4) & 15)
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            img = ((31 * i + 17 * j + d) % 256).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: setup is an import bind — actor
        # spin-up costs more than it saves (measured on media_png:
        # stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: PgmThumbnailActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_MEDIA_PGM = """
WITH dims AS (
  SELECT doc_id,
         16 + (doc_id & 15) AS width,
         16 + ((doc_id // 16) & 15) AS height
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height,
         (31 * ((a.i * d.height) // 8) + 17 * ((b.j * d.width) // 8)
          + d.doc_id) % 256 AS val
  FROM dims d,
       UNNEST(generate_series(0, 7)) AS a(i),
       UNNEST(generate_series(0, 7)) AS b(j)
)
SELECT doc_id, width, height,
       CAST(SUM(val) * 15625 AS BIGINT) AS mean_e6
FROM pix GROUP BY doc_id, width, height
"""


def q_data_pipeline(sf_dir: str, checkpoint_dir: "str | None" = None):
    """Composite LLM-training-data pipeline — the ops composed the way a
    real corpus run chains them: quality gate → exact dedup → MinHash
    near-dup removal (distributed verify) → per-doc token stats. Each stage
    is the scale-shaped implementation benchmarked elsewhere; this query
    proves they compose. The deduped stage output is consumed three times
    downstream (candidates, verify join, final filter), so it is
    CHECKPOINTED to partitioned parquet and read back — shards on disk
    instead of a corpus-proportional object-store pin, and a crashed run
    re-enters at the checkpoint: an existing ``_SUCCESS``-marked
    ``checkpoint_dir`` skips the gate+dedup recompute entirely (the
    ``pipelines/extraction.py`` manifest discipline applied to a query
    stage boundary)."""
    import os
    import shutil
    import tempfile

    from goose_parser_ray.functions.textstats import add_quality_score

    if checkpoint_dir is None:
        # per-run unique (no cross-run /tmp race); pass an explicit dir to
        # get cross-run resume semantics.
        checkpoint_dir = tempfile.mkdtemp(prefix="data_pipeline_ckpt_")
        os.rmdir(checkpoint_dir)  # write_parquet recreates it
    ok = os.path.join(checkpoint_dir, "_SUCCESS")
    if not os.path.exists(ok):
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        ds = _read(sf_dir, "documents", ["doc_id", "text"])
        ds = ds.map_batches(add_quality_score, batch_format="pyarrow")
        ds = ds.map_batches(
            lambda t: t.filter(
                pc.greater_equal(t["quality"], 0.5)
            ).drop_columns(["quality"]),
            batch_format="pyarrow",
        )
        ds = exact_dedup(ds, col="text", id_col="doc_id")
        ds.write_parquet(checkpoint_dir)
        with open(ok, "w"):
            pass  # atomic-enough commit marker: written only after the data
    ds = ray.data.read_parquet(checkpoint_dir, file_extensions=["parquet"])
    kept = minhash_dedup_keep(
        ds,
        jaccard_threshold=0.8,
        docs=ds,
        concurrency=_pool(),
    )

    def stats(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64()
        )
        return pa.Table.from_arrays(
            [t["doc_id"], n_tok], names=["doc_id", "n_tokens"]
        )

    return kept.map_batches(stats, batch_format="pyarrow")


def q_web_pipeline(sf_dir: str):
    """Flagship web-corpus curation composite, ORACLE-CHECKED end to end:
    WARC archive roundtrip (real shard files on disk) → actor-pool lang-ID
    → quality gate (basis-point threshold — integer-exact on both engines)
    → exact dedup (min-id winner) → per-language doc/token rollup. Every
    stage is the scale-shaped implementation verified individually; the
    composed DuckDB twin nests the SAME generated lang-ID/quality SQL, so
    the whole chain is hash-compared, not just row counts."""
    import hashlib
    import shutil

    from goose_parser_ray.functions.dedup import num_shuffle_buckets
    from goose_parser_ray.functions.textstats import (
        LangIdActor,
        add_quality_score,
    )
    from goose_parser_ray.sources.warc import read_warc, write_warc_shards

    out = "/tmp/web_pipeline_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(out, ignore_errors=True)
    src = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    n_rows = src.count()  # metadata-only (fresh parquet read)
    write_warc_shards(src, out)

    docs = read_warc(out).map_batches(
        lambda t: pa.Table.from_pydict(
            {"doc_id": pc.cast(t["doc_id"], pa.int64()), "text": t["text"]}
        ),
        batch_format="pyarrow",
    )
    docs = docs.map_batches(
        lambda t: LangIdActor()(t), batch_format="pyarrow"
    )

    def gate(t: pa.Table) -> pa.Table:
        t = add_quality_score(t, round_digits=None)
        keep = pc.greater_equal(_cents(t["quality"], 10000), 5000)
        return t.filter(keep).drop_columns(["quality"])

    gated = docs.map_batches(gate, batch_format="pyarrow")
    kept = exact_dedup(
        gated, col="text", id_col="doc_id",
        num_buckets=num_shuffle_buckets(n_rows),
    )

    def stats(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64()
        )
        return pa.Table.from_pydict(
            {"lang_pred": t["lang_pred"], "n_tok": n_tok}
        )

    return pre_aggregated_sum(
        kept.map_batches(stats, batch_format="pyarrow"),
        keys=["lang_pred"], sums={"n_tok": "sum_tokens"},
        count_alias="n_docs",
    )


def _web_pipeline_sql() -> str:
    """Composed oracle: nests the generated lang-ID and quality twins as
    CTE subqueries (the WARC roundtrip is the identity over documents, so
    the SQL side starts from the table directly)."""
    return f"""
WITH lang AS ({_langid_sql()}),
qual AS ({_quality_sql()}),
gated AS (
  SELECT d.doc_id, d.text, l.lang_pred
  FROM documents d
  JOIN lang l USING (doc_id)
  JOIN qual q USING (doc_id)
  WHERE q.quality_bp >= 5000
),
dedup AS (
  SELECT MIN(doc_id) AS doc_id FROM gated GROUP BY text
)
SELECT g.lang_pred,
       CAST(SUM(length(regexp_extract_all(g.text, '\\S+'))) AS BIGINT)
           AS sum_tokens,
       COUNT(*) AS n_docs
FROM dedup JOIN gated g ON dedup.doc_id = g.doc_id
GROUP BY g.lang_pred
"""


SQL_WEB_PIPELINE = _web_pipeline_sql()


def q_vocab_growth(sf_dir: str):
    """Heaps-law vocabulary growth curve, ORACLE-CHECKED: for every
    distinct token (same tokenizer as lang-ID / top_words) find the FIRST
    doc that introduces it (min doc_id), bucket first-occurrences into 32
    FIXED domain-relative checkpoints (first_doc*32 // (max_doc+1) — the
    checkpoint count never grows with the corpus, unlike a fixed
    docs-per-bucket width), and emit per checkpoint the count of NEW
    terms plus the cumulative vocabulary size — the curve dataset
    curators read to see whether a corpus still contributes novel
    vocabulary or has saturated (dedup/quality regressions show up as a
    flattening). Scale shape: one cheap max aggregate, map-side
    (token → min doc) partials per batch, ONE vocabulary-keyed Min
    aggregate (wordcount shape), then bucket partials; the cumulative
    sum runs on the driver over <= 32 rows."""
    import pandas as pd
    from ray.data.aggregate import Min, Sum

    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial_first(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        lens = pc.list_value_length(words).to_numpy()
        flat = pd.Series(pc.list_flatten(words).to_pylist(), dtype=object)
        docs = np.repeat(t["doc_id"].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({"word": flat, "first_doc": docs})
        df = df[df["word"] != ""]
        out = df.groupby("word", as_index=False)["first_doc"].min()
        return pa.Table.from_pandas(out, preserve_index=False)

    firsts = (
        ds.map_batches(partial_first, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Min("first_doc", alias_name="first_doc"))
    )

    max_doc = int(ds.max("doc_id"))

    def floor_bucket(t: pa.Table) -> pa.Table:
        fd = t["first_doc"].to_numpy(zero_copy_only=False).astype(np.int64)
        s = pd.Series(fd * 32 // (max_doc + 1))
        vc = s.value_counts()
        return pa.Table.from_pydict(
            {
                "checkpoint": pa.array(vc.index.to_numpy(np.int64)),
                "new_terms": pa.array(vc.to_numpy(np.int64)),
            }
        )

    buckets = (
        firsts.map_batches(floor_bucket, batch_format="pyarrow")
        .groupby("checkpoint")
        .aggregate(Sum("new_terms", alias_name="new_terms"))
        .sort("checkpoint")
        .to_pandas()  # checkpoint-bounded: rows = docs/100
    )
    buckets["cum_vocab"] = buckets["new_terms"].cumsum().astype(np.int64)
    buckets["new_terms"] = buckets["new_terms"].astype(np.int64)
    return pa.Table.from_pandas(buckets, preserve_index=False)


SQL_VOCAB_GROWTH = """
WITH w AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^\\p{L}\\p{N}_]+')) AS word
  FROM documents
),
firsts AS (
  SELECT word, MIN(doc_id) AS first_doc
  FROM w WHERE word != '' GROUP BY word
),
buckets AS (
  SELECT first_doc * 32 // ((SELECT MAX(doc_id) FROM documents) + 1)
           AS checkpoint,
         CAST(COUNT(*) AS BIGINT) AS new_terms
  FROM firsts GROUP BY 1
)
SELECT checkpoint, new_terms,
       CAST(SUM(new_terms) OVER (ORDER BY checkpoint) AS BIGINT) AS cum_vocab
FROM buckets
"""


def q_top_words(sf_dir: str):
    """Exact corpus vocabulary top-k (distributed wordcount): same tokenizer
    as lang-ID (split on non-letter/digit runs, lower-cased), map-side
    partial counts per batch, one vocabulary-keyed aggregate, global sort +
    limit with deterministic tie-break."""
    import pandas as pd

    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    ds = _read(sf_dir, "documents", ["text"])

    def partial_counts(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        s = pd.Series(pc.list_flatten(words).to_pylist(), dtype=object)
        vc = s[s != ""].value_counts()
        return pa.Table.from_pydict(
            {"word": vc.index.tolist(), "n": vc.to_numpy()}
        )

    ds = ds.map_batches(partial_counts, batch_format="pyarrow")
    ds = pre_aggregated_sum(ds, keys=["word"], sums={"n": "n"})
    return ds.sort(["n", "word"], descending=[True, False]).limit(20)


SQL_TOP_WORDS = """
WITH w AS (
  SELECT unnest(regexp_split_to_array(lower(text), '[^\\p{L}\\p{N}_]+')) AS word
  FROM documents
)
SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM w
WHERE word <> ''
GROUP BY word ORDER BY n DESC, word ASC LIMIT 20
"""


def q_heavy_hitters(sf_dir: str):
    """Scale path for q_top_words: mergeable truncated-counts summaries
    (map-only, one tiny row per batch, no vocabulary shuffle) — rows-only;
    pytest asserts it reproduces the exact top-20 at sf0.01."""
    from goose_parser_ray.functions.sketches import heavy_hitters

    ds = _read(sf_dir, "documents", ["text"])
    return heavy_hitters(ds, "text", k=20)


def q_cms_words(sf_dir: str):
    """Count-min sketch point frequencies (Cormode & Muthukrishnan 2005 —
    the classic mergeable counter sketch; completes the sketch family
    beside HLL, the log-histogram quantile sketch, truncated-counts heavy
    hitters and bloom). Rows-only (hash positions aren't SQL-expressible)
    with deterministic self-verifying integers: the sketch is built
    distributed (one (depth×width) int64 partial per batch, map-side
    sum-coalesce — merge ≡ whole, bit-identical), the exact top-10 words
    come from the oracle-checked wordcount path, and per word we emit
    ``over_ok`` (CMS min-estimate can NEVER undercount — hard invariant,
    1 on every row) and ``bound_ok`` (est − exact ≤ ⌈(e/width)·N⌉, the
    paper's w.p. 1−(1/e)^depth guarantee; deterministic under the fixed
    hash seeds)."""
    import math

    import pandas as pd

    from goose_parser_ray.functions.sketches import cms_build, cms_query
    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    width, depth = 2048, 4
    ds = _read(sf_dir, "documents", ["text"])

    def to_words(t: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(t["text"]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        flat = pc.list_flatten(
            words.combine_chunks()
            if isinstance(words, pa.ChunkedArray)
            else words
        )
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.Table.from_arrays([flat], names=["word"])

    words_ds = ds.map_batches(to_words, batch_format="pyarrow")
    sketch = cms_build(words_ds, "word", width=width, depth=depth)
    n_total = int(sketch[0].sum())  # each row counts every insert once

    def partial_counts(t: pa.Table) -> pa.Table:
        s = pd.Series(t["word"].to_pylist(), dtype=object)
        vc = s.value_counts()
        return pa.Table.from_pydict(
            {"word": vc.index.tolist(), "n": vc.to_numpy()}
        )

    exact = (
        pre_aggregated_sum(
            words_ds.map_batches(partial_counts, batch_format="pyarrow"),
            keys=["word"],
            sums={"n": "n"},
        )
        .sort(["n", "word"], descending=[True, False])
        .limit(10)
        .to_pandas()
    )
    est = cms_query(sketch, exact["word"].tolist(), width, depth)
    eps_n = math.ceil(math.e / width * n_total)
    exact_n = exact["n"].to_numpy(dtype=np.int64)
    # position-weighted checksum over ALL depth×width int64 registers
    # (r5 item 3): the sketch build is pure integer addition (merge ≡
    # whole), so this pins the exact register state — any change to the
    # hash seeds, the partial layout, or the merge breaks the sweep hash.
    flat = sketch.ravel().astype(object)  # object -> Python ints, no wrap
    reg_ck = int(
        (flat * (np.arange(flat.size, dtype=object) + 1)).sum() % (1 << 61)
    )
    return pd.DataFrame(
        {
            "word": exact["word"],
            "exact_n": exact_n,
            "cms_est": est,
            "over_ok": (est >= exact_n).astype("int64"),
            "bound_ok": (est - exact_n <= eps_n).astype("int64"),
            "register_checksum": np.full(len(exact_n), reg_ck, dtype="int64"),
        }
    )


def q_image_ahash_dedup(sf_dir: str):
    """Perceptual-hash IMAGE dedup, ORACLE-CHECKED end to end — the
    multimodal near-dup path (aHash: the classic pre-embedding image
    fingerprint): deterministic 16×16 gradient PGMs are synthesized per
    doc with every 5k+1 doc REUSING doc 5k's image (injected duplicate
    pairs, the semdedup_invariants pattern), round-tripped through real
    bytes (encode → binary column → actor-pool Netpbm decode → integer
    aHash), then hash-grouped to find the duplicate groups. Every bit is
    exact integer arithmetic (block_sum×64 > total_sum), so the DuckDB
    twin recomputes the hashes in closed form and the value hash matches
    exactly. Output: (doc_id, hash_lo, hash_hi, group_size)."""
    from goose_parser_ray.functions.multimodal import ImageAHashActor
    from goose_parser_ray.functions.netpbm import encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            eff = d - 1 if d % 5 == 1 else d
            i = np.arange(16, dtype=np.int64)[:, None]
            j = np.arange(16, dtype=np.int64)[None, :]
            img = ((31 * i + 17 * j + eff) % 256).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    hashes = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(
            # task pool, not actor pool: setup is an import bind — actor
            # spin-up costs more than it saves (measured on media_png:
            # stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
            lambda t: ImageAHashActor()(t),
            batch_format="pyarrow",
            batch_size=64,  # wide binary payloads — small batches (guide)
        )
    )
    counts = pre_aggregated_sum(
        hashes.select_columns(["hash_lo", "hash_hi"]),
        keys=["hash_lo", "hash_hi"],
        sums={},
        count_alias="group_size",
    )
    from goose_parser_ray.functions.dedup import _default_join_partitions

    out = hashes.join(
        counts,
        join_type="inner",
        num_partitions=_default_join_partitions(),
        on=("hash_lo", "hash_hi"),
    )
    return out.sort("doc_id")


SQL_IMAGE_AHASH_DEDUP = """
WITH px AS (
  SELECT d.doc_id,
         i.i, j.j,
         (31*i.i + 17*j.j
          + CASE WHEN d.doc_id % 5 = 1 THEN d.doc_id - 1 ELSE d.doc_id END
         ) % 256 AS v
  FROM documents d,
       UNNEST(generate_series(0, 15)) AS i(i),
       UNNEST(generate_series(0, 15)) AS j(j)
), tot AS (
  SELECT doc_id, SUM(v) AS s FROM px GROUP BY doc_id
), blk AS (
  SELECT doc_id, (i // 2) * 8 + (j // 2) AS idx, SUM(v) AS bs
  FROM px GROUP BY doc_id, (i // 2) * 8 + (j // 2)
), bits AS (
  SELECT b.doc_id, b.idx,
         CASE WHEN b.bs * 64 > t.s THEN 1 ELSE 0 END AS bit
  FROM blk b JOIN tot t USING (doc_id)
), h AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN idx < 32
                       THEN bit * (CAST(1 AS BIGINT) << idx)
                       ELSE 0 END) AS BIGINT) AS hash_lo,
         CAST(SUM(CASE WHEN idx >= 32
                       THEN bit * (CAST(1 AS BIGINT) << (idx - 32))
                       ELSE 0 END) AS BIGINT) AS hash_hi
  FROM bits GROUP BY doc_id
)
SELECT doc_id, hash_lo, hash_hi,
       CAST(COUNT(*) OVER (PARTITION BY hash_hi, hash_lo) AS BIGINT)
         AS group_size
FROM h ORDER BY doc_id
"""


def q_lang_centroids(sf_dir: str):
    """Grouped VECTOR aggregate (the distributed k-means update step —
    what IVF training needs at corpus scale): per-language embedding sums
    as (lang, dim, sum_e6, n) with exact integer parity (element-wise
    1e6-scaling; float32→double widening is lossless on both engines)."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.similarity import _list_col_to_matrix

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    joined = broadcast_join(emb, docs, key="vec_id", concurrency=_pool())

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        m = _list_col_to_matrix(t["embedding"])
        # element-wise half-away rounding via the same Arrow kernel as
        # _cents — np.round is half-to-even and would diverge from DuckDB
        flat = pa.array(m.reshape(-1).astype(np.float64))
        ints = pc.cast(
            pc.round(
                pc.multiply(flat, 1e6), round_mode="half_towards_infinity"
            ),
            pa.int64(),
        ).to_numpy()
        df = pd.DataFrame(ints.reshape(m.shape))
        df["lang"] = t["lang"].to_pylist()
        g = df.groupby("lang")
        sums = g.sum()
        ns = g.size()
        dims = np.arange(m.shape[1], dtype=np.int64)
        out = {
            "lang": np.repeat(sums.index.to_numpy(), m.shape[1]),
            "dim": np.tile(dims + 1, len(sums)),
            "sum_e6": sums.to_numpy().reshape(-1),
            "n": np.repeat(ns.to_numpy(), m.shape[1]),
        }
        return pa.Table.from_pydict(out)

    parts = joined.map_batches(partial, batch_format="pyarrow")
    return pre_aggregated_sum(
        parts, keys=["lang", "dim"], sums={"sum_e6": "sum_e6", "n": "n"}
    )


SQL_LANG_CENTROIDS = """
WITH j AS (
  SELECT d.lang, e.embedding
  FROM embeddings e JOIN documents d ON e.vec_id = d.doc_id
), u AS (
  SELECT lang, i.i AS dim, CAST(j.embedding[i.i] AS DOUBLE) AS x
  FROM j CROSS JOIN (SELECT unnest(range(1, 65)) AS i) i
)
SELECT lang, dim,
       CAST(SUM(CAST(ROUND(1000000 * x) AS BIGINT)) AS BIGINT) AS sum_e6,
       CAST(COUNT(*) AS BIGINT) AS n
FROM u GROUP BY lang, dim
"""


# ---------------------------------------------------------------------------
# flagship extraction (rows-only: DOM semantics are not SQL-expressible)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# flagship extraction (rows-only: DOM semantics are not SQL-expressible)
# ---------------------------------------------------------------------------


def q_extract_spans(sf_dir: str):
    """documents → interleaved span wrap → extraction pipeline → flattened
    span rows (doc_id, seq, kind, text, media_ref)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ds = ds.map_batches(wrap_flat_documents, batch_format="pyarrow")
    ds = build_extraction_pipeline(
        ds, num_partitions=_dedup._default_join_partitions(), salt_threshold=None,
        concurrency=_pool(), batch_size=32,
    )

    def flatten(t: pa.Table) -> pa.Table:
        # Arrow-native explode: list_parent_indices + list_flatten +
        # struct_field — no Python row loop in the headline output stage
        spans = t["spans"].combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        return pa.Table.from_arrays(
            [
                pc.take(t["doc_id"].combine_chunks(), parent),
                pc.struct_field(flat, "offset"),
                pc.struct_field(flat, "kind"),
                pc.struct_field(flat, "text"),
                pc.struct_field(flat, "media_ref"),
            ],
            names=["doc_id", "seq", "kind", "text", "media_ref"],
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def q_extract_rules(sf_dir: str):
    """Rules-mode flagship: a goose rule tree (grid over article paragraphs
    + attr extraction) evaluated through the full distributed pipeline —
    wrap → normalize → actor-pool DOM extract → flatten (rows-only)."""
    rules = {
        "collection": [
            {"name": "title", "scope": "article h1", "transform": [{"type": "trim"}]},
            {"name": "paras", "scope": "article p", "type": "array"},
            {
                "name": "sections",
                "scope": "article",
                "collection": [
                    [
                        {"name": "head", "scope": "h1", "id": True},
                        {"name": "first_para", "scope": "p:first"},
                    ]
                ],
            },
            {"name": "nav_links", "scope": "nav a", "attr": "href", "type": "array"},
        ]
    }
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    ds = ds.map_batches(wrap_flat_documents, batch_format="pyarrow")
    ds = build_extraction_pipeline(
        ds, rules, num_partitions=_dedup._default_join_partitions(), salt_threshold=None,
        concurrency=_pool(), batch_size=32,
    )

    def flatten(t: pa.Table) -> pa.Table:
        spans = t["spans"].combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        return pa.Table.from_arrays(
            [
                pc.take(t["doc_id"].combine_chunks(), parent),
                pc.struct_field(flat, "offset"),
                pc.struct_field(flat, "text"),
            ],
            names=["doc_id", "seq", "text"],
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


def q_link_graph(sf_dir: str):
    """Hyperlink in-degree over a DOM-extracted link graph, ORACLE-CHECKED.

    Pages are synthesized deterministically from (doc_id, text) — doc ``i``
    links to ``(i*7+k) % 1000`` for ``k = 1..(i%3)+1`` — so SQL states the
    expected edge set in closed form (LATERAL generate_series) while the
    engine must recover it through the REAL extraction stack: tokenizer →
    HTML5 tree builder → compiled ``a[href]`` CSS selector → attribute read,
    with arbitrary entity-escaped document text in the way. Any parser bug
    that drops, duplicates, or reorders anchors breaks the hash match. The
    in-degree rollup is the partial/combiner pattern (one row per
    (batch, dst) crosses the exchange)."""
    from goose_parser_ray.functions.linkgraph import extract_links
    from goose_parser_ray.functions.relational import pre_aggregated_sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    edges = extract_links(ds, concurrency=_pool())
    deg = pre_aggregated_sum(edges, ["dst"], {}, count_alias="in_degree")
    return deg.sort("dst")


SQL_LINK_GRAPH = """
SELECT CAST((d.doc_id * 7 + g.k) % 1000 AS BIGINT) AS dst,
       CAST(COUNT(*) AS BIGINT) AS in_degree
FROM documents d,
     LATERAL (SELECT unnest(generate_series(1, d.doc_id % 3 + 1)) AS k) g
GROUP BY 1
ORDER BY 1
"""


def q_domain_cap(sf_dir: str):
    """URL curation (C4/RefinedWeb shape), ORACLE-CHECKED: synthesize a
    deterministic URL per document, extract the registrable domain through
    the vectorized RE2 public-suffix path (multi-label ``co.uk`` kept as
    three labels, everything else two — including stripping ``www.``/
    ``cdn.`` subdomains), then cap each domain at 8 documents in
    cross-engine-exact Knuth-hash order. The kept membership itself is
    compared, so the oracle guards both the parser and the cap's
    determinism. Map-side prune bounds the exchange at cap rows per
    (block, domain)."""
    from goose_parser_ray.functions.urltools import (
        add_registrable_domain,
        cap_per_domain,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def add_url(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        # Arrow has no modulo kernel; id - (id // m) * m (ids non-negative)
        mod3 = pc.subtract(ids, pc.multiply(pc.divide(ids, 3), pa.scalar(3, pa.int64())))
        sub = pc.if_else(
            pc.equal(mod3, 0),
            pa.scalar("www."),
            pc.if_else(pc.equal(mod3, 1), pa.scalar("cdn."), pa.scalar("")),
        )
        mod2 = pc.subtract(ids, pc.multiply(pc.divide(ids, 2), pa.scalar(2, pa.int64())))
        tld = pc.if_else(pc.equal(mod2, 0), pa.scalar(".com"), pa.scalar(".co.uk"))
        url = pc.binary_join_element_wise(
            pa.scalar("https://"),
            sub,
            t["source"],
            tld,
            pa.scalar("/p/"),
            pc.cast(ids, pa.string()),
            "",
        )
        return pa.Table.from_arrays(
            [ids, url], names=["doc_id", "url"]
        )

    ds = ds.map_batches(add_url, batch_format="pyarrow")
    ds = ds.map_batches(add_registrable_domain, batch_format="pyarrow")
    ds = ds.select_columns(["doc_id", "domain"])
    kept = cap_per_domain(ds, cap=8)
    return kept.sort(["domain", "doc_id"])


SQL_DOMAIN_CAP = """
WITH u AS (
  SELECT doc_id,
         'https://'
         || CASE doc_id % 3 WHEN 0 THEN 'www.' WHEN 1 THEN 'cdn.' ELSE '' END
         || source
         || CASE doc_id % 2 WHEN 0 THEN '.com' ELSE '.co.uk' END
         || '/p/' || doc_id AS url
  FROM documents
), d AS (
  SELECT doc_id,
         regexp_extract(regexp_extract(url, '^https?://([^/:]+)', 1),
                        '([^.]+\\.co\\.uk|[^.]+\\.[^.]+)$', 1) AS domain,
         (doc_id * 2654435761) % 4294967296 AS hv
  FROM u
), r AS (
  SELECT doc_id, domain,
         ROW_NUMBER() OVER (PARTITION BY domain ORDER BY hv, doc_id) AS rn
  FROM d
)
SELECT CAST(doc_id AS BIGINT) AS doc_id, domain
FROM r WHERE rn <= 8
ORDER BY domain, doc_id
"""


def q_event_throttle(sf_dir: str):
    """Streaming throttle/debounce dedup, ORACLE-CHECKED: an event survives
    iff the previous event of the same (user, type) — by raw arrival, kept
    or not — is more than 600 s older. LAG semantics (not chained-session
    semantics), so the filter is one vectorized shift per bucketed group;
    buckets are data-proportional on user_id."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    nb = num_shuffle_buckets(ds.count())

    def add_bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "user_id", nb, "__db")

    def throttle(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "event_type", "ts", "event_id"], kind="mergesort"
        )
        prev = g.groupby(["user_id", "event_type"])["ts"].shift()
        keep = prev.isna() | ((g["ts"] - prev).dt.total_seconds() > 600)
        out = g[keep]
        return pd.DataFrame(
            {
                "event_id": out["event_id"],
                "user_id": out["user_id"],
                "event_type": out["event_type"],
                "ts_s": out["ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
            }
        )

    ds = ds.map_batches(add_bucket, batch_format="pyarrow")
    return (
        ds.groupby("__db")
        .map_groups(throttle, batch_format="pandas")
        .sort("event_id")
    )


SQL_EVENT_THROTTLE = """
WITH o AS (
  SELECT event_id, user_id, event_type, ts,
         LAG(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev_ts
  FROM events
)
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       event_type,
       strftime(ts, '%Y-%m-%d %H:%M:%S') AS ts_s
FROM o
WHERE prev_ts IS NULL OR ts - prev_ts > INTERVAL 600 SECOND
ORDER BY event_id
"""


def q_editdist_pairs(sf_dir: str):
    """Edit-distance-1 similarity join (FastSS deletion-neighborhood
    blocking — see ``functions/editdist.py``), ORACLE-CHECKED against
    DuckDB's built-in ``levenshtein``: every customer-name pair at exactly
    distance 1. Zero-miss blocking + exact verification, so this is the
    one approximate-family member whose full output hash-matches a brute
    SQL self-join."""
    from goose_parser_ray.functions.editdist import edit1_pairs

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    pairs = edit1_pairs(ds, col="c_name", id_col="c_custkey")
    return pairs.sort(["id_a", "id_b"])


SQL_EDITDIST_PAIRS = """
SELECT CAST(a.c_custkey AS BIGINT) AS id_a,
       CAST(b.c_custkey AS BIGINT) AS id_b
FROM customer a
JOIN customer b
  ON a.c_custkey < b.c_custkey
 AND levenshtein(a.c_name, b.c_name) = 1
ORDER BY id_a, id_b
"""


_PROFILE_COLS = ["user_id", "event_type", "props"]


def q_profile(sf_dir: str):
    """One-shot data-profiling operator (Deequ shape), ORACLE-CHECKED: per
    column — row count, null count, EXACT distinct count, lexicographic
    min/max (all values profiled through their string form, so one output
    schema covers every input type; integer→string casts format identically
    in both engines). Stats come from mergeable per-batch partials (3 rows
    per batch); the distinct count is one bounded shuffle over per-batch-
    unique (col, v) pairs. Two column-pruned reads of the source — no
    derived-table re-execution, no driver materialization of values."""
    import pandas as pd

    from ray.data.aggregate import Max, Min, Sum

    from goose_parser_ray.functions.relational import (
        distinct_rows,
        pre_aggregated_sum,
    )

    ds = _read(sf_dir, "events", _PROFILE_COLS)

    def long_form(t: pa.Table) -> pa.Table:
        cols, vals = [], []
        for c in _PROFILE_COLS:
            v = pc.cast(t[c], pa.string())
            cols.append(pa.array([c] * t.num_rows, pa.string()))
            vals.append(v.combine_chunks() if hasattr(v, "chunks") else v)
        return pa.Table.from_arrays(
            [pa.concat_arrays(cols), pa.concat_arrays(vals)],
            names=["col", "v"],
        )

    def stats_partial(t: pa.Table) -> pa.Table:
        lf = long_form(t)
        df = lf.to_pandas()
        g = df.groupby("col", dropna=False)
        out = pd.DataFrame(
            {
                "col": list(g.groups),
                "n_p": g.size().to_numpy().astype("int64"),
                "nulls_p": g["v"].apply(lambda s: int(s.isna().sum())).to_numpy(),
                "min_p": g["v"].min().to_numpy(),
                "max_p": g["v"].max().to_numpy(),
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    stats = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .groupby("col")
        .aggregate(
            Sum("n_p", alias_name="n"),
            Sum("nulls_p", alias_name="nulls"),
            Min("min_p", alias_name="min_v"),
            Max("max_p", alias_name="max_v"),
        )
        .to_pandas()
    )

    def long_nonnull(t: pa.Table) -> pa.Table:
        lf = long_form(t)
        return lf.filter(pc.is_valid(lf["v"]))

    long = ds.map_batches(long_nonnull, batch_format="pyarrow")
    dis = distinct_rows(long, ["col", "v"])
    nd = (
        pre_aggregated_sum(dis, ["col"], {}, count_alias="n_distinct")
        .to_pandas()
    )

    out = stats.merge(nd, on="col", how="left")
    out["n"] = out["n"].astype("int64")
    out["nulls"] = out["nulls"].astype("int64")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return out.sort_values("col").reset_index(drop=True)[
        ["col", "n", "nulls", "n_distinct", "min_v", "max_v"]
    ]


SQL_PROFILE = """
WITH p AS (
  SELECT 'user_id' AS col, CAST(user_id AS VARCHAR) AS v FROM events
  UNION ALL SELECT 'event_type', event_type FROM events
  UNION ALL SELECT 'props', props FROM events
)
SELECT col, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(CASE WHEN v IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS nulls,
       CAST(COUNT(DISTINCT v) AS BIGINT) AS n_distinct,
       MIN(v) AS min_v, MAX(v) AS max_v
FROM p GROUP BY col ORDER BY col
"""


def q_tree_rollup(sf_dir: str):
    """Hierarchy rollup (recursive-closure class), ORACLE-CHECKED against a
    genuine ``WITH RECURSIVE`` CTE: docs form a decimal tree (parent =
    id // 10) and every node's subtree size is counted. The distributed
    plan exploits the bounded depth (≤ ⌈log10(max_id)⌉): each row fans out
    its ancestor chain ARITHMETICALLY map-side (≤ 8 rows, no joins, no
    iteration) and one partial-combined count per ancestor finishes it —
    the recursion is in the oracle, not the engine."""
    from goose_parser_ray.functions.relational import pre_aggregated_sum

    ds = _read(sf_dir, "documents", ["doc_id"])

    def ancestors(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        chains = [ids]
        cur = ids
        while (cur > 0).any():
            nxt = cur // 10
            # a node's chain continues only while the PREVIOUS link was >0;
            # mark finished chains with -1 and drop them after concat
            nxt = np.where(cur > 0, nxt, -1)
            chains.append(nxt)
            cur = np.where(cur > 0, nxt, np.int64(0))
        flat = np.concatenate(chains)
        flat = flat[flat >= 0]
        return pa.Table.from_pydict({"node": pa.array(flat, pa.int64())})

    fanned = ds.map_batches(ancestors, batch_format="pyarrow")
    return pre_aggregated_sum(
        fanned, ["node"], {}, count_alias="subtree"
    ).sort("node")


SQL_TREE_ROLLUP = """
WITH RECURSIVE a AS (
  SELECT doc_id AS node, doc_id AS anc FROM documents
  UNION ALL
  SELECT node, anc // 10 FROM a WHERE anc > 0
)
SELECT CAST(anc AS BIGINT) AS node, CAST(COUNT(*) AS BIGINT) AS subtree
FROM a GROUP BY anc ORDER BY node
"""


# ---------------------------------------------------------------------------
# oracle twins for the extraction flagships (r5: rows-only -> hash-checked)
# ---------------------------------------------------------------------------

# Shared closed form of ``sources/corpus.py:wrap_flat_documents`` +
# ``_paragraphs``: the greedy 200-char word-accumulation split is restated
# as a recursive CTE over per-word prefix sums (break = first word whose
# cumulative (len+1) since the last break reaches 200), paragraphs as
# ordered string_agg windows between breaks. P = paragraph count per doc.
_SQL_WRAP_CTE = r"""
WITH RECURSIVE wl AS (
  SELECT doc_id, source,
         list_filter(regexp_split_to_array(COALESCE(text,''), '\s+'),
                     x -> x <> '') AS ws
  FROM documents
),
w AS (
  SELECT doc_id, unnest(ws) AS word, generate_subscripts(ws, 1) AS i FROM wl
),
p AS (
  SELECT doc_id, i, word,
         CAST(SUM(length(word) + 1) OVER (
             PARTITION BY doc_id ORDER BY i) AS BIGINT) AS s
  FROM w
),
n AS (
  SELECT d.doc_id, COALESCE(MAX(p.i), 0) AS nw, COALESCE(MAX(p.s), 0) AS st
  FROM documents d LEFT JOIN p ON p.doc_id = d.doc_id GROUP BY d.doc_id
),
b AS (
  SELECT doc_id, 0 AS para, 0 AS end_i, 0 AS end_s, nw, st FROM n
  UNION ALL
  SELECT b.doc_id, b.para + 1,
         COALESCE((SELECT MIN(p.i) FROM p
                   WHERE p.doc_id = b.doc_id AND p.s - b.end_s >= 200), b.nw),
         COALESCE((SELECT MIN(p.s) FROM p
                   WHERE p.doc_id = b.doc_id AND p.s - b.end_s >= 200), b.st),
         b.nw, b.st
  FROM b WHERE b.end_i < b.nw
),
paras AS (
  SELECT bb.doc_id, bb.para,
         (SELECT string_agg(p.word, ' ' ORDER BY p.i) FROM p
          WHERE p.doc_id = bb.doc_id
            AND p.i > bb.lag_e AND p.i <= bb.end_i) AS ptext
  FROM (SELECT doc_id, para, end_i,
               LAG(end_i, 1, 0) OVER (
                   PARTITION BY doc_id ORDER BY para) AS lag_e
        FROM b) bb
  WHERE bb.para >= 1
),
np AS (SELECT doc_id, MAX(para) AS P FROM b GROUP BY doc_id),
titles AS (
  SELECT doc_id,
         CASE WHEN source IS NULL OR source = '' THEN 'untitled'
              ELSE source END AS title
  FROM documents
),
did AS (
  SELECT doc_id,
         'doc-' || lpad(CAST(doc_id AS VARCHAR), 8, '0') AS sid
  FROM documents
)
"""

SQL_EXTRACT_SPANS = _SQL_WRAP_CTE + """
, spans AS (
  SELECT t.doc_id, 0 AS seq, 'text' AS kind, t.title AS text, '' AS media_ref
  FROM titles t
  UNION ALL
  SELECT doc_id, para, 'text', ptext, '' FROM paras
  UNION ALL
  SELECT np.doc_id, np.P + 1, 'image', 'figure ' || d.sid,
         'blob://' || d.sid || '/img'
  FROM np JOIN did d ON d.doc_id = np.doc_id WHERE np.doc_id % 3 = 0
  UNION ALL
  SELECT np.doc_id, np.P + 1 + (CASE WHEN np.doc_id % 3 = 0 THEN 1 ELSE 0 END),
         'pdf', '', 'blob://' || d.sid || '/pdf'
  FROM np JOIN did d ON d.doc_id = np.doc_id WHERE np.doc_id % 7 = 0
)
SELECT d.sid AS doc_id, CAST(s.seq AS INTEGER) AS seq, s.kind, s.text,
       s.media_ref
FROM spans s JOIN did d ON d.doc_id = s.doc_id
"""

SQL_EXTRACT_RULES = _SQL_WRAP_CTE + """
, spans AS (
  -- rule order: title, paras[], sections grid (head, first_para),
  -- nav_links[], then the non-html input spans pass through
  SELECT t.doc_id, 0 AS seq, t.title AS text FROM titles t
  UNION ALL
  SELECT doc_id, para, ptext FROM paras
  UNION ALL
  SELECT t.doc_id, np.P + 1, t.title
  FROM titles t JOIN np ON np.doc_id = t.doc_id
  UNION ALL
  SELECT pr.doc_id, np.P + 2, pr.ptext
  FROM paras pr JOIN np ON np.doc_id = pr.doc_id WHERE pr.para = 1
  UNION ALL
  SELECT np.doc_id, np.P + 2 + l.j, CASE l.j WHEN 1 THEN '/home'
         WHEN 2 THEN '/news' ELSE '/about' END
  FROM np, UNNEST(generate_series(1, 3)) AS l(j)
  UNION ALL
  SELECT np.doc_id, np.P + 6, 'figure ' || d.sid
  FROM np JOIN did d ON d.doc_id = np.doc_id WHERE np.doc_id % 3 = 0
  UNION ALL
  SELECT np.doc_id, np.P + 6 + (CASE WHEN np.doc_id % 3 = 0 THEN 1 ELSE 0 END),
         ''
  FROM np WHERE np.doc_id % 7 = 0
)
SELECT d.sid AS doc_id, CAST(s.seq AS INTEGER) AS seq, s.text
FROM spans s JOIN did d ON d.doc_id = s.doc_id
"""
