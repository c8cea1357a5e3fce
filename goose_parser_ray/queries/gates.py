"""Training-data gates: tokens, packing, PII, JSON, repetition, percentile, mixture, decontamination (S21).

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.functions.relational import pre_aggregated_sum

from goose_parser_ray.queries._shared import _read


# ---------------------------------------------------------------------------
# text stats / windowed events
# ---------------------------------------------------------------------------


def q_token_stats(sf_dir: str):
    """Whitespace + BPE-ish token counts (the §2.6 mandate's two
    tokenizations): ``\\S+`` runs and a GPT-2-style pretokenizer regex
    (letter runs / digit runs / punctuation runs, optional leading space —
    the RE2-safe subset, no lookahead, so engine and oracle agree)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(t: pa.Table) -> pa.Table:
        n_tok = pc.cast(pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64())
        n_punct = pc.cast(
            pc.count_substring_regex(t["text"], pattern=r"[.!?]"), pa.int64()
        )
        n_bpe = pc.cast(
            pc.count_substring_regex(
                t["text"], pattern=r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"
            ),
            pa.int64(),
        )
        return pa.Table.from_arrays(
            [t["doc_id"], n_tok, n_punct, n_bpe],
            names=["doc_id", "n_tokens", "n_punct", "n_bpe"],
        )

    return ds.map_batches(stats, batch_format="pyarrow")


SQL_TOKEN_STATS = r"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens,
       CAST(length(regexp_extract_all(text, '[.!?]')) AS BIGINT) AS n_punct,
       CAST(length(regexp_extract_all(text, ' ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+'))
            AS BIGINT) AS n_bpe
FROM documents
"""


def q_pack_sequences(sf_dir: str):
    """Pack-and-chunk (the standard LLM-pretraining layout): tokenize,
    concatenate docs in doc_id order, cut the token stream into 512-token
    training examples. The global exclusive prefix sum is the distributed
    range-bucketed scan in ``functions/packing.py`` (per-bucket totals →
    driver cumsums ≤num_buckets bases → bucketed local scan); the SQL twin
    is a window ``SUM OVER ROWS UNBOUNDED PRECEDING``."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.packing import pack_sequences

    n_rows = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64())
        t = pa.Table.from_arrays([t["doc_id"], n], names=["doc_id", "n_tok"])
        return t.filter(pc.greater(t["n_tok"], 0))

    ds = ds.map_batches(tok, batch_format="pyarrow")
    return pack_sequences(
        ds, order_col="doc_id", size_col="n_tok", seq_len=512, n_rows=n_rows
    )


SQL_PACK_SEQUENCES = """
WITH t AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok
  FROM documents
), f AS (SELECT * FROM t WHERE n_tok > 0),
o AS (
  SELECT doc_id, n_tok,
         CAST(COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_off
  FROM f
)
SELECT doc_id, n_tok, start_off,
       CAST(start_off // 512 AS BIGINT) AS ex_start,
       CAST((start_off + n_tok - 1) // 512 AS BIGINT) AS ex_end
FROM o
"""


def q_redact_pii(sf_dir: str):
    """PII scrubbing (C4/CCNet-style pre-training cleanup): chained
    vectorized RE2 global replaces — email → <EMAIL>, phone → <PHONE>,
    digit run → <NUM>. Pure map stage, no state, no shuffle."""
    from goose_parser_ray.functions.scrub import redact_pii

    ds = _read(sf_dir, "events", ["event_id", "props"])
    return ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["event_id"], redact_pii(t["props"])],
            names=["event_id", "props_redacted"],
        ),
        batch_format="pyarrow",
    )


SQL_REDACT_PII = r"""
SELECT event_id,
       regexp_replace(regexp_replace(regexp_replace(props,
         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
         '\+?[0-9][0-9()\- ]{6,}[0-9]', '<PHONE>', 'g'),
         '[0-9]{2,}', '<NUM>', 'g') AS props_redacted
FROM events
"""


def q_json_extract(sf_dir: str):
    """Semi-structured field extraction: pull the integer ``k`` out of the
    JSON-ish ``props`` blob with ONE vectorized regex (`scrub.py:
    extract_int_field`) — the scale path for flat props columns, vs a
    per-row json.loads Python loop."""
    from goose_parser_ray.functions.scrub import extract_int_field

    ds = _read(sf_dir, "events", ["event_id", "event_type", "props"])
    return ds.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["event_id"], t["event_type"], extract_int_field(t["props"], "k")],
            names=["event_id", "event_type", "k"],
        ),
        batch_format="pyarrow",
    )


SQL_JSON_EXTRACT = r"""
SELECT event_id, event_type,
       CAST(regexp_extract(props, '"k":\s*(-?[0-9]+)', 1) AS BIGINT) AS k
FROM events
"""


def q_repetition_signals(sf_dir: str):
    """Gopher/C4-style repetition quality gate inputs: per-doc word total,
    distinct words, duplicate-word and top-word fractions in basis points
    (``textstats.add_repetition_signals`` — one regex split + Arrow list
    flatten + two vectorized groupbys per batch; map-only, no shuffle)."""
    from goose_parser_ray.functions.textstats import add_repetition_signals

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t: add_repetition_signals(t).drop_columns(["text"]),
        batch_format="pyarrow",
    )


SQL_REPETITION_SIGNALS = r"""
WITH w AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS word
  FROM documents
), c AS (
  SELECT doc_id, word, COUNT(*) AS n FROM w GROUP BY doc_id, word
), s AS (
  SELECT doc_id, CAST(SUM(n) AS BIGINT) AS total,
         CAST(COUNT(*) AS BIGINT) AS n_distinct,
         CAST(MAX(n) AS BIGINT) AS mx
  FROM c GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(s.total, 0) AS n_words,
       COALESCE(s.n_distinct, 0) AS n_distinct,
       COALESCE(CAST(ROUND(10000.0 * (s.total - s.n_distinct) / s.total)
                     AS BIGINT), 0) AS dup_word_bp,
       COALESCE(CAST(ROUND(10000.0 * s.mx / s.total) AS BIGINT), 0)
         AS top_word_bp
FROM documents d LEFT JOIN s USING (doc_id)
"""


def q_percentile_gate(sf_dir: str):
    """Percentile-based corpus gate: keep docs at-or-above their
    language's median length. Per-lang exact discrete median (same
    quantile_disc definition as q_quantiles) collected driver-side — one
    tiny row per language — then a broadcast vectorized filter. At 10^12
    rows the median stage switches to the mergeable grouped quantile
    sketch (functions/sketches.py) with identical plumbing."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["n_chars"].to_numpy())
        return pd.DataFrame(
            {"lang": [g["lang"].iloc[0]],
             "med": [int(v[max(0, int(np.ceil(0.5 * len(v))) - 1)])]}
        )

    meds = ds.groupby("lang").map_groups(med, batch_format="pandas").to_pandas()
    lut = dict(zip(meds["lang"], meds["med"]))
    langs = pa.array(list(lut.keys()))
    cuts = pa.array([lut[k] for k in lut.keys()], pa.int64())

    def gate(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["lang"], value_set=langs)
        cut = pc.take(cuts, idx)
        return t.filter(pc.greater_equal(t["n_chars"], cut))

    return ds.map_batches(gate, batch_format="pyarrow")


SQL_PERCENTILE_GATE = """
WITH m AS (
  SELECT lang, quantile_disc(n_chars, 0.5) AS med
  FROM documents GROUP BY lang
)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d JOIN m ON d.lang = m.lang
WHERE d.n_chars >= m.med
"""


def q_sample_mixture(sf_dir: str):
    """Training-mixture resampling: per-source keep rates (upsample curated
    sources, thin the crawl tail) via ``relational.mixture_resample`` —
    deterministic ``id % 100 < rate(source)``, broadcast rate lookup, pure
    map stage."""
    from goose_parser_ray.functions.relational import mixture_resample

    ds = _read(sf_dir, "documents", ["doc_id", "source"])
    return mixture_resample(
        ds, id_col="doc_id", group_col="source",
        rates_pct={"src0": 100, "src1": 75, "src2": 50, "src3": 25},
        default_pct=10,
    )


SQL_SAMPLE_MIXTURE = """
SELECT doc_id, source FROM documents
WHERE (doc_id % 100) < CASE source
  WHEN 'src0' THEN 100 WHEN 'src1' THEN 75
  WHEN 'src2' THEN 50  WHEN 'src3' THEN 25 ELSE 10 END
"""


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (eval-leak guard): drop every doc sharing
    any word 8-gram with the 'benchmark' set (here: docs with
    doc_id % 97 == 0 stand in for an external eval suite — in production
    the bench texts arrive as a small side input). Bench grams built once
    driver-side, broadcast, probed map-side — corpus streams through."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.dedup import decontaminate_ngrams

    bench_tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    keep = pc.equal(
        pc.subtract(
            bench_tbl["doc_id"],
            pc.multiply(pc.divide(bench_tbl["doc_id"], 97), 97),
        ),
        0,
    )
    bench_texts = bench_tbl.filter(keep)["text"].to_pylist()
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    out = decontaminate_ngrams(ds, bench_texts, n=8)
    return out.select_columns(["doc_id", "lang"])


SQL_DECONTAMINATE = r"""
WITH w AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM documents
), idx AS (
  SELECT doc_id, ws,
         unnest(generate_series(1, greatest(len(ws) - 7, 0))) AS i
  FROM w
), g AS (
  SELECT doc_id, array_to_string(ws[i:i+7], ' ') AS gram FROM idx
), bg AS (
  SELECT DISTINCT gram FROM g WHERE doc_id % 97 = 0
), bad AS (
  SELECT DISTINCT g.doc_id FROM g JOIN bg USING (gram)
)
SELECT d.doc_id, d.lang
FROM documents d LEFT JOIN bad b USING (doc_id)
WHERE b.doc_id IS NULL
"""


def q_gopher_rules(sf_dir: str):
    """Gopher-style document-quality rule gate (Rae et al. 2021 §A1.1 —
    the MassiveWeb filter heuristics), ORACLE-CHECKED with every signal in
    exact integers and every ratio threshold stated cross-multiplied so
    the SQL twin never touches a float: word count bounds [50, 100 000],
    mean word length in [3, 10] (3·n ≤ Σlen ≤ 10·n), ≥ 2 stop-word hits
    (the paper's "stop word" requirement), and ≥ 80% alphabetic words
    (10·n_alpha ≥ 8·n_words). One vectorized RE2 split per batch + flat
    is_in/bincount per-doc counts — the LangIdActor idiom; no Python row
    loop. A named, recognizable LLM-curation gate on top of the raw
    signals quality_score already emits."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        gopher_signals_batch, batch_format="pyarrow"
    )


_GOPHER_STOP10 = ("the", "a", "of", "and", "to", "in", "is", "that", "it", "for")


def gopher_signals_batch(t: pa.Table) -> pa.Table:
    """Shared Gopher-rule signal kernel (see q_gopher_rules; also composed
    by q_curation_funnel)."""
    stopset = pa.array(_GOPHER_STOP10, pa.string())
    if True:
        n = t.num_rows
        text = pc.fill_null(t["text"], "")
        words = pc.split_pattern_regex(text, pattern=r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        n_words = np.bincount(parent[nonempty], minlength=n)
        sum_chars = (
            pc.count_substring_regex(text, pattern=r"\S")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        stop_hit = pc.is_in(flat, value_set=stopset).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.bincount(parent[stop_hit], minlength=n)
        alpha_hit = pc.match_substring_regex(
            flat, pattern=r"^[A-Za-z]+$"
        ).to_numpy(zero_copy_only=False)
        n_alpha = np.bincount(parent[alpha_hit], minlength=n)
        keep = (
            (n_words >= 50)
            & (n_words <= 100_000)
            & (3 * n_words <= sum_chars)
            & (sum_chars <= 10 * n_words)
            & (n_stop >= 2)
            & (10 * n_alpha >= 8 * n_words)
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_words": pa.array(n_words, pa.int64()),
                "sum_word_chars": pa.array(sum_chars, pa.int64()),
                "n_stop": pa.array(n_stop, pa.int64()),
                "n_alpha_words": pa.array(n_alpha, pa.int64()),
                "keep": pa.array(keep.astype(np.int64), pa.int64()),
            }
        )

SQL_GOPHER_RULES = r"""
WITH w AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws,
         length(regexp_replace(text, '\s', '', 'g')) AS sum_chars
  FROM documents
), sig AS (
  SELECT doc_id,
         CAST(len(ws) AS BIGINT) AS n_words,
         CAST(sum_chars AS BIGINT) AS sum_word_chars,
         CAST(len(list_filter(ws, x -> x IN ('the','a','of','and','to',
                                             'in','is','that','it','for')))
              AS BIGINT) AS n_stop,
         CAST(len(list_filter(ws, x -> regexp_full_match(x, '[A-Za-z]+')))
              AS BIGINT) AS n_alpha_words
  FROM w
)
SELECT doc_id, n_words, sum_word_chars, n_stop, n_alpha_words,
       CAST(CASE WHEN n_words >= 50 AND n_words <= 100000
                  AND 3 * n_words <= sum_word_chars
                  AND sum_word_chars <= 10 * n_words
                  AND n_stop >= 2
                  AND 10 * n_alpha_words >= 8 * n_words
             THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM sig
"""


def q_c4_rules(sf_dir: str):
    """C4-style cleaning rules (Raffel et al. 2020 §2.2, the heuristics
    behind the C4 corpus), ORACLE-CHECKED with every signal an exact
    integer: a LINE survives iff it ends in terminal punctuation
    (``[.!?"']``), has ≥ 5 whitespace words, and does not mention
    'javascript' (case-folded); a DOC survives iff ≥ 3 lines survive and
    the raw text contains neither '{' nor 'lorem ipsum'. One vectorized
    newline split per batch, flat per-line RE2 predicates, bincount
    rollups — the gopher_rules idiom; no Python row loop."""
    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        c4_signals_batch, batch_format="pyarrow"
    )


def c4_signals_batch(t: pa.Table) -> pa.Table:
    """Shared C4-rule signal kernel (see q_c4_rules; also composed by
    q_curation_funnel)."""
    if True:
        n = t.num_rows
        text = pc.fill_null(t["text"], "")
        lines = pc.split_pattern(text, pattern="\n")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        n_lines = np.bincount(parent, minlength=n)
        term = pc.match_substring_regex(
            flat, pattern=r"""[.!?"']$"""
        ).to_numpy(zero_copy_only=False)
        n_words_line = (
            pc.count_substring_regex(flat, pattern=r"\S+")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        no_js = np.logical_not(
            pc.match_substring_regex(
                flat, pattern=r"javascript", ignore_case=True
            ).to_numpy(zero_copy_only=False)
        )
        kept_line = term & (n_words_line >= 5) & no_js
        n_kept = np.bincount(parent[kept_line], minlength=n)
        n_kept_words = np.bincount(
            parent[kept_line], weights=n_words_line[kept_line], minlength=n
        ).astype(np.int64)
        has_brace = pc.match_substring(text, pattern="{").to_numpy(
            zero_copy_only=False
        )
        has_lorem = pc.match_substring(
            text, pattern="lorem ipsum", ignore_case=True
        ).to_numpy(zero_copy_only=False)
        keep = (n_kept >= 3) & ~has_brace & ~has_lorem
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_lines": pa.array(n_lines, pa.int64()),
                "n_kept_lines": pa.array(n_kept, pa.int64()),
                "n_kept_words": pa.array(n_kept_words, pa.int64()),
                "has_brace": pa.array(has_brace.astype(np.int64), pa.int64()),
                "has_lorem": pa.array(has_lorem.astype(np.int64), pa.int64()),
                "keep": pa.array(keep.astype(np.int64), pa.int64()),
            }
        )

SQL_C4_RULES = r"""
WITH ln AS (
  SELECT doc_id, text, string_split(text, chr(10)) AS lines
  FROM documents
), sig AS (
  SELECT doc_id,
         CAST(len(lines) AS BIGINT) AS n_lines,
         list_filter(lines, x ->
             regexp_matches(x, '[.!?"'']$')
             AND len(list_filter(regexp_split_to_array(x, '\s+'),
                                 w -> w <> '')) >= 5
             AND NOT regexp_matches(lower(x), 'javascript')) AS kept,
         CASE WHEN contains(text, '{') THEN 1 ELSE 0 END AS has_brace,
         CASE WHEN contains(lower(text), 'lorem ipsum') THEN 1 ELSE 0 END
           AS has_lorem
  FROM ln
)
SELECT doc_id, n_lines,
       CAST(len(kept) AS BIGINT) AS n_kept_lines,
       CAST(coalesce(list_sum(list_transform(kept,
            x -> len(list_filter(regexp_split_to_array(x, '\s+'),
                                 w -> w <> '')))), 0) AS BIGINT)
         AS n_kept_words,
       CAST(has_brace AS BIGINT) AS has_brace,
       CAST(has_lorem AS BIGINT) AS has_lorem,
       CAST(CASE WHEN len(kept) >= 3 AND has_brace = 0 AND has_lorem = 0
             THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM sig
"""


def q_dsir_weights(sf_dir: str):
    """DSIR data-selection scores (Xie et al. 2023, arXiv:2302.03169):
    importance weight of every document under a hashed word-bigram
    feature model of the TARGET distribution (lang='en' here) vs the RAW
    distribution (everything else), ORACLE-CHECKED in the e6 fixed-point
    log discipline (half-away rounding, integer sums — the nb_classify /
    bm25 parity rules). Scale shape: the feature domain is BOUNDED by
    construction (10 000 hash buckets), so training is one map-side
    partial-count pass + a ≤10k-row groupby; the weight table broadcasts
    once via ray.put and scoring is a second shuffle-free map pass.
    Exactly the paper's estimator: log p̂_target(f) − log p̂_raw(f) with
    add-1 smoothing, summed over the doc's bigram counts."""
    B = 10_000
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ref = ray.put(dsir_weights_e6(ds, n_buckets=B))

    def score(t: pa.Table) -> pa.Table:
        from goose_parser_ray.functions.textstats import (
            hashed_bigram_features,
        )

        w = ray.get(ref)
        par, feat = hashed_bigram_features(
            t["text"].to_pylist(), n_buckets=B
        )
        n = t.num_rows
        n_bigrams = np.bincount(par, minlength=n).astype(np.int64)
        score_e6 = np.bincount(
            par, weights=w[feat].astype(np.float64), minlength=n
        ).astype(np.int64)  # exact: |sum| < 2^53
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"],
             "is_target": pc.cast(pc.equal(t["lang"], "en"), pa.int64()),
             "n_bigrams": pa.array(n_bigrams, pa.int64()),
             "score_e6": pa.array(score_e6, pa.int64())}
        )

    return ds.map_batches(score, batch_format="pyarrow")


def dsir_weights_e6(
    ds: ray.data.Dataset, *, n_buckets: int = 10_000
) -> np.ndarray:
    """Train the DSIR hashed-bigram importance weights (shared by
    q_dsir_weights and q_curation_funnel): one map-side partial-count
    pass over the corpus, a <= n_buckets-row groupby, e6 fixed-point
    log-ratio weights."""
    from goose_parser_ray.functions.ml import _round_half_away_e6
    from goose_parser_ray.functions.relational import pre_aggregated_sum
    from goose_parser_ray.functions.textstats import hashed_bigram_features

    B = n_buckets

    def count_partial(t: pa.Table) -> pa.Table:
        par, feat = hashed_bigram_features(
            t["text"].to_pylist(), n_buckets=B
        )
        is_t = (
            pc.equal(t["lang"], "en")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        w_t = is_t[par]
        t_cnt = np.bincount(feat, weights=w_t, minlength=B).astype(np.int64)
        r_cnt = np.bincount(
            feat, weights=1 - w_t, minlength=B
        ).astype(np.int64)
        nz = np.flatnonzero(t_cnt | r_cnt)
        return pa.Table.from_pydict(
            {"feat": pa.array(nz, pa.int64()),
             "t_cnt": pa.array(t_cnt[nz], pa.int64()),
             "r_cnt": pa.array(r_cnt[nz], pa.int64())}
        )

    counts = pre_aggregated_sum(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        keys=["feat"], sums={"t_cnt": "t_cnt", "r_cnt": "r_cnt"},
    ).to_pandas()  # bounded: <= B rows by construction
    t_full = np.zeros(B, np.int64)
    r_full = np.zeros(B, np.int64)
    t_full[counts["feat"].to_numpy()] = counts["t_cnt"].to_numpy()
    r_full[counts["feat"].to_numpy()] = counts["r_cnt"].to_numpy()
    nt, nr = int(t_full.sum()), int(r_full.sum())
    return _round_half_away_e6(
        np.log((t_full + 1) / float(nt + B))
        - np.log((r_full + 1) / float(nr + B))
    ).astype(np.int64)


SQL_DSIR_WEIGHTS = r"""
WITH tok AS (
  SELECT doc_id, lang, w, ord
  FROM (
    SELECT doc_id, lang,
           unnest(regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+')) AS w,
           generate_subscripts(
             regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+'), 1) AS ord
    FROM documents
  ) WHERE w <> ''
), hashed AS (
  SELECT doc_id, lang, ord,
         (SELECT SUM(unicode(substr(w, g.i, 1))
                     * CAST(pow(31, g.i - 1) AS BIGINT))
          FROM UNNEST(generate_series(1, least(len(w), 8))) AS g(i))
           % 10000 AS b,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY ord) AS pos
  FROM tok
), bg AS (
  SELECT a.doc_id, a.lang, (a.b * 10007 + b.b) % 10000 AS feat
  FROM hashed a JOIN hashed b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
), cnt AS (
  SELECT g.f AS feat,
         COALESCE(SUM(CASE WHEN bg.lang = 'en' THEN 1 ELSE 0 END), 0) AS t_cnt,
         COALESCE(SUM(CASE WHEN bg.lang <> 'en' THEN 1 ELSE 0 END), 0) AS r_cnt
  FROM (SELECT unnest(generate_series(0, 9999)) AS f) g
  LEFT JOIN bg ON bg.feat = g.f
  GROUP BY g.f
), tot AS (
  SELECT SUM(t_cnt) AS nt, SUM(r_cnt) AS nr FROM cnt
), wts AS (
  SELECT feat,
         CAST(CASE WHEN x >= 0 THEN floor(x + 0.5) ELSE ceil(x - 0.5) END
              AS BIGINT) AS w_e6
  FROM (
    SELECT feat,
           1e6 * (LN((t_cnt + 1) / CAST(nt + 10000 AS DOUBLE))
                  - LN((r_cnt + 1) / CAST(nr + 10000 AS DOUBLE))) AS x
    FROM cnt CROSS JOIN tot
  )
), doc_score AS (
  SELECT bg.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_bigrams,
         CAST(SUM(w.w_e6) AS BIGINT) AS score_e6
  FROM bg JOIN wts w ON w.feat = bg.feat
  GROUP BY bg.doc_id
)
SELECT d.doc_id,
       CAST(CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS BIGINT) AS is_target,
       COALESCE(s.n_bigrams, 0) AS n_bigrams,
       COALESCE(s.score_e6, 0) AS score_e6
FROM documents d LEFT JOIN doc_score s USING (doc_id)
"""


def q_curation_funnel(sf_dir: str):
    """FLAGSHIP curation funnel, ORACLE-CHECKED end to end: the corpus
    flows through three named web-curation gates IN SEQUENCE — Gopher
    quality rules (Rae et al. 2021) → robots.txt policy (RFC 9309
    longest-match on the synthesized URL) → DSIR importance ≥ 0 (Xie et
    al. 2023) — and the result is the attrition table (stage, n_in,
    n_kept) every corpus report publishes. (C4's line rules are their own
    oracle-checked query; this corpus is single-line synthetic text, so
    that stage would zero the funnel and demonstrate nothing.)
    Engine shape: DSIR weights train in one bounded pass (broadcast
    once); then a SINGLE map pass evaluates all four gates per batch and
    emits one 5-counter partial row per block, so the driver folds a
    block-bounded stream. The DuckDB twin nests the SAME per-gate SQL
    used by the individual oracle-checked queries, so the composition is
    hash-compared, not just row counts."""
    B = 10_000
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    wref = ray.put(dsir_weights_e6(ds, n_buckets=B))

    def partial(t: pa.Table) -> pa.Table:
        from goose_parser_ray.functions.textstats import (
            hashed_bigram_features,
        )

        g = gopher_signals_batch(t.select(["doc_id", "text"]))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mod4 = ids % 4
        robots_ok = (
            (mod4 == 0) | (mod4 == 2) | ((mod4 == 3) & ((ids % 10) % 2 == 0))
        )
        w = ray.get(wref)
        par, feat = hashed_bigram_features(
            t["text"].to_pylist(), n_buckets=B
        )
        score_e6 = np.bincount(
            par, weights=w[feat].astype(np.float64), minlength=t.num_rows
        ).astype(np.int64)
        m_g = g["keep"].to_numpy(zero_copy_only=False) == 1
        m_gr = m_g & robots_ok
        m_grd = m_gr & (score_e6 >= 0)
        return pa.Table.from_pydict(
            {
                "n": [t.num_rows],
                "n_g": [int(m_g.sum())],
                "n_gr": [int(m_gr.sum())],
                "n_grd": [int(m_grd.sum())],
            }
        )

    # one partial row per block — the driver folds a block-bounded stream
    sums = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    chain = [
        ("0_input", int(sums["n"]), int(sums["n"])),
        ("1_gopher", int(sums["n"]), int(sums["n_g"])),
        ("2_robots", int(sums["n_g"]), int(sums["n_gr"])),
        ("3_dsir", int(sums["n_gr"]), int(sums["n_grd"])),
    ]
    return pa.Table.from_pydict(
        {
            "stage": pa.array([s for s, _, _ in chain], pa.string()),
            "n_in": pa.array([a for _, a, _ in chain], pa.int64()),
            "n_kept": pa.array([k for _, _, k in chain], pa.int64()),
        }
    )


SQL_CURATION_FUNNEL = r"""
WITH gw AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '\s+'), x -> x <> '') AS ws,
         length(regexp_replace(text, '\s', '', 'g')) AS sum_chars
  FROM documents
), gsig AS (
  SELECT doc_id,
         CAST(len(ws) AS BIGINT) AS n_words,
         CAST(sum_chars AS BIGINT) AS sum_word_chars,
         CAST(len(list_filter(ws, x -> x IN ('the','a','of','and','to',
                                             'in','is','that','it','for')))
              AS BIGINT) AS n_stop,
         CAST(len(list_filter(ws, x -> regexp_full_match(x, '[A-Za-z]+')))
              AS BIGINT) AS n_alpha_words
  FROM gw
), gopher AS (
  SELECT doc_id,
         CASE WHEN n_words >= 50 AND n_words <= 100000
               AND 3 * n_words <= sum_word_chars
               AND sum_word_chars <= 10 * n_words
               AND n_stop >= 2
               AND 10 * n_alpha_words >= 8 * n_words
          THEN 1 ELSE 0 END AS keep
  FROM gsig
), robots AS (
  SELECT doc_id,
         CASE WHEN doc_id % 4 = 0 OR doc_id % 4 = 2
                   OR (doc_id % 4 = 3 AND (doc_id % 10) % 2 = 0)
          THEN 1 ELSE 0 END AS allowed
  FROM documents
), tok AS (
  SELECT doc_id, lang, w, ord
  FROM (
    SELECT doc_id, lang,
           unnest(regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+')) AS w,
           generate_subscripts(
             regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+'), 1) AS ord
    FROM documents
  ) WHERE w <> ''
), hashed AS (
  SELECT doc_id, lang, ord,
         (SELECT SUM(unicode(substr(w, g.i, 1))
                     * CAST(pow(31, g.i - 1) AS BIGINT))
          FROM UNNEST(generate_series(1, least(len(w), 8))) AS g(i))
           % 10000 AS b,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY ord) AS pos
  FROM tok
), bg AS (
  SELECT a.doc_id, a.lang, (a.b * 10007 + b.b) % 10000 AS feat
  FROM hashed a JOIN hashed b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
), cnt AS (
  SELECT g.f AS feat,
         COALESCE(SUM(CASE WHEN bg.lang = 'en' THEN 1 ELSE 0 END), 0) AS t_cnt,
         COALESCE(SUM(CASE WHEN bg.lang <> 'en' THEN 1 ELSE 0 END), 0) AS r_cnt
  FROM (SELECT unnest(generate_series(0, 9999)) AS f) g
  LEFT JOIN bg ON bg.feat = g.f
  GROUP BY g.f
), tot AS (
  SELECT SUM(t_cnt) AS nt, SUM(r_cnt) AS nr FROM cnt
), wts AS (
  SELECT feat,
         CAST(CASE WHEN x >= 0 THEN floor(x + 0.5) ELSE ceil(x - 0.5) END
              AS BIGINT) AS w_e6
  FROM (
    SELECT feat,
           1e6 * (LN((t_cnt + 1) / CAST(nt + 10000 AS DOUBLE))
                  - LN((r_cnt + 1) / CAST(nr + 10000 AS DOUBLE))) AS x
    FROM cnt CROSS JOIN tot
  )
), dsir AS (
  SELECT d.doc_id, COALESCE(s.score_e6, 0) AS score_e6
  FROM documents d LEFT JOIN (
    SELECT bg.doc_id, CAST(SUM(w.w_e6) AS BIGINT) AS score_e6
    FROM bg JOIN wts w ON w.feat = bg.feat
    GROUP BY bg.doc_id
  ) s USING (doc_id)
), flags AS (
  SELECT d.doc_id,
         g.keep AS m_g,
         g.keep * r.allowed AS m_gr,
         g.keep * r.allowed
           * CASE WHEN ds.score_e6 >= 0 THEN 1 ELSE 0 END AS m_grd
  FROM documents d
  JOIN gopher g USING (doc_id)
  JOIN robots r USING (doc_id)
  JOIN dsir ds USING (doc_id)
), f AS (
  SELECT COUNT(*) AS n, SUM(m_g) AS n_g, SUM(m_gr) AS n_gr,
         SUM(m_grd) AS n_grd
  FROM flags
)
SELECT * FROM (
  SELECT '0_input' AS stage, CAST(n AS BIGINT) AS n_in,
         CAST(n AS BIGINT) AS n_kept FROM f
  UNION ALL
  SELECT '1_gopher', CAST(n AS BIGINT), CAST(n_g AS BIGINT) FROM f
  UNION ALL
  SELECT '2_robots', CAST(n_g AS BIGINT), CAST(n_gr AS BIGINT) FROM f
  UNION ALL
  SELECT '3_dsir', CAST(n_gr AS BIGINT), CAST(n_grd AS BIGINT) FROM f
)
"""


def q_fim_transform(sf_dir: str):
    """Fill-in-the-middle transformation (Bavarian et al. 2022 — the
    PSM reorder every code-LLM data pipeline applies to a slice of the
    corpus), ORACLE-CHECKED: docs with doc_id%4==0 are FIM-ed with
    deterministic split points (prefix = first ⌊n/4⌋ chars, middle the
    next ⌊n/3⌋), re-emitted as <PRE>prefix<SUF>suffix<MID>middle; the
    rest pass through unchanged. Emitted alongside are the exact byte
    offsets of the middle span IN THE REORDERED text (the loss-mask
    input). The twin restates the substring surgery with substr. Scale
    shape: map-only, vectorized slicing, no shuffle."""
    PRE, SUF, MID = "<PRE>", "<SUF>", "<MID>"

    def fim(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        out, ms, me = [], [], []
        for d, s in zip(ids, texts):
            s = s or ""
            if d % 4 != 0:
                out.append(s)
                ms.append(-1)
                me.append(-1)
                continue
            n = len(s)
            a, b = n // 4, n // 4 + n // 3
            pre, mid, suf = s[:a], s[a:b], s[b:]
            rendered = PRE + pre + SUF + suf + MID + mid
            start = len(PRE) + len(pre) + len(SUF) + len(suf) + len(MID)
            out.append(rendered)
            ms.append(start)
            me.append(start + len(mid))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "fim_text": pa.array(out, pa.string()),
                "mid_start": pa.array(ms, pa.int64()),
                "mid_end": pa.array(me, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fim, batch_format="pyarrow"
    )


SQL_FIM_TRANSFORM = """
WITH f AS (
  SELECT doc_id, COALESCE(text, '') AS s, length(COALESCE(text, '')) AS n
  FROM documents
),
cut AS (
  SELECT doc_id, s, n, n // 4 AS a, n // 4 + n // 3 AS b FROM f
)
SELECT doc_id,
       CASE WHEN doc_id % 4 <> 0 THEN s
            ELSE '<PRE>' || substr(s, 1, a) || '<SUF>' || substr(s, b + 1)
                 || '<MID>' || substr(s, a + 1, b - a) END AS fim_text,
       CAST(CASE WHEN doc_id % 4 <> 0 THEN -1
                 ELSE 5 + a + 5 + (n - b) + 5 END AS BIGINT) AS mid_start,
       CAST(CASE WHEN doc_id % 4 <> 0 THEN -1
                 ELSE 5 + a + 5 + (n - b) + 5 + (b - a) END AS BIGINT)
         AS mid_end
FROM cut
"""


def q_chat_template(sf_dir: str):
    """SFT chat-template rendering + loss-mask offsets, ORACLE-CHECKED:
    each document becomes a two-turn conversation (system prompt from
    the source column, user = the first 64 chars, assistant = the rest),
    rendered with an explicit role-tag template; emitted are the full
    rendered string plus the byte [start, end) of the ASSISTANT span —
    the mask every SFT trainer needs so loss is computed only on
    assistant tokens. Wrong concatenation order or an off-by-one in the
    offsets breaks the hash. Scale shape: map-only string surgery."""

    def render(t: pa.Table) -> pa.Table:
        src = t["source"].to_pylist()
        texts = t["text"].to_pylist()
        out, st, en = [], [], []
        for s, x in zip(src, texts):
            s = s or ""
            x = x or ""
            user, asst = x[:64], x[64:]
            r = (
                "<|system|>" + s + "<|user|>" + user + "<|assistant|>" + asst
                + "<|end|>"
            )
            a0 = len("<|system|>") + len(s) + len("<|user|>") + len(user) + len(
                "<|assistant|>"
            )
            out.append(r)
            st.append(a0)
            en.append(a0 + len(asst))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "rendered": pa.array(out, pa.string()),
                "asst_start": pa.array(st, pa.int64()),
                "asst_end": pa.array(en, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "source", "text"]).map_batches(
        render, batch_format="pyarrow"
    )


SQL_CHAT_TEMPLATE = """
WITH f AS (
  SELECT doc_id, COALESCE(source, '') AS s, COALESCE(text, '') AS x
  FROM documents
)
SELECT doc_id,
       '<|system|>' || s || '<|user|>' || substr(x, 1, 64)
         || '<|assistant|>' || substr(x, 65) || '<|end|>' AS rendered,
       CAST(10 + length(s) + 8 + length(substr(x, 1, 64)) + 13 AS BIGINT)
         AS asst_start,
       CAST(10 + length(s) + 8 + length(substr(x, 1, 64)) + 13
            + length(substr(x, 65)) AS BIGINT) AS asst_end
FROM f
"""
