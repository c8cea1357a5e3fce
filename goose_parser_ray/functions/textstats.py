"""Text analysis over a document table: token counting, quality scoring,
language-ID, fingerprinting. All vectorized (pyarrow.compute / numpy) —
no Python row loops in batch bodies except where a hash must see each value.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# tiny bundled stopword sets for the n-gram/stopword language heuristic
STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset("the a of to and in is it you that for on with as".split()),
    "de": frozenset("der die das und ist nicht ein eine zu mit von für".split()),
    "fr": frozenset("le la les et est un une pour dans que de avec".split()),
    "es": frozenset("el la los las y es un una para en que con".split()),
    "ru": frozenset("и в не на я что он как это по но".split()),
}


def add_token_count(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whitespace token count — vectorized: count \\S+ runs."""
    n = pc.count_substring_regex(batch[col], pattern=r"\S+")
    return batch.append_column("n_tokens", pc.cast(n, pa.int64()))


def add_punct_count(batch: pa.Table, col: str = "text") -> pa.Table:
    n = pc.count_substring_regex(batch[col], pattern=r"[.!?]")
    return batch.append_column("n_punct", pc.cast(n, pa.int64()))


def add_quality_score(
    batch: pa.Table, col: str = "text", round_digits: int | None = 4
) -> pa.Table:
    """Heuristic quality in [0,1]: length band + punctuation presence +
    mean-word-length band + stopword hit ratio. Deterministic, vectorized.
    ``round_digits=None`` keeps full float64 precision (oracle-parity path
    converts to integer basis points instead of rounding)."""
    text = batch[col]
    n_chars = pc.cast(pc.utf8_length(text), pa.float64())
    n_tokens = pc.cast(
        pc.count_substring_regex(text, pattern=r"\S+"), pa.float64()
    )
    n_punct = pc.cast(
        pc.count_substring_regex(text, pattern=r"[.!?]"), pa.float64()
    )
    n_stop = pc.cast(
        pc.count_substring_regex(
            text,
            pattern=r"(?i)\b(?:" + "|".join(sorted(STOPWORDS["en"])) + r")\b",
        ),
        pa.float64(),
    )
    safe_tokens = pc.max_element_wise(n_tokens, pa.scalar(1.0))
    mean_word = pc.divide(n_chars, safe_tokens)
    len_score = pc.min_element_wise(
        pc.divide(n_chars, pa.scalar(500.0)), pa.scalar(1.0)
    )
    punct_score = pc.min_element_wise(n_punct, pa.scalar(1.0))
    word_score = pc.if_else(
        pc.and_(pc.greater_equal(mean_word, 3.0), pc.less_equal(mean_word, 12.0)),
        pa.scalar(1.0),
        pa.scalar(0.0),
    )
    stop_score = pc.min_element_wise(
        pc.multiply(pc.divide(n_stop, safe_tokens), pa.scalar(4.0)), pa.scalar(1.0)
    )
    quality = pc.add(
        pc.add(pc.multiply(len_score, 0.4), pc.multiply(punct_score, 0.1)),
        pc.add(pc.multiply(word_score, 0.3), pc.multiply(stop_score, 0.2)),
    )
    if round_digits is not None:
        quality = pc.round(quality, ndigits=round_digits)
    return batch.append_column("quality", quality)


# tokenizer shared by the engine and the generated DuckDB oracle: words are
# maximal runs of Unicode letters/digits/underscore. RE2's \b is ASCII-only
# (Cyrillic stopwords never matched under the old \b patterns — r2 ADVICE),
# so language counting is split-then-set-membership instead of regex-count.
WORD_SPLIT_RE = r"[^\p{L}\p{N}_]+"


class LangIdActor:
    """Stopword-hit language heuristic — an actor-pool stage: per-language
    stopword value-sets are built once per actor in ``__init__`` (SURVEY.md
    actor-state rule). Counting is Unicode-safe and fully vectorized: one
    RE2 split into words (``pc.split_pattern_regex`` on lower-cased text),
    then one ``pc.is_in`` membership pass per language over the flat word
    array + a bincount back to doc rows. The DuckDB oracle is generated
    from the same split pattern + stopword sets (regexp_split_to_array +
    list_filter), so tokenization semantics agree by construction. Winner =
    earliest language (en, de, fr, es, ru order) reaching the max count;
    'und' when every count is zero."""

    LANG_ORDER = ("en", "de", "fr", "es", "ru")

    def __init__(self, col: str = "text") -> None:
        self.col = col
        self.stopsets = {
            lang: pa.array(sorted(STOPWORDS[lang]), pa.string())
            for lang in self.LANG_ORDER
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        lowered = pc.fill_null(pc.utf8_lower(batch[self.col]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        counts = np.zeros((len(self.LANG_ORDER), n), dtype=np.int64)
        for i, lang in enumerate(self.LANG_ORDER):
            hit = pc.is_in(flat, value_set=self.stopsets[lang]).to_numpy(
                zero_copy_only=False
            )
            if hit.any():
                counts[i] = np.bincount(parent[hit], minlength=n)
        best = counts.argmax(axis=0)  # earliest index wins ties (np argmax)
        langs = np.array(self.LANG_ORDER)
        out = np.where(counts.max(axis=0) > 0, langs[best], "und")
        return batch.append_column("lang_pred", pa.array(out.tolist(), pa.string()))


def add_fingerprint(batch: pa.Table, col: str = "text") -> pa.Table:
    """Deterministic document fingerprint: position-weighted XOR over
    rolling 8-gram word-shingle hashes — stable across processes
    (fixed-key vectorized hash, no PYTHONHASHSEED — SURVEY.md §7.6-7).

    Fully vectorized: one flat word array → one pandas-hash pass → numeric
    8-gram combine → per-doc ``bitwise_xor.reduceat``; no per-shingle
    Python work."""
    import pandas as pd

    texts = batch[col].to_pylist()
    word_lists = [(t or "").lower().split() for t in texts]
    lens = np.array([len(w) for w in word_lists], dtype=np.int64)
    fps = np.zeros(len(texts), dtype=np.uint64)
    nonempty = lens > 0
    if nonempty.any():
        flat: list[str] = []
        for w, k in zip(word_lists, nonempty):
            if k:
                flat.extend(w)
        wh = pd.util.hash_pandas_object(
            pd.Series(flat, dtype=object), index=False
        ).to_numpy()
        K, C = 8, np.uint64(1_000_003)
        ne_lens = lens[nonempty]
        doc_ends = np.cumsum(ne_lens)
        doc_starts = doc_ends - ne_lens
        # words remaining in the SAME doc from each flat position — the
        # polynomial combine below must never read past a doc boundary, or a
        # short doc's truncated shingle would absorb the NEXT doc's words and
        # the fingerprint would depend on batch composition (r2 ADVICE).
        doc_of = np.repeat(np.arange(len(ne_lens)), ne_lens)
        rem = doc_ends[doc_of] - np.arange(len(flat), dtype=np.int64)
        acc = wh.copy()
        for j in range(1, K):
            acc = np.where(j < rem, acc * C + np.roll(wh, -j), acc)
        # shingle start positions per doc: max(1, len-7) starts (short docs
        # fingerprint their single truncated shingle — truncated at the doc
        # boundary, combining only their own < K words)
        n_sh = np.maximum(ne_lens - (K - 1), 1)
        valid = np.zeros(len(flat), dtype=bool)
        pos_w = np.empty(len(flat), dtype=np.uint64)
        for s, ns in zip(doc_starts, n_sh):
            valid[s : s + ns] = True
            pos_w[s : s + ns] = (np.arange(ns) % 7 + 1).astype(np.uint64)
        weighted = acc[valid] * pos_w[valid]
        offsets = np.concatenate([[0], np.cumsum(n_sh)[:-1]])
        fps[nonempty] = np.bitwise_xor.reduceat(weighted, offsets)
    out = (fps & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
    return batch.append_column("fingerprint", pa.array(out))


def normalize_unicode(
    batch: "pa.Table", col: str = "text", form: str = "NFC",
    out: str = "text_norm",
) -> "pa.Table":
    """Unicode normalization (NFC/NFKC/NFD/NFKD) as a pure map stage —
    the canonical first step of web-corpus cleaning (decomposed accents,
    compatibility ligatures, width variants all collapse to one form so
    downstream dedup/tokenization see one representation). Arrow has no
    normalization kernel; pandas ``str.normalize`` wraps stdlib
    ``unicodedata`` — per-element C-loop at the ingest boundary, identical
    semantics to DuckDB's ``nfc_normalize`` for form=NFC (oracle-paired).
    """
    import pandas as pd

    s = batch[col].to_pandas().astype("string")
    normed = s.str.normalize(form).astype(object).where(s.notna(), None)
    return batch.append_column(out, pa.array(normed, pa.string()))


def _flat_words(col: "pa.ChunkedArray | pa.Array"):
    """Whitespace-split every string, flatten: returns (words as a pandas
    Series, parent row index per word as numpy int array). One regex
    split + Arrow list flatten — no per-row Python; empty-string split
    artifacts are filtered so the token set equals ``\\S+`` extraction."""
    words_list = pc.split_pattern_regex(col, pattern=r"\s+")
    flat = pc.list_flatten(words_list)
    parent = pc.list_parent_indices(words_list)
    mask = pc.not_equal(flat, "")
    flat, parent = flat.filter(mask), parent.filter(mask)
    return flat.to_pandas(), parent.to_numpy(zero_copy_only=False)


def add_repetition_signals(batch: pa.Table, col: str = "text") -> pa.Table:
    """Gopher/C4-style repetition quality signals, per doc: word total,
    distinct-word count, duplicate-word fraction and top-word fraction
    (both as integer basis points, DuckDB-rounding-matched — the standard
    "drop boilerplate/spam" gate in pretraining cleanup). Vectorized:
    one regex split, Arrow list flatten, two pandas groupbys over
    (doc, word-hash) — no per-row Python. Docs with zero words emit
    all-zero signals (callers filter upstream for oracle parity)."""
    import pandas as pd

    words, parent = _flat_words(batch[col])

    n = batch.num_rows
    total = np.zeros(n, np.int64)
    distinct = np.zeros(n, np.int64)
    mx = np.zeros(n, np.int64)
    if len(words):
        df = pd.DataFrame(
            {
                "p": parent,
                "w": pd.util.hash_pandas_object(words, index=False).to_numpy(),
            }
        )
        cnt = df.groupby(["p", "w"], sort=False).size().rename("c").reset_index()
        agg = cnt.groupby("p", sort=False)["c"].agg(["sum", "count", "max"])
        idx = agg.index.to_numpy()
        total[idx] = agg["sum"].to_numpy()
        distinct[idx] = agg["count"].to_numpy()
        mx[idx] = agg["max"].to_numpy()

    tot_a = pa.array(total)
    safe = pa.array(np.maximum(total, 1).astype(np.float64))

    def bp(num: pa.Array) -> pa.Array:
        frac = pc.divide(pc.multiply(pc.cast(num, pa.float64()), 10000.0), safe)
        return pc.cast(
            pc.round(frac, round_mode="half_towards_infinity"), pa.int64()
        )

    batch = batch.append_column("n_words", tot_a)
    batch = batch.append_column("n_distinct", pa.array(distinct))
    batch = batch.append_column(
        "dup_word_bp", bp(pa.array(total - distinct))
    )
    batch = batch.append_column("top_word_bp", bp(pa.array(mx)))
    return batch


def text_stats_pipeline(ds: ray.data.Dataset, col: str = "text") -> ray.data.Dataset:
    """All text-analysis columns in one pass (used by queries surface)."""
    ds = ds.map_batches(lambda t: add_token_count(t, col), batch_format="pyarrow")
    ds = ds.map_batches(lambda t: add_punct_count(t, col), batch_format="pyarrow")
    ds = ds.map_batches(lambda t: add_quality_score(t, col), batch_format="pyarrow")
    return ds


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (mergeable — guide "Aggregation at scale")
# ---------------------------------------------------------------------------

HLL_P = 12  # 4096 registers → ~1.6% standard error


def hll_sketch_batch(values) -> np.ndarray:
    """One batch → one register array (uint8[4096]). Vectorized: one
    deterministic avalanche-hash pass (pandas SipHash-style, fixed key —
    crc32's linearity visibly biased the estimate on sequential keys),
    ranks from a float64 log2 (exact for ints < 2^53), register update via
    ``np.maximum.at``. No per-value Python work."""
    import pandas as pd

    regs = np.zeros(1 << HLL_P, dtype=np.uint8)
    vals = [str(v) for v in values]
    if not vals:
        return regs
    h = pd.util.hash_pandas_object(
        pd.Series(vals, dtype=object), index=False
    ).to_numpy()
    idx = (h & np.uint64((1 << HLL_P) - 1)).astype(np.int64)
    w = h >> np.uint64(HLL_P)
    bl = np.zeros(len(w), dtype=np.int64)
    nz = w > 0
    # bit_length(w) = floor(log2(w)) + 1; float64 log2 is exact-side-safe
    # for integers below 2^53 (w has 52 bits here)
    bl[nz] = np.floor(np.log2(w[nz].astype(np.float64))).astype(np.int64) + 1
    rank = (53 - bl).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(1 << HLL_P, dtype=np.uint8)
    for s in sketches:
        np.maximum(out, s, out=out)
    return out


def hll_estimate(regs: np.ndarray) -> int:
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / float(np.sum(np.power(2.0, -regs.astype(np.float64))))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for small cardinalities
    return int(round(est))


def hll_distinct(ds, col: str):
    """Distributed distinct-count: one sketch row per batch (map-only), tiny
    driver-side merge — the shuffle-free sketch pattern. Returns int."""
    import pyarrow as _pa

    def sketch(batch: _pa.Table) -> _pa.Table:
        regs = hll_sketch_batch(batch[col].to_pylist())
        return _pa.Table.from_pydict({"regs": [regs.tobytes()]})

    def fold(t: _pa.Table) -> _pa.Table:
        # map-side max-coalesce: ≤64 per-block register rows → 1, bounding
        # the driver take_all() by blocks/64 (elementwise max is
        # associative — estimate unchanged)
        acc = hll_merge(
            [np.frombuffer(b, dtype=np.uint8) for b in t["regs"].to_pylist()]
        )
        return _pa.Table.from_pydict({"regs": [acc.tobytes()]})

    rows = (
        ds.map_batches(sketch, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow", batch_size=64)
        .take_all()
    )
    merged = hll_merge([np.frombuffer(r["regs"], dtype=np.uint8) for r in rows])
    return hll_estimate(merged)


# ---------------------------------------------------------------------------
# TF-IDF top terms
# ---------------------------------------------------------------------------

# Vocabulary sizes at or under this are collected once and broadcast into
# the scoring stage; larger vocabularies (web corpora easily exceed 10^8
# distinct tokens) switch to a hash-partitioned join so neither the driver
# nor every map task holds the full (word, df) table.
VOCAB_BROADCAST_GUARD = 2_000_000


def tfidf_top_terms(
    ds: "ray.data.Dataset",
    n_docs: int,
    *,
    k: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    vocab_broadcast_guard: int = VOCAB_BROADCAST_GUARD,
    join_num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Per-doc top-``k`` TF-IDF terms, integer-exact scoring so every
    engine ranks identically: score = tf × 10000 // df (integer division —
    no float log, no libm risk; the conventional ×N corpus factor is a
    per-corpus CONSTANT, so dropping it leaves the ranking identical while
    keeping the int64 product corpus-size-independent — tf·N·10⁴ would wrap
    negative once tf·N exceeds ~9.2e14; ties broken lexicographically on
    the word). ``n_docs`` is used only to size the shuffle buckets (a
    metadata-cheap row count from the caller).

    Shape: TF per (doc, word) is a map-side pandas groupby per batch (no
    shuffle); DF is one word-keyed partial aggregate. The DF attach is
    SIZE-GATED: vocabularies ≤ ``vocab_broadcast_guard`` rows are collected
    once and shipped via the object store, larger ones attach through a
    hash-partitioned ``Dataset.join`` on the word. Ranking is a per-
    fragment partial top-k (mergeable — prunes to ≤k rows per doc-fragment
    before any shuffle) followed by a doc-bucketed regroup for the exact
    global top-k, so correctness never depends on a doc's TF rows staying
    inside one batch or block."""
    import pandas as pd
    import ray as _ray

    from goose_parser_ray.functions.dedup import bucket_groups
    from goose_parser_ray.functions.relational import (
        keyed_aggregate,
        safe_join,
    )

    def tf_batch(t: pa.Table) -> pa.Table:
        words, parent = _flat_words(t[text_col])
        ids = t[id_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({id_col: ids[parent], "word": words})
        c = df.groupby([id_col, "word"], sort=False).size().rename("tf")
        return pa.Table.from_pandas(c.reset_index(), preserve_index=False)

    tfds = ds.map_batches(tf_batch, batch_format="pyarrow")
    dfreq = keyed_aggregate(
        tfds.select_columns(["word"]), ["word"],
        {"df": ("word", "count")},
    ).materialize()

    def rank_topk(frame: pd.DataFrame) -> pd.DataFrame:
        frame = frame.sort_values(
            [id_col, "score", "word"],
            ascending=[True, False, True], kind="mergesort",
        )
        return frame.groupby(id_col, sort=False).head(k)[
            [id_col, "word", "score"]
        ]

    def score(t: pa.Table, dfv: np.ndarray) -> pd.DataFrame:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pd.DataFrame(
            {
                id_col: t[id_col].to_numpy(zero_copy_only=False),
                "word": t["word"].to_pandas(),
                "score": tf * np.int64(10000) // dfv,
            }
        )

    if dfreq.count() <= vocab_broadcast_guard:
        vocab = dfreq.to_pandas()
        vocab_ref = _ray.put(
            (pa.array(vocab["word"]), pa.array(vocab["df"].to_numpy(np.int64)))
        )

        def score_partial(t: pa.Table) -> pa.Table:
            words_a, df_a = _ray.get(vocab_ref)
            idx = pc.index_in(t["word"], value_set=words_a)
            dfv = pc.take(df_a, idx).to_numpy(zero_copy_only=False)
            return pa.Table.from_pandas(
                rank_topk(score(t, dfv)), preserve_index=False
            )

        scored = tfds.map_batches(score_partial, batch_format="pyarrow")
    else:
        joined = safe_join(
            tfds, dfreq, num_partitions=join_num_partitions, on=("word",)
        )

        def score_partial_joined(t: pa.Table) -> pa.Table:
            dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.Table.from_pandas(
                rank_topk(score(t, dfv)), preserve_index=False
            )

        scored = joined.map_batches(score_partial_joined, batch_format="pyarrow")

    return bucket_groups(scored, id_col, rank_topk, rows=n_docs * k)


def grouped_hll_distinct(
    ds: "ray.data.Dataset",
    key_col: str,
    col: str,
    *,
    n_rows_hint: int | None = None,
) -> "ray.data.Dataset":
    """Per-key approximate distinct count — the scale path for
    COUNT(DISTINCT x) GROUP BY k when per-key exact distinct stops fitting
    (10^12 rows, high-cardinality x). Map-side: one HLL register array per
    (batch, key) — never the raw values — then a TWO-LEVEL merge: sketches
    first combine within (key, shard) groups (shard = register-bytes hash,
    data-proportional count from ``n_rows_hint``), the ≤shards pre-merged
    rows per key then collapse in a final per-key merge+estimate. Group
    payload at both levels is bounded: level 1 holds sketch_rows/shards
    4KiB rows, level 2 exactly ``shards`` rows per key."""
    import zlib

    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    if n_rows_hint is None:
        n_rows_hint = ds.count()
    # ≥1 sketch row per 1024 input rows is the worst realistic density;
    # shards sized so level-1 groups stay bounded as the corpus grows.
    nb = num_shuffle_buckets(max(1, n_rows_hint // 1024))

    def sketch(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "k": t[key_col].to_pandas(),
                "v": t[col].to_pandas(),
            }
        )
        keys, blobs, shards = [], [], []
        for k, g in df.groupby("k", sort=False, dropna=False):
            regs = hll_sketch_batch(g["v"].tolist())
            blob = regs.tobytes()
            keys.append(k)
            blobs.append(blob)
            shards.append(zlib.crc32(blob) % nb)
        # from_pandas=True turns the NaN group key (null inputs —
        # dropna=False keeps them, matching SQL's NULL group) into a real
        # Arrow null, and the cast undoes pandas' int→float widening.
        key_arr = pa.array(pd.Series(keys), from_pandas=True).cast(
            t.schema.field(key_col).type
        )
        return pa.Table.from_arrays(
            [key_arr, pa.array(blobs, pa.binary()), pa.array(shards, pa.int64())],
            names=[key_col, "regs", "__shard"],
        )

    def merge_rows(g: pd.DataFrame) -> pd.DataFrame:
        merged = hll_merge(
            [np.frombuffer(b, dtype=np.uint8) for b in g["regs"]]
        )
        out = g.iloc[:1].copy()
        out["regs"] = [merged.tobytes()]
        return out

    def estimate_rows(g: pd.DataFrame) -> pd.DataFrame:
        merged = hll_merge(
            [np.frombuffer(b, dtype=np.uint8) for b in g["regs"]]
        )
        return pd.DataFrame(
            {
                key_col: [g[key_col].iloc[0]],
                "approx_distinct": np.array(
                    [hll_estimate(merged)], dtype=np.int64
                ),
            }
        )

    sketches = ds.map_batches(sketch, batch_format="pyarrow")
    level1 = sketches.groupby([key_col, "__shard"]).map_groups(
        merge_rows, batch_format="pandas"
    )
    return level1.groupby(key_col).map_groups(
        estimate_rows, batch_format="pandas"
    )


_WINNOW_POWS = None


def winnow_fingerprints_batch(
    texts, k: int = 8, w: int = 4
) -> "tuple[np.ndarray, np.ndarray]":
    """Winnowing fingerprint selection (Schleimer/Wilkerson/Aiken, the
    MOSS scheme): per text, k-gram codepoint-polynomial hashes
    h(i)=Σ code(cᵢ₊ⱼ)·31ʲ, then keep positions whose hash equals the min
    of the CENTERED width-(2w−1) window (clipped at text ends) — the
    winnowing guarantee (≥1 selection per w consecutive k-grams) with a
    boundary-alignment-free spec both the numpy and SQL sides state
    identically. Codepoints via utf-32 reinterpretation and the hash via
    one sliding-window matmul — no per-character Python. Returns
    (n_fp, fp_sum) per text: count and sum of the DISTINCT selected
    hashes (texts shorter than k yield (0, 0); callers drop them to
    mirror a SQL side whose position table simply has no rows)."""
    global _WINNOW_POWS
    if _WINNOW_POWS is None or len(_WINNOW_POWS) != k:
        _WINNOW_POWS = 31 ** np.arange(k, dtype=np.int64)
    n_out = np.zeros(len(texts), np.int64)
    s_out = np.zeros(len(texts), np.int64)
    big = np.iinfo(np.int64).max
    for ix, txt in enumerate(texts):
        if txt is None:
            continue
        codes = np.frombuffer(txt.encode("utf-32-le"), dtype=np.uint32)
        if len(codes) < k:
            continue
        h = (
            np.lib.stride_tricks.sliding_window_view(codes, k).astype(
                np.int64
            )
            @ _WINNOW_POWS
        )
        pad = np.full(w - 1, big, np.int64)
        hp = np.concatenate([pad, h, pad])
        mn = np.min(
            np.lib.stride_tricks.sliding_window_view(hp, 2 * w - 1), axis=1
        )
        uniq = np.unique(h[h == mn])
        n_out[ix] = len(uniq)
        s_out[ix] = int(uniq.sum())
    return n_out, s_out


def winnow_hash_rows(
    texts, doc_ids, k: int = 8, w: int = 4
) -> "tuple[np.ndarray, np.ndarray]":
    """Exploded variant of :func:`winnow_fingerprints_batch`: returns the
    flat (doc_id, hash) rows of each text's DISTINCT winnowed-fingerprint
    set — the per-position selection spec is byte-identical to the scalar
    variant (same k-gram polynomial, same centered clipped window), so the
    SQL twin's pos/wm CTEs describe both. Feeds the MOSS-style dedup join
    (pairs sharing rare fingerprints)."""
    global _WINNOW_POWS
    if _WINNOW_POWS is None or len(_WINNOW_POWS) != k:
        _WINNOW_POWS = 31 ** np.arange(k, dtype=np.int64)
    big = np.iinfo(np.int64).max
    id_parts: list[np.ndarray] = []
    h_parts: list[np.ndarray] = []
    for ix, txt in enumerate(texts):
        if txt is None:
            continue
        codes = np.frombuffer(txt.encode("utf-32-le"), dtype=np.uint32)
        if len(codes) < k:
            continue
        h = (
            np.lib.stride_tricks.sliding_window_view(codes, k).astype(
                np.int64
            )
            @ _WINNOW_POWS
        )
        pad = np.full(w - 1, big, np.int64)
        hp = np.concatenate([pad, h, pad])
        mn = np.min(
            np.lib.stride_tricks.sliding_window_view(hp, 2 * w - 1), axis=1
        )
        uniq = np.unique(h[h == mn])
        h_parts.append(uniq)
        id_parts.append(np.full(len(uniq), doc_ids[ix], np.int64))
    if not h_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(id_parts), np.concatenate(h_parts)


def hashed_bigram_features(
    texts, *, n_buckets: int = 10_000, prefix: int = 8
) -> "tuple[np.ndarray, np.ndarray]":
    """DSIR-style hashed word-bigram features (Xie et al. 2023,
    arXiv:2302.03169 §2 — importance resampling over hashed n-gram
    counts): lowercase, split on non-(letter|digit|_) runs, hash each
    word's first ``prefix`` codepoints with the 31-polynomial, bucket to
    ``n_buckets``, and emit one feature id per CONSECUTIVE in-doc word
    pair. Returns (doc_index, feature_id) flat arrays. The spec is stated
    so a SQL twin can reproduce it term-for-term: word hash
    ``Σ code_i·31^(i-1)`` (i = 1..min(len, prefix), exact int64), bucket
    ``h % n_buckets``, bigram id ``(b1·10007 + b2) % n_buckets``.
    Vectorized: one RE2 split per batch, fixed-width U{prefix} codepoint
    matrix × power vector — no Python loop over words."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    arr = _pc.utf8_lower(_pc.fill_null(_pa.array(texts, _pa.string()), ""))
    words = _pc.split_pattern_regex(arr, pattern=r"[^\p{L}\p{N}_]+")
    if isinstance(words, _pa.ChunkedArray):
        words = words.combine_chunks()
    flat = _pc.list_flatten(words)
    parent = _pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    keep = _pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    toks = np.asarray(flat.to_numpy(zero_copy_only=False), dtype=f"U{prefix}")
    parent = parent[keep]
    toks = toks[keep]
    if len(toks) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    codes = toks.view("<u4").reshape(len(toks), prefix).astype(np.int64)
    pows = 31 ** np.arange(prefix, dtype=np.int64)
    b = (codes @ pows) % n_buckets
    adj = parent[1:] == parent[:-1]
    feat = (b[:-1] * 10007 + b[1:]) % n_buckets
    return parent[1:][adj], feat[adj]
