"""Dedup/similarity surface round 4: asymmetric n-gram containment join,
ANN hard-negative mining, and local-outlier-factor screening.

Containment is the quote/inclusion detector Jaccard misses (a short doc
fully quoted inside a long one has containment 1.0 but low Jaccard);
hard negatives and LOF are the two embedding-space curation passes a
contrastive-training pipeline runs after dedup.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.queries._shared import _read


# ---------------------------------------------------------------------------
# asymmetric n-gram containment
# ---------------------------------------------------------------------------


def _with_prefix_docs(t: pa.Table) -> pa.Table:
    """Two pseudo-docs per document: (2·id, full text) and (2·id+1, first
    10 words) — every odd doc is contained in its even sibling by
    construction, giving the join guaranteed true pairs on template-random
    text where organic containment ≥ τ is vanishingly rare."""
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")), r"\s+", " "
        )
    )
    words = pc.split_pattern(norm, pattern=" ")
    head = pc.binary_join(pc.list_slice(words, 0, 10), " ")
    ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(np.concatenate([ids * 2, ids * 2 + 1])),
            "text": pa.concat_arrays(
                [norm.combine_chunks() if isinstance(norm, pa.ChunkedArray)
                 else norm,
                 head.combine_chunks() if isinstance(head, pa.ChunkedArray)
                 else head]
            ),
        }
    )


def q_containment_join(sf_dir: str):
    """Asymmetric 3-gram containment self-join, ORACLE-CHECKED: ordered
    pairs with |G(a) ∩ G(b)| ≥ 0.8·|G(a)| over distinct word-3-gram sets.
    Corpus = each document plus a first-10-words pseudo-doc (the quoted
    fragment), so the prefix-blocked join must recover every sibling pair
    exactly. Scale shape: asymmetric PPJoin prefix blocking (contained
    side indexes its ⌈0.2·la⌉+1 rarest grams, container side all grams,
    zero-miss theorem in functions/dedup.py:containment_join), bucketed
    pair dedup, join-based exact verify — never all-pairs, never a
    driver collection."""
    from goose_parser_ray.functions.dedup import containment_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    docs2 = ds.map_batches(_with_prefix_docs, batch_format="pyarrow")
    out = containment_join(
        docs2, id_col="doc_id", col="text", n=3,
        threshold_num=8, threshold_den=10,
    )
    return out.sort(["id_a", "id_b"])


SQL_CONTAINMENT_JOIN = r"""
WITH norm AS (
  SELECT doc_id,
         trim(regexp_replace(lower(COALESCE(text, '')), '\s+', ' ', 'g')) AS t
  FROM documents
), docs2 AS (
  SELECT doc_id * 2 AS id, t FROM norm
  UNION ALL
  SELECT doc_id * 2 + 1 AS id,
         array_to_string(list_slice(string_split(t, ' '), 1, 10), ' ') AS t
  FROM norm
), arrs AS (
  SELECT id, string_split(t, ' ') AS arr FROM docs2
), tok0 AS (
  SELECT id, arr[g.i] AS tok, g.i AS pos
  FROM arrs, UNNEST(generate_series(1, len(arr))) AS g(i)
), tok AS (
  SELECT id, tok,
         ROW_NUMBER() OVER (PARTITION BY id ORDER BY pos) AS ord
  FROM tok0 WHERE tok <> ''
), sh0 AS (
  SELECT id,
         tok || ' ' || LEAD(tok, 1) OVER w || ' ' || LEAD(tok, 2) OVER w AS s
  FROM tok
  WINDOW w AS (PARTITION BY id ORDER BY ord)
  QUALIFY LEAD(tok, 2) OVER w IS NOT NULL
), sh AS (
  SELECT DISTINCT id, s FROM sh0
), sz AS (
  SELECT id, COUNT(*) AS la FROM sh GROUP BY id
), inter AS (
  SELECT a.id AS id_a, b.id AS id_b, COUNT(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.id <> b.id
  GROUP BY a.id, b.id
)
SELECT id_a, id_b, 10000 * i // sa.la AS cont_e4
FROM inter JOIN sz sa ON sa.id = id_a
WHERE 10 * i >= 8 * sa.la
ORDER BY id_a, id_b
"""


# ---------------------------------------------------------------------------
# ANN hard-negative mining
# ---------------------------------------------------------------------------


class _HardNegTopK:
    """Per-batch local top-k cosine over rows whose label differs from the
    query's label (query matrix normalized once on the driver)."""

    def __init__(self, ids: list, labels: list, matrix: np.ndarray, k: int) -> None:
        self._ids = ids
        self._labels = np.asarray(labels)
        self._m = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        self._k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = np.array(
            batch["embedding"].to_pylist(), dtype=np.float32
        )
        if vecs.size == 0:
            return pa.Table.from_pydict(
                {"query_id": pa.array([], pa.int64()),
                 "vec_id": pa.array([], pa.int64()),
                 "score": pa.array([], pa.int64())}
            )
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = self._m @ vecs.T  # (nq, nb)
        ids = batch["vec_id"].to_numpy(zero_copy_only=False)
        labels = batch["label"].to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi, (qid, qlab) in enumerate(zip(self._ids, self._labels)):
            mask = (labels != qlab) & (ids != qid)
            if not mask.any():
                continue
            s = sims[qi][mask]
            vid = ids[mask]
            k = min(self._k, len(s))
            top = np.argpartition(-s, k - 1)[:k]
            out_q.extend([qid] * k)
            out_v.extend(vid[top].tolist())
            out_s.extend(s[top].astype(np.float64).tolist())
        return pa.Table.from_pydict(
            {"query_id": pa.array(out_q, pa.int64()),
             "vec_id": pa.array(out_v, pa.int64()),
             "score": pa.array(
                 np.asarray(out_s), pa.float64()
             )}
        )


def _merge_hardneg(k: int):
    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["score", "vec_id"], ascending=[False, True],
            kind="mergesort",
        ).head(k)
        g = g.copy()
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query_id", "vec_id", "rank"]]

    return merge


def q_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining, ORACLE-CHECKED: for the 8
    smallest vec_ids, the top-5 cosine neighbors whose LABEL DIFFERS from
    the query's — the nearest wrong-class examples a contrastive trainer
    pairs against each anchor. Scale shape identical to ann_bruteforce
    (query matrix shipped with the kernel, per-batch local top-k matmul,
    one small grouped merge); float32-vs-float64 rank safety per the
    ann_bruteforce gap measurement. Returns (query_id, vec_id, rank)."""
    import pyarrow.parquet as pq

    emb = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    order = pc.array_sort_indices(emb["vec_id"].combine_chunks())[:8]
    head = emb.take(order)
    kernel = _HardNegTopK(
        head["vec_id"].to_pylist(),
        head["label"].to_pylist(),
        np.array(head["embedding"].to_pylist(), dtype=np.float32),
        k=5,
    )
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    partial = ds.map_batches(kernel, batch_format="pyarrow")
    merged = partial.groupby("query_id").map_groups(
        _merge_hardneg(5), batch_format="pandas"
    )
    return merged.sort(["query_id", "rank"])


SQL_HARD_NEGATIVES = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe, label AS qlab
  FROM embeddings ORDER BY vec_id LIMIT 8
), s AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe, e.embedding) AS cos
  FROM q CROSS JOIN embeddings e
  WHERE e.label <> q.qlab AND e.vec_id <> q.query_id
), r AS (
  SELECT query_id, vec_id,
         ROW_NUMBER() OVER (PARTITION BY query_id
                            ORDER BY cos DESC, vec_id ASC) AS "rank"
  FROM s
)
SELECT query_id, vec_id, "rank" FROM r WHERE "rank" <= 5
ORDER BY query_id, "rank"
"""


# ---------------------------------------------------------------------------
# 1-bit minhash accuracy surface
# ---------------------------------------------------------------------------


def q_minhash_1bit(sf_dir: str):
    """1-bit minwise hashing accuracy surface (b-bit minhash, the 64×
    signature-compression scale technique): for every (10k, 10k+1) doc
    pair the packed ONE-WORD signature estimate (J ≈ 2C − 1 from the
    matching-bit fraction) is laid next to the EXACT word-3-gram Jaccard
    computed from full shingle-hash sets, with the e6-scaled absolute
    error per pair. Rows-only by nature (the estimate depends on the
    engine's hash family — no SQL twin can restate it), but fully
    deterministic across runs (fixed permutation seed), and the
    estimator's error bound is pytest-enforced
    (test_recall::test_onebit_minhash_estimator_accuracy). Scale shape:
    signatures and shingle sets are built in ONE vectorized flat pass
    per batch (no per-doc numpy), pairs collapse via a bounded
    two-row-group map_groups."""
    from goose_parser_ray.functions.dedup import (
        OneBitMinHashActor,
        onebit_jaccard_est,
    )

    actor = OneBitMinHashActor()

    def sigs_and_shingles(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        ids = np.asarray(t["doc_id"].to_pylist())
        keep, sigs = actor._batch_signatures(texts)
        bits = sigs.astype(np.uint64) & np.uint64(1)
        packed = np.zeros(len(bits), dtype=np.uint64)
        for p in range(actor.num_perm):
            packed |= bits[:, p] << np.uint64(p)
        # flat shingle-hash pass (same kernel the signatures used)
        word_lists = [(x or "").lower().split() for x in texts]
        lens = np.array([len(w) for w in word_lists], dtype=np.int64)
        flat: list = []
        for w, k in zip(word_lists, keep):
            if k:
                flat.extend(w)
        wh = pd.util.hash_pandas_object(
            pd.Series(flat, dtype=object), index=False
        ).to_numpy()
        sh_all = actor._shingle_hashes(wh, actor.shingle)
        kept_lens = lens[keep]
        ends = np.cumsum(kept_lens)
        valid = np.ones(len(flat), dtype=bool)
        for e in ends:
            valid[max(0, e - (actor.shingle - 1)) : e] = False
        starts = np.concatenate(([0], ends[:-1]))
        shingle_lists = [
            np.unique(sh_all[s:e][valid[s:e]]).tolist()
            for s, e in zip(starts, ends)
        ]
        kept_ids = ids[keep]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(kept_ids.tolist(), pa.int64()),
                "pair": pa.array((kept_ids // 10).tolist(), pa.int64()),
                "packed": pa.array(packed.view(np.int64), pa.int64()),
                "shingles": pa.array(
                    shingle_lists, pa.list_(pa.int64())
                ),
            }
        )

    def pair_filter(t: pa.Table) -> pa.Table:
        mod10 = pc.subtract(
            t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 10), 10)
        )
        return t.filter(pc.less_equal(mod10, 1))

    ds = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pair_filter, batch_format="pyarrow")
        .map_batches(sigs_and_shingles, batch_format="pyarrow")
    )

    def per_pair(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        if len(g) != 2:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                    "est_e6": pd.Series([], dtype=np.int64),
                    "exact_e6": pd.Series([], dtype=np.int64),
                    "err_e6": pd.Series([], dtype=np.int64),
                }
            )
        a, b = g.iloc[0], g.iloc[1]
        sa = np.asarray(a["shingles"], np.int64)
        sb = np.asarray(b["shingles"], np.int64)
        inter = np.intersect1d(sa, sb).size
        union = sa.size + sb.size - inter
        exact = inter / union if union else 0.0
        est = float(
            onebit_jaccard_est(
                np.array([a["packed"]]), np.array([b["packed"]])
            )[0]
        )
        return pd.DataFrame(
            {
                "id_a": [int(a["doc_id"])],
                "id_b": [int(b["doc_id"])],
                "est_e6": [int(round(est * 1e6))],
                "exact_e6": [int(round(exact * 1e6))],
                "err_e6": [int(abs(round(est * 1e6) - round(exact * 1e6)))],
            }
        )

    return ds.groupby("pair").map_groups(per_pair, batch_format="pandas")
