"""Distributed n-gram language-model scoring (CCNet-style quality gate).

The standard pretraining-cleanup move (CCNet, Gopher, RedPajama) scores
every document with a small LM trained on the corpus itself (or a trusted
slice) and gates on the score — fluent text scores high, boilerplate/spam
scores low. The in-sandbox stand-in for the KenLM stage is a BIGRAM model
with integer-exact scoring so the DuckDB oracle matches bit-for-bit:

    score(doc) = Σ over adjacent word pairs (w1, w2) of
                 10000 · count(w1, w2) // count(w1 ·)

(count(w1 ·) = occurrences of w1 as a bigram PREFIX, so each term is a
scaled conditional-probability estimate P(w2|w1) in basis points — no
float log, no libm divergence.)

Distributed shape (two streaming passes, the train-then-score layout):

1. TRAIN: one pass emits map-side partial (w1, w2) counts per batch —
   pandas groupby inside the batch, never the raw pair stream — then a
   single word-pair-keyed aggregate builds the model; prefix counts are
   re-aggregated from the (already tiny) bigram table.
2. SCORE: a second pass over the text recomputes each doc's bigrams
   vectorized (one regex split + Arrow list flatten + shifted-array
   adjacency inside doc boundaries) and probes the model. The model
   attach is SIZE-GATED exactly like tfidf_top_terms: vocabularies under
   ``model_broadcast_guard`` bigram rows ship once via ``ray.put`` and
   probe with ``pc.index_in``; larger models attach through two
   hash-partitioned ``Dataset.join``s (never driver-side).

Tokenization is the shared engine/oracle contract from textstats
(``WORD_SPLIT_RE`` on lower-cased text, empty artifacts dropped), so
adjacency across punctuation counts as adjacent on both engines.

Upstream parity note: the reference engine (SURVEY.md §2.6) has no LM
stage — this is part of the "training-data operations" mandate, not a
goose-parser port.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

# Past this many distinct bigrams the model attach switches from a
# ray.put broadcast to hash-partitioned joins. ~2M rows of two short
# words + an int64 is well under 100 MiB — cheap to ship once per actor.
MODEL_BROADCAST_GUARD = 2_000_000

# Composite-key separator for the broadcast index_in probe: U+001F is a
# delimiter the tokenizer can never emit (words are \p{L}\p{N}_ runs).
_SEP = "\x1f"


def _doc_bigrams(t: pa.Table, id_col: str, text_col: str):
    """Vectorized (doc_id, w1, w2) triples for one batch: one regex split,
    one flatten, empty-token filter, then shifted-array adjacency masked at
    doc boundaries. Returns (ids, w1, w2) numpy/pandas arrays."""
    import pandas as pd

    lowered = pc.fill_null(pc.utf8_lower(t[text_col]), "")
    words_list = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
    if isinstance(words_list, pa.ChunkedArray):
        words_list = words_list.combine_chunks()
    flat = pc.list_flatten(words_list)
    parent = pc.list_parent_indices(words_list)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask).to_pandas().to_numpy(dtype=object)
    parent = parent.filter(mask).to_numpy(zero_copy_only=False)
    if len(flat) < 2:
        empty = np.array([], dtype=object)
        return np.array([], dtype=np.int64), empty, empty
    adj = parent[:-1] == parent[1:]  # same doc → real bigram
    ids = t[id_col].to_numpy(zero_copy_only=False)[parent[:-1][adj]]
    return ids, flat[:-1][adj], flat[1:][adj]


def bigram_model(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """TRAIN pass: the (w1, w2, n) bigram count table as a Dataset.
    Map-side partial counts per batch (the shuffle moves counted pairs,
    not the raw pair stream), one pair-keyed aggregate."""
    from goose_parser_ray.functions.relational import keyed_aggregate

    def pairs(t: pa.Table) -> pa.Table:
        _, w1, w2 = _doc_bigrams(t, id_col, text_col)
        return pa.table(
            {"w1": pa.array(w1, pa.string()), "w2": pa.array(w2, pa.string())}
        )

    return keyed_aggregate(
        ds.map_batches(pairs, batch_format="pyarrow"), ["w1", "w2"],
        {"n": ("w1", "count")},
    )


def bigram_lm_score(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    model_broadcast_guard: int = MODEL_BROADCAST_GUARD,
    join_num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Train a corpus bigram model, then score every doc:
    ``lm_score_e4`` = Σ 10000·count(w1,w2)//count(w1·) over the doc's
    bigrams, plus ``n_bigrams``. Docs with fewer than two words have no
    bigrams and are not emitted (SQL GROUP BY semantics). ``ds`` is read
    twice (train pass + score pass) — pass a materialized dataset when the
    upstream lineage is expensive."""
    import pandas as pd

    from goose_parser_ray.functions.relational import (
        compact_for_join,
        keyed_aggregate,
        safe_join,
    )

    cb = bigram_model(ds, id_col=id_col, text_col=text_col).materialize()
    n_bigram_kinds = cb.count()

    # prefix counts re-aggregated from the bigram table (already tiny
    # relative to the corpus — one pass over model rows, not text)
    cu = keyed_aggregate(cb, ["w1"], {"cu": ("n", "sum")})

    def doc_sums(frame: pd.DataFrame) -> pd.DataFrame:
        g = frame.groupby(id_col, sort=False)["s"]
        out = g.agg(["sum", "size"]).reset_index()
        return pd.DataFrame(
            {
                id_col: out[id_col],
                "lm_score_e4": out["sum"].astype(np.int64),
                "n_bigrams": out["size"].astype(np.int64),
            }
        )

    if n_bigram_kinds <= model_broadcast_guard:
        cb_pd = cb.to_pandas()
        cu_pd = cu.to_pandas()
        pair_keys = pa.array(
            (cb_pd["w1"] + _SEP + cb_pd["w2"]).to_numpy(dtype=object),
            pa.string(),
        )
        model_ref = ray.put(
            (
                pair_keys,
                cb_pd["n"].to_numpy(np.int64),
                pa.array(cu_pd["w1"], pa.string()),
                cu_pd["cu"].to_numpy(np.int64),
            )
        )

        def score_batch(t: pa.Table) -> pa.Table:
            ids, w1, w2 = _doc_bigrams(t, id_col, text_col)
            if len(ids) == 0:
                return pa.Table.from_pydict(
                    {id_col: pa.array([], pa.int64()),
                     "lm_score_e4": pa.array([], pa.int64()),
                     "n_bigrams": pa.array([], pa.int64())}
                )
            pairs_a, cb_n, w1_a, cu_n = ray.get(model_ref)
            probe = pa.array(
                np.char.add(np.char.add(w1.astype(str), _SEP), w2.astype(str)),
                pa.string(),
            )
            cbv = cb_n[
                pc.index_in(probe, value_set=pairs_a).to_numpy(
                    zero_copy_only=False
                )
            ]
            cuv = cu_n[
                pc.index_in(
                    pa.array(w1, pa.string()), value_set=w1_a
                ).to_numpy(zero_copy_only=False)
            ]
            s = np.int64(10000) * cbv // cuv
            return pa.Table.from_pandas(
                doc_sums(pd.DataFrame({id_col: ids, "s": s})),
                preserve_index=False,
            )

        # every training bigram exists in the model by construction, so the
        # per-batch doc sums are COMPLETE for the docs they cover — but one
        # doc can span blocks: finish with a doc-bucketed re-sum.
        partial = ds.map_batches(score_batch, batch_format="pyarrow")
        return keyed_aggregate(
            partial, [id_col],
            {"lm_score_e4": ("lm_score_e4", "sum"), "n_bigrams": ("n_bigrams", "sum")},
        )

    # scale path: the model never leaves the cluster — triples join the
    # bigram table on (w1, w2), then prefix counts on w1, then a doc-keyed
    # partial aggregate.

    def triples(t: pa.Table) -> pa.Table:
        ids, w1, w2 = _doc_bigrams(t, id_col, text_col)
        return pa.Table.from_pydict(
            {
                id_col: pa.array(ids, pa.int64()),
                "w1": pa.array(w1, pa.string()),
                "w2": pa.array(w2, pa.string()),
            }
        )

    # cb/cu are aggregate-derived → compact (empty-block hash-join guard);
    # trip streams off the raw corpus and stays lazy. The intermediate j is
    # a join output, so compact it too — by repartition, never materialize
    # (it is corpus-bigram sized). Every model bigram occurs in the corpus,
    # so n_bigram_kinds is a lower bound on j's rows: no count needed.
    trip = ds.map_batches(triples, batch_format="pyarrow")
    j = safe_join(
        trip, compact_for_join(cb, n_bigram_kinds),
        num_partitions=join_num_partitions, on=("w1", "w2"),
        right_rows=n_bigram_kinds,
    )
    cu_m = cu.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["w1"], t["cu"]], names=["__pw1", "cu"]
        ),
        batch_format="pyarrow",
    ).materialize()
    j = safe_join(
        compact_for_join(j, n_bigram_kinds), compact_for_join(cu_m),
        num_partitions=join_num_partitions, on=("w1",), right_on=("__pw1",),
        left_rows=n_bigram_kinds,
    )

    def score_joined(t: pa.Table) -> pa.Table:
        s = (
            np.int64(10000)
            * t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
            // t["cu"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.Table.from_pandas(
            doc_sums(
                pd.DataFrame(
                    {id_col: t[id_col].to_numpy(zero_copy_only=False), "s": s}
                )
            ),
            preserve_index=False,
        )

    partial = j.map_batches(score_joined, batch_format="pyarrow")
    return keyed_aggregate(
        partial, [id_col],
        {"lm_score_e4": ("lm_score_e4", "sum"), "n_bigrams": ("n_bigrams", "sum")},
    )
