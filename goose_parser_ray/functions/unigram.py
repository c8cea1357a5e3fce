"""Distributed unigram-LM tokenizer training (SentencePiece, Kudo 2018,
arXiv:1804.10959) — the other production tokenizer family beside BPE
(``functions/bpe.py``). Hard-EM simplification: the E-step counts pieces
along each word's VITERBI (best) segmentation instead of full
forward-backward posteriors — the standard fast variant; selection and
tie-breaks are fully deterministic.

Scale shape (mirrors bpe_train): ONE corpus pass reduces the stream to the
word-frequency table, seed-vocab extraction and every EM/prune round then
run on that vocab-bounded table — never on the corpus again. Per round the
piece-probability table is broadcast (ray.put — it is ≤ seed-vocab sized,
tiny) and each batch emits combined (piece, count) partials; the shuffle
moves piece partials bounded by the vocabulary, finished by one grouped
sum. The per-word Viterbi loop is vocab-bounded (distinct words × word
length², word length ≤ a few dozen) — corpus-scale work happens only in
the word-count pass, exactly like BPE."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from goose_parser_ray.functions.bpe import word_frequency_table
from goose_parser_ray.functions.relational import keyed_aggregate
from goose_parser_ray.stages.extract import cached_kernel


def _viterbi_pieces(word: str, logp: dict) -> list[str]:
    """Best segmentation of ``word`` under piece log-probs (pieces missing
    from ``logp`` are unusable; single chars are always present by
    construction). Deterministic tie-break: prefer the LONGER last piece."""
    n = len(word)
    best = [-math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    max_len = max((len(p) for p in logp), default=1)
    for i in range(1, n + 1):
        for j in range(max(0, i - max_len), i):
            lp = logp.get(word[j:i])
            if lp is None or best[j] == -math.inf:
                continue
            cand = best[j] + lp
            # strictly-greater + scanning j ascending ⇒ on ties the
            # SMALLEST j (longest last piece) wins
            if cand > best[i]:
                best[i] = cand
                back[i] = j
    if best[n] == -math.inf:  # unreachable: single chars always present
        return list(word)
    out: list[str] = []
    i = n
    while i > 0:
        j = back[i]
        out.append(word[j:i])
        i = j
    return out[::-1]


def unigram_train(
    ds: ray.data.Dataset,
    col: str = "text",
    *,
    vocab_size: int = 64,
    seed_max_len: int = 4,
    seed_vocab_factor: int = 4,
    em_iters: int = 3,
) -> list[tuple[str, int, int]]:
    """Train a unigram-LM piece vocabulary; returns
    ``[(piece, count, logp_e6), ...]`` sorted by (count desc, piece asc),
    exactly ``vocab_size`` rows (all single chars are always kept — the
    coverage guarantee — plus the highest-expected-count multi-char
    pieces after EM + pruning).

    Seed vocab: every substring of length ≤ ``seed_max_len`` of every
    distinct word, weighted by word frequency; the top
    ``seed_vocab_factor × vocab_size`` by (count, piece) survive seeding
    (chars exempt). EM alternates Viterbi piece counting (distributed
    over the word table, broadcast probs) with probability re-estimation;
    after EM the vocabulary is pruned to ``vocab_size`` by expected count.
    """
    freq = word_frequency_table(ds, col).materialize()  # vocab-bounded

    # ---- seed: substring counts over the word table (one bounded pass)
    def seed_partials(t: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        ns = t["n"].to_numpy(zero_copy_only=False)
        for w, n in zip(t["word"].to_pylist(), ns):
            L = len(w)
            for i in range(L):
                for j in range(i + 1, min(i + seed_max_len, L) + 1):
                    p = w[i:j]
                    counts[p] = counts.get(p, 0) + int(n)
        if not counts:
            return pa.Table.from_pydict(
                {"piece": pa.array([], pa.string()),
                 "cnt": pa.array([], pa.int64())}
            )
        ks = sorted(counts)
        return pa.Table.from_pydict(
            {"piece": ks, "cnt": pa.array([counts[k] for k in ks], pa.int64())}
        )

    def piece_counts(partial) -> pd.DataFrame:
        """Sum the per-block piece counts that ``partial`` emits, in piece
        order."""
        df = keyed_aggregate(
            freq.map_batches(partial, batch_format="pyarrow"),
            ["piece"], {"cnt": ("cnt", "sum")},
        ).to_pandas()
        return df.sort_values("piece", ignore_index=True) if len(df) else df

    seed = piece_counts(seed_partials)
    if seed.empty:
        return []
    chars = seed[seed["piece"].str.len() == 1]
    multi = seed[seed["piece"].str.len() > 1].sort_values(
        ["cnt", "piece"], ascending=[False, True]
    )
    keep_multi = multi.head(max(0, seed_vocab_factor * vocab_size - len(chars)))
    vocab = pd.concat([chars, keep_multi])
    total = float(vocab["cnt"].sum())
    logp = {
        p: math.log(c / total)
        for p, c in zip(vocab["piece"], vocab["cnt"])
    }

    # ---- hard-EM rounds over the word table (broadcast probs)
    for _ in range(em_iters):
        lp_ref = ray.put(logp)

        def estep(t: pa.Table) -> pa.Table:
            lp = ray.get(lp_ref)
            counts: dict[str, int] = {}
            ns = t["n"].to_numpy(zero_copy_only=False)
            for w, n in zip(t["word"].to_pylist(), ns):
                for piece in _viterbi_pieces(w, lp):
                    counts[piece] = counts.get(piece, 0) + int(n)
            if not counts:
                return pa.Table.from_pydict(
                    {"piece": pa.array([], pa.string()),
                     "cnt": pa.array([], pa.int64())}
                )
            ks = sorted(counts)
            return pa.Table.from_pydict(
                {"piece": ks,
                 "cnt": pa.array([counts[k] for k in ks], pa.int64())}
            )

        em = piece_counts(estep)
        used = dict(zip(em["piece"], em["cnt"].astype(int)))
        # chars always survive (coverage); +1 smoothing keeps them usable
        new_counts = {
            p: used.get(p, 0) + (1 if len(p) == 1 else 0)
            for p in logp
            if len(p) == 1 or used.get(p, 0) > 0
        }
        tot = float(sum(new_counts.values()))
        logp = {p: math.log(c / tot) for p, c in new_counts.items()}

    # ---- prune to vocab_size by final expected count
    final = pd.DataFrame(
        {"piece": list(logp), "logp": [logp[p] for p in logp]}
    )
    lp_ref = ray.put(logp)

    def final_counts(t: pa.Table) -> pa.Table:
        lp = ray.get(lp_ref)
        counts: dict[str, int] = {}
        ns = t["n"].to_numpy(zero_copy_only=False)
        for w, n in zip(t["word"].to_pylist(), ns):
            for piece in _viterbi_pieces(w, lp):
                counts[piece] = counts.get(piece, 0) + int(n)
        ks = sorted(counts)
        return pa.Table.from_pydict(
            {"piece": ks,
             "cnt": pa.array([counts[k] for k in ks], pa.int64())}
        )

    cnts = (
        piece_counts(final_counts)
        if len(final)
        else pd.DataFrame({"piece": [], "cnt": []})
    )
    final = final.merge(cnts, on="piece", how="left").fillna({"cnt": 0})
    final["cnt"] = final["cnt"].astype(int)
    final["is_char"] = final["piece"].str.len() == 1
    final = final.sort_values(
        ["is_char", "cnt", "piece"], ascending=[False, False, True]
    )
    kept = final.head(max(vocab_size, int(final["is_char"].sum())))
    kept = kept.sort_values(["cnt", "piece"], ascending=[False, True])
    return [
        (p, int(c), int(round(lp * 1e6)))
        for p, c, lp in zip(kept["piece"], kept["cnt"], kept["logp"])
    ]


class UnigramEncodeActor:
    """Corpus-wide Viterbi encoding under a trained piece vocabulary
    (tokenizer APPLICATION — the sibling of ``bpe.BpeEncodeActor``, same
    shape: vocab ships once per worker process via ``__init__``, and the
    cached instance keeps its word→pieces memo across batches). Emits
    per-doc n_pieces / n_chars / roundtrip_ok."""

    def __init__(self, vocab: list, col: str = "text"):
        self._logp = {p: lp / 1e6 for p, _, lp in vocab}
        self._col = col
        self._cache: dict[str, list[str]] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t[self._col].to_pylist()
        n_pc = np.zeros(len(texts), dtype=np.int64)
        n_ch = np.zeros(len(texts), dtype=np.int64)
        ok = np.ones(len(texts), dtype=np.int64)
        for i, s in enumerate(texts):
            for w in (s or "").split(" "):
                if not w:
                    continue
                pieces = self._cache.get(w)
                if pieces is None:
                    pieces = _viterbi_pieces(w, self._logp)
                    self._cache[w] = pieces
                n_pc[i] += len(pieces)
                n_ch[i] += len(w)
                if "".join(pieces) != w:
                    ok[i] = 0
        cols = {"doc_id": t["doc_id"]} if "doc_id" in t.column_names else {}
        cols.update(
            {"n_pieces": pa.array(n_pc), "n_chars": pa.array(n_ch),
             "roundtrip_ok": pa.array(ok)}
        )
        return pa.Table.from_pydict(cols)


def unigram_encode(
    ds: ray.data.Dataset,
    vocab: list,
    *,
    col: str = "text",
    batch_size: int = 512,
) -> ray.data.Dataset:
    """Corpus → per-doc piece stats under a trained unigram vocabulary
    (pure map, no shuffle; see :class:`UnigramEncodeActor`)."""
    return ds.map_batches(
        cached_kernel(UnigramEncodeActor, vocab=list(vocab), col=col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
