"""Distributed BPE (byte-pair-encoding) merge training.

The tokenizer-training step of an LLM data pipeline, in the shape real
trainers use (HF tokenizers, SentencePiece): ONE corpus pass reduces the
stream to the word-frequency table, and every merge round runs on that
vocab-bounded table — never on the corpus again. Merge selection is fully
deterministic (count desc, then lexicographic pair), so training is stable
under re-runs, resumes, and any block layout.

Scale shape per round:
- pair counting: ``map_batches`` over the word table emits per-batch
  combined (left, right, cnt) partials; the shuffle moves pair partials
  (bounded by the pair vocabulary), finished by one ``groupby().sum``.
- winner selection: the grouped pair table is sorted distributed and only
  the top row reaches the driver.
- merge application: the winning pair is broadcast; symbol sequences are
  rewritten map-side. The per-word Python loop is vocab-bounded (distinct
  words, not corpus rows) — the corpus-scale work all happened in the one
  word-count pass.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from goose_parser_ray.functions.relational import keyed_aggregate
from goose_parser_ray.stages.extract import cached_kernel


def word_frequency_table(
    ds: ray.data.Dataset, col: str = "text"
) -> ray.data.Dataset:
    """Corpus → (word, n) — the single corpus-scale pass."""
    import pyarrow.compute as pc

    def words(t: pa.Table) -> pa.Table:
        w = pc.split_pattern(t[col], " ")
        flat = pc.list_flatten(w)
        flat = flat.filter(pc.not_equal(flat, ""))
        return pa.Table.from_arrays([flat], names=["word"])

    return keyed_aggregate(
        ds.map_batches(words, batch_format="pyarrow"), ["word"],
        {"n": ("word", "count")},
    )


def bpe_train(
    ds: ray.data.Dataset,
    col: str = "text",
    *,
    n_merges: int = 8,
) -> list[tuple[str, str, int]]:
    """Train ``n_merges`` BPE merges; returns [(left, right, count), ...]
    in merge order. Symbols start as single characters; a trained merge
    concatenates its pair everywhere it is adjacent (leftmost-first within
    a word, the standard greedy order)."""
    freq = word_frequency_table(ds, col).materialize()  # vocab-bounded

    def to_syms(t: pa.Table) -> pa.Table:
        syms = [list(w) for w in t["word"].to_pylist()]
        return pa.Table.from_pydict(
            {"syms": pa.array(syms, pa.list_(pa.string())), "n": t["n"]}
        )

    table = freq.map_batches(to_syms, batch_format="pyarrow").materialize()
    merges: list[tuple[str, str, int]] = []

    for _ in range(n_merges):

        def pair_partials(t: pa.Table) -> pa.Table:
            counts: dict[tuple[str, str], int] = {}
            ns = t["n"].to_numpy(zero_copy_only=False)
            for syms, n in zip(t["syms"].to_pylist(), ns):
                for a, b in zip(syms, syms[1:]):
                    counts[(a, b)] = counts.get((a, b), 0) + int(n)
            if not counts:
                return pa.Table.from_pydict(
                    {
                        "left": pa.array([], pa.string()),
                        "right": pa.array([], pa.string()),
                        "cnt": pa.array([], pa.int64()),
                    }
                )
            ks = list(counts)
            return pa.Table.from_pydict(
                {
                    "left": [k[0] for k in ks],
                    "right": [k[1] for k in ks],
                    "cnt": pa.array(
                        [counts[k] for k in ks], pa.int64()
                    ),
                }
            )

        pairs = keyed_aggregate(
            table.map_batches(pair_partials, batch_format="pyarrow"),
            ["left", "right"], {"cnt": ("cnt", "sum")},
        )
        top = pairs.sort(
            ["cnt", "left", "right"], descending=[True, False, False]
        ).limit(1).to_pandas()
        if len(top) == 0 or int(top["cnt"].iloc[0]) < 2:
            break
        a, b, c = (
            str(top["left"].iloc[0]),
            str(top["right"].iloc[0]),
            int(top["cnt"].iloc[0]),
        )
        merges.append((a, b, c))
        pair_ref = ray.put((a, b))

        def apply_merge(t: pa.Table) -> pa.Table:
            aa, bb = ray.get(pair_ref)
            out = []
            for syms in t["syms"].to_pylist():
                i, res = 0, []
                while i < len(syms):
                    if (
                        i + 1 < len(syms)
                        and syms[i] == aa
                        and syms[i + 1] == bb
                    ):
                        res.append(aa + bb)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                out.append(res)
            return pa.Table.from_pydict(
                {"syms": pa.array(out, pa.list_(pa.string())), "n": t["n"]}
            )

        table = table.map_batches(
            apply_merge, batch_format="pyarrow"
        ).materialize()

    return merges


class BpeEncodeActor:
    """Apply a trained merge table to a text corpus — the tokenizer
    APPLICATION step (the per-document op a training-data pipeline runs at
    corpus scale; ``bpe_train`` runs once, this runs over everything).

    Scale shape: the merge list is vocab-bounded and tiny — it is built
    ONCE per worker process via ``__init__``, and
    ``stages.extract.cached_kernel`` keeps the instance across batches;
    per batch, each DISTINCT word is encoded once and memoized in the
    instance's persistent cache (natural-language corpora repeat words
    heavily, so the cache converges to the vocabulary and steady-state
    batches do dict lookups, not merge loops). Encoding
    applies merges in learned order, leftmost-first within a word —
    exactly the training-time semantics, so encoding the training corpus
    with its own merges reproduces the final training symbol table.

    Emits per-doc integer features: token count, non-space char count, an
    order-sensitive token checksum (poly hash mod 2^61 — pins the exact
    token SEQUENCE across runs), and ``roundtrip_ok`` (concatenating each
    word's tokens must rebuild the word — a hard invariant, 1 everywhere
    or the encoder is wrong)."""

    _MOD = (1 << 61) - 1
    _BASE = 1_000_003

    def __init__(self, merges: list[tuple[str, str]], col: str = "text"):
        self._merges = [(a, b) for a, b, *_ in merges]
        self._col = col
        self._cache: dict[str, list[str]] = {}

    def _encode_word(self, word: str) -> list[str]:
        toks = self._cache.get(word)
        if toks is not None:
            return toks
        syms = list(word)
        for a, b in self._merges:
            if len(syms) < 2:
                break
            i, res = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    res.append(a + b)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            syms = res
        self._cache[word] = syms
        return syms

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        texts = t[self._col].to_pylist()
        n_tok = np.zeros(len(texts), dtype=np.int64)
        n_chr = np.zeros(len(texts), dtype=np.int64)
        csum = np.zeros(len(texts), dtype=np.int64)
        ok = np.ones(len(texts), dtype=np.int64)
        for i, text in enumerate(texts):
            h = 0
            for w in (text or "").split(" "):
                if not w:
                    continue
                toks = self._encode_word(w)
                n_tok[i] += len(toks)
                n_chr[i] += len(w)
                if "".join(toks) != w:
                    ok[i] = 0
                for tok in toks:
                    # token id proxy: its own poly hash (stable, no vocab
                    # table needed); sequence hash chains them in order
                    th = 0
                    for ch in tok:
                        th = (th * self._BASE + ord(ch)) % self._MOD
                    h = (h * self._BASE + th + 1) % self._MOD
            csum[i] = h
        cols = {"doc_id": t["doc_id"]} if "doc_id" in t.column_names else {}
        cols.update(
            {
                "n_tokens": pa.array(n_tok),
                "n_chars": pa.array(n_chr),
                "token_checksum": pa.array(csum),
                "roundtrip_ok": pa.array(ok),
            }
        )
        return pa.Table.from_pydict(cols)


def bpe_encode(
    ds: ray.data.Dataset,
    merges: list[tuple[str, str]] | list[tuple[str, str, int]],
    *,
    col: str = "text",
    batch_size: int = 512,
) -> ray.data.Dataset:
    """Corpus → per-doc token stats under a trained merge table (see
    :class:`BpeEncodeActor`). Pure map — no shuffle; merges ride the
    kernel's constructor (built once per worker process, never per
    batch)."""
    return ds.map_batches(
        cached_kernel(BpeEncodeActor, merges=list(merges), col=col),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
