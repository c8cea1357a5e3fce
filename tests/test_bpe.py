"""Distributed BPE trainer vs a single-process reference implementation."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions.bpe import bpe_encode, bpe_train


def _reference(texts, n_merges):
    freq: dict[str, int] = {}
    for t in texts:
        for w in t.split(" "):
            if w:
                freq[w] = freq.get(w, 0) + 1
    words = {w: list(w) for w in freq}
    merges = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for w, syms in words.items():
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + freq[w]
        if not counts:
            break
        # deterministic: count desc, then lexicographic
        (a, b), c = min(
            counts.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1])
        )
        if c < 2:
            break
        merges.append((a, b, c))
        for w, syms in words.items():
            i, res = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    res.append(a + b)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            words[w] = res
    return merges


def test_bpe_matches_reference(ray_session):
    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "that hat is the best hat",
        "маты и кот",  # unicode symbols survive
        "the the the that that",
    ] * 3
    ds = ray.data.from_pandas(pd.DataFrame({"text": texts})).repartition(4)
    got = bpe_train(ds, "text", n_merges=6)
    want = _reference(texts, 6)
    assert got == want
    assert len(got) == 6
    # a learned merge is a real multi-char token
    assert any(len(a + b) >= 3 for a, b, _ in got)


def test_bpe_stops_when_dry(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({"text": ["a b c"]}))
    # every word is one symbol long — no adjacent pairs at count ≥ 2
    assert bpe_train(ds, "text", n_merges=4) == []


def test_bpe_encode_roundtrip_and_reference(ray_session):
    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "that hat is the best hat",
    ] * 2
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    ds = ray.data.from_pandas(df).repartition(3)
    merges = bpe_train(ds, "text", n_merges=4)
    out = (
        bpe_encode(ds, merges, batch_size=2)
        .sort("doc_id")
        .to_pandas()
    )
    assert len(out) == len(texts)
    assert (out["roundtrip_ok"] == 1).all()
    assert (out["n_tokens"] <= out["n_chars"]).all()
    # hand-encode with the same merge semantics (learned order,
    # leftmost-first) and compare token counts exactly
    def enc(word):
        syms = list(word)
        for a, b, _ in merges:
            i, res = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    res.append(a + b)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            syms = res
        return syms

    want = [
        sum(len(enc(w)) for w in t.split(" ") if w) for t in texts
    ]
    assert out["n_tokens"].tolist() == want
    # merges learned → some word must compress below its char count
    assert (out["n_tokens"] < out["n_chars"]).any()
    # determinism: same input, second run → identical checksums
    out2 = (
        bpe_encode(ds, merges, batch_size=3)
        .sort("doc_id")
        .to_pandas()
    )
    assert out["token_checksum"].tolist() == out2["token_checksum"].tolist()


def test_bpe_encode_empty_and_no_merges(ray_session):
    df = pd.DataFrame({"doc_id": [0, 1], "text": ["", "ab ab"]})
    ds = ray.data.from_pandas(df)
    out = bpe_encode(ds, []).sort("doc_id").to_pandas()
    # no merges → tokens are single chars
    assert out["n_tokens"].tolist() == [0, 4]
    assert out["roundtrip_ok"].tolist() == [1, 1]


def test_unigram_train_and_encode(ray_session):
    """Unigram-LM tokenizer: frequent whole words become pieces, EM is
    deterministic across block layouts, Viterbi encoding compresses below
    chars and reassembles every word exactly."""
    from goose_parser_ray.functions.unigram import (
        _viterbi_pieces,
        unigram_encode,
        unigram_train,
    )

    texts = [
        "the cat sat on the mat",
        "the cats sat on the mats",
        "that hat is the best hat",
        "internationalization nation",
    ] * 3
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})
    v3 = unigram_train(
        ray.data.from_pandas(df).repartition(3), "text", vocab_size=30
    )
    v5 = unigram_train(
        ray.data.from_pandas(df).repartition(5), "text", vocab_size=30
    )
    assert v3 == v5  # layout-invariant
    pieces = [p for p, _, _ in v3]
    assert "the" in pieces  # the most frequent word is a whole piece
    assert len(v3) == 30
    # every single char of the corpus vocabulary survives (coverage)
    chars = {c for t in texts for c in t.replace(" ", "")}
    assert chars <= set(p for p in pieces if len(p) == 1) | {
        p for p in pieces if len(p) > 1 for p in p
    } | set("".join(pieces))

    lp = {p: e / 1e6 for p, _, e in v3}
    assert _viterbi_pieces("the", lp) == ["the"]
    assert "".join(_viterbi_pieces("internationalization", lp)) == (
        "internationalization"
    )

    out = (
        unigram_encode(ray.data.from_pandas(df).repartition(3), v3)
        .sort("doc_id")
        .to_pandas()
    )
    assert (out["roundtrip_ok"] == 1).all()
    assert (out["n_pieces"] <= out["n_chars"]).all()
    assert (out["n_pieces"] < out["n_chars"]).all()  # real compression


def test_unigram_empty_and_unseen_chars(ray_session):
    from goose_parser_ray.functions.unigram import (
        UnigramEncodeActor,
        unigram_train,
    )

    ds = ray.data.from_pandas(pd.DataFrame({"text": ["ab ab ba"]}))
    v = unigram_train(ds, "text", vocab_size=8)
    assert all(c in {p for p, _, _ in v} for c in "ab")
    # unseen chars at encode time fall back to per-char pieces
    t = pa.Table.from_pydict({"doc_id": [0], "text": ["zq ab"]})
    out = UnigramEncodeActor(v)(t)
    assert out["roundtrip_ok"].to_pylist() == [1]
