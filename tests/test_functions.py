"""Training-data operator tests: dedup family, ANN, text stats, broadcast
join, multimodal plumbing — correctness vs small in-process oracles."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from goose_parser_ray.functions.dedup import (
    MinHashActor,
    SimHashActor,
    embedding_near_dups,
    exact_dedup,
    minhash_lsh_candidates,
    ngram_jaccard,
    simhash_near_dups,
)
from goose_parser_ray.functions.multimodal import FrameSampleActor, ImageDecodeActor
from goose_parser_ray.functions.relational import broadcast_join, keyed_aggregate
from goose_parser_ray.functions.similarity import ann_bruteforce
from goose_parser_ray.functions.textstats import (
    LangIdActor,
    add_fingerprint,
    add_quality_score,
    add_token_count,
)

BASE = (
    "the quick brown fox jumps over the lazy dog and runs far away into the "
    "green forest while the sun sets slowly behind the tall mountains"
)


def docs_table():
    rows = []
    for i in range(20):
        rows.append({"doc_id": i, "text": f"{BASE} variant {i}"})
    # plant near-dups: 100/101 near-identical, 102 identical to 100
    rows.append({"doc_id": 100, "text": BASE + " tail one"})
    rows.append({"doc_id": 101, "text": BASE + " tail two"})
    rows.append({"doc_id": 102, "text": BASE + " tail one"})
    rows.append({"doc_id": 103, "text": "completely different words entirely here"})
    return pa.Table.from_pylist(rows)


@pytest.fixture()
def docs_ds(ray_session):
    return ray.data.from_arrow(docs_table())


def test_exact_dedup_first_wins(docs_ds):
    out = exact_dedup(docs_ds, col="text", id_col="doc_id").to_pandas()
    # 102 duplicates 100 → dropped, winner is min doc_id
    assert 102 not in set(out["doc_id"])
    assert 100 in set(out["doc_id"])
    assert len(out) == 23


def test_minhash_finds_planted_neardups(docs_ds):
    pairs = minhash_lsh_candidates(docs_ds).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (100, 101) in got
    assert (100, 102) in got
    # the entirely-different doc pairs with nothing
    assert not any(103 in p for p in got)
    # no self-pairs, no reversed duplicates
    assert all(a < b for a, b in got)


def test_minhash_signature_similarity_tracks_jaccard():
    actor = MinHashActor()
    s1 = actor.signature(BASE + " tail one")
    s2 = actor.signature(BASE + " tail two")
    s3 = actor.signature("completely different words entirely here now")
    sim_close = float(np.mean(s1 == s2))
    sim_far = float(np.mean(s1 == s3))
    assert sim_close > 0.6 > sim_far
    j = ngram_jaccard(BASE + " tail one", BASE + " tail two")
    assert abs(sim_close - j) < 0.25


def test_simhash_hamming_small_for_neardups(docs_ds):
    h1 = SimHashActor.simhash(BASE + " tail one")
    h2 = SimHashActor.simhash(BASE + " tail two")
    h3 = SimHashActor.simhash("completely different words entirely here")
    assert bin(h1 ^ h2).count("1") < bin(h1 ^ h3).count("1")
    pairs = simhash_near_dups(docs_ds, max_hamming=6).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (100, 102) in got  # identical text → identical simhash


def test_embedding_near_dups(ray_session):
    rng = np.random.RandomState(0)
    base = rng.randn(30, 16).astype(np.float32)
    base[5] = base[3] + 0.01 * rng.randn(16)  # planted near-dup
    tbl = pa.Table.from_pydict(
        {
            "vec_id": list(range(30)),
            "embedding": [row.tolist() for row in base],
        },
        schema=pa.schema(
            [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
        ),
    )
    ds = ray.data.from_arrow(tbl)
    pairs = embedding_near_dups(ds, dim=16, threshold=0.99).to_pandas()
    got = {tuple(sorted((a, b))) for a, b in zip(pairs["vec_a"], pairs["vec_b"])}
    assert (3, 5) in got


def test_ann_bruteforce_matches_numpy_oracle(ray_session):
    rng = np.random.RandomState(1)
    m = rng.randn(80, 12).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {"vec_id": list(range(80)), "embedding": [r.tolist() for r in m]},
        schema=pa.schema(
            [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
        ),
    )
    ds = ray.data.from_arrow(tbl)
    qids = [0, 1, 2]
    out = ann_bruteforce(ds, qids, m[qids], k=5).to_pandas()

    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm[qids] @ norm.T
    for qi, qid in enumerate(qids):
        order = np.argsort(-sims[qi], kind="stable")
        want = [int(v) for v in order if v != qid][:5]
        got = (
            out[out["query_id"] == qid].sort_values("rank")["vec_id"].tolist()
        )
        assert got == want, f"query {qid}"


def test_broadcast_join_inner_and_left(ray_session):
    ds = ray.data.from_items(
        [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 9, "v": "c"}]
    )
    small = {1: {"name": "one"}, 2: {"name": "two"}}
    inner = broadcast_join(ds, small, key="k").to_pandas()
    assert sorted(inner["name"]) == ["one", "two"]
    left = broadcast_join(ds, small, key="k", how="left").to_pandas()
    assert len(left) == 3 and left[left["k"] == 9]["name"].isna().all()


# a null in the string key, in the integer key and in both; 3 blocks
_KEYED = pa.table(
    {
        "k": ["a", None, "a", None, "b", "c"],
        "i": pa.array([1, None, 1, None, 2, None], pa.int64()),
        "v": pa.array([1, 2, 3, 4, 5, 6], pa.int32()),
        "b": [True, False, True, True, False, True],
    }
)


def _arrow_rows(ds: ray.data.Dataset, keys: list[str]) -> pa.Table:
    # iter_batches keeps Arrow types (to_pandas makes a nullable int float)
    batches = ds.iter_batches(batch_format="pyarrow", batch_size=None)
    return pa.concat_tables(batches).sort_by([(k, "ascending") for k in keys])


@pytest.mark.parametrize("bounded_domain", [False, True])
@pytest.mark.parametrize("value", ["v", "b"])  # int32, bool
@pytest.mark.parametrize(
    "keys", [["k"], ["i"], ["k", "i"]], ids=["str", "int", "str_int"]
)
def test_keyed_aggregate_matches_duckdb(ray_session, keys, value, bounded_domain):
    import duckdb

    ds = ray.data.from_arrow([_KEYED.slice(0, 2), _KEYED.slice(2, 2), _KEYED.slice(4)])
    out = keyed_aggregate(
        ds, keys,
        {
            "s": (value, "sum"),
            "lo": (value, "min"),
            "hi": (value, "max"),
            "n": (keys[0], "count"),
        },
        bounded_domain=bounded_domain,
    )
    got = _arrow_rows(out, keys)
    cols = ", ".join(keys)
    con = duckdb.connect()
    con.register("_tbl", _KEYED)
    want = con.sql(
        f"SELECT {cols}, CAST(SUM({value}::BIGINT) AS BIGINT) AS s,"
        f" MIN({value}) AS lo, MAX({value}) AS hi, COUNT(*) AS n"
        f" FROM _tbl GROUP BY {cols}"
    ).arrow().sort_by([(k, "ascending") for k in keys])
    assert got.schema == want.schema
    assert got.to_pylist() == want.to_pylist()


@pytest.mark.parametrize("bounded_domain", [False, True])
def test_keyed_aggregate_empty_input_keeps_columns(ray_session, bounded_domain):
    """No input rows give no output rows under the output's typed columns,
    not Ray's column-less empty shuffle partitions."""
    empty = _KEYED.slice(0, 0)
    out = keyed_aggregate(
        ray.data.from_arrow(empty), ["k", "i"],
        {"s": ("v", "sum"), "lo": ("v", "min"), "n": ("k", "count")},
        bounded_domain=bounded_domain,
    )
    assert out.count() == 0
    assert out.schema().base_schema == pa.schema(
        [("k", pa.string()), ("i", pa.int64()), ("s", pa.int64()),
         ("lo", pa.int32()), ("n", pa.int64())]
    )


def test_keyed_aggregate_buckets_follow_partial_rows(ray_session, monkeypatch):
    """The combine's bucket count grows with the partial rows, so a bucket's
    payload stays bounded on a large key domain instead of sitting at the
    CPU-count floor."""
    from goose_parser_ray.functions import dedup

    n = 2_000
    t = pa.table({"k": pa.array(np.arange(n) % 1_000, pa.int64()),
                  "v": pa.array(np.ones(n), pa.int64())})
    monkeypatch.setattr(dedup, "_TARGET_ROWS_PER_BUCKET", 16)
    floor = dedup.num_shuffle_buckets(0)
    seen = []
    count = dedup.num_shuffle_buckets

    def spy(rows: int) -> int:
        seen.append(count(rows))
        return seen[-1]

    monkeypatch.setattr(dedup, "num_shuffle_buckets", spy)
    ds = ray.data.from_arrow([t.slice(j, 500) for j in range(0, n, 500)])
    got = _arrow_rows(keyed_aggregate(ds, ["k"], {"s": ("v", "sum")}), ["k"])
    assert got["k"].to_pylist() == list(range(1_000))
    assert set(got["s"].to_pylist()) == {2}
    # 4 blocks of 500 rows hold 2,000 partial rows: 125 buckets of 16, rounded up
    assert seen == [count(n)] and seen[0] == 128 > floor


@pytest.mark.parametrize("case", ["hash", "fold"])
def test_mixed_key_bucket_ignores_nulls_elsewhere_in_block(ray_session, case):
    """A (string, int) key hashes the same in a block whose int column holds
    a null as in one whose does not (``to_pandas`` makes only the former
    float64), so ``bucket_groups`` folds each key once."""
    from goose_parser_ray.functions.dedup import add_hash_bucket, bucket_groups

    keys = pa.table({"k": [f"s{j}" for j in range(20)], "i": list(range(20))})
    with_null = pa.concat_tables(
        [keys, pa.table({"k": ["z"], "i": pa.array([None], pa.int64())})]
    )
    if case == "hash":
        nb = 1 << 20
        plain = add_hash_bucket(keys, ["k", "i"], nb)["__b"]
        nulled = add_hash_bucket(with_null, ["k", "i"], nb)["__b"]
        assert nulled.to_pylist()[:20] == plain.to_pylist()
        return
    ds = ray.data.from_arrow([with_null, keys])
    out = bucket_groups(
        ds, ["k", "i"],
        lambda g: g.groupby(["k", "i"], dropna=False, as_index=False).size(),
        rows=len(with_null) + len(keys),
    ).to_pandas()
    assert len(out) == 21
    assert sorted(out["size"].tolist()) == [1] + [2] * 20


def test_textstats_vectorized():
    t = pa.Table.from_pydict({"text": ["the cat sat.", "a  b", ""]})
    t = add_token_count(t)
    assert t["n_tokens"].to_pylist() == [3, 2, 0]
    t2 = add_quality_score(pa.Table.from_pydict({"text": ["the cat sat on the mat."]}))
    q = t2["quality"][0].as_py()
    assert 0.0 <= q <= 1.0
    t3 = add_fingerprint(pa.Table.from_pydict({"text": [BASE, BASE, BASE + " x"]}))
    fps = t3["fingerprint"].to_pylist()
    assert fps[0] == fps[1] != fps[2]


def test_langid_actor():
    actor = LangIdActor()
    t = pa.Table.from_pydict(
        {
            "text": [
                "the cat and the dog sat on a mat with the bird",
                "der Hund und die Katze sind nicht zu Hause mit der Maus",
                "le chat est dans la maison avec le chien et les oiseaux pour un",
                # Cyrillic: RE2's ASCII-only \b never matched these under the
                # old regex-count path (r2 ADVICE) — must classify as 'ru'
                "Я не знаю что он делает но это хорошо и по плану",
                "",
            ]
        }
    )
    out = actor(t)["lang_pred"].to_pylist()
    assert out == ["en", "de", "fr", "ru", "und"]


def test_langid_matches_duckdb_oracle_on_unicode():
    """Engine and generated DuckDB SQL must agree on mixed ASCII/Cyrillic
    text — the r2 regression was masked because BOTH sides shared the broken
    \\b semantics; this pins the new split+membership semantics cross-engine."""
    import duckdb

    from goose_parser_ray.queries import _langid_sql

    tbl = pa.Table.from_pydict(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "the cat and the dog sat on the mat",
                "Он сказал что это не по плану и как всегда",
                "el gato y el perro en una casa para los dos",
                "И В НЕ НА",  # upper-case Cyrillic: lower() must fold it
                "no stopwords xyzzy qwerty",
            ],
        }
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = dict(con.execute(_langid_sql()).fetchall())
    got_t = LangIdActor()(tbl)
    got = dict(zip(got_t["doc_id"].to_pylist(), got_t["lang_pred"].to_pylist()))
    assert got == want
    assert got[2] == "ru" and got[4] == "ru"


def test_fingerprint_independent_of_batch_composition():
    """A short (<8-word) doc's fingerprint must not change with its batch
    neighbors (r2 ADVICE: the 8-gram combine read into the next doc)."""
    short = "only five words right here"
    alone = add_fingerprint(pa.Table.from_pydict({"text": [short]}))[
        "fingerprint"
    ].to_pylist()[0]
    for ctx in (
        [short, BASE],
        [BASE, short],
        ["tiny", short, "other words follow here now ok"],
        [short, short],
    ):
        fps = add_fingerprint(pa.Table.from_pydict({"text": ctx}))[
            "fingerprint"
        ].to_pylist()
        for t, fp in zip(ctx, fps):
            if t == short:
                assert fp == alone, ctx
    # long docs keep stable fingerprints too, and distinct texts differ
    long_alone = add_fingerprint(pa.Table.from_pydict({"text": [BASE]}))[
        "fingerprint"
    ].to_pylist()[0]
    mixed = add_fingerprint(
        pa.Table.from_pydict({"text": [short, BASE]})
    )["fingerprint"].to_pylist()
    assert mixed == [alone, long_alone]
    assert alone != long_alone


def test_multimodal_stub_plumbing():
    t = pa.Table.from_pydict(
        {"doc_id": [1, 2], "payload": [b"abc" * 100, b"xyz" * 500]}
    )
    dec = ImageDecodeActor()
    out = dec(t)
    assert out["features"].type == pa.list_(pa.float32())
    assert len(out["features"][0].as_py()) == 16
    m = out["meta"][0].as_py()
    assert set(m) == {"width", "height", "format"} and m["format"] == "fake"
    # deterministic: same payload → same features
    again = dec(t)
    assert out["features"].to_pylist() == again["features"].to_pylist()
    fr = FrameSampleActor()(t)
    assert fr["frame_indices"].to_pylist()[1][:2] == [0, 10]
    with pytest.raises(NotImplementedError):
        ImageDecodeActor(fake=False)._decode_real(b"")


def test_ann_lsh_finds_planted_neighbor(ray_session):
    rng = np.random.RandomState(3)
    m = rng.randn(120, 16).astype(np.float32)
    m[7] = m[0] + 0.01 * rng.randn(16)  # near-identical to query 0
    tbl = pa.Table.from_pydict(
        {"vec_id": list(range(120)), "embedding": [r.tolist() for r in m]},
        schema=pa.schema(
            [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
        ),
    )
    from goose_parser_ray.functions.similarity import ann_lsh

    ds = ray.data.from_arrow(tbl)
    out = ann_lsh(ds, [0], m[[0]], k=3, dim=16, n_planes=6).to_pandas()
    got = out.sort_values("rank")["vec_id"].tolist()
    assert got[0] == 7  # the planted near-duplicate survives bucket pruning
    assert 0 not in got  # self excluded


def test_minhash_dedup_keep_end_to_end(docs_ds):
    from goose_parser_ray.functions.dedup import minhash_dedup_keep

    lookup = {
        r["doc_id"]: r["text"] for r in docs_table().to_pylist()
    }
    kept = minhash_dedup_keep(
        docs_ds, jaccard_threshold=0.8, docs_lookup=lookup
    ).to_pandas()
    ids = set(kept["doc_id"])
    # every doc except 103 shares the BASE text (jaccard ≥ 0.8 pairwise), so
    # they all collapse into one cluster kept by its min id; 103 is unrelated
    assert ids == {0, 103}


def test_union_find_deterministic():
    import pandas as pd

    from goose_parser_ray.functions.dedup import _union_find_components

    pairs = pd.DataFrame({"doc_a": [5, 1, 3], "doc_b": [9, 5, 7]})
    roots = _union_find_components(pairs)
    assert roots[9] == 1 and roots[5] == 1  # chain 1-5-9 roots at min id
    assert roots[7] == 3


def test_hll_distinct_accuracy(ray_session):
    from goose_parser_ray.functions.textstats import (
        hll_distinct,
        hll_estimate,
        hll_merge,
        hll_sketch_batch,
    )

    # pure sketch math: two half-sketches merge to the full estimate
    vals = [f"user-{i}" for i in range(20000)]
    s1 = hll_sketch_batch(vals[:10000])
    s2 = hll_sketch_batch(vals[10000:])
    est = hll_estimate(hll_merge([s1, s2]))
    assert abs(est - 20000) / 20000 < 0.05

    # distributed path over a Dataset with duplicates
    ds = ray.data.from_items([{"u": f"u{i % 500}"} for i in range(5000)])
    est2 = hll_distinct(ds, "u")
    assert abs(est2 - 500) / 500 < 0.1


def test_simhash_vectorized_matches_reference_kernel():
    """Batch kernel must be bit-identical to the scalar path, and the
    reference per-word reference implementation (same word hash, per-word
    bit expansion) must agree with both."""
    import pandas as pd

    def simhash_ref(text):
        words = (text or "").lower().split()
        if not words:
            return 0
        hs = pd.util.hash_pandas_object(
            pd.Series(words, dtype=object), index=False
        ).to_numpy()
        acc = np.zeros(64, dtype=np.int64)
        for h in hs:
            for i in range(64):
                shift = 8 * (i // 8) + (7 - i % 8)
                acc[i] += 1 if (int(h) >> shift) & 1 else -1
        out = 0
        for i, v in enumerate(acc):
            if v > 0:
                out |= 1 << i
        return out

    texts = [BASE, "one", "", "a b c d e f", BASE + " tail one", "ünïcode wörds"]
    batch_sigs = SimHashActor._batch_simhash(texts)
    for t, b in zip(texts, batch_sigs):
        assert SimHashActor.simhash(t) == int(b) == simhash_ref(t), t


def test_hot_lsh_bucket_emits_star_not_quadratic():
    """10k identical docs in one LSH bucket must produce O(n) star edges,
    not O(n²) pairs."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import _BUCKET_PAIR_CAP, _pairs_in_bucket

    n = 10_000
    g = pd.DataFrame({"band": 0, "key": 7, "doc_id": list(range(n))})
    pairs = _pairs_in_bucket(g, by=["band", "key"])
    assert len(pairs) == n - 1  # star to the min id
    assert set(pairs["doc_a"]) == {0}
    # below the cap: still all-pairs
    small = pd.DataFrame({"band": 0, "key": 7, "doc_id": list(range(5))})
    assert len(_pairs_in_bucket(small, by=["band", "key"])) == 10
    assert _BUCKET_PAIR_CAP >= 64


def _ref_pairs_in_bucket(group, by, cap):
    """Per-key groupby reference for the MinHash bucket kernel."""
    import pandas as pd

    out_a: list = []
    out_b: list = []
    for _, g in group.groupby(by, sort=False):
        ids = sorted(set(g["doc_id"]))
        if len(ids) > cap:
            hub = ids[0]
            out_a.extend([hub] * (len(ids) - 1))
            out_b.extend(ids[1:])
            continue
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                out_a.append(a)
                out_b.append(b)
    df = pd.DataFrame({"doc_a": out_a, "doc_b": out_b})
    return df.drop_duplicates()


def _ref_simhash_pairs_bucket(group, max_hamming, cap):
    """Per-key groupby reference for the SimHash bucket kernel."""
    import pandas as pd

    out = []
    for _, g in group.groupby(["table_id", "band_key"], sort=False):
        rows = g.drop_duplicates("doc_id").sort_values("doc_id")
        ids = rows["doc_id"].tolist()
        sigs = np.asarray(rows["simhash"].tolist(), dtype=np.int64).astype(np.uint64)
        if len(ids) < 2:
            continue
        if len(ids) > cap:
            ii = np.zeros(len(ids) - 1, dtype=np.int64)
            jj = np.arange(1, len(ids), dtype=np.int64)
        else:
            ii, jj = np.triu_indices(len(ids), k=1)
        x = sigs[ii] ^ sigs[jj]
        d = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
        hit = d <= max_hamming
        for i, j, dd in zip(ii[hit], jj[hit], d[hit]):
            out.append((ids[i], ids[j], int(dd)))
    return pd.DataFrame(out, columns=["doc_a", "doc_b", "hamming"]).drop_duplicates(
        subset=["doc_a", "doc_b"]
    )


def _ref_cosine_pairs_bucket(group, threshold, cap):
    """Per-key groupby reference for the hyperplane-LSH bucket kernel."""
    import pandas as pd

    out = []
    for _, g in group.groupby(["table_id", "bucket"], sort=False):
        rows = g.drop_duplicates("vec_id").sort_values("vec_id")
        if len(rows) < 2:
            continue
        ids = rows["vec_id"].tolist()
        m = np.array(rows["embedding"].tolist(), dtype=np.float32)
        if len(ids) > cap:
            s0 = m @ m[0]
            jj = np.arange(1, len(ids), dtype=np.int64)
            hit = s0[jj] >= threshold
            for j in jj[hit]:
                out.append((ids[0], ids[j], round(float(s0[j]), 6)))
            continue
        sims = m @ m.T
        ii, jj = np.triu_indices(len(ids), k=1)
        hit = sims[ii, jj] >= threshold
        for i, j in zip(ii[hit], jj[hit]):
            out.append((ids[i], ids[j], round(float(sims[i, j]), 6)))
    return pd.DataFrame(out, columns=["vec_a", "vec_b", "cosine"]).drop_duplicates(
        subset=["vec_a", "vec_b"]
    )


def _lsh_bucket(seed, n_rows, n_keys, cap):
    """One shuffled LSH bucket over two key columns (k1, k2): random keys
    with repeated ids under a key (n_keys ≥ n_rows → all singletons here),
    plus, when ``n_keys`` < ``n_rows``, one hot key of its own with cap + 40
    distinct ids (min 1000) and a few repeated rows."""
    import pandas as pd

    rng = np.random.default_rng(seed)
    k1 = rng.integers(0, 3, n_rows)
    k2 = rng.integers(0, n_keys, n_rows)
    ids = rng.integers(0, max(2, n_rows // 2), n_rows)
    if n_keys < n_rows:
        hot = np.arange(1000, 1000 + cap + 40)
        hot = np.concatenate([hot, hot[:7]])
        k1 = np.concatenate([k1, np.full(len(hot), 1)])
        k2 = np.concatenate([k2, np.full(len(hot), n_keys)])
        ids = np.concatenate([ids, hot])
    perm = rng.permutation(len(ids))
    emb = rng.normal(size=(len(ids), 8)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    return pd.DataFrame(
        {"k1": k1[perm], "k2": k2[perm], "id": ids[perm],
         # sigs near one base word, so some pairs fall within the distance
         "sig": (0x0F0F_F0F0_1234_5678 ^ rng.integers(0, 1 << 40, len(ids)))[perm],
         "emb": list(emb[perm])}
    )


@pytest.mark.parametrize(
    "seed,n_rows,n_keys",
    [(0, 400, 60), (1, 900, 40), (2, 300, 100_000), (3, 0, 10)],
    ids=["dups", "hot-key", "all-singletons", "empty"],
)
def test_lsh_pair_kernels_match_per_group_reference(seed, n_rows, n_keys):
    """The three LSH bucket kernels (one shared run helper) give the same
    pairs and values as a per-key groupby loop, with typed columns even
    when the bucket has no pair."""
    from goose_parser_ray.functions.dedup import (
        _BUCKET_PAIR_CAP as cap,
        _cosine_pairs_bucket,
        _pairs_in_bucket,
        _simhash_pairs_bucket,
    )

    b = _lsh_bucket(seed, n_rows, n_keys, cap)

    def rows(df, cols):
        return sorted(zip(*(df[c].tolist() for c in cols)))

    mh = b.rename(columns={"k1": "band", "k2": "key", "id": "doc_id"})
    got_m = _pairs_in_bucket(mh, by=["band", "key"])
    want = _ref_pairs_in_bucket(mh, ["band", "key"], cap)
    assert rows(got_m, ["doc_a", "doc_b"]) == rows(want, ["doc_a", "doc_b"])
    assert len(got_m) == len(want)

    sh = b.rename(
        columns={"k1": "table_id", "k2": "band_key", "id": "doc_id", "sig": "simhash"}
    )
    got_s = _simhash_pairs_bucket(sh, 22)
    want = _ref_simhash_pairs_bucket(sh, 22, cap)
    cols = ["doc_a", "doc_b", "hamming"]
    assert rows(got_s, cols) == rows(want, cols)
    assert len(got_s) == len(want)

    cs = b.rename(
        columns={"k1": "table_id", "k2": "bucket", "id": "vec_id", "emb": "embedding"}
    )
    got_c = _cosine_pairs_bucket(cs, 0.3)
    want_c = _ref_cosine_pairs_bucket(cs, 0.3, cap)
    cols = ["vec_a", "vec_b", "cosine"]
    assert rows(got_c, cols) == rows(want_c, cols)
    assert len(got_c) == len(want_c)

    if seed == 1:  # the hot key emits cap + 39 star edges from its min id
        assert (got_m["doc_a"] == 1000).sum() == cap + 39
    if n_keys >= n_rows:  # all-singleton and empty buckets emit no pair
        assert len(got_m) == len(got_s) == len(got_c) == 0
    for df in (got_m, got_s):
        assert str(df["doc_a"].dtype) == str(df["doc_b"].dtype) == "int64"
    assert str(got_s["hamming"].dtype) == "int64"
    assert str(got_c["vec_a"].dtype) == str(got_c["vec_b"].dtype) == "int64"
    assert str(got_c["cosine"].dtype) == "float64"


def test_filtering_lsh_kernels_hold_one_run_of_pairs():
    """The SimHash and cosine bucket kernels filter each key's candidate
    pairs before the next key's exist: a bucket of 100 colliding keys of
    200 docs (~2M candidate pairs, few hits) must not hold them all at
    once (that takes ~60–180 MB; one run's pairs take ~2 MB)."""
    import tracemalloc

    import pandas as pd

    from goose_parser_ray.functions.dedup import (
        _cosine_pairs_bucket,
        _simhash_pairs_bucket,
    )

    rng = np.random.default_rng(0)
    n = 20_000
    key = rng.permutation(np.repeat(np.arange(100), 200))
    sig = rng.integers(0, 1 << 62, n)
    emb = rng.normal(size=(n, 64)).astype(np.float32)
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    sh = pd.DataFrame({"table_id": 0, "band_key": key, "doc_id": np.arange(n),
                       "simhash": sig})
    cs = pd.DataFrame({"table_id": 0, "bucket": key, "vec_id": np.arange(n),
                       "embedding": list(emb)})
    for run in (lambda: _simhash_pairs_bucket(sh, 3),
                lambda: _cosine_pairs_bucket(cs, 0.95)):
        tracemalloc.start()
        try:
            assert len(run()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak


def test_distributed_components_match_union_find(ray_session):
    """Min-label propagation over the pairs Dataset must produce the same
    components as driver union-find (chain + star + singleton-pair mix)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import (
        _union_find_components,
        connected_components_distributed,
    )

    pairs_pd = pd.DataFrame(
        {
            "doc_a": [1, 5, 9, 20, 20, 20, 40, 50, 60, 70],
            "doc_b": [5, 9, 13, 21, 22, 23, 41, 40, 61, 71],
        }
    )
    want = _union_find_components(pairs_pd)
    got_ds = connected_components_distributed(
        ray.data.from_pandas(pairs_pd), num_partitions=2, driver_pair_guard=0
    )
    got = {r["node"]: r["label"] for r in got_ds.to_pandas().to_dict("records")}
    # union-find returns only non-root nodes' roots plus touched roots;
    # compare on the union of both domains with self-roots defaulted
    for node in set(want) | set(got):
        assert got.get(node, node) == want.get(node, node), node


def test_minhash_dedup_keep_distributed_paths(docs_ds):
    """Force BOTH scale paths — distributed jaccard verify (docs Dataset,
    no driver dict) and distributed components (guard=0) — and require the
    exact same kept set as the driver path."""
    from goose_parser_ray.functions.dedup import minhash_dedup_keep

    docs = ray.data.from_arrow(docs_table())
    kept = minhash_dedup_keep(
        docs_ds,
        jaccard_threshold=0.8,
        docs=docs,
        driver_pair_guard=0,  # force min-label propagation
        num_partitions=2,
    ).to_pandas()
    assert set(kept["doc_id"]) == {0, 103}


def test_jaccard_verify_join_path_matches_broadcast(docs_ds):
    """Force the hash-join attach path (broadcast_bytes=0) and require the
    exact same verified pair set as the broadcast path."""
    from goose_parser_ray.functions.dedup import (
        minhash_lsh_candidates,
        verify_candidates_jaccard_distributed,
    )

    docs = ray.data.from_arrow(docs_table())
    pairs = minhash_lsh_candidates(docs_ds).materialize()
    via_join = verify_candidates_jaccard_distributed(
        pairs, docs, threshold=0.5, broadcast_bytes=0, num_partitions=2
    ).to_pandas()
    via_bcast = verify_candidates_jaccard_distributed(
        pairs, docs, threshold=0.5
    ).to_pandas()
    key = lambda df: sorted(zip(df["doc_a"], df["doc_b"], df["jaccard"].round(9)))
    assert key(via_join) == key(via_bcast)
    assert len(via_join) > 0


def test_multimodal_chain_resize_audio(ray_session):
    """Decode → resize → audio chain: schemas and deterministic stub values
    survive the cached-kernel plumbing."""
    from goose_parser_ray.functions.multimodal import (
        AudioFeatureActor,
        ImageDecodeActor,
        ImageResizeActor,
    )
    from goose_parser_ray.stages.extract import cached_kernel

    t = pa.Table.from_pydict(
        {"doc_id": [1, 2], "payload": [b"abc", b"defgh"]}
    )
    ds = ray.data.from_arrow(t)
    for kernel in (ImageDecodeActor, ImageResizeActor, AudioFeatureActor):
        ds = ds.map_batches(cached_kernel(kernel), batch_format="pyarrow")
    out = ds.to_pandas().sort_values("doc_id")
    assert list(out.columns) == [
        "doc_id", "payload", "features", "meta", "audio_features"
    ]
    for m in out["meta"]:
        assert m["width"] == 224 and m["height"] == 224
    assert all(len(f) == 16 for f in out["features"])
    assert all(len(a) == 8 for a in out["audio_features"])
    # determinism: same payload → same features
    out2 = ds.to_pandas().sort_values("doc_id")
    assert np.allclose(
        np.stack(out["audio_features"].to_numpy()),
        np.stack(out2["audio_features"].to_numpy()),
    )


def test_quantile_sketch_accuracy(ray_session):
    """Log-histogram sketch quantiles within the 1% bin-resolution bound of
    exact discrete quantiles, and merge(a, b) == sketch(a + b)."""
    from goose_parser_ray.functions import sketches

    rng = np.random.RandomState(7)
    vals = np.abs(rng.lognormal(mean=5, sigma=2, size=20_000)) + 0.01
    ds = ray.data.from_arrow(pa.Table.from_pydict({"v": vals}))
    est = sketches.sketch_quantiles(ds, "v", [0.5, 0.9, 0.99])
    n = len(vals)
    sv = np.sort(vals)
    for q, e in est.items():
        exact = sv[max(0, int(np.ceil(q * n)) - 1)]
        assert abs(e - exact) / exact < 0.02, (q, e, exact)
    # mergeability
    a, b = vals[:7000], vals[7000:]
    merged = sketches.merge([sketches.sketch_batch(a), sketches.sketch_batch(b)])
    whole = sketches.sketch_batch(vals)
    assert (merged == whole).all()


def test_num_shuffle_buckets_data_proportional(ray_session):
    """Bucket count must grow with input so expected rows per shuffle group
    stays ≤ target as the corpus quadruples (r2 VERDICT #1 done-criterion)."""
    from goose_parser_ray.functions.dedup import (
        _TARGET_ROWS_PER_BUCKET as target,
        num_shuffle_buckets,
    )

    n = 10_000_000
    for _ in range(4):  # n, 4n, 16n, 64n
        nb = num_shuffle_buckets(n)
        assert n / nb <= target, (n, nb)
        assert nb & (nb - 1) == 0  # power of two (cheap AND-mask compatible)
        n *= 4
    # floor for small inputs: the cluster's CPUs, rounded up to a power of 2
    cpus = int(ray.cluster_resources()["CPU"])
    assert num_shuffle_buckets(100) == 1 << (cpus - 1).bit_length()


def test_exact_dedup_default_buckets_data_derived(docs_ds):
    """exact_dedup's default bucket count is derived from the dataset size
    (r3 VERDICT item 3 — a library caller with defaults must not get the
    old fixed-1024 unbounded-group class back). The derived default must
    grow with input size and produce output identical to an explicitly
    sized run (bucketing only partitions work, never changes results)."""
    from goose_parser_ray.functions.dedup import exact_dedup, num_shuffle_buckets

    # data-derived default grows with input size
    assert num_shuffle_buckets(1_000_000_000) > num_shuffle_buckets(10_000)

    n = docs_ds.count()
    default = (
        exact_dedup(docs_ds, col="text", id_col="doc_id")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    explicit = (
        exact_dedup(docs_ds, col="text", id_col="doc_id", rows=n)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    import pandas.testing as pdt

    pdt.assert_frame_equal(default, explicit)


def test_minhash_pairs_invariant_to_bucket_count(docs_ds, monkeypatch):
    """The coarse bucket count only partitions work — the candidate pair set
    must be identical at any bucket count (sizing fix can't change results)."""
    from goose_parser_ray.functions import dedup

    key = lambda df: sorted(
        tuple(sorted((a, b))) for a, b in zip(df["doc_a"], df["doc_b"])
    )
    base = key(minhash_lsh_candidates(docs_ds).to_pandas())
    for nb in (1, 4, 512):
        monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n, nb=nb: nb)
        got = key(minhash_lsh_candidates(docs_ds).to_pandas())
        assert got == base, nb
    assert (100, 101) in set(base)


def test_exact_dedup_invariant_to_bucket_count(docs_ds, monkeypatch):
    """Like the MinHash pairs: the shuffle bucket count only partitions
    work, so the kept rows are identical at any bucket count."""
    from goose_parser_ray.functions import dedup

    outs = []
    for nb in (1, 4, 64):
        monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n, nb=nb: nb)
        outs.append(
            exact_dedup(docs_ds, col="text", id_col="doc_id")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
    import pandas.testing as pdt

    for out in outs[1:]:
        pdt.assert_frame_equal(out, outs[0])
    assert len(outs[0]) == 23


def test_distinct_rows_invariant_to_bucket_count(ray_session, monkeypatch):
    """The shuffle bucket count only partitions work: distinct_rows keeps
    the same rows at 1, 4 and 64 buckets and at its cluster default."""
    import pandas as pd
    import pandas.testing as pdt

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.relational import distinct_rows

    rng = np.random.default_rng(3)
    ds = ray.data.from_pandas(
        pd.DataFrame({"a": rng.integers(0, 20, 600), "b": rng.integers(0, 3, 600)})
    ).repartition(5)
    default = dedup.num_shuffle_buckets
    outs = []
    for count in (lambda n: 1, lambda n: 4, lambda n: 64, default):
        monkeypatch.setattr(dedup, "num_shuffle_buckets", count)
        outs.append(
            distinct_rows(ds, ["a", "b"])
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
    for out in outs[1:]:
        pdt.assert_frame_equal(out, outs[0])
    assert len(outs[0]) == 60


def test_coarse_bucket_payload_bounded(docs_ds, monkeypatch):
    """With data-proportional sizing, no coarse shuffle group sees more than
    ~target banded rows: simulate by hashing the banded stream through
    add_coarse_bucket at the count the sizing rule picks."""
    import collections

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.dedup import (
        MinHashActor,
        add_coarse_bucket,
        num_shuffle_buckets,
    )

    banded = MinHashActor()(docs_table())
    target = 50  # tiny target to exercise the bound on a small fixture
    monkeypatch.setattr(dedup, "_TARGET_ROWS_PER_BUCKET", target)
    nb = num_shuffle_buckets(banded.num_rows)
    t = add_coarse_bucket(banded, ["band", "key"], nb)
    counts = collections.Counter(t["__b"].to_pylist())
    # expected load/bucket = rows/nb ≤ target; allow hot fine-groups (a
    # single (band,key) can't split) plus hashing skew headroom
    assert max(counts.values()) <= 4 * target


def test_exact_dedup_null_text_whole_rows(ray_session):
    """Null values in the dedup column form ONE group (SQL NULL-group
    semantics) and winners are intact rows, not per-column first() stitches
    (r2 ADVICE)."""
    tbl = pa.Table.from_pydict(
        {
            "doc_id": [3, 1, 2, 5, 4],
            "text": ["a", None, "a", None, "b"],
            "extra": [None, "x", "y", None, None],
        }
    )
    out = (
        exact_dedup(ray.data.from_arrow(tbl), col="text", id_col="doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # groups: 'a'→min id 2, 'b'→4, NULL→1; winners keep their OWN extra
    assert out["doc_id"].tolist() == [1, 2, 4]
    assert out["text"].tolist()[0] is None or pd_isna(out["text"][0])
    by_id = out.set_index("doc_id")
    assert by_id.loc[1, "extra"] == "x"  # row 1's own value, not row 5's
    assert by_id.loc[2, "extra"] == "y"


def pd_isna(v):
    import pandas as pd

    return pd.isna(v)


def test_components_nonconvergence_raises(ray_session):
    """Exiting at max_iters with labels still changing must not silently
    return partial labels (r2 ADVICE)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import (
        connected_components_distributed,
    )

    # a long chain: diameter 6 → needs >1 round to converge
    chain = pd.DataFrame(
        {"doc_a": [1, 2, 3, 4, 5, 6], "doc_b": [2, 3, 4, 5, 6, 7]}
    )
    pairs = ray.data.from_pandas(chain)
    with pytest.raises(RuntimeError, match="max_iters"):
        connected_components_distributed(
            pairs, num_partitions=2, max_iters=1, driver_pair_guard=0
        )
    # 'warn' mode returns the partial labels instead
    partial = connected_components_distributed(
        pairs, num_partitions=2, max_iters=1, on_nonconverged="warn",
        driver_pair_guard=0,
    )
    assert partial.count() == 7


def test_jaccard_verify_semi_join_gate_paths(docs_ds):
    """The endpoint prefilter must produce identical verified pairs via the
    broadcast is_in path and the hash-partitioned ids-only join path
    (r2 VERDICT #3: force the join branch with guard=0)."""
    from goose_parser_ray.functions.dedup import (
        minhash_lsh_candidates,
        verify_candidates_jaccard_distributed,
    )

    docs = ray.data.from_arrow(docs_table())
    pairs = minhash_lsh_candidates(docs_ds).materialize()
    via_bcast = verify_candidates_jaccard_distributed(
        pairs, docs, threshold=0.5
    ).to_pandas()
    via_join = verify_candidates_jaccard_distributed(
        pairs, docs, threshold=0.5, endpoint_broadcast_guard=0,
        num_partitions=2,
    ).to_pandas()
    key = lambda df: sorted(zip(df["doc_a"], df["doc_b"], df["jaccard"].round(9)))
    assert key(via_join) == key(via_bcast)
    assert len(via_join) > 0


def test_ann_ivf_unbiased_sample_on_clustered_layout(ray_session):
    """r2 VERDICT #2 done-criterion: on a corpus SORTED by cluster, the
    quantizer's training sample must span the whole corpus — recall@k vs
    brute force stays high even though the old first-n-rows 'sample' would
    only ever see the first clusters."""
    from goose_parser_ray.functions.similarity import ann_bruteforce, ann_ivf

    rng = np.random.RandomState(11)
    centers = rng.randn(6, 16).astype(np.float32) * 3
    # 600 vectors in 6 tight clusters, SORTED by cluster id — the biased
    # prefix sample would train on clusters 0-1 only (sample_size=200)
    vecs = np.concatenate(
        [c + 0.1 * rng.randn(100, 16).astype(np.float32) for c in centers]
    )
    tbl = pa.Table.from_pydict(
        {"vec_id": list(range(600)), "embedding": [r.tolist() for r in vecs]},
        schema=pa.schema(
            [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
        ),
    )
    ds = ray.data.from_arrow(tbl)
    # queries: one from each of the LAST three clusters (ids 300, 400, 500)
    qids = [300, 400, 500]
    qmat = vecs[qids]
    exact = ann_bruteforce(ds, qids, qmat, k=10).to_pandas()
    approx = ann_ivf(
        ds, qids, qmat, k=10, n_centroids=6, nprobe=2, sample_size=200,
    ).to_pandas()
    recalls = []
    for q in qids:
        want = set(exact[exact["query_id"] == q]["vec_id"])
        got = set(approx[approx["query_id"] == q]["vec_id"])
        recalls.append(len(want & got) / len(want))
    assert min(recalls) >= 0.9, recalls


def test_ann_ivf_finds_planted_neighbor(ray_session):
    """IVF coarse quantizer + probe + rerank: the planted near-duplicate
    must survive cell pruning, and at nprobe=n_centroids the result equals
    brute force exactly (probing every cell disables pruning)."""
    from goose_parser_ray.functions.similarity import ann_bruteforce, ann_ivf

    rng = np.random.RandomState(3)
    m = rng.randn(120, 16).astype(np.float32)
    m[7] = m[0] + 0.01 * rng.randn(16)
    tbl = pa.Table.from_pydict(
        {"vec_id": list(range(120)), "embedding": [r.tolist() for r in m]},
        schema=pa.schema(
            [("vec_id", pa.int64()), ("embedding", pa.list_(pa.float32()))]
        ),
    )
    ds = ray.data.from_arrow(tbl)
    out = ann_ivf(ds, [0], m[[0]], k=3, n_centroids=8, nprobe=3).to_pandas()
    got = out.sort_values("rank")["vec_id"].tolist()
    assert got[0] == 7 and 0 not in got

    full = ann_ivf(ds, [0], m[[0]], k=3, n_centroids=8, nprobe=8).to_pandas()
    exact = ann_bruteforce(ds, [0], m[[0]], k=3).to_pandas()
    assert (
        full.sort_values("rank")["vec_id"].tolist()
        == exact.sort_values("rank")["vec_id"].tolist()
    )


def test_asof_join_bucketed_matches_pandas_global(ray_session, monkeypatch):
    """Bucketed distributed as-of must equal one global pandas merge_asof
    (backward, exact matches allowed), including unmatched-row nulls."""
    import pandas as pd

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.asof import asof_join_bucketed

    rng = np.random.RandomState(5)
    n_l, n_r = 400, 150
    left = pd.DataFrame(
        {
            "eid": np.arange(n_l),
            "uid": rng.randint(0, 25, n_l),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.randint(0, 100_000, n_l), unit="s"),
        }
    )
    right = pd.DataFrame(
        {
            "uid": rng.randint(0, 25, n_r),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.randint(0, 100_000, n_r), unit="s"),
            "val": rng.randint(1, 1000, n_r).astype(np.int64),
        }
    ).drop_duplicates(["uid", "ts"])
    monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n: 7)
    got = (
        asof_join_bucketed(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            by="uid",
            ts="ts",
            value_cols=["val"],
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    want = pd.merge_asof(
        left.sort_values("ts", kind="mergesort").reset_index(drop=True),
        right.sort_values("ts", kind="mergesort").reset_index(drop=True),
        on="ts",
        by="uid",
        direction="backward",
    ).sort_values("eid").reset_index(drop=True)
    assert len(got) == n_l
    assert got["eid"].tolist() == want["eid"].tolist()
    gv = got["val"].astype("Int64")
    wv = want["val"].astype("Int64")
    assert gv.isna().equals(wv.isna())
    assert gv.dropna().tolist() == wv.dropna().tolist()
    assert gv.isna().any()  # some clicks precede every purchase


def test_windowed_count_matches_bruteforce(ray_session, monkeypatch):
    """Range-join count (cumulative + two as-of lookups) must equal the
    brute-force O(L*R) inequality-join count, including boundary semantics
    (r.ts <= l.ts, r.ts > l.ts - window) and zero-match rows."""
    import pandas as pd

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.asof import windowed_count_bucketed

    rng = np.random.RandomState(17)
    n_l, n_r = 300, 200
    base = pd.Timestamp("2024-02-01")
    left = pd.DataFrame(
        {
            "eid": np.arange(n_l),
            "uid": rng.randint(0, 15, n_l),
            "ts": base + pd.to_timedelta(rng.randint(0, 50_000, n_l), unit="s"),
        }
    )
    right = pd.DataFrame(
        {
            "uid": rng.randint(0, 15, n_r),
            "ts": base + pd.to_timedelta(rng.randint(0, 50_000, n_r), unit="s"),
        }
    )
    win = pd.Timedelta(minutes=30)
    monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n: 5)
    got = (
        windowed_count_bucketed(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            by="uid",
            ts="ts",
            window=win,
            out_col="n",
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    want = []
    for _, row in left.iterrows():
        m = right[
            (right["uid"] == row["uid"])
            & (right["ts"] <= row["ts"])
            & (right["ts"] > row["ts"] - win)
        ]
        want.append(len(m))
    assert len(got) == n_l
    assert got["n"].tolist() == [want[i] for i in got["eid"]]
    assert got["n"].sum() > 0 and (got["n"] == 0).any()


def test_filter_out_ids_branch_parity(ray_session):
    """Broadcast is_in and left_anti join branches of filter_out_ids must
    keep the same rows (force the join branch with broadcast_threshold=0)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import filter_out_ids

    ds = ray.data.from_pandas(
        pd.DataFrame({"id": list(range(50)), "v": list(range(50))})
    )
    drop = ray.data.from_pandas(pd.DataFrame({"node": [3, 7, 11, 49]}))
    via_bcast = filter_out_ids(ds, drop, "id").to_pandas()
    via_join = filter_out_ids(
        ds, drop, "id", broadcast_threshold=0, num_partitions=2
    ).to_pandas()
    assert sorted(via_bcast["id"]) == sorted(via_join["id"])
    assert set(via_bcast["id"]) == set(range(50)) - {3, 7, 11, 49}


def test_filter_in_ids_branch_parity(ray_session):
    """Broadcast is_in and inner-join branches of filter_in_ids must keep
    the same rows AND the same non-key columns (force the join branch with
    broadcast_threshold=0)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import filter_in_ids

    ds = ray.data.from_pandas(
        pd.DataFrame({"id": list(range(50)), "v": [i * 10 for i in range(50)]})
    )
    keep = ray.data.from_pandas(pd.DataFrame({"node": [0, 5, 23, 49]}))
    via_bcast = (
        filter_in_ids(ds, keep, "id").to_pandas().sort_values("id")
    )
    via_join = (
        filter_in_ids(ds, keep, "id", broadcast_threshold=0, num_partitions=2)
        .to_pandas()
        .sort_values("id")
    )
    assert list(via_bcast["id"]) == [0, 5, 23, 49]
    assert list(via_join["id"]) == [0, 5, 23, 49]
    assert list(via_bcast["v"]) == list(via_join["v"]) == [0, 50, 230, 490]
    assert sorted(via_bcast.columns) == sorted(via_join.columns) == ["id", "v"]


def test_asof_join_right_agg_in_bucket(ray_session, monkeypatch):
    """right_agg collapses duplicate (by, ts) right keys inside the bucket
    join — must equal pre-aggregating globally then as-of joining."""
    import pandas as pd

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.asof import asof_join_bucketed

    rng = np.random.RandomState(21)
    left = pd.DataFrame(
        {
            "eid": np.arange(200),
            "uid": rng.randint(0, 10, 200),
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.randint(0, 5_000, 200), unit="s"),
        }
    )
    right = pd.DataFrame(
        {
            "uid": rng.randint(0, 10, 300),
            # coarse ts grid -> plenty of duplicate (uid, ts) keys
            "ts": pd.Timestamp("2024-03-01")
            + pd.to_timedelta(rng.randint(0, 50, 300) * 100, unit="s"),
            "val": rng.randint(1, 1000, 300).astype(np.int64),
        }
    )
    assert right.duplicated(["uid", "ts"]).any()
    monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n: 4)
    got = (
        asof_join_bucketed(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            by="uid", ts="ts", value_cols=["val"],
            right_agg={"val": "max"},
        )
        .to_pandas()
        .sort_values("eid")
        .reset_index(drop=True)
    )
    pre = right.groupby(["uid", "ts"], as_index=False).agg({"val": "max"})
    want = pd.merge_asof(
        left.sort_values("ts", kind="mergesort").reset_index(drop=True),
        pre.sort_values("ts", kind="mergesort").reset_index(drop=True),
        on="ts", by="uid", direction="backward",
    ).sort_values("eid").reset_index(drop=True)
    gv, wv = got["val"].astype("Int64"), want["val"].astype("Int64")
    assert got["eid"].tolist() == want["eid"].tolist()
    assert gv.isna().equals(wv.isna())
    assert gv.dropna().tolist() == wv.dropna().tolist()


def test_weighted_sample_matches_driver_reference(ray_session):
    """Distributed A-ES weighted sample must equal the same deterministic
    computation done in one pass on the driver (identical hash → identical
    scores → identical top-k), regardless of block layout."""
    import pandas as pd

    from goose_parser_ray.functions.relational import weighted_sample

    rng = np.random.RandomState(31)
    df = pd.DataFrame(
        {"id": np.arange(1000), "w": rng.randint(1, 500, 1000).astype(np.int64)}
    )
    ds = ray.data.from_pandas(df).repartition(7)
    got = weighted_sample(ds, 25, id_col="id", weight_col="w", seed=5)
    got_ids = sorted(got.to_pandas()["id"].tolist())

    assert got_ids == _weighted_sample_reference(df["id"], df["w"], 25, seed=5)
    # heavier rows are (statistically) favored: mean weight of the sample
    # should exceed the population mean on this draw
    assert df[df["id"].isin(got_ids)]["w"].mean() > df["w"].mean()


def _weighted_sample_reference(ids, w, k, seed):
    """Single-process A-ES in one pass: the same mixed Knuth hash per id."""
    from goose_parser_ray.functions.dedup import _mix64

    ids = np.asarray(ids, np.int64)
    h = _mix64(ids.astype(np.uint64) * np.uint64(2654435761 + 2 * seed))
    u = ((h >> np.uint64(32)).astype(np.float64) + 0.5) / float(1 << 32)
    score = np.power(u, 1.0 / np.maximum(np.asarray(w, np.float64), 1e-12))
    return sorted(ids[np.argsort(-score, kind="stable")[:k]].tolist())


def test_weighted_sample_draws_from_high_id_bits(ray_session):
    """Ids that differ only above bit 31 must still draw different
    uniforms. Without the avalanche they all draw the same one, so with
    equal weights every score ties and the sample depends on the block
    layout instead of matching the single-process reference."""
    import pandas as pd

    from goose_parser_ray.functions.relational import weighted_sample

    ids = np.arange(1000, dtype=np.int64) << 32
    df = pd.DataFrame({"id": ids, "w": np.ones(1000, np.int64)})
    got = weighted_sample(
        ray.data.from_pandas(df).repartition(5), 50, id_col="id", weight_col="w"
    )
    got_ids = sorted(got.to_pandas()["id"].tolist())
    assert got_ids == _weighted_sample_reference(ids, df["w"], 50, seed=42)
    assert min(got_ids) < ids[500] < max(got_ids)


def test_salted_join_matches_unsalted_on_skewed_keys(ray_session):
    """salted_join must return exactly the plain inner-join result when the
    big side is heavily skewed (80% of rows share one hot key) — the salt
    only changes partitioning, never the row set."""
    import pandas as pd

    from goose_parser_ray.functions.relational import salted_join

    rng = np.random.RandomState(7)
    keys = np.where(rng.rand(2000) < 0.8, 3, rng.randint(0, 10, 2000))
    big = pd.DataFrame(
        {"k": keys.astype(np.int64), "v": np.arange(2000, dtype=np.int64)}
    )
    small = pd.DataFrame(
        {"rk": np.arange(10, dtype=np.int64),
         "name": [f"n{i}" for i in range(10)]}
    )
    got = salted_join(
        ray.data.from_pandas(big).repartition(6),
        ray.data.from_pandas(small),
        key="k", right_key="rk", salts=4, num_partitions=8,
    ).to_pandas()
    want = big.merge(small, left_on="k", right_on="rk", how="inner")
    gs = sorted(map(tuple, got[["k", "v", "name"]].itertuples(index=False)))
    ws = sorted(map(tuple, want[["k", "v", "name"]].itertuples(index=False)))
    assert gs == ws


def test_auto_join_detects_skew_and_matches_plain(ray_session):
    """auto_join: the bounded-sample detector reads ~5%-hot-share skew
    correctly (skewed input → salted plan, uniform input → plain plan) and
    BOTH plans return exactly the pandas inner-join rows."""
    import pandas as pd

    from goose_parser_ray.functions.relational import (
        auto_join,
        detect_key_skew,
    )

    rng = np.random.RandomState(7)
    skewed = np.where(rng.rand(2000) < 0.8, 3, rng.randint(0, 10, 2000))
    uniform = rng.randint(0, 1000, 2000)
    small = pd.DataFrame(
        {"rk": np.arange(1000, dtype=np.int64),
         "name": [f"n{i}" for i in range(1000)]}
    )
    for keys in (skewed, uniform):
        big = pd.DataFrame(
            {"k": keys.astype(np.int64), "v": np.arange(2000, dtype=np.int64)}
        )
        big_ds = ray.data.from_pandas(big).repartition(6)
        share = detect_key_skew(big_ds, "k", sample_rows=500)
        if keys is skewed:
            assert share > 0.5
        else:
            assert share < 0.05
        got = auto_join(
            big_ds, ray.data.from_pandas(small),
            key="k", right_key="rk", num_partitions=8, sample_rows=500,
        ).to_pandas()
        want = big.merge(small, left_on="k", right_on="rk", how="inner")
        gs = sorted(map(tuple, got[["k", "v", "name"]].itertuples(index=False)))
        ws = sorted(map(tuple, want[["k", "v", "name"]].itertuples(index=False)))
        assert gs == ws


def test_global_scan_offsets_matches_numpy_cumsum(ray_session):
    """Distributed range-bucketed scan == single-pass numpy exclusive
    cumsum in order-key order, regardless of block layout (rows arrive
    shuffled across 7 blocks; keys are non-contiguous with gaps)."""
    import pandas as pd

    from goose_parser_ray.functions.packing import (
        global_scan_offsets, pack_sequences,
    )

    rng = np.random.RandomState(11)
    keys = np.sort(rng.choice(50_000, size=3000, replace=False))
    sizes = rng.randint(1, 400, size=3000).astype(np.int64)
    df = pd.DataFrame({"k": keys.astype(np.int64), "n": sizes})
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    ds = ray.data.from_pandas(shuffled).repartition(7)

    got = (
        global_scan_offsets(ds, order_col="k", size_col="n")
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    want = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    assert got["k"].tolist() == keys.tolist()
    assert got["start_off"].tolist() == want.tolist()

    packed = (
        pack_sequences(ds, order_col="k", size_col="n", seq_len=512)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert packed["ex_start"].tolist() == (want // 512).tolist()
    assert packed["ex_end"].tolist() == ((want + sizes - 1) // 512).tolist()
    # examples tile the stream contiguously: doc spanning a boundary
    # appears in consecutive examples
    assert (packed["ex_end"] >= packed["ex_start"]).all()


def test_global_scan_offsets_empty_input(ray_session):
    """An empty dataset scans to zero rows instead of raising."""
    import pandas as pd

    from goose_parser_ray.functions.packing import global_scan_offsets

    empty = pd.DataFrame({"k": np.array([], np.int64), "n": np.array([], np.int64)})
    assert global_scan_offsets(
        ray.data.from_pandas(empty), order_col="k", size_col="n"
    ).to_pandas().empty
    emptied = ray.data.range(10).map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow"
    )
    assert global_scan_offsets(emptied, order_col="id").count() == 0


@pytest.mark.parametrize("buckets", [1, 7, None])
def test_global_scan_offsets_invariant_to_bucket_count(ray_session, monkeypatch, buckets):
    """The range count only partitions work: offsets equal a numpy
    reference at 1, 7 and the cluster's bucket count, for string keys with
    heavy ties settled by a second order column, unit weights (dense rank)
    and a weight column (exclusive prefix sum)."""
    import pandas as pd

    from goose_parser_ray.functions import dedup
    from goose_parser_ray.functions.packing import global_scan_offsets

    if buckets is not None:
        monkeypatch.setattr(dedup, "num_shuffle_buckets", lambda n: buckets)
    rng = np.random.default_rng(5)
    n = 2000
    keys = np.array([f"k{i:02d}" for i in rng.integers(0, 12, n)], dtype=object)
    keys[:600] = "k05"  # one tie run far larger than any range
    ids = rng.permutation(n).astype(np.int64)
    w = rng.integers(0, 50, n).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys, "id": ids, "w": w})).repartition(6)

    order = np.lexsort((ids, keys))
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    before = np.empty(n, np.int64)
    before[order] = np.cumsum(w[order]) - w[order]

    got = (
        global_scan_offsets(ds, order_col=["k", "id"], offset_col="rn")
        .to_pandas().set_index("id").loc[ids]
    )
    assert got["rn"].tolist() == rank.tolist()
    assert got["k"].tolist() == keys.tolist()
    got = (
        global_scan_offsets(ds, order_col=["k", "id"], size_col="w")
        .to_pandas().set_index("id").loc[ids]
    )
    assert got["start_off"].tolist() == before.tolist()


def test_redact_pii_rules_and_idempotence():
    """Emails, phones and digit runs each redact; a second pass is a
    no-op (placeholders contain no redactable spans)."""
    from goose_parser_ray.functions.scrub import redact_pii

    col = pa.array([
        "mail me at jane.doe+x@example.co.uk today",
        "call +1 (415) 555-0199 or 020 7946 0958",
        "order 12345 shipped, ref 99",
        "no pii here",
        None,
    ])
    out = redact_pii(col)
    assert out.to_pylist() == [
        "mail me at <EMAIL> today",
        "call <PHONE> or <PHONE>",
        "order <NUM> shipped, ref <NUM>",
        "no pii here",
        None,
    ]
    assert redact_pii(out).to_pylist() == out.to_pylist()


def test_extract_int_field():
    from goose_parser_ray.functions.scrub import extract_int_field

    col = pa.array(['{"k": 69}', '{"k":-3, "z": 1}', '{"z": 5}', None])
    assert extract_int_field(col, "k").to_pylist() == [69, -3, None, None]


def test_repetition_signals_hand_computed():
    from goose_parser_ray.functions.textstats import add_repetition_signals

    t = pa.table({"text": ["a a b", "x y z", "w w w w", "", "  "]})
    out = add_repetition_signals(t)
    assert out["n_words"].to_pylist() == [3, 3, 4, 0, 0]
    assert out["n_distinct"].to_pylist() == [2, 3, 1, 0, 0]
    # 10000*1/3 -> 3333 (round half away), 10000*2/3 -> 6667
    assert out["dup_word_bp"].to_pylist() == [3333, 0, 7500, 0, 0]
    assert out["top_word_bp"].to_pylist() == [6667, 3333, 10000, 0, 0]


def test_decontaminate_ngrams_drops_overlapping_docs(ray_session):
    """A doc embedding a benchmark 8-gram mid-text is dropped; docs with
    7-word overlaps or <8 words survive; short bench texts contribute no
    grams."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import decontaminate_ngrams

    bench = ["alpha beta gamma delta epsilon zeta eta theta iota", "tiny"]
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            # contains bench gram words 2..9 ("beta ... iota")
            "intro beta gamma delta epsilon zeta eta theta iota outro",
            # 7-word overlap only -> survives
            "beta gamma delta epsilon zeta eta theta other words here",
            "completely unrelated text with eight words in it",
            "tiny",  # <8 words, and bench 'tiny' yields no 8-grams
        ],
    })
    out = decontaminate_ngrams(
        ray.data.from_pandas(df), bench, n=8
    ).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [2, 3, 4]


def test_mixture_resample_rates(ray_session):
    import pandas as pd

    from goose_parser_ray.functions.relational import mixture_resample

    df = pd.DataFrame({
        "id": list(range(200)),
        "src": ["a"] * 100 + ["b"] * 100,
    })
    out = mixture_resample(
        ray.data.from_pandas(df).repartition(3),
        id_col="id", group_col="src",
        rates_pct={"a": 50}, default_pct=10,
    ).to_pandas()
    a = out[out["src"] == "a"]["id"].tolist()
    b = out[out["src"] == "b"]["id"].tolist()
    assert sorted(a) == [i for i in range(100) if i % 100 < 50]
    assert sorted(b) == [i for i in range(100, 200) if i % 100 < 10]


def test_tfidf_gate_paths_and_reference(docs_ds):
    """tfidf_top_terms must produce identical top-k via the broadcast-vocab
    path and the hash-join path (guard=0 forces the join branch), and both
    must match a single-process pandas reference computed with the same
    integer scoring."""
    import pandas as pd

    from goose_parser_ray.functions.textstats import tfidf_top_terms

    tbl = docs_table()
    n_docs = tbl.num_rows
    via_bcast = tfidf_top_terms(
        ray.data.from_arrow(tbl), n_docs, k=3
    ).to_pandas()
    via_join = tfidf_top_terms(
        ray.data.from_arrow(tbl), n_docs, k=3, vocab_broadcast_guard=0,
        join_num_partitions=2,
    ).to_pandas()

    # reference: plain pandas, same integer score
    rows = tbl.to_pylist()
    tf = {}
    df = {}
    for r in rows:
        words = r["text"].split()
        for w in words:
            tf[(r["doc_id"], w)] = tf.get((r["doc_id"], w), 0) + 1
        for w in set(words):
            df[w] = df.get(w, 0) + 1
    scored = pd.DataFrame(
        [
            {"doc_id": d, "word": w, "score": c * 10000 // df[w]}
            for (d, w), c in tf.items()
        ]
    )
    scored = scored.sort_values(
        ["doc_id", "score", "word"], ascending=[True, False, True],
        kind="mergesort",
    )
    ref = scored.groupby("doc_id", sort=False).head(3)

    key = lambda f: sorted(zip(f["doc_id"], f["word"], f["score"]))
    assert key(via_bcast) == key(ref)
    assert key(via_join) == key(ref)
    assert len(ref) > 0


def test_grouped_hll_accuracy_vs_exact(ray_session):
    """Per-key HLL estimates must land within ±5% of exact distinct counts
    (4096 registers → ~1.6% standard error), through the full two-level
    distributed merge."""
    import pandas as pd

    from goose_parser_ray.functions.textstats import grouped_hll_distinct

    rng = np.random.default_rng(11)
    keys = rng.choice(["a", "b", "c"], size=20_000)
    # distinct cardinality differs per key: a ~ 5000, b ~ 500, c ~ 50
    vals = np.where(
        keys == "a", rng.integers(0, 5000, 20_000),
        np.where(keys == "b", rng.integers(0, 500, 20_000),
                 rng.integers(0, 50, 20_000)),
    )
    tbl = pa.table({"k": keys, "v": vals})
    est = (
        grouped_hll_distinct(ray.data.from_arrow(tbl), "k", "v")
        .to_pandas()
        .set_index("k")["approx_distinct"]
    )
    exact = pd.DataFrame({"k": keys, "v": vals}).groupby("k")["v"].nunique()
    for k in ("a", "b", "c"):
        assert abs(est[k] - exact[k]) <= max(2, 0.05 * exact[k]), (
            k, est[k], exact[k],
        )


def test_chunk_text_reassembles_unicode(ray_session):
    """Chunk invariant: chunk 0 plus each later chunk minus the 50-codepoint
    overlap reconstructs the document exactly — including multi-byte
    (Cyrillic) text, pinning codepoint (not byte) slicing semantics."""
    from goose_parser_ray.queries import q_chunk_text

    texts = [
        "",
        "short",
        "x" * 200,
        "y" * 201,
        ("слово дело тело " * 40).strip(),   # Cyrillic, > 2 chunks
        "abc " * 120,                          # 480 chars → 4 chunks
    ]
    import os, tempfile

    import pyarrow.parquet as pq

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.table({"doc_id": list(range(len(texts))), "text": texts}),
            os.path.join(d, "documents.parquet"),
        )
        out = q_chunk_text(d).to_pandas()
    for i, text in enumerate(texts):
        rows = out[out["doc_id"] == i].sort_values("chunk_id")
        got = ""
        for j, ch in zip(rows["chunk_id"], rows["chunk"]):
            got += ch if j == 0 else ch[50:]
        assert got == text, f"doc {i}"
        # exact coverage law: chunk j spans [j*150, j*150+200) ∩ [0, len)
        for j, ch in zip(rows["chunk_id"], rows["chunk"]):
            assert len(ch) == max(0, min(200, len(text) - j * 150))


def test_corr_by_flag_matches_numpy(ray_session):
    """corr_bp must agree with np.corrcoef on the same derived ints
    (±1 bp for the final rounding)."""
    import duckdb
    import pandas as pd

    from goose_parser_ray.queries import q_corr_by_flag

    out = q_corr_by_flag("/root/testdata/sf0.001").to_pandas()
    li = pd.read_parquet(
        "/root/testdata/sf0.001/lineitem.parquet",
        columns=["l_returnflag", "l_quantity", "l_discount"],
    )
    li["x"] = li["l_quantity"].astype("int64")
    li["y"] = (100 * li["l_discount"]).round().astype("int64")
    for flag, g in li.groupby("l_returnflag"):
        want = int(
            np.round(10000 * np.corrcoef(g["x"], g["y"])[0, 1])
        )
        got = int(out[out["l_returnflag"] == flag]["corr_bp"].iloc[0])
        assert abs(got - want) <= 1, (flag, got, want)


def test_latest_per_key_tiebreak(ray_session):
    """Planted duplicate-max timestamps: the higher event_id must win,
    regardless of row order or batch split."""
    import datetime as dt

    import pandas as pd

    ts = dt.datetime(2025, 1, 1, 12, 0, 0)
    rows = [
        {"event_id": 1, "user_id": 7, "event_type": "a", "ts": ts},
        {"event_id": 9, "user_id": 7, "event_type": "b", "ts": ts},
        {"event_id": 5, "user_id": 7, "event_type": "c",
         "ts": ts - dt.timedelta(hours=1)},
        {"event_id": 2, "user_id": 8, "event_type": "d", "ts": ts},
    ]
    import os, tempfile

    import pyarrow.parquet as pq

    from goose_parser_ray.queries import q_latest_per_key

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.Table.from_pylist(rows), os.path.join(d, "events.parquet"))
        out = (
            q_latest_per_key(d).to_pandas().set_index("user_id")
        )
    assert out.loc[7, "event_id"] == 9
    assert out.loc[8, "event_id"] == 2


def test_kmeans_distributed_recovers_clusters(ray_session):
    """Three well-separated planted clusters: distributed Lloyd must
    recover the exact memberships and its inertia must be monotonically
    non-increasing across rounds."""
    from goose_parser_ray.functions.similarity import kmeans_distributed

    rng = np.random.RandomState(3)
    centers = np.array([[10.0, 0, 0, 0], [0, 10.0, 0, 0], [0, 0, 10.0, 0]])
    pts = np.vstack(
        [c + 0.1 * rng.randn(40, 4) for c in centers]
    ).astype(np.float32)
    tbl = pa.Table.from_pydict(
        {"embedding": [row.tolist() for row in pts]},
        schema=pa.schema([("embedding", pa.list_(pa.float32()))]),
    )
    cent, counts, hist = kmeans_distributed(
        ray.data.from_arrow(tbl), "embedding", k=3, max_iters=10, seed=1
    )
    assert sorted(counts.tolist()) == [40, 40, 40]
    assert all(b <= a + 1e-6 for a, b in zip(hist, hist[1:]))
    # each learned centroid sits on one planted center
    d = np.linalg.norm(cent[:, None, :] - centers[None, :, :], axis=2)
    assert (d.min(axis=1) < 0.5).all()


def test_dedup_incremental_base_wins(ray_session):
    """Cross-corpus refresh semantics: a new doc duplicating BASE is
    dropped, new-new near-dup clusters keep their earliest id, unique new
    docs survive, and base is never emitted."""
    from goose_parser_ray.functions.dedup import dedup_incremental

    base = ray.data.from_arrow(
        pa.Table.from_pylist(
            [
                {"doc_id": 0, "text": BASE + " base copy"},
                {"doc_id": 4, "text": "some other base document text here"},
            ]
        )
    )
    new = ray.data.from_arrow(
        pa.Table.from_pylist(
            [
                # duplicates base 0 → dropped even though its id (1) is low
                {"doc_id": 1, "text": BASE + " base copy"},
                # near-dup pair inside new (distinct from BASE): 2 beats 3
                {"doc_id": 2, "text": "a wholly new crawl page about rivers "
                                      "and lakes and mountains tail alpha"},
                {"doc_id": 3, "text": "a wholly new crawl page about rivers "
                                      "and lakes and mountains tail beta"},
                # unique → kept
                {"doc_id": 7, "text": "entirely unrelated words in this one"},
            ]
        )
    )
    kept = sorted(
        dedup_incremental(new, base, col="text", id_col="doc_id")
        .to_pandas()["doc_id"]
        .tolist()
    )
    assert kept == [2, 7]


def _bigram_reference(rows):
    """Pure-python bigram LM scores for parity checks (same tokenizer)."""
    import re

    tok = lambda s: [w for w in re.split(r"[^\w]+", (s or "").lower(), flags=re.UNICODE) if w]
    bigrams = []
    for did, text in rows:
        ws = tok(text)
        bigrams.extend((did, a, b) for a, b in zip(ws, ws[1:]))
    from collections import Counter

    cb = Counter((a, b) for _, a, b in bigrams)
    cu = Counter(a for _, a, _ in bigrams)
    scores = {}
    for did, a, b in bigrams:
        s, n = scores.get(did, (0, 0))
        scores[did] = (s + 10000 * cb[(a, b)] // cu[a], n + 1)
    return scores


def test_bigram_lm_score_gate_paths_and_reference(ray_session):
    """bigram_lm_score must match a pure-python reference on both the
    broadcast-model path and the hash-join path (guard=0), including docs
    split across blocks and docs with <2 words (absent from output)."""
    import pandas as pd

    from goose_parser_ray.functions.lm import bigram_lm_score

    rows = [
        (0, "the cat sat on the mat the cat"),
        (1, "the dog sat on the log"),
        (2, "Hello, world! hello WORLD."),
        (3, "single"),
        (4, ""),
        (5, "the cat"),
    ]
    ref = _bigram_reference(rows)
    df = pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    # two blocks so at least the model partials span blocks
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])

    for kwargs in ({}, {"model_broadcast_guard": 0, "join_num_partitions": 2}):
        out = bigram_lm_score(ds, **kwargs).to_pandas()
        got = {
            int(r.doc_id): (int(r.lm_score_e4), int(r.n_bigrams))
            for r in out.itertuples()
        }
        assert got == ref, (kwargs, got, ref)
    assert 3 not in ref and 4 not in ref  # <2 words -> no bigrams


@pytest.mark.parametrize(
    "stride, ids",
    [
        (9973, [3, 7, 11, 500, 9973, 9974, 19946, 42, 1000000, 12345]),
        # the largest stride accepted: composite keys near 2^62, where a
        # range layout that multiplies key offsets by a bucket count wraps
        ((1 << 22) - 1, [0, 1, 5, 1 << 21, (1 << 22) - 2, 3_000_000, 4_000_000]),
    ],
    ids=["prime_stride", "max_stride"],
)
def test_epoch_shuffle_shards_matches_sorted_reference(ray_session, stride, ids):
    """epoch_shuffle_shards: rank must equal the position in the (id mod
    stride, id) sort order; shard/pos are the round-robin deal."""
    import pandas as pd

    from goose_parser_ray.functions.packing import epoch_shuffle_shards

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": ids}))
    out = (
        epoch_shuffle_shards(ds, id_col="doc_id", n_shards=4, stride=stride)
        .to_pandas()
        .set_index("doc_id")
    )
    order = sorted(ids, key=lambda i: (i % stride, i))
    for rank, did in enumerate(order):
        assert out.loc[did, "shard"] == rank % 4, did
        assert out.loc[did, "pos"] == rank // 4, did


def test_epoch_shuffle_rejects_out_of_range_ids(ray_session):
    import pandas as pd
    import pytest

    from goose_parser_ray.functions.packing import epoch_shuffle_shards

    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [-1, 2]}))
    with pytest.raises(Exception):
        epoch_shuffle_shards(ds, id_col="doc_id").to_pandas()
    with pytest.raises(ValueError):
        epoch_shuffle_shards(ds, id_col="doc_id", stride=1 << 23)


def test_duplicated_ngram_stats_gate_paths(ray_session):
    """duplicated_ngram_stats must produce identical (total, dup) counts on
    the broadcast-probe path and the join path (guard=0), with docs that
    share a 3-gram across blocks, repeated grams inside one doc, and a doc
    too short to emit grams (absent from output)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import duplicated_ngram_stats

    rows = [
        (0, "a b c d e"),        # grams: abc bcd cde
        (1, "x a b c y"),        # shares 'a b c' with doc 0
        (2, "p q r p q r p q"),  # internal repeats only: pqr qrp rpq... none shared
        (3, "a b"),              # <3 words -> absent
        (4, "x a b c y"),        # exact dup of doc 1 (all grams shared)
    ]
    df = pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    ds = ray.data.from_pandas([df.iloc[:2], df.iloc[2:]])

    expected = {
        0: (3, 1),  # only 'a b c' duplicated
        1: (3, 3),
        2: (6, 0),
        4: (3, 3),
    }
    for kwargs in ({}, {"dup_broadcast_guard": 0, "join_num_partitions": 2}):
        out = duplicated_ngram_stats(ds, n=3, **kwargs).to_pandas()
        got = {
            int(r.doc_id): (int(r.total_ngrams), int(r.dup_ngrams))
            for r in out.itertuples()
        }
        assert got == expected, (kwargs, got)


def test_semdedup_removes_near_identical_keeps_min_id(ray_session):
    """semdedup: two tight clusters with exact/near duplicates — drops the
    higher-id member of each >0.95-cosine pair, keeps min-id reps and the
    outlier; identical on the union-find and distributed-components paths."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.dedup import semdedup

    rng = np.random.RandomState(3)
    a = rng.randn(8).astype(np.float32)
    b = rng.randn(8).astype(np.float32)
    rows = [
        (0, a),                      # rep of cluster A
        (1, a * 2.0),                # same direction -> cosine 1.0 with 0
        (2, a + rng.randn(8) * 1e-3),  # near-dup of 0
        (10, b),                     # rep of cluster B
        (11, b * 0.5),               # dup of 10
        (20, rng.randn(8).astype(np.float32)),  # singleton
    ]
    df = pd.DataFrame(
        {"vec_id": [r[0] for r in rows], "embedding": [list(map(float, r[1])) for r in rows]}
    )
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])

    # k=2 keeps each natural cluster in ONE k-means cell for any seed
    # (k=3 would split cluster A between two near-identical centroids and
    # miss the 0-2 pair — the inherent SemDeDup cluster-boundary miss).
    for guard in (5_000_000, 0):  # driver union-find / distributed components
        kept = sorted(
            semdedup(
                ds, threshold=0.95, k=2, seed=1, driver_pair_guard=guard,
                num_partitions=2,
            )
            .to_pandas()["vec_id"]
            .tolist()
        )
        assert kept == [0, 10, 20], (guard, kept)


def test_hamming1_pairs_split_block_exact(ray_session):
    """hamming1_pairs: identical strings, one-substitution pairs (in either
    half), unicode strings, and different-length strings (never paired) —
    must equal the brute-force reference exactly."""
    import itertools

    import pandas as pd

    from goose_parser_ray.functions.dedup import hamming1_pairs

    vals = [
        (1, "abcdef"),
        (2, "abcdeX"),   # differs from 1 in second half
        (3, "Xbcdef"),   # differs from 1 in first half
        (4, "abcdef"),   # identical to 1
        (5, "abcXYf"),   # distance 2 from 1 -> no pair with 1
        (6, "abcdefg"),  # different length -> never paired
        (7, "héllo"),
        (8, "hållo"),    # unicode substitution, distance 1
        (9, ""),
        (10, ""),        # empty strings: identical pair
    ]
    ref = sorted(
        (a, b)
        for (a, sa), (b, sb) in itertools.combinations(vals, 2)
        if len(sa) == len(sb)
        and sum(x != y for x, y in zip(sa, sb)) <= 1
    )
    df = pd.DataFrame({"k": [v[0] for v in vals], "s": [v[1] for v in vals]})
    ds = ray.data.from_pandas([df.iloc[:4], df.iloc[4:]])
    out = hamming1_pairs(ds, col="s", id_col="k").to_pandas()
    got = sorted(zip(out["id_a"].astype(int), out["id_b"].astype(int)))
    assert got == ref, (got, ref)


def test_set_similarity_join_matches_bruteforce(ray_session):
    """set_similarity_join must equal a brute-force all-pairs Jaccard scan
    on both the df-broadcast and df-join paths (guard=0), including docs
    split across blocks, repeated tokens (set semantics), and case folding."""
    import itertools

    import pandas as pd

    from goose_parser_ray.functions.dedup import set_similarity_join

    rows = [
        (1, "apple banana cherry date"),
        (2, "apple banana cherry fig"),      # jac 3/5 with 1
        (3, "Apple BANANA cherry date"),     # identical set to 1 (case fold)
        (4, "apple apple banana banana cherry date"),  # same SET as 1
        (5, "zebra yak xenon"),
        (6, "zebra yak xenon"),              # identical to 5
        (7, "completely different words here"),
    ]
    num, den = 3, 5

    def toks(s):
        return set(s.lower().split())

    ref = {}
    for (a, sa), (b, sb) in itertools.combinations(rows, 2):
        ta, tb = toks(sa), toks(sb)
        i, u = len(ta & tb), len(ta | tb)
        if den * i >= num * u:
            ref[(a, b)] = 10000 * i // u

    df = pd.DataFrame({"doc_id": [r[0] for r in rows], "text": [r[1] for r in rows]})
    ds = ray.data.from_pandas([df.iloc[:3], df.iloc[3:]])
    for kwargs in ({}, {"df_broadcast_guard": 0, "num_partitions": 2}):
        out = set_similarity_join(
            ds, threshold_num=num, threshold_den=den, **kwargs
        ).to_pandas()
        got = {
            (int(r.id_a), int(r.id_b)): int(r.jac_e4) for r in out.itertuples()
        }
        assert got == ref, (kwargs, got, ref)


def test_triangle_count_matches_bruteforce(ray_session):
    """Join-based triangle/wedge counts must equal the brute-force
    reference on a random graph (hubs, isolated pairs, multi-triangles)."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.graph import (
        triangle_count,
        triangle_count_numpy,
    )

    rng = np.random.RandomState(3)
    raw = {(int(rng.randint(1, 15)), int(rng.randint(1, 15))) for _ in range(60)}
    edges = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    ref = triangle_count_numpy(edges)
    ds = ray.data.from_pandas(
        pd.DataFrame({"u": [e[0] for e in edges], "v": [e[1] for e in edges]})
    )
    # driver tier, wedge-cap fallback-to-join tier, and forced join tier
    assert triangle_count(ds, num_partitions=2) == ref
    from goose_parser_ray.functions.graph import _triangle_driver

    un = np.array([e[0] for e in edges], np.int64)
    vn = np.array([e[1] for e in edges], np.int64)
    assert _triangle_driver(un, vn, wedge_cap=1) is None  # cap → fallback
    assert triangle_count(ds, num_partitions=2, driver_edges_threshold=0) == ref
    empty = ray.data.from_pandas(pd.DataFrame({"u": [], "v": []}))
    assert triangle_count(empty) == {"edges": 0, "wedges": 0, "triangles": 0}


def test_pagerank_distributed_matches_numpy(ray_session):
    """pagerank_distributed must match the numpy power-iteration reference
    (identical semantics: synchronized rounds, uniform teleport, dangling
    mass redistributed) on a graph with cycles, a hub, and dangling nodes."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.graph import (
        pagerank_distributed,
        pagerank_numpy,
    )

    rng = np.random.RandomState(7)
    edges = [(1, 2), (2, 3), (3, 1), (4, 1), (5, 1), (1, 6)]  # 6 dangling
    edges += [
        (int(rng.randint(1, 10)), int(rng.randint(1, 10))) for _ in range(20)
    ]
    ref = pagerank_numpy(edges, max_iters=5)

    ds = ray.data.from_pandas(
        pd.DataFrame({"src": [e[0] for e in edges], "dst": [e[1] for e in edges]})
    )
    # both tiers: driver bincount (default gate) and the per-round-join
    # distributed path (gate forced off)
    for kwargs in ({}, {"driver_edges_threshold": 0}):
        out = pagerank_distributed(
            ds, max_iters=5, tol=0.0, num_partitions=2, **kwargs
        ).to_pandas()
        got = dict(zip(out["node"].astype(int), out["rank"]))
        assert set(got) == set(ref)
        for k in ref:
            assert abs(got[k] - ref[k]) < 1e-9, (k, got[k], ref[k])
        assert abs(sum(got.values()) - 1.0) < 1e-9


def test_pareto_front_matches_bruteforce(ray_session):
    """Distributed skyline == brute-force dominance filter, including
    duplicate points on the front (neither dominates the other) and
    ties along one axis, across multiple blocks."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.relational import pareto_front

    rng = np.random.RandomState(11)
    df = pd.DataFrame(
        {
            "id": np.arange(300),
            "cost": rng.randint(0, 40, 300).astype(float),
            "gain": rng.randint(0, 40, 300),
        }
    )
    rows = list(zip(df["cost"], df["gain"], df["id"]))

    def dominated(a):
        return any(
            (c <= a[0] and g >= a[1]) and (c < a[0] or g > a[1])
            for c, g, _ in rows
        )

    ref = sorted(i for r in rows if not dominated(r) for i in [r[2]])
    ds = ray.data.from_pandas(df).repartition(6)
    out = pareto_front(ds, minimize="cost", maximize="gain").to_pandas()
    assert sorted(out["id"].tolist()) == ref


def test_warc_roundtrip_exact(ray_session, tmp_path):
    """WARC export→import must be byte-lossless on payloads containing
    CRLFs, separators, unicode, and empty strings (Content-Length framing,
    not delimiter scanning)."""
    import pandas as pd

    from goose_parser_ray.sources.warc import (
        parse_warc_bytes,
        read_warc,
        write_warc_shards,
    )

    texts = [
        "plain",
        "",
        "crlf\r\n\r\ninside\r\n",
        "unicode: привет 你好 — ∑",
        "WARC/1.0\r\nContent-Length: 5\r\n\r\nfake!",  # payload that LOOKS like a record
    ]
    df = pd.DataFrame(
        {
            "doc_id": [str(i) for i in range(len(texts))],
            "source": [f"https://example.test/{i}" for i in range(len(texts))],
            "text": texts,
        }
    )
    out = tmp_path / "warc"
    n = write_warc_shards(ray.data.from_pandas(df).repartition(2), str(out))
    assert n == len(texts)
    back = read_warc(str(out)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert back["text"].tolist() == texts
    assert back["source"].tolist() == df["source"].tolist()

    # corrupt magic is a loud error, not silent skipping
    import pytest as _pytest

    with _pytest.raises(ValueError, match="bad WARC magic"):
        parse_warc_bytes(b"HTTP/1.1 200 OK\r\n\r\n")


def test_diff_datasets_null_safe(ray_session):
    """null→value, value→null, and null→null transitions classify as
    modified / modified / unchanged respectively; adds and removes detected."""
    import pandas as pd

    from goose_parser_ray.functions.relational import diff_datasets

    left = pd.DataFrame(
        {"k": [1, 2, 3, 4, 5, 6], "v": [10, None, None, 40, 50, 60]}
    )
    right = pd.DataFrame(
        {"k": [2, 3, 4, 5, 7, 6], "v": [20, None, None, 50, 70, 60]}
    )
    out = (
        diff_datasets(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            key="k", compare=["v"], num_partitions=2,
        )
        .to_pandas()
        .set_index("k")["change"]
        .to_dict()
    )
    # k=3 (null→null) and k=5/6 (equal values) are unchanged and dropped
    assert out == {1: "removed", 2: "modified", 4: "modified", 7: "added"}


def test_diff_datasets_default_width_matches_pandas(ray_session):
    """diff_datasets with no width argument: the join width comes from the
    cluster (it used to be a fixed 16, whose aggregator reservation of
    14 GiB never fit a small host, so the join waited forever)."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.relational import diff_datasets

    rng = np.random.RandomState(11)
    left = pd.DataFrame({"k": np.arange(0, 300), "v": rng.randint(0, 4, 300)})
    right = pd.DataFrame(
        {"k": np.arange(100, 400), "v": rng.randint(0, 4, 300)}
    )
    got = (
        diff_datasets(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            key="k", compare=["v"],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    m = left.merge(right, on="k", how="outer", suffixes=("_l", "_r"),
                   indicator=True)
    m["change"] = np.select(
        [m["_merge"] == "left_only", m["_merge"] == "right_only",
         m["v_l"] != m["v_r"]],
        ["removed", "added", "modified"], "unchanged",
    )
    want = (
        m.loc[m["change"] != "unchanged", ["k", "change"]]
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(want) > 100
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_kcore_distributed_matches_bruteforce(ray_session):
    """3 synchronized peel rounds to convergence must match the brute-force
    peel on a graph with a dense core plus pendant chains."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.graph import (
        kcore_distributed,
        kcore_numpy,
    )

    rng = np.random.RandomState(5)
    core = [(a, b) for a in range(6) for b in range(a + 1, 6)]  # K6
    chains = [(5 + i, 6 + i) for i in range(1, 8)]  # pendant path
    rand = {(int(rng.randint(0, 20)), int(rng.randint(0, 20))) for _ in range(25)}
    edges = sorted({(min(a, b), max(a, b)) for a, b in core + chains + list(rand) if a != b})
    for k in (2, 3, 5):
        ref = kcore_numpy(edges, k)
        ds = ray.data.from_pandas(
            pd.DataFrame({"u": [e[0] for e in edges], "v": [e[1] for e in edges]})
        )
        for thr in (5_000_000, 0):  # driver tier and join tier
            got = kcore_distributed(
                ds, k=k, num_partitions=2, driver_edges_threshold=thr
            ).to_pandas()
            assert sorted(got["node"].astype(int).tolist()) == sorted(ref), (k, thr)


def test_netpbm_codec_roundtrip_and_errors():
    """decode(encode(x)) == x; header comments handled; truncation and bad
    magic are loud ValueErrors; nearest resize == direct index gather."""
    import numpy as np
    import pytest as _pytest

    from goose_parser_ray.functions.netpbm import (
        decode_pgm,
        encode_pgm,
        resize_nearest,
    )

    rng = np.random.RandomState(2)
    img = rng.randint(0, 256, size=(13, 29)).astype(np.uint8)
    assert (decode_pgm(encode_pgm(img)) == img).all()

    # comments + extra whitespace in the header
    payload = b"P5 # magic\n# a comment line\n 29\t13 # dims\n255\n" + img.tobytes()
    assert (decode_pgm(payload) == img).all()

    with _pytest.raises(ValueError, match="magic"):
        decode_pgm(b"P6\n1 1\n255\n\x00")
    with _pytest.raises(ValueError, match="truncated PGM raster"):
        decode_pgm(encode_pgm(img)[:-5])
    with _pytest.raises(ValueError, match="truncated PGM header"):
        decode_pgm(b"P5\n29")

    thumb = resize_nearest(img, 8, 8)
    for i in range(8):
        for j in range(8):
            assert thumb[i, j] == img[(i * 13) // 8, (j * 29) // 8]

    # P6 color sibling: roundtrip, channel-preserving resize, loud errors
    from goose_parser_ray.functions.netpbm import decode_ppm, encode_ppm

    rgb = rng.randint(0, 256, size=(11, 17, 3)).astype(np.uint8)
    assert (decode_ppm(encode_ppm(rgb)) == rgb).all()
    ct = resize_nearest(rgb, 4, 4)
    assert ct.shape == (4, 4, 3)
    for c in range(3):
        assert (ct[..., c] == resize_nearest(rgb[..., c], 4, 4)).all()
    with _pytest.raises(ValueError, match="magic"):
        decode_ppm(encode_pgm(img))
    with _pytest.raises(ValueError, match="truncated PPM raster"):
        decode_ppm(encode_ppm(rgb)[:-2])
    with _pytest.raises(ValueError, match="RGB"):
        encode_ppm(img)


def test_normalize_unicode_edge_cases():
    """NFC composes decomposed accents, keeps compatibility ligatures
    (NFKC folds them), preserves nulls — semantics must match DuckDB's
    nfc_normalize (oracle twin)."""
    import duckdb
    import pyarrow as pa

    from goose_parser_ray.functions.textstats import normalize_unicode

    cases = [
        "éclair",      # decomposed accent -> composed under NFC
        "ﬁne",          # fi ligature: NFC keeps, NFKC folds
        "　wide",        # ideographic space: NFC keeps
        "Å",           # A + ring -> Å
        None,
        "plain",
    ]
    t = pa.table({"text": pa.array(cases, pa.string())})
    got = normalize_unicode(t)["text_norm"].to_pylist()
    oracle = [
        r[0]
        for r in duckdb.connect()
        .execute(
            "SELECT nfc_normalize(x) FROM (SELECT UNNEST(?) AS x)", [cases]
        )
        .fetchall()
    ]
    assert got == oracle
    # NFKC folds the ligature where NFC must not
    nfkc = normalize_unicode(t, form="NFKC")["text_norm"].to_pylist()
    assert nfkc[1] == "fine" and got[1] == "ﬁne"


def test_pq_train_ignores_row_order(ray_session):
    """The codebooks depend on the sampled rows, not on the order their
    blocks finish in: reversed input trains the same books."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.similarity import pq_train

    vecs = np.random.RandomState(5).randn(120, 8).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(120), "embedding": list(map(list, vecs))})
    books = [
        pq_train(ray.data.from_pandas(d), m=2, k=4, sample_size=200, seed=3)
        for d in (df, df.iloc[::-1].reset_index(drop=True))
    ]
    assert (books[0] == books[1]).all()


def test_pq_deterministic_and_quality(ray_session):
    """PQ must be run-to-run deterministic (seeded sample + seeded Lloyd),
    reconstruct better than the k=1 (mean-only) codebook, and improve with
    k; codes must stay in range."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.functions.similarity import pq_encode, pq_train

    rng = np.random.RandomState(9)
    # three planted clusters so quantization has structure to exploit
    centers = rng.randn(3, 16).astype(np.float32) * 3
    vecs = np.concatenate(
        [centers[i % 3] + rng.randn(16).astype(np.float32) * 0.3 for i in range(240)]
    ).reshape(240, 16)
    df = pd.DataFrame({"vec_id": np.arange(240), "embedding": list(map(list, vecs))})

    def run(k):
        ds = ray.data.from_pandas(df).repartition(3)
        books = pq_train(ds, m=4, k=k, sample_size=200, seed=11)
        out = pq_encode(
            ray.data.from_pandas(df).repartition(3), books
        ).to_pandas().sort_values("vec_id").reset_index(drop=True)
        return books, out

    b1, o1 = run(8)
    b2, o2 = run(8)
    assert (b1 == b2).all()
    assert o1.equals(o2)
    for j in range(4):
        assert o1[f"code{j}"].between(0, 7).all()

    _, mean_only = run(1)
    assert o1["recon_err_sq"].mean() < mean_only["recon_err_sq"].mean() * 0.5


def test_auc_matches_numpy_rank_reference(ray_session):
    """q_auc's distributed rank-scan AUC == a driver-side numpy
    Mann–Whitney computation on the same quantized scores."""
    import numpy as np
    import pandas as pd

    from goose_parser_ray.queries import q_auc

    sf = "/root/testdata/sf0.001"
    out = q_auc(sf).to_pandas()

    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["event_type", "value"])
    ev = ev[ev.event_type.isin(["click", "error"])]
    v = np.floor(100 * ev["value"].to_numpy() + 0.5).astype(np.int64)
    pos = (ev.event_type == "click").to_numpy()
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    ranks[order] = np.arange(1, len(v) + 1)
    # average ranks over ties
    s = pd.Series(ranks).groupby(v).transform("mean").to_numpy()
    npos, nneg = int(pos.sum()), int((~pos).sum())
    auc = (s[pos].sum() - npos * (npos + 1) / 2) / (npos * nneg)
    assert int(out["npos"][0]) == npos
    assert int(out["nneg"][0]) == nneg
    assert int(out["auc_e6"][0]) == int(np.floor(auc * 1_000_000))


def test_bm25_matches_pure_python_reference(ray_session):
    """q_bm25's distributed scoring == a single-process BM25 over the
    same tokenizer, idf formula and e6 per-term rounding."""
    import math
    import re

    import numpy as np
    import pandas as pd

    from goose_parser_ray.queries import (
        _BM25_B,
        _BM25_K1,
        _BM25_TERMS,
        _BM25_TOPK,
        q_bm25,
    )

    sf = "/root/testdata/sf0.001"
    out = q_bm25(sf).to_pandas()

    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    # Python-re equivalent of the engine's RE2 [^\p{L}\p{N}_]+ splitter
    splitter = re.compile(r"\W+", re.UNICODE)
    toks = [
        [w for w in splitter.split((t or "").lower()) if w]
        for t in docs["text"]
    ]
    n = len(docs)
    avgdl = sum(len(ws) for ws in toks) / n
    scores = {}
    for j, term in enumerate(_BM25_TERMS):
        df = sum(1 for ws in toks if term in ws)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for did, ws in zip(docs["doc_id"], toks):
            tf = ws.count(term)
            if tf:
                c = 1e6 * idf * tf * (_BM25_K1 + 1) / (
                    tf + _BM25_K1 * (1 - _BM25_B + _BM25_B * len(ws) / avgdl)
                )
                scores[did] = scores.get(did, 0) + int(np.floor(c + 0.5))
    ref = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:_BM25_TOPK]
    got = list(zip(out["doc_id"], out["score_e6"]))
    assert got == ref


def test_apply_changes_merge_semantics(ray_session):
    """CDC MERGE contract: D removes, U replaces (and inserts when the key
    is missing — standard MERGE), I inserts, untouched rows survive."""
    import pandas as pd
    import ray

    from goose_parser_ray.functions.relational import apply_changes

    snap = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4], "x": [10, 20, 30, 40]})
    )
    changes = ray.data.from_pandas(
        pd.DataFrame(
            {
                "op": ["D", "U", "U", "I"],
                "k": [2, 3, 5, 6],  # U on missing key 5 → insert
                "x": [0, 33, 55, 66],
            }
        )
    )
    out = (
        apply_changes(snap, changes, key="k", num_partitions=2)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert list(out["k"]) == [1, 3, 4, 5, 6]
    assert list(out["x"]) == [10, 33, 40, 55, 66]


def test_jaro_winkler_matches_duckdb_fuzz():
    """The Python JW kernel is calibrated against DuckDB's builtin —
    seeded fuzz over random word-like strings, exact float equality."""
    import random

    import duckdb

    from goose_parser_ray.functions.editdist import jaro_winkler

    rng = random.Random(42)
    vocab = "abcdefg "
    strs = [
        "".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
        for _ in range(200)
    ]
    con = duckdb.connect()
    for _ in range(500):
        a, b = rng.choice(strs), rng.choice(strs)
        want = con.execute(
            "SELECT jaro_winkler_similarity(?, ?)", [a, b]
        ).fetchone()[0]
        assert jaro_winkler(a, b) == want, (a, b)


def test_jw_pairs_domain_cap_guard(ray_session):
    """jw_pairs_over_domain refuses unbounded (free-text-sized) domains
    instead of silently building a quadratic grid."""
    import pandas as pd
    import pytest
    import ray

    from goose_parser_ray.functions.editdist import jw_pairs_over_domain

    ds = ray.data.from_pandas(
        pd.DataFrame({"s": [f"name-{i}" for i in range(50)]})
    )
    with pytest.raises(ValueError, match="domain-bounded"):
        jw_pairs_over_domain(ds, col="s", threshold=0.9, domain_cap=10)


def test_gap_ranges_cross_block_stitch(ray_session):
    """gap_ranges finds interior AND cross-block gaps exactly — the input
    is split across many blocks so boundary stitching is exercised."""
    import numpy as np
    import pandas as pd
    import ray

    from goose_parser_ray.functions.relational import gap_ranges

    rng = np.random.default_rng(11)
    ids = np.unique(rng.choice(5000, size=1200, replace=False))
    ds = ray.data.from_pandas(
        pd.DataFrame({"id": ids})
    ).repartition(16)
    out = (
        gap_ranges(ds, col="id")
        .to_pandas()
        .sort_values("gap_start")
        .reset_index(drop=True)
    )
    s = np.sort(ids)
    d = np.diff(s)
    brk = np.nonzero(d > 1)[0]
    want = pd.DataFrame(
        {"gap_start": s[brk] + 1, "gap_end": s[brk + 1] - 1}
    ).astype("int64")
    pd.testing.assert_frame_equal(out, want)


def test_ohlc_tie_break_on_equal_timestamps(ray_session, tmp_path):
    """q_ohlc's open/close use the (ts, event_id) total order — locked
    with same-timestamp ties that the generated testdata never has."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from goose_parser_ray.queries import q_ohlc

    ts = pd.Timestamp("2026-01-01 10:00:00")
    df = pd.DataFrame(
        {
            # two ties at the hour start and two at the end: ids decide
            "event_id": [5, 2, 9, 7, 4],
            "ts": [ts, ts, ts + pd.Timedelta("59min"),
                   ts + pd.Timedelta("59min"), ts + pd.Timedelta("30min")],
            "value": [1.11, 2.22, 3.33, 4.44, 9.99],
        }
    )
    sf = str(tmp_path)
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False),
                   f"{sf}/events.parquet")
    out = q_ohlc(sf).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    # open = min (ts, event_id) → id 2 (2.22); close = max → id 9 (3.33)
    assert int(row["open_cents"]) == 222
    assert int(row["close_cents"]) == 333
    assert int(row["high_cents"]) == 999
    assert int(row["low_cents"]) == 111
    assert int(row["n"]) == 5


def test_components_log_rounds_on_deep_chain(ray_session):
    """Pointer jumping makes label propagation converge in O(log diameter)
    rounds: a 200-diameter path must finish within max_iters=10 (plain
    propagation would need 200 rounds and raise)."""
    import numpy as np
    import pandas as pd
    import ray

    from goose_parser_ray.functions.dedup import (
        connected_components_distributed,
    )

    path = ray.data.from_pandas(
        pd.DataFrame({"a": np.arange(199), "b": np.arange(1, 200)})
    )
    labels = connected_components_distributed(
        path, cols=("a", "b"), max_iters=10, driver_pair_guard=0
    ).to_pandas()
    assert len(labels) == 200
    assert (labels["label"] == 0).all()


def test_kcore_raises_on_truncated_peel_unless_partial(ray_session):
    """A long pendant chain peels one layer per round: exhausting max_iters
    before the fixpoint must RAISE by default (over-inclusive set), and
    return the round-truncated set only under allow_partial=True."""
    import pandas as pd
    import pytest as _pytest

    from goose_parser_ray.functions.graph import kcore_distributed

    chain = [(i, i + 1) for i in range(10)]  # path graph, k=2 core is empty
    df = pd.DataFrame({"u": [e[0] for e in chain], "v": [e[1] for e in chain]})
    ds = ray.data.from_pandas(df)
    for thr in (5_000_000, 0):  # driver tier and join tier
        with _pytest.raises(RuntimeError, match="fixpoint"):
            kcore_distributed(
                ray.data.from_pandas(df), k=2, max_iters=2,
                num_partitions=2, driver_edges_threshold=thr,
            )
        partial = kcore_distributed(
            ray.data.from_pandas(df), k=2, max_iters=2,
            num_partitions=2, allow_partial=True, driver_edges_threshold=thr,
        ).to_pandas()
        assert len(partial) > 0  # truncated-by-design set, nonempty mid-peel


def test_image_ahash_identity_robustness_and_separation():
    """aHash invariants on real encoded/decoded PGM bytes: identical
    images collide, small brightness perturbations (far from block-mean
    boundaries) keep the hash, and structurally different images differ."""
    import pyarrow as pa

    from goose_parser_ray.functions.multimodal import ImageAHashActor
    from goose_parser_ray.functions.netpbm import encode_pgm

    rng = np.random.RandomState(4)
    base = rng.randint(0, 256, (16, 16), dtype=np.uint8)
    # gentle noise: +-1 on a few pixels of a high-contrast image
    contrast = np.zeros((16, 16), dtype=np.uint8)
    contrast[:8] = 200  # top half bright, bottom dark — robust bits
    noisy = contrast.copy()
    noisy[3, 5] = 201
    noisy[12, 9] = 1
    other = contrast.T.copy()  # left/right split instead — different hash

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "payload": pa.array(
                [
                    encode_pgm(base),
                    encode_pgm(base),      # exact duplicate
                    encode_pgm(contrast),
                    encode_pgm(noisy),     # near-duplicate
                    encode_pgm(other),
                ],
                pa.binary(),
            ),
        }
    )
    out = ImageAHashActor()(t)
    lo, hi = out["hash_lo"].to_pylist(), out["hash_hi"].to_pylist()
    assert (lo[0], hi[0]) == (lo[1], hi[1])          # identity
    assert (lo[2], hi[2]) == (lo[3], hi[3])          # robustness
    assert (lo[2], hi[2]) != (lo[4], hi[4])          # separation
    assert all(0 <= v < (1 << 32) for v in lo + hi)  # halves fit 32 bits

    bad = pa.Table.from_pydict(
        {
            "doc_id": pa.array([9], pa.int64()),
            "payload": pa.array(
                [encode_pgm(np.zeros((10, 16), dtype=np.uint8))], pa.binary()
            ),
        }
    )
    with pytest.raises(ValueError, match="8-divisible"):
        ImageAHashActor()(bad)


def test_image_dhash_invariance_and_sensitivity():
    """dHash over decoded PGM rasters: (1) byte-distinct dithers that
    shift every block sum by the same constant hash identically — the
    perceptual-near-dup property; (2) flipping a block-order comparison
    changes the hash; (3) the two int64 halves reconstruct the reference
    bit pattern computed independently here."""
    import numpy as np
    import pyarrow as pa

    from goose_parser_ray.functions.netpbm import encode_pgm
    from goose_parser_ray.functions.multimodal import ImageDHashActor

    H, W = 32, 36
    i = np.arange(H, dtype=np.int64)[:, None]
    j = np.arange(W, dtype=np.int64)[None, :]
    base = (31 * (i // 4) + 17 * (j // 4) + 5) % 199

    def hash_of(img):
        t = ImageDHashActor()(
            pa.Table.from_pydict(
                {
                    "doc_id": [1],
                    "payload": pa.array(
                        [encode_pgm(img.astype(np.uint8))], pa.binary()
                    ),
                }
            )
        )
        return t["dhash_hi"].to_pylist()[0], t["dhash_lo"].to_pylist()[0]

    h0 = hash_of(base)
    for d in (0, 1, 2, 3):
        dither = ((2 * i + 3 * j + d) % 4 == 0).astype(np.int64)
        assert hash_of(base + dither) == h0  # dither never flips a bit
    # reference bit pattern from block sums, computed independently
    sums = base.reshape(8, 4, 9, 4).sum(axis=(1, 3))
    bits = (sums[:, :-1] > sums[:, 1:]).astype(int)
    lo = sum(
        int(bits[bi, bj]) << (8 * bi + bj) for bi in range(4) for bj in range(8)
    )
    hi = sum(
        int(bits[bi, bj]) << (8 * (bi - 4) + bj)
        for bi in range(4, 8)
        for bj in range(8)
    )
    assert h0 == (hi, lo)
    # brighten one whole block past its neighbor -> a comparison flips
    mod = base.copy()
    mod[0:4, 0:4] = 255
    assert hash_of(mod) != h0
    # non-divisible dims rejected
    import pytest as _pytest

    with _pytest.raises(ValueError):
        hash_of_bad = ImageDHashActor()(
            pa.Table.from_pydict(
                {
                    "doc_id": [1],
                    "payload": pa.array(
                        [encode_pgm(np.zeros((30, 36), np.uint8))], pa.binary()
                    ),
                }
            )
        )


def test_varbyte_roundtrip_lengths_and_fuzz():
    """VByte codec: roundtrip over adversarial value ranges, the
    closed-form length rule, and the raise-or-correct contract on
    truncated/mutated streams."""
    import numpy as np
    import pytest as _pytest

    from goose_parser_ray.functions.varbyte import (
        decode_varbyte,
        encode_varbyte,
        varbyte_len,
    )

    rng = np.random.default_rng(7)
    for trial in range(50):
        n = int(rng.integers(0, 200))
        mag = int(rng.integers(1, 62))
        vals = rng.integers(0, 1 << mag, n).astype(np.int64)
        payload = encode_varbyte(vals)
        assert len(payload) == varbyte_len(vals)
        assert np.array_equal(decode_varbyte(payload), vals)
    # boundary values: 7-bit group edges
    edges = [0, 1, 127, 128, 16383, 16384, 2097151, 2097152, (1 << 62) - 1]
    payload = encode_varbyte(edges)
    assert np.array_equal(decode_varbyte(payload), np.asarray(edges))
    assert len(encode_varbyte([0])) == 1
    assert len(encode_varbyte([127])) == 1
    assert len(encode_varbyte([128])) == 2
    with _pytest.raises(ValueError):
        encode_varbyte([-1])
    # truncation: chopping the last (terminator) byte must raise
    with _pytest.raises(ValueError):
        decode_varbyte(encode_varbyte([300])[:-1])
    # clearing a terminator bit merges values -> either decodes to some
    # valid shorter list or raises; never crashes uncontrolled
    good = bytearray(encode_varbyte([5, 1000, 77]))
    for pos in range(len(good)):
        b = bytearray(good)
        b[pos] ^= 0x80
        try:
            out = decode_varbyte(bytes(b))
            assert (out >= 0).all()
        except ValueError:
            pass


def test_recordio_crc32c_vectors_and_corruption():
    """TFRecord-style container: crc32c locked by the RFC 3720 check
    vectors (zlib.crc32 would fail both — wrong polynomial), roundtrip
    over adversarial payloads, and loud failure on any flipped byte or
    truncation."""
    import numpy as np
    import pytest as _pytest

    from goose_parser_ray.sources.recordio import (
        crc32c,
        decode_records,
        encode_records,
    )

    assert crc32c(b"\x00" * 32) == 0x8A9136AA
    assert crc32c(b"123456789") == 0xE3069283
    import zlib

    assert zlib.crc32(b"123456789") != crc32c(b"123456789")
    rng = np.random.default_rng(13)
    recs = [
        bytes(rng.integers(0, 256, int(rng.integers(0, 300))).astype("u1"))
        for _ in range(30)
    ] + [b""]
    blob = encode_records(recs)
    assert decode_records(blob) == recs
    # every single-byte flip must raise (both CRCs cover every byte,
    # and a corrupted length desynchronizes into a failing header)
    raised = 0
    for pos in range(0, len(blob), 7):
        b = bytearray(blob)
        b[pos] ^= 0x01
        with _pytest.raises(ValueError):
            decode_records(bytes(b))
        raised += 1
    assert raised > 0
    # truncation raises — except at exact record boundaries, where the
    # prefix is a legitimately shorter stream (decodes to fewer records)
    bounds = {0: 0}
    off = 0
    for k, r in enumerate(recs, start=1):
        off += 12 + len(r) + 4
        bounds[off] = k
    for cut in range(1, len(blob), 97):
        if cut in bounds:
            assert decode_records(blob[:cut]) == recs[: bounds[cut]]
            continue
        with _pytest.raises(ValueError):
            decode_records(blob[:cut])


def test_netpbm_mutation_fuzz_controlled():
    """Netpbm P5/P6 decoders under the raise-or-valid contract: any
    single-byte mutation or truncation either raises ValueError or
    yields a well-formed raster (no checksum in the format, so silent
    value changes are allowed)."""
    import numpy as np
    import pytest as _pytest

    from goose_parser_ray.functions.netpbm import (
        decode_pgm,
        decode_ppm,
        encode_pgm,
        encode_ppm,
    )

    rng = np.random.default_rng(31)
    gray = rng.integers(0, 256, (11, 9)).astype(np.uint8)
    rgb = rng.integers(0, 256, (7, 8, 3)).astype(np.uint8)
    for good, dec, ndim in (
        (bytearray(encode_pgm(gray)), decode_pgm, 2),
        (bytearray(encode_ppm(rgb)), decode_ppm, 3),
    ):
        for trial in range(300):
            b = bytearray(good)
            pos = int(rng.integers(0, len(b)))
            b[pos] ^= int(rng.integers(1, 256))
            try:
                out = dec(bytes(b))
                assert out.dtype == np.uint8 and out.ndim == ndim
            except ValueError:
                pass
        for cut in range(0, len(good), 5):
            try:
                dec(bytes(good[:cut]))
            except ValueError:
                pass


def test_sample_random_matches_sql_twin_above_2_pow_32(ray_session, tmp_path):
    """The Knuth-hash sample keeps the low 32 bits of doc_id * 2654435761;
    ids past ~3.47e9 overflow a BIGINT product, so the SQL twin must compute
    it wider and still select exactly the rows the Arrow query keeps."""
    import duckdb
    import pyarrow.parquet as pq

    from goose_parser_ray.queries import ORACLE_SQL, QUERIES

    ids = [*range(2**32 - 500, 2**32 + 500), *range(5 * 10**9, 5 * 10**9 + 1000)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array([i % 97 for i in ids], pa.int64()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    got = sorted(QUERIES["sample_random"](str(tmp_path)).to_pandas()["doc_id"])
    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path / 'documents.parquet'}')"
    )
    want = sorted(r[0] for r in con.sql(ORACLE_SQL["sample_random"]).fetchall())
    assert 100 < len(got) < 300
    assert got == want
