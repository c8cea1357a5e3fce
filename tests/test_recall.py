"""Quantitative quality floors for the APPROXIMATE operators (r2 VERDICT
#5): the rows-only queries (ann_lsh, ann_ivf, dedup_minhash) get measured
recall assertions against exact ground truth at sf0.01 — the brute-force
top-k is itself oracle-checked by the driver, so chaining to it makes these
checks transitively exact.

All operators here are seed-fixed and deterministic, so the measured floors
reproduce exactly; the asserted bounds keep a small headroom under the
measured values (recorded in COVERAGE.md).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray.data

SF_DIR = os.environ.get("GRAFT_RECALL_SF_DIR", "/root/testdata/sf0.01")

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SF_DIR), reason=f"testdata {SF_DIR} not present"
)


def _query_head(n: int = 8):
    emb = pq.read_table(f"{SF_DIR}/embeddings.parquet")
    order = pc.array_sort_indices(emb["vec_id"].combine_chunks())[:n]
    head = emb.take(order)
    qids = head["vec_id"].to_pylist()
    qmat = np.array(head["embedding"].to_pylist(), dtype=np.float32)
    return qids, qmat


def _emb_ds():
    return ray.data.read_parquet(
        f"{SF_DIR}/embeddings.parquet", columns=["vec_id", "embedding"]
    )


def _recalls(exact, approx, qids):
    out = []
    for q in qids:
        want = set(exact[exact["query_id"] == q]["vec_id"])
        got = set(approx[approx["query_id"] == q]["vec_id"])
        out.append(len(want & got) / len(want))
    return min(out), sum(out) / len(out)


@pytest.fixture(scope="module")
def exact_topk(ray_session):
    from goose_parser_ray.functions.similarity import ann_bruteforce

    qids, qmat = _query_head()
    df = ann_bruteforce(_emb_ds(), qids, qmat, k=5).to_pandas()
    return qids, qmat, df


def test_ann_lsh_recall_floor(exact_topk):
    """ann_lsh at the query-surface knobs (4 planes × 8 tables) on the
    near-random synthetic embeddings — the LSH-hostile layout. Measured:
    min 0.80 / mean 0.97."""
    from goose_parser_ray.functions.similarity import ann_lsh

    qids, qmat, exact = exact_topk
    approx = ann_lsh(
        _emb_ds(), qids, qmat, k=5, dim=64, n_planes=4, n_tables=8,
    ).to_pandas()
    mn, mean = _recalls(exact, approx, qids)
    assert mn >= 0.8 and mean >= 0.9, (mn, mean)


def test_ann_ivf_recall_floor(exact_topk):
    """ann_ivf at the query-surface knobs (16 centroids, nprobe 6).
    Measured: min 1.0 / mean 1.0."""
    from goose_parser_ray.functions.similarity import ann_ivf

    qids, qmat, exact = exact_topk
    approx = ann_ivf(
        _emb_ds(), qids, qmat, k=5, n_centroids=16, nprobe=6,
    ).to_pandas()
    mn, mean = _recalls(exact, approx, qids)
    assert mn >= 0.8 and mean >= 0.95, (mn, mean)


def test_minhash_candidate_recall_vs_exact_jaccard(ray_session):
    """MinHash+LSH candidate pairs vs BRUTE-FORCE exact n-gram Jaccard ≥ 0.8
    ground truth over the whole sf0.01 corpus. Measured: recall 1.0 (25/25
    truth pairs) and precision 1.0 at the default 64-perm/16-band knobs."""
    from goose_parser_ray.functions.dedup import minhash_lsh_candidates

    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    ids = docs["doc_id"].to_pylist()
    texts = docs["text"].to_pylist()

    def grams(t, n=3):
        w = (t or "").lower().split()
        return {" ".join(w[i : i + n]) for i in range(max(0, len(w) - n + 1))}

    gs = [grams(t) for t in texts]
    truth = set()
    for i in range(len(ids)):
        gi = gs[i]
        for j in range(i + 1, len(ids)):
            gj = gs[j]
            if not gi and not gj:
                continue
            inter = len(gi & gj)
            if inter and inter / (len(gi) + len(gj) - inter) >= 0.8:
                truth.add(tuple(sorted((ids[i], ids[j]))))
    assert truth, "fixture should contain planted near-dups"
    cand = minhash_lsh_candidates(
        ray.data.read_parquet(
            f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
        ),
    ).to_pandas()
    cset = {tuple(sorted((a, b))) for a, b in zip(cand["doc_a"], cand["doc_b"])}
    recall = len(truth & cset) / len(truth)
    assert recall >= 0.95, (recall, len(truth), len(cset))


def test_heavy_hitters_reproduce_exact_top20_at_sf001(ray_session):
    """The truncated-counts sketch must reproduce the exact distributed
    wordcount top-20 on the sf0.01 corpus (zipf-ish natural text head)."""
    from goose_parser_ray.functions.sketches import heavy_hitters
    from goose_parser_ray.queries import q_top_words

    exact = (
        q_top_words(SF_DIR)
        .to_pandas()
        .sort_values(["n", "word"], ascending=[False, True], kind="mergesort")
        .reset_index(drop=True)
    )
    approx = heavy_hitters(
        ray.data.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"]),
        "text",
        k=20,
    )
    assert approx["word"].tolist() == exact["word"].tolist()
    assert approx["est_count"].tolist() == exact["n"].tolist()


def test_grouped_quantile_sketch_accuracy_vs_exact(ray_session):
    """Grouped sketch quantiles within the bin-resolution bound (~1%) of
    the exact oracle-checked per-segment quantiles at sf0.01."""
    from goose_parser_ray.queries import q_grouped_quantile_sketch, q_quantiles

    exact = q_quantiles(SF_DIR).to_pandas().set_index("segment")
    est = q_grouped_quantile_sketch(SF_DIR).set_index("segment")
    assert sorted(exact.index) == sorted(est.index)
    for seg in exact.index:
        for qcol, ecol in (("q50_est_e2", "median_cents"),
                           ("q95_est_e2", "p95_cents")):
            e = exact.loc[seg, ecol] / 100.0  # cents → currency units
            a = est.loc[seg, qcol] / 100.0  # e2 fixed point → currency
            assert abs(a - e) / e < 0.02, (seg, qcol, a, e)


def test_ann_ivfpq_rerank_recall_and_exactness(exact_topk):
    """ann_ivfpq with the exact-refinement tail on the sf0.01 embeddings.
    These vectors are iid-random (NO low-dim structure — PQ's documented
    worst case: residual quantization error is the size of the gaps
    between near-tied exact sims), so the production guarantee lives in
    the rerank path: ADC narrows to 4k candidates, exact cosine decides.
    Measured: rerank min 1.0 / mean 1.0; pure-ADC mean ≈ 0.6 on this
    worst case (floor asserted loosely; implementation correctness is
    pinned by test_ann_ivfpq_adc_on_clustered_data instead)."""
    from goose_parser_ray.functions.similarity import ann_ivfpq

    qids, qmat, exact = exact_topk
    # nprobe 12/16 + rerank 100: on structureless data true neighbors
    # scatter across cells (every similarity is a near-tie), so per-query
    # probing — the honest at-scale IVF semantics, unlike ann_ivf's
    # union-probe shortcut — needs a wide probe to cover them. Measured:
    # min 0.8 / mean 0.9.
    rer = ann_ivfpq(
        _emb_ds(), qids, qmat, k=5, n_centroids=16, nprobe=12,
        m=16, pq_k=32, rerank=100,
    ).to_pandas()
    mn2, mean2 = _recalls(exact, rer, qids)
    assert mn2 >= 0.7 and mean2 >= 0.85, (mn2, mean2)
    # reranked scores are EXACT cosines: every (query, vec) pair shared
    # with brute force must agree to the 1e-6 rounding
    j = rer.merge(exact, on=["query_id", "vec_id"], suffixes=("_pq", "_bf"))
    assert (j["cosine_pq"] - j["cosine_bf"]).abs().max() < 2e-6

    adc = ann_ivfpq(
        _emb_ds(), qids, qmat, k=5, n_centroids=16, nprobe=6,
        m=16, pq_k=32,
    ).to_pandas()
    mn, mean = _recalls(exact, adc, qids)
    assert mean >= 0.35, (mn, mean)  # worst-case floor, see docstring


def test_ann_ivfpq_adc_on_clustered_data(ray_session):
    """Implementation-correctness check for pure ADC on CLUSTERED data
    (the regime PQ exists for). Within a tight cluster the exact top-5
    are near-ties no quantizer can resolve, so the correct assertion is
    CLUSTER IDENTIFICATION, not rank recovery: every ADC top-5 hit must
    be a true co-member of the query's cluster (inter-cluster cosine
    gaps are huge vs the quantization error), and the rerank tail must
    then recover the exact top-5 exactly."""
    import pandas as pd

    from goose_parser_ray.functions.similarity import (
        ann_bruteforce,
        ann_ivfpq,
    )

    rng = np.random.RandomState(11)
    centers = rng.randn(16, 64).astype(np.float32) * 2.0
    X = np.repeat(centers, 32, axis=0) + 0.15 * rng.randn(512, 64).astype(
        np.float32
    )
    df = pd.DataFrame(
        {"vec_id": np.arange(512, dtype=np.int64), "embedding": list(X)}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    qids = list(range(0, 512, 64))
    qmat = X[qids]
    adc = ann_ivfpq(
        ds, qids, qmat, k=5, n_centroids=16, nprobe=4, m=16, pq_k=32,
    ).to_pandas()
    assert len(adc) == 5 * len(qids)
    # every retrieved neighbor lives in the query's true cluster
    assert (adc["vec_id"] // 32 == adc["query_id"] // 32).all()

    exact = ann_bruteforce(ds, qids, qmat, k=5).to_pandas()
    # rerank pool must exceed the 32-member cluster so the exact top-5
    # (within-cluster near-ties ADC cannot order) are all in the pool
    rer = ann_ivfpq(
        ds, qids, qmat, k=5, n_centroids=16, nprobe=4, m=16, pq_k=32,
        rerank=40,
    ).to_pandas()
    mn, mean = _recalls(exact, rer, qids)
    assert mn == 1.0 and mean == 1.0, (mn, mean)


def test_sq8_codes_bounded_and_reconstruction_error(ray_session):
    """SQ8 invariants: codes ∈ [0,255] per vec (via min/max columns) and
    the affine reconstruction mn + code·scale is within scale/2 of every
    element (checked locally with the same min/max the op derives)."""
    import pandas as pd

    from goose_parser_ray.functions.similarity import sq8_encode

    rng = np.random.RandomState(9)
    X = rng.randn(200, 16).astype(np.float32)
    X[:, 3] = 1.25  # constant dim → code 0 path
    df = pd.DataFrame(
        {"vec_id": np.arange(200, dtype=np.int64), "embedding": list(X)}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    out = sq8_encode(ds).sort("vec_id").to_pandas()
    assert (out["code_min"] >= 0).all() and (out["code_max"] <= 255).all()
    assert (out["n_dims"] == 16).all()

    mn = X.astype(np.float64).min(axis=0)
    mx = X.astype(np.float64).max(axis=0)
    scale = (mx - mn) / 255.0
    nc = scale > 0
    q = np.round((X.astype(np.float64) - mn)[:, nc] / scale[nc])
    recon = mn[nc] + q * scale[nc]
    assert np.abs(recon - X.astype(np.float64)[:, nc]).max() <= scale[nc].max() / 2 + 1e-12
    # code sums from the distributed op equal the local ones
    assert out["code_sum"].to_numpy().tolist() == q.sum(axis=1).astype(int).tolist()


def test_onebit_minhash_estimator_accuracy(ray_session):
    """1-bit minhash: on pairs spanning the Jaccard range the J = 2C - 1
    estimator tracks exact shingle Jaccard within the binomial error of
    64 one-bit samples (std ~0.11 near J=0.5): mean abs error under 0.10
    across 60 pairs, max under 0.45; identical docs estimate exactly 1."""
    import numpy as np
    import pyarrow as pa

    from goose_parser_ray.functions.dedup import (
        MinHashActor,
        OneBitMinHashActor,
        onebit_jaccard_est,
    )

    rng = np.random.RandomState(9)
    vocab = [f"w{i}" for i in range(600)]
    base_words = [vocab[i] for i in rng.randint(0, 600, 120)]
    texts, exacts = [], []
    ref = MinHashActor()
    for trial in range(60):
        words = list(base_words)
        n_swap = int(rng.randint(0, 100))
        for _ in range(n_swap):
            words[rng.randint(0, len(words))] = vocab[rng.randint(0, 600)]
        texts.append((" ".join(base_words), " ".join(words)))

    def shingle_set(text):
        import pandas as pd

        words = text.lower().split()
        wh = pd.util.hash_pandas_object(
            pd.Series(words, dtype=object), index=False
        ).to_numpy()
        sh = ref._shingle_hashes(wh, ref.shingle)[: len(words) - ref.shingle + 1]
        return set(sh.tolist())

    actor = OneBitMinHashActor()
    errs = []
    for a, b in texts:
        t = pa.Table.from_pydict({"doc_id": [0, 1], "text": [a, b]})
        out = actor(t)
        p = out["packed"].to_numpy()
        est = float(onebit_jaccard_est(p[:1], p[1:])[0])
        sa, sb = shingle_set(a), shingle_set(b)
        exact = len(sa & sb) / len(sa | sb)
        errs.append(abs(est - exact))
    errs = np.asarray(errs)
    assert errs.mean() < 0.10
    assert errs.max() < 0.45
    # identical docs: every bit collides, estimate is exactly 1
    t = pa.Table.from_pydict({"doc_id": [0, 1], "text": [texts[0][0]] * 2})
    p = actor(t)["packed"].to_numpy()
    assert float(onebit_jaccard_est(p[:1], p[1:])[0]) == 1.0
