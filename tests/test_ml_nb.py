"""Naive Bayes train/score + SCD2 run-collapse unit behavior (the oracle
sweep covers full DuckDB parity; these lock the edge semantics)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions.ml import NBScoreActor, nb_train


def _mk_docs(rows):
    return ray.data.from_arrow(
        pa.Table.from_pylist(
            [
                {"doc_id": i, "text": t, "lang": l}
                for i, (t, l) in enumerate(rows)
            ]
        )
    )


def test_nb_learns_separable_classes(ray_session):
    train_rows = [("apple banana fruit", "en")] * 20 + [
        ("manzana platano fruta", "es")
    ] * 20
    ds = _mk_docs(train_rows)
    model = nb_train(ds, vocab_cap=50_000)
    assert list(model["classes"]) == ["en", "es"]
    assert model["lp_e6"].shape == (6, 2)

    actor = NBScoreActor(model)
    out = actor(
        pa.Table.from_pylist(
            [
                {"doc_id": 1, "text": "banana apple", "lang": "?"},
                {"doc_id": 2, "text": "fruta manzana manzana", "lang": "?"},
            ]
        )
    )
    assert out["pred_lang"].to_pylist() == ["en", "es"]


def test_nb_empty_doc_and_oov_fall_back_to_prior(ray_session):
    # priors: en 3 docs vs es 1 doc -> empty/OOV-only docs predict 'en'
    ds = _mk_docs([("aa bb", "en")] * 3 + [("cc dd", "es")])
    model = nb_train(ds)
    actor = NBScoreActor(model)
    out = actor(
        pa.Table.from_pylist(
            [
                {"doc_id": 1, "text": "", "lang": "?"},
                {"doc_id": 2, "text": "zzz qqq", "lang": "?"},  # all OOV
            ]
        )
    )
    assert out["pred_lang"].to_pylist() == ["en", "en"]
    # prior-only score for the empty doc
    assert out["score_e6"][0].as_py() == int(model["priors_e6"][0])


def test_nb_vocab_cap_is_deterministic_by_count_then_token(ray_session):
    # 3 tokens, cap 2: 'bb' (3x) and then count-1 tie broken token-ASC ('aa')
    ds = _mk_docs([("bb bb bb aa cc", "en")])
    model = nb_train(ds, vocab_cap=2)
    assert list(model["vocab"]) == ["aa", "bb"]


def test_nb_scores_are_batch_composition_independent(ray_session):
    rows = [("apple banana", "en")] * 5 + [("fruta manzana", "es")] * 5
    actor = NBScoreActor(nb_train(_mk_docs(rows)))
    batch = pa.Table.from_pylist(
        [
            {"doc_id": 1, "text": "apple fruta banana", "lang": "?"},
            {"doc_id": 2, "text": "manzana", "lang": "?"},
        ]
    )
    whole = actor(batch)
    parts = pa.concat_tables([actor(batch.slice(0, 1)), actor(batch.slice(1, 1))])
    assert whole.equals(parts)


def test_scd2_collapses_runs_and_chains_validity(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from goose_parser_ray.queries import q_scd2_history

    ts = pd.to_datetime(
        ["2024-01-01 10:00", "2024-01-01 11:00", "2024-01-01 12:00",
         "2024-01-01 13:00", "2024-01-01 10:30"]
    )
    t = pa.Table.from_pydict(
        {
            "event_id": [1, 2, 3, 4, 5],
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": [7, 7, 7, 7, 8],
            "event_type": ["view", "view", "click", "view", "error"],
            "value": [0.0] * 5,
            "props": [""] * 5,
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = (
        q_scd2_history(str(tmp_path))
        .to_pandas()
        .sort_values(["user_id", "valid_from"])
        .reset_index(drop=True)
    )
    assert out["attr"].tolist() == ["view", "click", "view", "error"]
    assert out["n_rows"].tolist() == [2, 1, 1, 1]
    # each version closes exactly where the next one opens; last is open
    u7 = out[out["user_id"] == 7]
    assert u7["valid_to"].iloc[0] == u7["valid_from"].iloc[1]
    assert u7["valid_to"].iloc[1] == u7["valid_from"].iloc[2]
    assert u7["valid_to"].iloc[2] == "9999-12-31 00:00:00"


def test_stump_matches_bruteforce_gini(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from goose_parser_ray.queries import q_stump

    rng = np.random.default_rng(3)
    n = 5000
    val = rng.uniform(0, 490, n)
    # purchases concentrate above 300 -> a real split exists
    is_p = rng.random(n) < np.where(val > 300, 0.8, 0.1)
    t = pa.Table.from_pydict(
        {
            "event_id": np.arange(n),
            "ts": pa.array(
                pd.to_datetime(["2024-01-01"] * n), pa.timestamp("us")
            ),
            "user_id": np.zeros(n, dtype=np.int64),
            "event_type": np.where(is_p, "purchase", "view"),
            "value": val,
            "props": [""] * n,
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    got = q_stump(str(tmp_path)).to_pylist()[0]

    # brute force over the same binning
    bins = np.minimum(63, np.floor(val / 8.0).astype(int))
    best = None
    for s in sorted(set(bins)):
        left = bins <= s
        nl, nr = int(left.sum()), int((~left).sum())
        if nr == 0:
            continue
        pl, pr = int(is_p[left].sum()), int(is_p[~left].sum())

        def gini_half(nn, pp):
            q = pp / nn
            return nn * (1 - q * q - (1 - q) * (1 - q))

        g = (gini_half(nl, pl) + gini_half(nr, pr)) / n
        if best is None or (g, s) < best[:2]:
            best = (g, s, nl, pl, nr, pr)
    assert got["split_bin"] == best[1]
    assert (got["left_n"], got["left_pos"]) == (best[2], best[3])
    assert (got["right_n"], got["right_pos"]) == (best[4], best[5])
    assert abs(got["split_bin"] - 300 / 8.0) <= 2  # found the real boundary


def test_ridge_matches_numpy_closed_form(ray_session):
    import ray.data

    rng = np.random.default_rng(11)
    n = 3000
    x = rng.normal(size=(n, 3))
    y = x @ [2.0, -1.0, 0.5] + 4.0 + rng.normal(scale=0.1, size=n)
    df = pd.DataFrame({"f0": x[:, 0], "f1": x[:, 1], "f2": x[:, 2], "y": y})
    from goose_parser_ray.functions.ml import ridge_fit

    w = ridge_fit(
        ray.data.from_pandas(df).repartition(5), ["f0", "f1", "f2"], "y",
        l2=1e-3,
    )
    xb = np.column_stack([x, np.ones(n)])
    reg = np.eye(4) * 1e-3
    reg[3, 3] = 0.0
    w_ref = np.linalg.solve(xb.T @ xb + reg, xb.T @ y)
    assert np.allclose(w, w_ref, rtol=1e-8, atol=1e-10)
    assert abs(w[3] - 4.0) < 0.05


def test_pca_matches_numpy_reference(ray_session):
    import ray.data

    rng = np.random.default_rng(2)
    n, d = 2000, 6
    base = rng.normal(size=(n, 2)) @ rng.normal(size=(2, d)) * 3
    x = (base + rng.normal(scale=0.05, size=(n, d)) + 10.0).astype(
        np.float32
    )
    t = pa.Table.from_pydict(
        {
            "vec_id": np.arange(n, dtype=np.int64),
            "embedding": x.tolist(),
        }
    )
    from goose_parser_ray.functions.ml import pca_fit_project

    out = (
        pca_fit_project(ray.data.from_arrow(t).repartition(4), k=2)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )

    xd = x.astype(np.float64)
    mu = xd.mean(axis=0)
    cov = (xd - mu).T @ (xd - mu) / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    w = vecs[:, np.argsort(vals)[::-1][:2]]
    flip = np.sign(w[np.abs(w).argmax(axis=0), np.arange(2)])
    w = w * np.where(flip == 0, 1.0, flip)
    ref = (xd - mu) @ w
    got = out[["pc1", "pc2"]].to_numpy()
    assert np.allclose(got, ref, rtol=1e-6, atol=1e-6)
    # the two synthetic latent directions carry ~all the variance
    assert got.var(axis=0).sum() / xd.var(axis=0).sum() > 0.99
