"""Distributed logistic regression vs a single-process numpy reference."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions.ml import logreg_fit


def _reference(x, y, lr=0.5, iters=30, l2=1e-3):
    mu, sd = x.mean(axis=0), np.sqrt(
        np.maximum((x * x).mean(axis=0) - x.mean(axis=0) ** 2, 1e-12)
    )
    xs = (x - mu) / sd
    n, d = xs.shape
    w = np.zeros(d + 1)
    for _ in range(iters):
        z = xs @ w[:-1] + w[-1]
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        g = np.concatenate([xs.T @ err, [err.sum()]]) / n
        g[:-1] += l2 * w[:-1]
        w = w - lr * g
    z = xs @ w[:-1] + w[-1]
    acc = float((((1 / (1 + np.exp(-z))) >= 0.5) == (y >= 0.5)).mean())
    return w, acc


def test_logreg_matches_numpy_reference(ray_session):
    rng = np.random.default_rng(5)
    n = 4000
    x = rng.normal(size=(n, 2)) * [2.0, 0.5] + [1.0, -3.0]
    logit = 1.5 * (x[:, 0] - 1.0) - 2.0 * (x[:, 1] + 3.0) + 0.3
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(np.float64)

    df = pd.DataFrame({"f0": x[:, 0], "f1": x[:, 1], "y": y})
    ds = ray.data.from_pandas(df).repartition(7)
    w, acc, losses = logreg_fit(ds, ["f0", "f1"], "y")
    w_ref, acc_ref = _reference(x, y)

    # block-order float-addition noise only — the math is identical
    assert np.allclose(w, w_ref, rtol=1e-6, atol=1e-8)
    assert abs(acc - acc_ref) < 1e-9
    assert acc > 0.75  # the data is genuinely learnable
    assert losses[-1] < losses[0]  # and the loop genuinely descends


def test_hashed_text_logreg_matches_numpy_reference(ray_session):
    """Distributed hashed-feature text classifier vs a local numpy
    re-implementation of the identical full-batch GD (same hashing, same
    tf normalization): loss history and weights agree to float tolerance,
    and a linearly separable two-vocabulary corpus trains to accuracy 1."""
    import pandas as pd

    from goose_parser_ray.functions.ml import (
        _hash_token_features,
        hashed_text_logreg,
        hashed_text_predict,
    )

    rng = np.random.RandomState(7)
    va = ["alpha", "beta", "gamma", "delta"]
    vb = ["omega", "sigma", "kappa", "theta"]
    texts, ys = [], []
    for i in range(60):
        v = va if i % 2 == 0 else vb
        texts.append(" ".join(rng.choice(v, 12)))
        ys.append(i % 2)
    df = pd.DataFrame(
        {"doc_id": np.arange(60, dtype=np.int64), "text": texts, "y": ys}
    )
    ds = ray.data.from_pandas(df).repartition(4)
    F, iters, lr, l2 = 1 << 12, 6, 2.0, 1e-6
    w, acc, losses = hashed_text_logreg(
        ds, "text", "y", n_features=F, iters=iters, lr=lr, l2=l2
    )
    assert acc == 1.0
    assert losses[-1] < losses[0]

    # local reference with the same feature hashing
    di, bk, cnt = _hash_token_features(texts, F)
    y = np.asarray(ys, dtype=np.float64)
    inv = 1.0 / np.maximum(cnt, 1)
    wr = np.zeros(F + 1)
    ref_losses = []
    for _ in range(iters):
        logits = np.bincount(di, weights=wr[bk], minlength=60) * inv + wr[F]
        p = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
        g = p - y
        grad = np.bincount(bk, weights=(g * inv)[di], minlength=F)
        ref_losses.append(
            float(
                -(
                    y * np.log(np.maximum(p, 1e-12))
                    + (1 - y) * np.log(np.maximum(1 - p, 1e-12))
                ).mean()
            )
        )
        wr[:F] -= lr * (grad / 60 + l2 * wr[:F])
        wr[F] -= lr * (g.sum() / 60)
    assert np.allclose(losses, ref_losses, atol=1e-9)
    assert np.allclose(w, wr, atol=1e-9)

    scored = (
        hashed_text_predict(ds, w, "text", id_col="doc_id", n_features=F)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert (scored["pred"].to_numpy() == np.array(ys)).all()


def test_logreg_partials_reduce_in_content_order(ray_session):
    """Per-block partials that agree to 8 digits, and so print alike, must
    still reduce in one order: the same blocks fed in either order give
    bit-identical weights and losses."""
    from ray.data import DataContext

    xs = [1.0000000050543625, 1.0000000050935072, 1.0000000080815854,
          1.0000000060002738]
    ys = [0.0, 1.0, 0.0, 1.0]
    assert len({str(np.array([x])) for x in xs}) == 1
    # the fold is order-sensitive, so arrival order would show in the bits
    assert np.add.reduce([np.array([x]) for x in xs]) != np.add.reduce(
        [np.array([x]) for x in xs[::-1]]
    )
    opts = DataContext.get_current().execution_options
    preserve = opts.preserve_order
    opts.preserve_order = True  # blocks arrive in the order they are given
    try:
        fits = []
        for order in (list(zip(xs, ys)), list(zip(xs, ys))[::-1]):
            ds = ray.data.from_pandas(
                [pd.DataFrame({"f0": [x], "y": [y]}) for x, y in order]
            )
            fits.append(logreg_fit(ds, ["f0"], "y", iters=3))
    finally:
        opts.preserve_order = preserve
    (w1, acc1, l1), (w2, acc2, l2) = fits
    assert w1.tobytes() == w2.tobytes()
    assert acc1 == acc2 and l1 == l2


def test_ridge_and_pca_partials_reduce_in_content_order(ray_session):
    """ridge_fit and pca_fit_project fold one partial per block; the same
    blocks fed in either order must give bit-identical results."""
    from ray.data import DataContext

    from goose_parser_ray.functions.ml import pca_fit_project, ridge_fit

    pts = [(1e4, 0.7), (0.7, 0.2), (1e-3, 0.9), (3.3, 0.7)]
    # both folds are order-sensitive, so arrival order would show in the
    # bits: ridge's x*x in float64, PCA's outer products of the float32
    # embeddings
    sq = [np.array([a * a, b * b]) for a, b in pts]
    assert np.add.reduce(sq).tobytes() != np.add.reduce(sq[::-1]).tobytes()
    emb = np.array(pts, np.float32).astype(np.float64)
    ss = [np.outer(v, v).ravel() for v in emb]
    assert np.add.reduce(ss).tobytes() != np.add.reduce(ss[::-1]).tobytes()
    rows = list(enumerate(pts))
    opts = DataContext.get_current().execution_options
    preserve = opts.preserve_order
    opts.preserve_order = True  # blocks arrive in the order they are given
    try:
        fits = []
        for order in (rows, rows[::-1]):
            ds = ray.data.from_pandas(
                [
                    pd.DataFrame(
                        {"vec_id": [i], "f0": [a], "y": [b], "embedding": [[a, b]]}
                    )
                    for i, (a, b) in order
                ]
            )
            proj = pca_fit_project(ds, k=2).to_pandas().sort_values("vec_id")
            fits.append((ridge_fit(ds, ["f0"], "y"), proj))
    finally:
        opts.preserve_order = preserve
    (w1, p1), (w2, p2) = fits
    assert w1.tobytes() == w2.tobytes()
    for c in ("pc1", "pc2"):
        assert p1[c].to_numpy().tobytes() == p2[c].to_numpy().tobytes()
