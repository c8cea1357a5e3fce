"""Distributed gradient-descent models over Ray Data.

Same scale shape as ``kmeans_distributed``/``pagerank_distributed``: model
state lives driver-side (d+1 floats), each round's batch function captures
it (Ray ships the function with the operator) and makes ONE streaming pass that emits a single small partial row per batch
(gradient-sum vector + loss partial + count — never the points); the
≤num_batches-row partial stream reduces driver-side and the weights update.
The corpus is pinned once (``materialize``) so a transformed upstream
lineage runs once, not per round.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data


def _round_half_away_e6(x: np.ndarray | float) -> np.ndarray:
    """e6 fixed point with DuckDB ROUND semantics (half away from zero);
    np.round / Python round are half-to-even and would diverge on exact
    .5 ulps at the 1e-6 boundary."""
    a = np.asarray(x, dtype=np.float64) * 1e6
    return np.where(a >= 0, np.floor(a + 0.5), np.ceil(a - 0.5)).astype(np.int64)


def _tokenize_flat(texts: pa.ChunkedArray | pa.Array):
    """Shared engine tokenizer (== the generated SQL twin's
    regexp_split_to_array(lower(text), WORD_SPLIT_RE)): returns the flat
    lower-cased token array plus each token's parent row index, empties
    dropped."""
    import pyarrow.compute as pc

    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    lowered = pc.fill_null(pc.utf8_lower(texts), "")
    words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = pc.list_flatten(words)
    parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
    tok = np.asarray(flat.to_pylist(), dtype=object)
    keep = tok != ""
    return tok[keep], parent[keep]


def nb_train(
    train: ray.data.Dataset,
    *,
    text_col: str = "text",
    class_col: str = "lang",
    vocab_cap: int = 50_000,
) -> dict:
    """Multinomial Naive Bayes training, Ray-Data-first.

    Scale shape: ONE streaming pass emits per-batch partial token counts per
    (class, token) (map-side value_counts — no raw-token shuffle), a small
    ``groupby(class, token)`` sums them, and only the BOUNDED model table
    (≤ vocab_cap × n_classes rows after the frequency cap; ties broken by
    token ASC so the cap is deterministic) plus per-class doc counts are
    collected driver-side. The corpus itself is never materialized.

    Smoothing: Laplace — log p(w|c) = ln((c_wc + 1) / (N_c + V)) with N_c
    counted over in-vocab tokens and V = |vocab|; priors ln(D_c / D).
    All log-probs are e6-fixed-point integers (DuckDB ROUND parity) so
    downstream scores are order-independent integer sums.

    Returns a plain dict (the argument of :class:`NBScoreActor`):
    ``{"classes", "priors_e6", "vocab", "lp_e6"}`` where ``lp_e6`` is a
    (V, C) int64 matrix aligned to sorted vocab / sorted classes.
    """
    import pandas as pd

    from goose_parser_ray.functions.relational import keyed_aggregate

    def class_tokens(t: pa.Table) -> pa.Table:
        tok, parent = _tokenize_flat(t[text_col])
        return pa.table(
            {"cls": t[class_col].take(parent), "w": pa.array(tok, pa.string())}
        )

    counts = keyed_aggregate(
        train.map_batches(class_tokens, batch_format="pyarrow"), ["cls", "w"],
        {"c": ("w", "count")},
    ).to_pandas()  # bounded: ≤ (distinct tokens × classes) rows, capped below

    # per-class train-doc counts (priors) — tiny groupby
    docs = keyed_aggregate(
        train.select_columns([class_col]), [class_col],
        {"n_docs": (class_col, "count")},
    ).to_pandas()

    # deterministic frequency cap: top vocab_cap tokens by (total count DESC,
    # token ASC) — the same QUALIFY window the SQL twin uses
    totals = (
        counts.groupby("w", as_index=False)["c"]
        .sum()
        .sort_values(["c", "w"], ascending=[False, True], kind="mergesort")
    )
    vocab = np.sort(totals.head(vocab_cap)["w"].to_numpy())
    counts = counts[counts["w"].isin(vocab)]

    classes = np.sort(docs[class_col].to_numpy())
    v = len(vocab)
    c_idx = {c: i for i, c in enumerate(classes)}
    w_index = pd.Index(vocab)
    cwl = np.zeros((v, len(classes)), dtype=np.int64)
    cwl[
        w_index.get_indexer(counts["w"]),
        counts["cls"].map(c_idx).to_numpy(),
    ] = counts["c"].to_numpy()
    n_c = cwl.sum(axis=0)  # in-vocab token total per class

    lp_e6 = _round_half_away_e6(
        np.log((cwl + 1) / (n_c + v).astype(np.float64))
    )
    d_total = int(docs["n_docs"].sum())
    d_c = docs.set_index(class_col)["n_docs"].reindex(classes).to_numpy()
    priors_e6 = _round_half_away_e6(np.log(d_c / float(d_total)))
    return {
        "classes": classes,
        "priors_e6": priors_e6,
        "vocab": vocab,
        "lp_e6": lp_e6,
    }


class NBScoreActor:
    """Batch kernel built once on the driver from the model dict; scoring is
    one vectorized gather+scatter per batch (int64 adds — order-independent)."""

    def __init__(self, m: dict, id_col: str = "doc_id", text_col: str = "text"):
        import pandas as pd

        self.classes = m["classes"]
        self.priors_e6 = m["priors_e6"]
        self.vocab = pd.Index(m["vocab"])
        self.lp_e6 = m["lp_e6"]
        self.id_col, self.text_col = id_col, text_col

    _SCHEMA = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("pred_lang", pa.string()),
            ("score_e6", pa.int64()),
        ]
    )

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return self._SCHEMA.empty_table()
        tok, parent = _tokenize_flat(t[self.text_col])
        scores = np.tile(self.priors_e6, (t.num_rows, 1))
        if len(tok):
            idx = self.vocab.get_indexer(tok)
            ok = idx >= 0  # OOV tokens dropped (same as the SQL inner join)
            np.add.at(scores, parent[ok], self.lp_e6[idx[ok], :])
        # argmax returns the FIRST max → ties break to class ASC (sorted)
        best = np.argmax(scores, axis=1)
        return pa.Table.from_pydict(
            {
                "doc_id": t[self.id_col].to_numpy(zero_copy_only=False),
                "pred_lang": self.classes[best],
                "score_e6": scores[np.arange(len(best)), best],
            }
        )


def ridge_fit(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    label_col: str,
    *,
    l2: float = 1e-3,
) -> np.ndarray:
    """Closed-form ridge regression by distributed normal equations: ONE
    streaming pass emits per-batch Gram partials (XᵀX, Xᵀy with a bias
    column) — a (d+1)² matrix per batch, never the rows — and the driver
    solves the (d+1)×(d+1) system. The exact one-pass complement to the
    iterative ``logreg_fit``; bias is unpenalized. Returns weights with
    bias last."""
    d = len(feature_cols)

    def gram(t: pa.Table) -> pa.Table:
        x = np.column_stack(
            [
                t[c].to_numpy(zero_copy_only=False).astype(np.float64)
                for c in feature_cols
            ]
            + [np.ones(t.num_rows)]
        )
        y = t[label_col].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.Table.from_pydict(
            {
                "xtx": [(x.T @ x).ravel().tolist()],
                "xty": [(x.T @ y).tolist()],
            }
        )

    parts = ds.map_batches(gram, batch_format="pyarrow").to_pandas()
    # fold the partials in content order, not block completion order, so
    # the float64 round-off is reproducible
    parts = parts.sort_values(by=["xtx", "xty"], key=_content_key, kind="mergesort")
    xtx = np.add.reduce([np.asarray(v) for v in parts["xtx"]]).reshape(
        d + 1, d + 1
    )
    xty = np.add.reduce([np.asarray(v) for v in parts["xty"]])
    reg = np.eye(d + 1) * l2
    reg[d, d] = 0.0  # bias unpenalized
    return np.linalg.solve(xtx + reg, xty)


def pca_fit_project(
    ds: ray.data.Dataset,
    *,
    col: str = "embedding",
    id_col: str = "vec_id",
    k: int = 2,
) -> ray.data.Dataset:
    """Distributed PCA: exact covariance from one streaming pass of
    (n, Σx, Σxxᵀ) partials (d² floats per batch — never the vectors),
    driver-side ``eigh`` on the tiny d×d matrix, then a projection pass
    whose batch function captures the mean + top-k components.
    Component sign is fixed deterministically (largest-|loading| entry
    made positive). Returns (id_col, pc1..pck)."""
    from goose_parser_ray.functions.similarity import _list_col_to_matrix

    def moments(t: pa.Table) -> pa.Table:
        x = _list_col_to_matrix(t[col]).astype(np.float64)
        return pa.Table.from_pydict(
            {
                "n": [len(x)],
                "s": [x.sum(axis=0).tolist()],
                "ss": [(x.T @ x).ravel().tolist()],
            }
        )

    parts = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(
        by=["n", "s", "ss"], key=_content_key, kind="mergesort"
    )
    n = int(parts["n"].sum())
    s = np.add.reduce([np.asarray(v) for v in parts["s"]])
    d = len(s)
    ss = np.add.reduce([np.asarray(v) for v in parts["ss"]]).reshape(d, d)
    mu = s / n
    cov = (ss - n * np.outer(mu, mu)) / max(1, n - 1)
    vals, vecs = np.linalg.eigh(cov)
    w = vecs[:, np.argsort(vals)[::-1][:k]]  # top-k by eigenvalue
    flip = np.sign(w[np.abs(w).argmax(axis=0), np.arange(k)])
    w = w * np.where(flip == 0, 1.0, flip)

    def project(t: pa.Table) -> pa.Table:
        x = _list_col_to_matrix(t[col]).astype(np.float64)
        p = (x - mu) @ w
        out = {id_col: t[id_col]}
        for j in range(w.shape[1]):
            out[f"pc{j + 1}"] = p[:, j]
        return pa.Table.from_pydict(out)

    return ds.map_batches(project, batch_format="pyarrow")


def _content_key(col):
    """Sort key on full content: a list cell keys on its float64 bytes (its
    ``str`` keeps 8 digits and elides long arrays, so distinct cells tie)."""
    if col.dtype != object:
        return col
    return col.map(lambda v: np.asarray(v, np.float64).tobytes())


def logreg_fit(
    ds: ray.data.Dataset,
    feature_cols: list[str],
    label_col: str,
    *,
    lr: float = 0.5,
    iters: int = 30,
    l2: float = 1e-3,
) -> tuple[np.ndarray, float, list[float]]:
    """L2-regularized logistic regression by full-batch gradient descent.

    Features are standardized with global mean/std (one extra streaming
    pass of exact partials) so the fixed learning rate is scale-free.
    Returns ``(weights_with_bias, train_accuracy, loss_history)`` —
    weights are in STANDARDIZED feature space, bias last.
    """
    ds = ds.materialize()
    d = len(feature_cols)

    # pass 0: global mean/std partials (sum, sumsq, n per batch)
    def moments(t: pa.Table) -> pa.Table:
        x = np.column_stack(
            [
                t[c].to_numpy(zero_copy_only=False).astype(np.float64)
                for c in feature_cols
            ]
        )
        return pa.Table.from_pydict(
            {
                "s": [x.sum(axis=0).tolist()],
                "ss": [(x * x).sum(axis=0).tolist()],
                "n": [len(x)],
            }
        )

    mdf = ds.map_batches(moments, batch_format="pyarrow").to_pandas()
    # deterministic float64 reduction: partial rows arrive in block
    # completion order — sort by content so round-off is reproducible
    # (the e4/e6 fixed-point invariant columns downstream hash these).
    mdf = mdf.sort_values(
        by=["n", "s", "ss"], key=_content_key, kind="mergesort"
    ).reset_index(drop=True)
    n = float(mdf["n"].sum())
    if n == 0:
        raise ValueError("empty training set")
    mu = np.add.reduce([np.asarray(v) for v in mdf["s"]]) / n
    ex2 = np.add.reduce([np.asarray(v) for v in mdf["ss"]]) / n
    sd = np.sqrt(np.maximum(ex2 - mu * mu, 1e-12))

    w = np.zeros(d + 1, dtype=np.float64)
    losses: list[float] = []

    for _ in range(iters):
        def grad_partial(t: pa.Table) -> pa.Table:
            x = np.column_stack(
                [
                    t[c].to_numpy(zero_copy_only=False).astype(np.float64)
                    for c in feature_cols
                ]
            )
            x = (x - mu) / sd
            y = t[label_col].to_numpy(zero_copy_only=False).astype(np.float64)
            z = x @ w[:-1] + w[-1]
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            g = np.concatenate([x.T @ err, [err.sum()]])
            # clipped log-loss partial (reporting only)
            pc_ = np.clip(p, 1e-12, 1 - 1e-12)
            loss = -(y * np.log(pc_) + (1 - y) * np.log(1 - pc_)).sum()
            hits = float(((p >= 0.5) == (y >= 0.5)).sum())
            return pa.Table.from_pydict(
                {"g": [g.tolist()], "loss": [loss], "hits": [hits]}
            )

        pdf = ds.map_batches(grad_partial, batch_format="pyarrow").to_pandas()
        pdf = pdf.sort_values(
            by=["loss", "hits", "g"], key=_content_key,
            kind="mergesort",
        ).reset_index(drop=True)
        g = np.add.reduce([np.asarray(v) for v in pdf["g"]]) / n
        g[:-1] += l2 * w[:-1]
        losses.append(float(pdf["loss"].sum()) / n)
        acc = float(pdf["hits"].sum()) / n
        w = w - lr * g

    return w, acc, losses


# ---------------------------------------------------------------------------
# hashed-feature text classifier (fastText/CCNet-style quality filter)
# ---------------------------------------------------------------------------


def _hash_token_features(texts: list, n_features: int):
    """Texts → flat (doc_idx, bucket) token pairs + per-doc token counts,
    hashing-trick style (unigrams + adjacent bigrams, lower-cased split on
    spaces). Vectorized: one pandas 64-bit hash pass per n-gram order."""
    import pandas as pd

    doc_idx_parts, bucket_parts = [], []
    toks_per_doc = np.zeros(len(texts), dtype=np.int64)
    words_all, owners = [], []
    for i, s in enumerate(texts):
        ws = [w for w in (s or "").lower().split(" ") if w]
        words_all.append(ws)
        owners.extend([i] * len(ws))
    flat = [w for ws in words_all for w in ws]
    owners = np.asarray(owners, dtype=np.int64)
    if flat:
        s1 = pd.Series(flat, dtype=object)
        h1 = (
            pd.util.hash_pandas_object(s1 + "#u", index=False).to_numpy()
            % np.uint64(n_features)
        ).astype(np.int64)
        doc_idx_parts.append(owners)
        bucket_parts.append(h1)
        np.add.at(toks_per_doc, owners, 1)
        # adjacent bigrams within a doc
        big, bown = [], []
        for i, ws in enumerate(words_all):
            for a, b in zip(ws, ws[1:]):
                big.append(a + " " + b)
                bown.append(i)
        if big:
            s2 = pd.Series(big, dtype=object)
            h2 = (
                pd.util.hash_pandas_object(s2 + "#b", index=False).to_numpy()
                % np.uint64(n_features)
            ).astype(np.int64)
            bo = np.asarray(bown, dtype=np.int64)
            doc_idx_parts.append(bo)
            bucket_parts.append(h2)
            np.add.at(toks_per_doc, bo, 1)
    if doc_idx_parts:
        return (
            np.concatenate(doc_idx_parts),
            np.concatenate(bucket_parts),
            toks_per_doc,
        )
    return (
        np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64),
        toks_per_doc,
    )


def hashed_text_logreg(
    ds: ray.data.Dataset,
    text_col: str,
    label_col: str,
    *,
    n_features: int = 1 << 16,
    lr: float = 2.0,
    iters: int = 10,
    l2: float = 1e-6,
) -> tuple[np.ndarray, float, list[float]]:
    """fastText/CCNet-style linear text classifier trained distributed —
    THE standard learned quality/language gate in production LLM data
    pipelines. Features are the hashing trick over word unigrams +
    adjacent bigrams (no vocabulary shuffle, no feature dictionary —
    memory is fixed at ``n_features`` regardless of corpus size), per-doc
    tf normalized by token count so the fixed learning rate is
    scale-free.

    Scale shape: full-batch GD — each round's batch function captures the
    weight vector (n_features float64 ≈ 0.5 MB) and streams ONE pass emitting a
    dense gradient partial per batch; partials fold map-side 16 → 1
    (addition, bit-consistent) so the driver reduce is bounded by
    blocks/16. All per-batch math is bincount/gather vectorized — no
    per-token Python in the gradient loop. Returns
    ``(weights_with_bias_last, train_accuracy, loss_history)``."""
    ds = ds.materialize()  # re-scanned once per GD round
    F = n_features
    w = np.zeros(F + 1, dtype=np.float64)
    losses: list[float] = []
    accuracy = 0.0

    for _ in range(iters):
        ww = w.copy()  # w is updated in place after the round

        def grad_partial(t: pa.Table) -> pa.Table:
            texts = t[text_col].to_pylist()
            y = t[label_col].to_numpy(zero_copy_only=False).astype(np.float64)
            di, bk, cnt = _hash_token_features(texts, F)
            inv = 1.0 / np.maximum(cnt, 1)
            # logits via one gather + one bincount
            logits = (
                np.bincount(di, weights=ww[bk], minlength=len(texts)) * inv
                + ww[F]
            )
            p = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
            g = p - y
            grad = np.bincount(
                bk, weights=(g * inv)[di], minlength=F
            ).astype(np.float64)
            loss = float(
                -(
                    y * np.log(np.maximum(p, 1e-12))
                    + (1 - y) * np.log(np.maximum(1 - p, 1e-12))
                ).sum()
            )
            correct = int(((p >= 0.5) == (y >= 0.5)).sum())
            return pa.Table.from_pydict(
                {
                    "grad": [grad.tobytes()],
                    "gb": [float(g.sum())],
                    "loss": [loss],
                    "n": [len(texts)],
                    "correct": [correct],
                }
            )

        def fold(t: pa.Table) -> pa.Table:
            acc = np.zeros(F, dtype=np.float64)
            for b in t["grad"].to_pylist():
                acc += np.frombuffer(b, dtype=np.float64)
            import pyarrow.compute as pc

            return pa.Table.from_pydict(
                {
                    "grad": [acc.tobytes()],
                    "gb": [float(pc.sum(t["gb"]).as_py() or 0.0)],
                    "loss": [float(pc.sum(t["loss"]).as_py() or 0.0)],
                    "n": [int(pc.sum(t["n"]).as_py() or 0)],
                    "correct": [int(pc.sum(t["correct"]).as_py() or 0)],
                }
            )

        rows = (
            ds.map_batches(grad_partial, batch_format="pyarrow")
            .map_batches(fold, batch_format="pyarrow", batch_size=16)
            .take_all()
        )
        # deterministic driver reduce: folded rows arrive in completion
        # order — sort by content so the float64 addition order is fixed.
        rows.sort(key=lambda r: (r["loss"], r["n"], r["grad"]))
        grad = np.zeros(F, dtype=np.float64)
        gb = loss = 0.0
        n = correct = 0
        for r in rows:
            grad += np.frombuffer(r["grad"], dtype=np.float64)
            gb += r["gb"]
            loss += r["loss"]
            n += r["n"]
            correct += r["correct"]
        if n == 0:
            raise ValueError("empty training set")
        w[:F] -= lr * (grad / n + l2 * w[:F])
        w[F] -= lr * (gb / n)
        losses.append(loss / n)
        accuracy = correct / n
    return w, accuracy, losses


def hashed_text_predict(
    ds: ray.data.Dataset,
    weights: np.ndarray,
    text_col: str,
    *,
    id_col: str,
    n_features: int = 1 << 16,
) -> ray.data.Dataset:
    """Apply a trained hashed classifier corpus-wide (pure map; the batch
    function captures the weights): emits (id, score_e6, pred) — the gate a
    quality-filter stage thresholds on."""
    F = n_features
    ww = np.asarray(weights, dtype=np.float64)

    def score(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        di, bk, cnt = _hash_token_features(texts, F)
        inv = 1.0 / np.maximum(cnt, 1)
        logits = (
            np.bincount(di, weights=ww[bk], minlength=len(texts)) * inv
            + ww[F]
        )
        p = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
        return pa.Table.from_pydict(
            {
                id_col: t[id_col],
                "score_e6": pa.array(
                    np.round(p * 1e6).astype(np.int64)
                ),
                "pred": pa.array((p >= 0.5).astype(np.int64)),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")
