"""Versioning + classic ML + graph distance: SCD2, stump, NB, global row number, CUSUM, entity resolution, PCA/ridge, BFS/SSSP, baskets, item-CF, TRAINING-SHARDS flagship, bootstrap/A-B.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.functions.dedup import exact_dedup
from goose_parser_ray.functions.packing import global_scan_offsets
from goose_parser_ray.functions.relational import keyed_aggregate, safe_join
from goose_parser_ray.stages.extract import cached_kernel

from goose_parser_ray.queries._shared import _cents, _read
from goose_parser_ray.queries.graph_mlstats import _copurchase_edges
from goose_parser_ray.queries.text_media import _quality_sql


def q_rich_inactive(sf_dir: str):
    """Global-scalar-gated anti-join (TPC-H Q22 shape), ORACLE-CHECKED:
    customers with above-average account balance (among positive
    balances) and NO urgent orders. The global average is a two-integer
    partial aggregate broadcast as a closed-over scalar — never a join —
    and the no-urgent-orders side is the hash anti-join against the
    filtered ids-only orders projection. Cents: the threshold compare is
    integer cross-multiplied form (bal·n > Σbal) so no float mean exists
    on either side."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])

    def bal_partial(t: pa.Table) -> pa.Table:
        b = _cents(t["c_acctbal"])
        pos = pc.greater(b, 0)
        return pa.Table.from_pydict(
            {
                "s": [
                    int(
                        pc.sum(
                            pc.if_else(pos, b, pa.scalar(0, pa.int64()))
                        ).as_py()
                        or 0
                    )
                ],
                "n": [int(pc.sum(pc.cast(pos, pa.int64())).as_py() or 0)],
            }
        )

    parts = cust.map_batches(bal_partial, batch_format="pyarrow").to_pandas()
    s_bal, n_bal = int(parts["s"].sum()), int(parts["n"].sum())

    rich = cust.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "c_custkey": t["c_custkey"],
                "c_name": t["c_name"],
                "bal_cents": _cents(t["c_acctbal"]),
            }
        ).filter(
            pc.greater(
                pc.multiply(
                    _cents(t["c_acctbal"]), pa.scalar(n_bal, pa.int64())
                ),
                pa.scalar(s_bal, pa.int64()),
            )
        ),
        batch_format="pyarrow",
    )
    order_keys = _read(
        sf_dir, "orders", ["o_custkey", "o_orderpriority"]
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["o_custkey"]], names=["c_custkey"]
        ).filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow",
    )
    return safe_join(
        rich, order_keys, join_type="left_anti", on=("c_custkey",)
    )


SQL_RICH_INACTIVE = """
WITH b AS (
  SELECT c_custkey, c_name,
         CAST(ROUND(100 * c_acctbal) AS BIGINT) AS bal_cents
  FROM customer
),
t AS (
  SELECT SUM(bal_cents) AS s, COUNT(*) AS n FROM b WHERE bal_cents > 0
)
SELECT c_custkey, c_name, bal_cents
FROM b, t
WHERE bal_cents * n > s
  AND c_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
"""


def q_scd2_history(sf_dir: str):
    """Type-2 slowly-changing-dimension build from a change feed: per user,
    consecutive runs of the tracked attribute (event_type) collapse to one
    versioned row with [valid_from, valid_to) and the open version closed by
    a far-future sentinel. Same scale shape as sessionize: users coalesce
    into data-proportional hash buckets (one shuffle group per bucket, not
    per user) and the run detection inside each bucket is one vectorized
    pandas pass (sort → neighbor-compare → cumsum run ids → group → LEAD via
    shift). Deterministic total order: (ts, event_id) tie-break on BOTH
    sides."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def scd2_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_run = g["user_id"].ne(g["user_id"].shift()) | g["event_type"].ne(
            g["event_type"].shift()
        )
        rid = new_run.cumsum()
        out = g.groupby(rid).agg(
            user_id=("user_id", "first"),
            attr=("event_type", "first"),
            vf=("ts", "min"),
            n_rows=("ts", "size"),
        )
        # runs are (user, ts)-ordered → shift(-1) within user IS the LEAD
        out["valid_to"] = (
            out.groupby("user_id")["vf"]
            .shift(-1)
            .dt.strftime("%Y-%m-%d %H:%M:%S")
            .fillna("9999-12-31 00:00:00")
        )
        out["valid_from"] = out["vf"].dt.strftime("%Y-%m-%d %H:%M:%S")
        out["n_rows"] = out["n_rows"].astype("int64")
        return out[["user_id", "attr", "valid_from", "valid_to", "n_rows"]]

    return _dedup.bucket_groups(ds, "user_id", scd2_bucket, rows=ds.count())


SQL_SCD2_HISTORY = """
WITH o AS (
  SELECT user_id, event_type, ts, event_id,
         LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
             AS prev_t
  FROM events
), r AS (
  SELECT user_id, event_type, ts,
         SUM(CASE WHEN prev_t IS NULL OR prev_t <> event_type
                  THEN 1 ELSE 0 END)
             OVER (PARTITION BY user_id ORDER BY ts, event_id
                   ROWS UNBOUNDED PRECEDING) AS run_id
  FROM o
), g AS (
  SELECT user_id, run_id, MIN(event_type) AS attr, MIN(ts) AS vf,
         CAST(COUNT(*) AS BIGINT) AS n_rows
  FROM r GROUP BY user_id, run_id
)
SELECT user_id, attr,
       strftime(vf, '%Y-%m-%d %H:%M:%S') AS valid_from,
       COALESCE(strftime(LEAD(vf) OVER (PARTITION BY user_id ORDER BY run_id),
                         '%Y-%m-%d %H:%M:%S'),
                '9999-12-31 00:00:00') AS valid_to,
       n_rows
FROM g
"""


def q_stump(sf_dir: str):
    """Histogram decision stump (the LightGBM/XGBoost 'exact at the bins'
    split search): label = event_type=='purchase', feature = value bucketed
    into 64 fixed-width bins. ONE streaming pass emits per-batch (bin, n,
    pos) partials via bincount (map-side combine, never raw rows), a ≤64-row
    groupby sums them, and the weighted-Gini argmin over split candidates
    runs on that bounded table. The Gini expression mirrors the SQL twin's
    double arithmetic op-for-op (casts, subtract-then-divide, explicit x*x
    instead of POWER) so both engines walk bit-identical IEEE doubles to the
    same argmin; the reported gini is e9-fixed-point."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        val = t["value"].to_numpy(zero_copy_only=False)
        bins = np.minimum(63, np.floor(val / 8.0).astype(np.int64))
        pos = pc.equal(t["event_type"], "purchase").to_numpy(
            zero_copy_only=False
        )
        n = np.bincount(bins, minlength=64).astype(np.int64)
        p = np.bincount(bins[pos], minlength=64).astype(np.int64)
        nz = n > 0
        return pa.Table.from_pydict(
            {
                "bin": np.arange(64, dtype=np.int64)[nz],
                "n": n[nz],
                "p": p[nz],
            }
        )

    hist = (
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow"), ["bin"],
            {"n": ("n", "sum"), "p": ("p", "sum")},
        )
        .to_pandas()  # ≤ 64 rows by construction
        .sort_values("bin")
    )
    nt = int(hist["n"].sum())
    pt = int(hist["p"].sum())
    nl = hist["n"].cumsum().to_numpy()
    pl = hist["p"].cumsum().to_numpy()
    best = None
    for i, b in enumerate(hist["bin"].to_numpy()):
        nl_i, pl_i = int(nl[i]), int(pl[i])
        nr_i, pr_i = nt - nl_i, pt - pl_i
        if nr_i <= 0:
            continue
        # op-for-op mirror of the SQL twin (see docstring)
        a = float(pl_i) / float(nl_i)
        bq = float(nl_i - pl_i) / float(nl_i)
        c = float(pr_i) / float(nr_i)
        d = float(nr_i - pr_i) / float(nr_i)
        gini = (
            float(nl_i) * (1.0 - a * a - bq * bq)
            + float(nr_i) * (1.0 - c * c - d * d)
        ) / float(nt)
        key = (gini, int(b))
        if best is None or key < best[0]:
            best = (key, (int(b), nl_i, pl_i, nr_i, pr_i, gini))
    b, nl_b, pl_b, nr_b, pr_b, gini_b = best[1]
    return pa.Table.from_pydict(
        {
            "split_bin": [b],
            "left_n": [nl_b],
            "left_pos": [pl_b],
            "right_n": [nr_b],
            "right_pos": [pr_b],
            "gini_e9": [int(np.floor(1e9 * gini_b + 0.5))],
        }
    )


SQL_STUMP = """
WITH b AS (
  SELECT LEAST(63, CAST(FLOOR(value / 8.0) AS BIGINT)) AS bin,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events
), h AS (
  SELECT bin, CAST(COUNT(*) AS BIGINT) AS n, CAST(SUM(y) AS BIGINT) AS p
  FROM b GROUP BY bin
), c AS (
  SELECT bin,
         CAST(SUM(n) OVER (ORDER BY bin ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS nl,
         CAST(SUM(p) OVER (ORDER BY bin ROWS UNBOUNDED PRECEDING) AS BIGINT)
             AS pl,
         (SELECT CAST(SUM(n) AS BIGINT) FROM h) AS nt,
         (SELECT CAST(SUM(p) AS BIGINT) FROM h) AS pt
  FROM h
), s AS (
  SELECT bin, nl, pl, nt - nl AS nr, pt - pl AS pr, nt
  FROM c WHERE nt - nl > 0
), g AS (
  SELECT bin, nl, pl, nr, pr,
    ((CAST(nl AS DOUBLE) * (1.0
        - (CAST(pl AS DOUBLE) / CAST(nl AS DOUBLE))
          * (CAST(pl AS DOUBLE) / CAST(nl AS DOUBLE))
        - (CAST(nl - pl AS DOUBLE) / CAST(nl AS DOUBLE))
          * (CAST(nl - pl AS DOUBLE) / CAST(nl AS DOUBLE))))
     + (CAST(nr AS DOUBLE) * (1.0
        - (CAST(pr AS DOUBLE) / CAST(nr AS DOUBLE))
          * (CAST(pr AS DOUBLE) / CAST(nr AS DOUBLE))
        - (CAST(nr - pr AS DOUBLE) / CAST(nr AS DOUBLE))
          * (CAST(nr - pr AS DOUBLE) / CAST(nr AS DOUBLE)))))
    / CAST(nt AS DOUBLE) AS gini
  FROM s
)
SELECT bin AS split_bin, nl AS left_n, pl AS left_pos,
       nr AS right_n, pr AS right_pos,
       CAST(FLOOR(1e9 * gini + 0.5) AS BIGINT) AS gini_e9
FROM g ORDER BY gini, bin LIMIT 1
"""


def q_nb_classify(sf_dir: str):
    """Distributed multinomial Naive Bayes: train on docs with doc_id%5≠0
    (class = lang), predict the held-out 20%. Training is one streaming
    pass of map-side (class, token) partial counts + a small groupby; only
    the BOUNDED model table (vocab-capped, deterministic frequency cap)
    ships driver-side, where the scoring kernel is built once and handed to
    ``map_batches``. Scores are integer sums of e6-fixed-point
    log-probs (order-independent; DuckDB ROUND/LN parity — the q_bm25
    discipline), ties broken class-ASC on both sides."""
    from goose_parser_ray.functions.ml import NBScoreActor, nb_train

    def is_train(t: pa.Table, want: bool) -> pa.Table:
        did = t["doc_id"]
        mod5 = pc.subtract(did, pc.multiply(pc.divide(did, 5), 5))
        m = pc.not_equal(mod5, 0) if want else pc.equal(mod5, 0)
        return t.filter(m)

    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    train = docs.map_batches(
        lambda t: is_train(t, True), batch_format="pyarrow"
    )
    scorer = NBScoreActor(nb_train(train, vocab_cap=50_000))
    test = docs.map_batches(
        lambda t: is_train(t, False), batch_format="pyarrow"
    )
    return test.map_batches(scorer, batch_format="pyarrow")


SQL_NB_CLASSIFY = r"""
WITH train AS (
  SELECT doc_id, lang, text FROM documents WHERE doc_id % 5 <> 0
), test AS (
  SELECT doc_id, text FROM documents WHERE doc_id % 5 = 0
), ttok AS (
  SELECT lang,
         unnest(regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+')) AS w
  FROM train
), ttok2 AS (
  SELECT lang, w FROM ttok WHERE w <> ''
), vocab AS (
  SELECT w FROM (SELECT w, COUNT(*) AS c FROM ttok2 GROUP BY w)
  QUALIFY ROW_NUMBER() OVER (ORDER BY c DESC, w ASC) <= 50000
), nv AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS v FROM vocab
), nl AS (
  SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_tok
  FROM ttok2 WHERE w IN (SELECT w FROM vocab) GROUP BY lang
), cwl AS (
  SELECT lang, w, CAST(COUNT(*) AS BIGINT) AS c
  FROM ttok2 WHERE w IN (SELECT w FROM vocab) GROUP BY lang, w
), grid AS (
  SELECT nl.lang, v.w,
         CAST(ROUND(1e6 * LN((COALESCE(c.c, 0) + 1)
                             / CAST(nl.n_tok + nv.v AS DOUBLE))) AS BIGINT)
             AS lp_e6
  FROM nl CROSS JOIN vocab v CROSS JOIN nv
  LEFT JOIN cwl c ON c.lang = nl.lang AND c.w = v.w
), prior AS (
  SELECT lang,
         CAST(ROUND(1e6 * LN(CAST(COUNT(*) AS DOUBLE)
                             / CAST((SELECT COUNT(*) FROM train) AS DOUBLE)))
              AS BIGINT) AS pr_e6
  FROM train GROUP BY lang
), stok AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(text), '[^\p{L}\p{N}_]+')) AS w
  FROM test
), stok2 AS (
  SELECT doc_id, w, CAST(COUNT(*) AS BIGINT) AS tf
  FROM stok WHERE w <> '' GROUP BY doc_id, w
), contrib AS (
  SELECT s.doc_id, g.lang, CAST(SUM(s.tf * g.lp_e6) AS BIGINT) AS c
  FROM stok2 s JOIN grid g ON g.w = s.w
  GROUP BY s.doc_id, g.lang
), sc AS (
  SELECT t.doc_id, p.lang, p.pr_e6 + COALESCE(c.c, 0) AS score_e6
  FROM test t CROSS JOIN prior p
  LEFT JOIN contrib c ON c.doc_id = t.doc_id AND c.lang = p.lang
)
SELECT doc_id, lang AS pred_lang, score_e6
FROM sc
QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id
                           ORDER BY score_e6 DESC, lang ASC) = 1
"""


def q_row_number_global(sf_dir: str):
    """Exact global dense row numbering (the zipWithIndex primitive —
    contiguous 1..N by a total order) WITHOUT a single-node sort owner:
    the row number is the dense rank of doc_id from the ordered scan
    ``packing.global_scan_offsets``, plus one. Its ranges come from a
    boundary sample of doc_id, so group payload stays ~rows/ranges at any
    corpus size and under any id skew."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    ranked = global_scan_offsets(ds, order_col="doc_id", offset_col="row_num")
    return ranked.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "row_num": pc.add(t["row_num"], 1),
            }
        ),
        batch_format="pyarrow",
    )


SQL_ROW_NUMBER_GLOBAL = """
SELECT doc_id, n_chars,
       CAST(ROW_NUMBER() OVER (ORDER BY doc_id) AS BIGINT) AS row_num
FROM documents
"""


def q_cusum_changepoint(sf_dir: str):
    """CUSUM change-point detection per user (Page's cumulative-sum
    statistic): the point where the centered cumulative sum deviates most
    from the user's own mean. Exact at any scale: the statistic is
    cross-multiplied to pure integers — T_i = n·cumsum_i − i·total over e2
    fixed-point values — so there is no float mean and no order-dependent
    float sum (|T| ≤ n²·5e6, int64-safe below ~10⁶ events/user; the
    per-user magnitude bound is a domain invariant, documented). Same
    bucketed-window shape as sessionize: data-proportional user hash
    buckets, one vectorized pandas pass per bucket."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def to_cents(t: pa.Table) -> pa.Table:
        return t.append_column("vc", _cents(t["value"])).drop_columns(["value"])

    def cusum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id")["vc"]
        cum = grp.cumsum().to_numpy()
        tot = grp.transform("sum").to_numpy()
        n = grp.transform("size").to_numpy().astype(np.int64)
        i = g.groupby("user_id").cumcount().to_numpy() + 1
        g = g.assign(t_abs=np.abs(n * cum - i * tot))
        # argmax |T| per user, ties → earliest (ts, event_id)
        top = g.sort_values(
            ["user_id", "t_abs", "ts", "event_id"],
            ascending=[True, False, True, True],
            kind="mergesort",
        ).groupby("user_id", as_index=False).head(1)
        out = top[["user_id", "t_abs"]].copy()
        out["cp_ts"] = top["ts"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return out[["user_id", "cp_ts", "t_abs"]]

    return _dedup.bucket_groups(
        ds.map_batches(to_cents, batch_format="pyarrow"), "user_id", cusum_bucket,
        rows=ds.count(),
    )


SQL_CUSUM_CHANGEPOINT = """
WITH c AS (
  SELECT user_id, ts, event_id,
         CAST(ROUND(100 * value) AS BIGINT) AS vc
  FROM events
), a AS (
  SELECT user_id, CAST(SUM(vc) AS BIGINT) AS tot,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM c GROUP BY user_id
), w AS (
  SELECT c.user_id, c.ts, c.event_id,
         CAST(SUM(vc) OVER (PARTITION BY c.user_id ORDER BY ts, event_id
                            ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum,
         CAST(ROW_NUMBER() OVER (PARTITION BY c.user_id
                                 ORDER BY ts, event_id) AS BIGINT) AS i,
         a.tot, a.n
  FROM c JOIN a USING (user_id)
)
SELECT user_id, strftime(ts, '%Y-%m-%d %H:%M:%S') AS cp_ts,
       ABS(n * cum - i * tot) AS t_abs
FROM w
QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                           ORDER BY ABS(n * cum - i * tot) DESC,
                                    ts ASC, event_id ASC) = 1
"""


def q_entity_resolution(sf_dir: str):
    """Entity-resolution composite (the record-linkage user story end to
    end): fuzzy-match part names (Jaro-Winkler ≥ 0.92 over the DISTINCT
    name domain — corpus-scale work is the map-side-combined distinct
    aggregate), connect matches into entity clusters (distributed
    min-label components over the name graph), and assign every ROW its
    cluster's canonical id (min p_partkey). The only driver-side state is
    the name→label map, bounded by the same domain_cap contract as
    q_jw_pairs; row-level work is two broadcast-lookup map passes plus one
    tiny groupby-min per cluster — the corpus is never collected."""
    from goose_parser_ray.functions.dedup import (
        connected_components_distributed,
    )
    from goose_parser_ray.functions.editdist import jw_pairs_over_domain

    parts = _read(sf_dir, "part", ["p_partkey", "p_name"])
    pairs = jw_pairs_over_domain(parts, col="p_name", threshold=0.92)
    # components over SORTED-index int ids (min int label ≡ min
    # lexicographic name, and the label-sum convergence detector needs
    # integer nodes); the id table is the same domain-bounded name list
    names = sorted(
        keyed_aggregate(
            parts.select_columns(["p_name"]), ["p_name"],
            {"k": ("p_name", "count")},
        )
        .to_pandas()["p_name"]
        .dropna()
        .tolist()
    )
    nid = {n: i for i, n in enumerate(names)}
    nid_ref = ray.put(nid)

    def pairs_to_ids(t: pa.Table) -> pa.Table:
        m = ray.get(nid_ref)
        return pa.Table.from_pydict(
            {
                "a": np.array([m[v] for v in t["name_a"].to_pylist()], np.int64),
                "b": np.array([m[v] for v in t["name_b"].to_pylist()], np.int64),
            }
        )

    labels = connected_components_distributed(
        pairs.map_batches(pairs_to_ids, batch_format="pyarrow"),
        cols=("a", "b"),
    ).to_pandas()  # bounded by the distinct-name domain (domain_cap)
    name_label = {
        names[int(r.node)]: names[int(r.label)]
        for r in labels.itertuples()
    }
    lab_ref = ray.put(name_label)

    def to_label(t: pa.Table) -> pa.Table:
        import pandas as pd

        m = ray.get(lab_ref)
        names = pd.Series(t["p_name"].to_pylist(), dtype=object)
        lab = names.map(m).fillna(names)  # edge-less names label themselves
        return pa.Table.from_pydict(
            {
                "p_partkey": t["p_partkey"],
                "label": lab.to_numpy(dtype=object),
            }
        )

    labeled = parts.map_batches(to_label, batch_format="pyarrow")
    canon = keyed_aggregate(
        labeled, ["label"], {"canonical_id": ("p_partkey", "min")}
    ).to_pandas()  # ≤ one row per cluster (domain-bounded)
    canon_ref = ray.put(dict(zip(canon["label"], canon["canonical_id"])))

    def to_canon(t: pa.Table) -> pa.Table:
        import pandas as pd

        c = ray.get(canon_ref)
        lab = pd.Series(t["label"].to_pylist(), dtype=object)
        return pa.Table.from_pydict(
            {
                "p_partkey": t["p_partkey"],
                "canonical_id": lab.map(c).to_numpy(dtype=np.int64),
            }
        )

    return labeled.map_batches(to_canon, batch_format="pyarrow")


SQL_ENTITY_RESOLUTION = """
WITH RECURSIVE
names AS (SELECT DISTINCT p_name FROM part WHERE p_name IS NOT NULL),
pr AS (
  SELECT a.p_name AS na, b.p_name AS nb
  FROM names a JOIN names b ON a.p_name < b.p_name
  WHERE jaro_winkler_similarity(a.p_name, b.p_name) >= 0.92
),
edges AS (SELECT na AS u, nb AS v FROM pr UNION SELECT nb, na FROM pr),
walk(node, label) AS (
  SELECT u, u FROM edges
  UNION
  SELECT e.v, w.label FROM walk w JOIN edges e ON e.u = w.node
  WHERE w.label < e.v
),
lab AS (SELECT node, MIN(label) AS label FROM walk GROUP BY node),
nl AS (
  SELECT n.p_name, COALESCE(l.label, n.p_name) AS label
  FROM names n LEFT JOIN lab l ON l.node = n.p_name
),
canon AS (
  SELECT nl.label, MIN(p.p_partkey) AS canonical_id
  FROM part p JOIN nl ON p.p_name = nl.p_name
  GROUP BY nl.label
)
SELECT p.p_partkey, c.canonical_id
FROM part p
JOIN nl ON p.p_name = nl.p_name
JOIN canon c ON c.label = nl.label
"""


def q_pca_project(sf_dir: str):
    """Distributed PCA over the embedding table (rows-only; pytest checks
    parity vs single-process numpy): one pass of d²-sized covariance
    partials, driver eigh on the tiny d×d, broadcast projection pass."""
    from goose_parser_ray.functions.ml import pca_fit_project

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return pca_fit_project(ds, k=2)


def q_ridge_fit(sf_dir: str):
    """Closed-form ridge regression, ORACLE-CHECKED (r5: converted from
    rows-only): value ~ one-hot(event_type), ONE streaming Gram-partial
    pass, driver solves the (d+1)² system. The label is integer CENTS, so
    every Gram entry is an integer-valued float64 (one-hot counts +
    exact cents sums < 2^53) — the partial reduction is order-independent
    and both engines start the solve from IDENTICAL numbers. The twin
    solves the same bordered-diagonal system in closed form (Schur
    complement on the bias row: β = (S − Σ nₜsₜ/(nₜ+λ)) / (N − Σ nₜ²/(nₜ+λ)),
    wₜ = (sₜ − nₜβ)/(nₜ+λ)) — verified ≤ 3e-11 from LAPACK, far inside
    the e4 fixed point. Output in dollar units (w_cents/100 — the same
    float64 division on identical inputs on both sides)."""
    from goose_parser_ray.functions.ml import ridge_fit

    types = ["click", "error", "purchase", "signup"]  # 'view' = baseline
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def one_hot(t: pa.Table) -> pa.Table:
        cols = {
            f"is_{ty}": pc.cast(
                pc.equal(t["event_type"], ty), pa.float64()
            )
            for ty in types
        }
        cols["value"] = pc.cast(_cents(t["value"]), pa.float64())
        return pa.Table.from_pydict(cols)

    w = ridge_fit(
        ds.map_batches(one_hot, batch_format="pyarrow"),
        [f"is_{ty}" for ty in types],
        "value",
    )
    w = w / 100.0  # cents → dollars; NOT exact binary, but deterministic
    names = [f"is_{ty}" for ty in types] + ["bias"]
    return pa.Table.from_pydict(
        {
            "feature": names,
            "coef_e4": np.floor(np.abs(w) * 1e4 + 0.5).astype(np.int64)
            * np.sign(w).astype(np.int64),
        }
    )


SQL_RIDGE_FIT = """
WITH g AS (
  SELECT event_type AS ty,
         CAST(COUNT(*) AS DOUBLE) AS n,
         CAST(SUM(CAST(ROUND(100 * value) AS BIGINT)) AS DOUBLE) AS s
  FROM events
  WHERE event_type IN ('click', 'error', 'purchase', 'signup')
  GROUP BY event_type
),
tot AS (
  SELECT CAST(COUNT(*) AS DOUBLE) AS N,
         CAST(SUM(CAST(ROUND(100 * value) AS BIGINT)) AS DOUBLE) AS S
  FROM events
),
beta AS (
  SELECT (t.S - (SELECT SUM(n * s / (n + 0.001)) FROM g))
         / (t.N - (SELECT SUM(n * n / (n + 0.001)) FROM g)) AS b
  FROM tot t
),
coefs AS (
  SELECT 'is_' || g.ty AS feature,
         ((g.s - g.n * beta.b) / (g.n + 0.001)) / 100.0 AS w
  FROM g, beta
  UNION ALL
  SELECT 'bias', beta.b / 100.0 FROM beta
)
SELECT feature,
       CAST(FLOOR(ABS(w) * 10000 + 0.5) AS BIGINT) * CAST(SIGN(w) AS BIGINT)
         AS coef_e4
FROM coefs
"""


def q_bfs_levels(sf_dir: str):
    """BFS hop distance over the part co-purchase graph from a fixed seed
    set ((node & 63) == 0), capped at 6 hops — level-synchronous frontier
    expansion (one hash join per round, state bounded by the reachable
    set), ORACLE-CHECKED against a DuckDB recursive-CTE min-level
    fixpoint. Output: (lvl, n_nodes) distance histogram."""
    from goose_parser_ray.functions.graph import bfs_levels_distributed

    und = _copurchase_edges(sf_dir, mask=15).map_batches(
        lambda t: pa.Table.from_arrays(
            [
                pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                ),
                pa.concat_arrays(
                    [t["v"].combine_chunks(), t["u"].combine_chunks()]
                ),
            ],
            names=["u", "v"],
        ),
        batch_format="pyarrow",
    ).materialize()  # feeds every BFS round — pin one build
    seeds = und.map_batches(
        lambda t: pa.Table.from_arrays([t["u"]], names=["node"]).filter(
            pc.equal(
                pc.bit_wise_and(t["u"], pa.scalar(63, pa.int64())), 0
            )
        ),
        batch_format="pyarrow",
    )
    levels = bfs_levels_distributed(und, seeds, max_hops=6)
    return keyed_aggregate(
        levels.select_columns(["lvl"]), ["lvl"],
        {"n_nodes": ("lvl", "count")},
    )


SQL_BFS_LEVELS = """
WITH RECURSIVE
li AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
       WHERE (l_orderkey & 15) = 0),
e0 AS (SELECT a.p AS u, b.p AS v FROM li a JOIN li b
       ON a.o = b.o AND a.p < b.p),
edges AS (SELECT u, v FROM e0 UNION SELECT v, u FROM e0),
seeds AS (SELECT DISTINCT u AS node FROM edges WHERE (u & 63) = 0),
walk(node, lvl) AS (
  SELECT node, 0 FROM seeds
  UNION
  SELECT e.v, w.lvl + 1 FROM walk w JOIN edges e ON e.u = w.node
  WHERE w.lvl < 6
),
lev AS (SELECT node, MIN(lvl) AS lvl FROM walk GROUP BY node)
SELECT CAST(lvl AS BIGINT) AS lvl, COUNT(*) AS n_nodes
FROM lev GROUP BY lvl
"""


_MAX_BASKET = 32  # self-join pair fan-out is basket², so cap it (the
# standard a-priori hot-basket guard; the SQL twins apply the same cut)


def _capped_baskets(sf_dir: str, mask: int = 3) -> "ray.data.Dataset":
    """Distinct (order, part) basket items on a 1/(mask+1) order slice,
    with baskets above ``_MAX_BASKET`` items DROPPED before any pair
    self-join — a mega-basket (one order holding 10⁴ items) would emit
    10⁸ pairs from a single join key otherwise, the same quadratic
    hot-key class the LSH star cap guards against. The size filter is a
    bounded per-order count + anti-filter (exchange sized by the basket-id
    set, not the items)."""
    import pandas as pd

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_slice(t: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [t["l_orderkey"], t["l_partkey"]], names=["o", "p"]
        )
        return t.filter(
            pc.equal(
                pc.bit_wise_and(t["o"], pa.scalar(mask, pa.int64())), 0
            )
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # orders are disjoint across buckets: the per-order distinct AND
        # the basket-size cap both complete inside one bucket — one
        # shuffle replaces the old distinct-aggregate + count-aggregate +
        # anti-join chain. Output groups stay whole per block (bucket
        # payload ≪ block size by the num_shuffle_buckets rule), so
        # downstream pair expansion can run map-side on whole blocks.
        d = g[["o", "p"]].drop_duplicates()
        if len(d):
            sz = d.groupby("o")["p"].transform("size")
            d = d[sz <= _MAX_BASKET]
        return pd.DataFrame(
            {
                "o": d["o"].to_numpy(np.int64),
                "p": d["p"].to_numpy(np.int64),
            }
        )

    return _dedup.bucket_groups(
        li.map_batches(order_slice, batch_format="pyarrow"), "o", fold,
        rows=li.count(),
    ).materialize()


def _basket_pair_counts(dis: "ray.data.Dataset") -> "ray.data.Dataset":
    """(u, v, support) over capped baskets: pair expansion runs MAP-SIDE on
    whole blocks (``_capped_baskets`` keeps every basket inside one block),
    so the only exchange is the (pair, partial-count) aggregate — baskets
    never shuffle again."""
    def expand(t: pa.Table) -> pa.Table:
        d = t.to_pandas()
        m = d.merge(d, on="o")
        m = m[m["p_x"] < m["p_y"]]
        return pa.table(
            {"u": m["p_x"].to_numpy(np.int64), "v": m["p_y"].to_numpy(np.int64)}
        )

    pairs = dis.map_batches(expand, batch_format="pyarrow", batch_size=None)
    return keyed_aggregate(pairs, ["u", "v"], {"support": ("u", "count")})


_SQL_CAPPED_BASKETS = """
li0 AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE (l_orderkey & 3) = 0
),
ok AS (SELECT o FROM li0 GROUP BY o HAVING COUNT(*) <= 32),
li AS (SELECT li0.o, li0.p FROM li0 JOIN ok USING (o))
"""


def q_frequent_pairs(sf_dir: str):
    """Market-basket frequent-itemset mining at the pairwise level:
    support counts of part pairs co-purchased in the same order (1/4
    order slice), min support 2. Engine = capped distinct baskets
    (see ``_capped_baskets`` — the hot-basket quadratic guard) with
    MAP-SIDE pair expansion on whole blocks (baskets never shuffle
    again; ``_basket_pair_counts``) + a pair-keyed count aggregate — the
    exchange moves (pair, partial-count) rows only. The a-priori
    candidate-pruning generalization to k-itemsets composes this same
    expand+count per level."""
    counted = _basket_pair_counts(_capped_baskets(sf_dir))
    return counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["support"], 2)),
        batch_format="pyarrow",
    )


SQL_FREQUENT_PAIRS = f"""
WITH {_SQL_CAPPED_BASKETS}
SELECT a.p AS u, b.p AS v, CAST(COUNT(*) AS BIGINT) AS support
FROM li a JOIN li b ON a.o = b.o AND a.p < b.p
GROUP BY a.p, b.p
HAVING COUNT(*) >= 2
"""


def q_regex_extract(sf_dir: str):
    """Vectorized regex capture-group extraction to a column (the classic
    log/text field-parsing map): first 'scan <word>' bigram per doc, RE2
    on both sides (pc.extract_regex ≡ DuckDB regexp_extract), map-only —
    zero shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def extract(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(
            pc.fill_null(t["text"], ""), pattern=r"scan (?P<w>\w+)"
        )
        word = pc.fill_null(pc.struct_field(m, "w"), "")
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "after_scan": word}
        )

    return ds.map_batches(extract, batch_format="pyarrow")


SQL_REGEX_EXTRACT = r"""
SELECT doc_id,
       COALESCE(regexp_extract(text, 'scan (\w+)', 1), '') AS after_scan
FROM documents
"""


def q_item_cf(sf_dir: str):
    """Item-item collaborative filtering (the classic Amazon-style
    neighborhood model): cosine similarity between parts over binary
    order-basket vectors — cos(i,j) = co(i,j)/√(c(i)·c(j)). All counts
    are exact distributed aggregates (map-side combined); the two
    count-attach joins are hash equi-joins keyed by item, and the cosine
    is computed map-side from pure-integer inputs in the same IEEE op
    order as the SQL twin (int product → double sqrt → divide → e6
    ROUND), so the fixed point matches bit-for-bit. Support floor 2
    bounds the output to the frequent-pair set; the basket-size cap
    (``_capped_baskets``) bounds the map-side pair fan-out."""
    dis = _capped_baskets(sf_dir)
    cnt = keyed_aggregate(
        dis.map_batches(
            lambda t: pa.Table.from_arrays([t["p"]], names=["p"]),
            batch_format="pyarrow",
        ),
        ["p"],
        {"c": ("p", "count")},
    )
    co = _basket_pair_counts(dis).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["u"], t["v"], t["support"]], names=["u", "v", "co"]
        ).filter(pc.greater_equal(t["support"], 2)),
        batch_format="pyarrow",
    )
    cu = cnt.map_batches(
        lambda t: pa.Table.from_arrays([t["p"], t["c"]], names=["u", "cu"]),
        batch_format="pyarrow",
    )
    cv = cnt.map_batches(
        lambda t: pa.Table.from_arrays([t["p"], t["c"]], names=["v", "cv"]),
        batch_format="pyarrow",
    )
    joined = safe_join(
        safe_join(co, cu, on=("u",), compact=True),
        cv, on=("v",), compact=True,
    )

    def cosine(t: pa.Table) -> pa.Table:
        co_ = t["co"].to_numpy(zero_copy_only=False).astype(np.float64)
        denom = np.sqrt(
            (
                t["cu"].to_numpy(zero_copy_only=False)
                * t["cv"].to_numpy(zero_copy_only=False)
            ).astype(np.float64)
        )
        cos_e6 = np.floor(1e6 * co_ / denom + 0.5).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "u": t["u"],
                "v": t["v"],
                "co": t["co"],
                "cos_e6": cos_e6,
            }
        )

    return joined.map_batches(cosine, batch_format="pyarrow")


SQL_ITEM_CF = f"""
WITH {_SQL_CAPPED_BASKETS},
cnt AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS c FROM li GROUP BY p),
co AS (
  SELECT a.p AS u, b.p AS v, CAST(COUNT(*) AS BIGINT) AS co
  FROM li a JOIN li b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING COUNT(*) >= 2
)
SELECT co.u, co.v, co.co,
       CAST(ROUND(1e6 * co.co / SQRT(CAST(cu.c * cv.c AS DOUBLE)))
            AS BIGINT) AS cos_e6
FROM co
JOIN cnt cu ON cu.p = co.u
JOIN cnt cv ON cv.p = co.v
"""


def q_minmax_normalize(sf_dir: str):
    """Group-wise min-max feature scaling (the standard preprocessing
    map): value → (v−min)/(max−min) within each event_type, e6 fixed
    point over exact integer cents so both engines divide the SAME exact
    integers. Tiny per-group min/max aggregate → broadcast → map-only
    second pass; zero-range groups emit 0."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    stats = keyed_aggregate(
        ds.map_batches(
            lambda t: pa.Table.from_pydict(
                {"event_type": t["event_type"], "vc": _cents(t["value"])}
            ),
            batch_format="pyarrow",
        ),
        ["event_type"], {"lo": ("vc", "min"), "hi": ("vc", "max")},
    ).to_pandas()  # one row per event_type — domain-bounded
    lo = dict(zip(stats["event_type"], stats["lo"]))
    hi = dict(zip(stats["event_type"], stats["hi"]))
    ref = ray.put((lo, hi))

    def norm(t: pa.Table) -> pa.Table:
        import pandas as pd

        lo_, hi_ = ray.get(ref)
        et = pd.Series(t["event_type"].to_pylist(), dtype=object)
        lo_v = et.map(lo_).to_numpy(dtype=np.int64)
        hi_v = et.map(hi_).to_numpy(dtype=np.int64)
        vc = _cents(t["value"]).to_numpy(zero_copy_only=False)
        rng = hi_v - lo_v
        safe = np.where(rng == 0, 1, rng)
        norm_e6 = np.where(
            rng == 0,
            0,
            np.floor(
                1e6 * (vc - lo_v).astype(np.float64)
                / safe.astype(np.float64)
                + 0.5
            ).astype(np.int64),
        )
        return pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "norm_e6": norm_e6,
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow")


SQL_MINMAX_NORMALIZE = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(ROUND(100 * value) AS BIGINT) AS vc
  FROM events
), w AS (
  SELECT event_id, event_type, vc,
         MIN(vc) OVER (PARTITION BY event_type) AS lo,
         MAX(vc) OVER (PARTITION BY event_type) AS hi
  FROM c
)
SELECT event_id, event_type,
       CASE WHEN hi = lo THEN 0
            ELSE CAST(FLOOR(1e6 * CAST(vc - lo AS DOUBLE)
                            / CAST(hi - lo AS DOUBLE) + 0.5) AS BIGINT)
       END AS norm_e6
FROM w
"""


def q_meta_extract(sf_dir: str):
    """Page-metadata scrape (title + description + og:type through a real
    <head>), ORACLE-CHECKED: pages are synthesized deterministically so
    SQL states the expected fields in closed form while the engine must
    recover them through the full DOM stack — tokenizer → tree builder →
    compiled ``title`` / ``meta[name=…]`` / ``meta[property=…]`` selectors
    → text/attribute reads, with the description round-tripping entity
    escaping. Map-only, zero shuffle."""
    from goose_parser_ray.functions.linkgraph import extract_meta

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    return extract_meta(ds)


SQL_META_EXTRACT = """
SELECT doc_id,
       'doc ' || CAST(doc_id AS VARCHAR) || ' - ' || source AS title,
       substr(COALESCE(text, ''), 1, 40) AS description,
       CASE WHEN doc_id % 2 = 0 THEN 'website' ELSE 'article' END AS og_type
FROM documents
"""


def q_sssp(sf_dir: str):
    """Bounded-round weighted shortest paths (synchronous Bellman-Ford,
    min-plus semiring) from the same seed set as q_bfs_levels, edge
    weight ((u+v)&7)+1, exactly 4 relaxation rounds — ORACLE-CHECKED
    against a 4-round unrolled CTE (the q_pagerank oracle pattern; a
    recursive walk CTE would enumerate every distinct path sum and blow
    up on a dense graph). Output: (node, d) = exact shortest distance
    using ≤4 edges."""
    from goose_parser_ray.functions.graph import sssp_bounded

    e0 = _copurchase_edges(sf_dir, mask=15)

    def weighted_both(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        w = ((u + v) & 7) + 1
        return pa.Table.from_pydict(
            {
                "u": np.concatenate([u, v]),
                "v": np.concatenate([v, u]),
                "w": np.concatenate([w, w]),
            }
        )

    und = e0.map_batches(weighted_both, batch_format="pyarrow").materialize()
    seeds = und.map_batches(
        lambda t: pa.Table.from_arrays([t["u"]], names=["node"]).filter(
            pc.equal(
                pc.bit_wise_and(t["u"], pa.scalar(63, pa.int64())), 0
            )
        ),
        batch_format="pyarrow",
    )
    return sssp_bounded(und, seeds, rounds=4)


def _sssp_round_sql(prev: str, cur: str) -> str:
    return f"""
{cur} AS (
  SELECT node, MIN(d) AS d FROM (
    SELECT node, d FROM {prev}
    UNION ALL
    SELECT e.v AS node, {prev}.d + e.w AS d
    FROM {prev} JOIN edges e ON e.u = {prev}.node
  ) GROUP BY node
)"""


SQL_SSSP = (
    """
WITH li AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
       WHERE (l_orderkey & 15) = 0),
e0 AS (SELECT a.p AS u, b.p AS v FROM li a JOIN li b
       ON a.o = b.o AND a.p < b.p),
edges AS (
  SELECT u, v, ((u + v) & 7) + 1 AS w FROM e0
  UNION ALL
  SELECT v, u, ((u + v) & 7) + 1 FROM e0
),
seeds AS (SELECT DISTINCT u AS node FROM edges WHERE (u & 63) = 0),
r0 AS (SELECT node, CAST(0 AS BIGINT) AS d FROM seeds),"""
    + ",".join(
        _sssp_round_sql(f"r{i}", f"r{i + 1}") for i in range(4)
    )
    + """
SELECT node, CAST(d AS BIGINT) AS d FROM r4
"""
)


def q_training_shards(sf_dir: str):
    """Flagship pretraining-layout composite, ORACLE-CHECKED end to end:
    quality gate (integer basis points) → exact dedup (min-id winner) →
    benchmark decontamination (8-gram broadcast probe) → tokenize → pack
    into 512-token examples (distributed prefix-sum scan) → per-shard
    rollup (shard = example-index mod 8). This is the full corpus →
    training-shards path a 100 TB run executes; every stage is the
    scale-shaped implementation verified individually, and the composed
    DuckDB twin nests the SAME generated quality SQL + decontamination
    CTEs + window prefix sum so the final shard layout is hash-compared,
    not just counted."""
    import pyarrow.parquet as pq

    from goose_parser_ray.functions.dedup import decontaminate_ngrams
    from goose_parser_ray.functions.packing import pack_sequences
    from goose_parser_ray.functions.textstats import add_quality_score

    bench_tbl = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    keep = pc.equal(
        pc.subtract(
            bench_tbl["doc_id"],
            pc.multiply(pc.divide(bench_tbl["doc_id"], 97), 97),
        ),
        0,
    )
    bench_texts = bench_tbl.filter(keep)["text"].to_pylist()
    n_rows_upper = pq.ParquetFile(
        f"{sf_dir}/documents.parquet"
    ).metadata.num_rows

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(
        lambda t: add_quality_score(t, round_digits=None),
        batch_format="pyarrow",
    ).map_batches(
        lambda t: pa.Table.from_arrays(
            [t["doc_id"], t["text"]], names=["doc_id", "text"]
        ).filter(pc.greater_equal(_cents(t["quality"], 10000), 5000)),
        batch_format="pyarrow",
    )
    ds = exact_dedup(ds, col="text", id_col="doc_id")
    ds = decontaminate_ngrams(ds, bench_texts, n=8)

    def tok(t: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64()
        )
        t = pa.Table.from_arrays([t["doc_id"], n], names=["doc_id", "n_tok"])
        return t.filter(pc.greater(t["n_tok"], 0))

    ds = ds.map_batches(tok, batch_format="pyarrow")
    packed = pack_sequences(
        ds, order_col="doc_id", size_col="n_tok", seq_len=512,
        n_rows=n_rows_upper,  # upper bound (pre-filter) sizes the scan buckets
    )

    def shard(t: pa.Table) -> pa.Table:
        ex = t["start_off"].to_numpy(zero_copy_only=False) // 512
        return pa.Table.from_pydict(
            {"shard": (ex % 8).astype(np.int64), "n_tok": t["n_tok"]}
        )

    return keyed_aggregate(
        packed.map_batches(shard, batch_format="pyarrow"), ["shard"],
        {"sum_tokens": ("n_tok", "sum"), "n_docs": ("shard", "count")},
    )


def _training_shards_sql() -> str:
    return rf"""
WITH qual AS ({_quality_sql()}),
gated AS (
  SELECT d.doc_id, d.text
  FROM documents d JOIN qual q USING (doc_id)
  WHERE q.quality_bp >= 5000
),
dedup AS (SELECT MIN(doc_id) AS doc_id FROM gated GROUP BY text),
dd AS (SELECT g.doc_id, g.text FROM dedup JOIN gated g USING (doc_id)),
bw AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS ws
  FROM documents WHERE doc_id % 97 = 0
),
bidx AS (
  SELECT doc_id, ws,
         unnest(generate_series(1, greatest(len(ws) - 7, 0))) AS i
  FROM bw
),
bg AS (SELECT DISTINCT array_to_string(ws[i:i+7], ' ') AS gram FROM bidx),
cw AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS ws FROM dd),
cidx AS (
  SELECT doc_id, ws,
         unnest(generate_series(1, greatest(len(ws) - 7, 0))) AS i
  FROM cw
),
cg AS (SELECT doc_id, array_to_string(ws[i:i+7], ' ') AS gram FROM cidx),
bad AS (SELECT DISTINCT cg.doc_id FROM cg JOIN bg USING (gram)),
clean AS (
  SELECT dd.doc_id, dd.text
  FROM dd LEFT JOIN bad USING (doc_id)
  WHERE bad.doc_id IS NULL
),
t AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tok
  FROM clean
),
f AS (SELECT * FROM t WHERE n_tok > 0),
o AS (
  SELECT doc_id, n_tok,
         CAST(COALESCE(SUM(n_tok) OVER (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS start_off
  FROM f
)
SELECT CAST((start_off // 512) % 8 AS BIGINT) AS shard,
       CAST(SUM(n_tok) AS BIGINT) AS sum_tokens,
       COUNT(*) AS n_docs
FROM o GROUP BY 1
"""


SQL_TRAINING_SHARDS = _training_shards_sql()


class TableExtract:
    """``q_html_table``'s kernel: one compiled row selector per instance."""

    def __init__(self) -> None:
        from goose_parser_ray.css.selector import compile_selector

        self._rows = compile_selector("table#data tr")

    def __call__(self, t: pa.Table) -> pa.Table:
        from goose_parser_ray.css.selector import select
        from goose_parser_ray.html import parse_html

        ids = t["doc_id"].to_pylist()
        out_id: list[int] = []
        out_k: list[int] = []
        out_v: list[int] = []
        for doc_id in ids:
            n = doc_id % 4 + 1
            body = "".join(
                f"<tr><td>{k}</td><td>{(doc_id * k) % 101}</td></tr>"
                for k in range(1, n + 1)
            )
            page = (
                f'<html><body><table id="data">{body}</table>'
                f"</body></html>"
            )
            doc = parse_html(page)
            for r in select(self._rows, doc):
                cells = [
                    c.text() for c in r.child_elements() if c.tag == "td"
                ]
                out_id.append(doc_id)
                out_k.append(int(cells[0]))
                out_v.append(int(cells[1]))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "row_idx": pa.array(out_k, pa.int64()),
                "val": pa.array(out_v, pa.int64()),
            }
        )


def q_html_table(sf_dir: str):
    """HTML <table> extraction to relational rows (the tabular-scrape op:
    goose-parser grid rules over real markup), ORACLE-CHECKED: each doc
    synthesizes a deterministic table (row k → cells (k, (doc_id·k)%101)
    for k = 1..doc_id%4+1), and the engine recovers the cells through the
    real DOM stack — tree builder (including implicit tbody handling) →
    ``table#data tr`` descendant selector → td child traversal — while
    the SQL twin states the expected rows in closed form (LATERAL
    generate_series). Map-only cached-kernel task."""
    ds = _read(sf_dir, "documents", ["doc_id"])
    return ds.map_batches(cached_kernel(TableExtract), batch_format="pyarrow")


SQL_HTML_TABLE = """
SELECT doc_id, CAST(k AS BIGINT) AS row_idx,
       CAST((doc_id * k) % 101 AS BIGINT) AS val
FROM documents, LATERAL unnest(generate_series(1, doc_id % 4 + 1)) AS t(k)
"""


def q_bootstrap_ci(sf_dir: str):
    """Poisson-bootstrap 95% CI for the mean order value (Chamandy et al.
    2012 — THE distributed resampling technique: per-row Poisson(1)
    weights seeded from (id, replicate) make resampling map-side; one
    tiny B-vector partial per batch, no shuffle). Deterministic and
    block-layout-invariant (pytest locks both). ORACLE-CHECKED (r5): the
    twin replays the splitmix64 draw bit-exactly in SQL (HUGEINT
    32-bit-split modular multiply) against EMBEDDED exact-double
    Poisson(1) thresholds — see ``_bootstrap_ci_sql``."""
    from goose_parser_ray.functions.stats import bootstrap_mean_ci

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {"o_orderkey": t["o_orderkey"], "cents": _cents(t["o_totalprice"])}
        ),
        batch_format="pyarrow",
    )
    return bootstrap_mean_ci(
        ds, id_col="o_orderkey", value_col="cents", n_reps=64
    )


def q_ab_test(sf_dir: str):
    """Experiment analysis: purchase-vs-view mean event value with a
    Poisson-bootstrap CI on the uplift (one map-side pass, both arms'
    replicate partials per batch). Deterministic + block-invariant like
    q_bootstrap_ci. ORACLE-CHECKED (r5): the twin replays the splitmix64
    Poisson draw bit-exactly in SQL — see ``_ab_test_sql``."""
    from goose_parser_ray.functions.stats import bootstrap_ab_uplift

    ds = _read(
        sf_dir, "events", ["event_id", "event_type", "value"]
    ).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "vc": _cents(t["value"]),
            }
        ),
        batch_format="pyarrow",
    )
    return bootstrap_ab_uplift(
        ds,
        id_col="event_id",
        value_col="vc",
        group_col="event_type",
        group_a="purchase",
        group_b="view",
        n_reps=64,
    )


def q_scc(sf_dir: str):
    """Strongly connected components of the directed ORDER PART-CYCLE
    graph (per order, distinct parts sorted by first linenumber chain
    u→v with a wrap-around edge closing the cycle — orders sharing parts
    weld their cycles into larger SCCs), on a 1/32 order slice so the
    graph fractures. ORACLE-CHECKED against a DuckDB recursive-CTE
    transitive closure + mutual-reachability min-label (exact SCC
    semantics, no approximation on either side). Engine side =
    ``graph.scc_distributed``: exact single-pass Tarjan on the driver
    under the 5M-edge guard; past it the Orzan FW-BW coloring rounds run
    on Datasets (tier parity in tests/test_scc.py). Edge build is the
    bucketed per-order fold (one mergesort + grouped shift per bucket),
    then a map-side-combined global edge distinct. Output: (scc,
    n_nodes) component-size table, scc = min part id."""
    import pandas as pd

    from goose_parser_ray.functions.graph import scc_distributed

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_linenumber"])

    def order_slice(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.equal(
                pc.bit_wise_and(t["l_orderkey"], pa.scalar(31, pa.int64())),
                0,
            )
        )
        return pa.Table.from_pydict(
            {"o": t["l_orderkey"], "p": t["l_partkey"], "ln": t["l_linenumber"]}
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "u": pd.Series([], dtype=np.int64),
                    "v": pd.Series([], dtype=np.int64),
                }
            )
        # distinct (o, p) with first linenumber, ordered (ln, p) per order
        g = (
            g.groupby(["o", "p"], as_index=False, sort=False)["ln"]
            .min()
            .sort_values(["o", "ln", "p"], kind="mergesort")
            .reset_index(drop=True)
        )
        nxt = g.groupby("o")["p"].shift(-1)
        first = g.groupby("o")["p"].transform("first")
        v = nxt.fillna(first)  # wrap-around edge closes each order's cycle
        keep = g["p"].to_numpy() != v.to_numpy()
        e = pd.DataFrame(
            {
                "u": g["p"].to_numpy(np.int64)[keep],
                "v": v.to_numpy(np.int64)[keep],
            }
        )
        return e.drop_duplicates()

    edges = _dedup.bucket_groups(
        ds.map_batches(order_slice, batch_format="pyarrow"), "o", fold,
        rows=ds.count(),
    )
    edges = keyed_aggregate(
        edges, ["u", "v"],
        {"k": ("u", "count")},
    ).drop_columns(["k"])
    labels = scc_distributed(edges, cols=("u", "v"))
    return keyed_aggregate(
        labels.select_columns(["scc"]), ["scc"],
        {"n_nodes": ("scc", "count")},
    )


SQL_SCC = """
WITH RECURSIVE
li AS (SELECT l_orderkey AS o, l_partkey AS p, MIN(l_linenumber) AS ln
       FROM lineitem WHERE (l_orderkey & 31) = 0 GROUP BY o, p),
seq AS (SELECT o, p,
               ROW_NUMBER() OVER (PARTITION BY o ORDER BY ln, p) AS r,
               COUNT(*) OVER (PARTITION BY o) AS n
        FROM li),
edges AS (SELECT DISTINCT a.p AS u, b.p AS v FROM seq a JOIN seq b
          ON a.o = b.o AND b.r = (a.r % a.n) + 1 AND a.p <> b.p),
reach(src, dst) AS (
  SELECT u, v FROM edges
  UNION
  SELECT r.src, e.v FROM reach r JOIN edges e ON e.u = r.dst
),
mut AS (SELECT a.src AS x, a.dst AS y FROM reach a JOIN reach b
        ON a.src = b.dst AND a.dst = b.src),
nodes AS (SELECT u AS node FROM edges UNION SELECT v FROM edges),
lab AS (SELECT node, MIN(y) AS m FROM
        (SELECT node, node AS y FROM nodes
         UNION ALL SELECT x, y FROM mut) GROUP BY node)
SELECT CAST(m AS BIGINT) AS scc, COUNT(*) AS n_nodes FROM lab GROUP BY m
"""


def q_curriculum_order(sf_dir: str):
    """Curriculum training order, ORACLE-CHECKED: docs are banded by a
    quality proxy (token count, 4 domain-relative bands — shortest to
    longest, the easy-to-hard schedule) and given ONE global contiguous
    position 1..N that walks the bands in order while visiting each
    band's members in a deterministic hash-shuffled order (Knuth
    multiplicative hash of doc_id, doc_id tiebreak) — the exact ordering
    a curriculum dataloader consumes, reproducible across runs and
    resumable from any position. The position is the dense rank of
    (band·2³¹ + hash, doc_id) from the ordered scan
    ``packing.global_scan_offsets``, plus one: no single-node sort owner,
    group payload ~rows/ranges at any corpus size."""
    KNUTH = 2654435761
    HMOD = 1 << 31

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def featurize(t: pa.Table) -> pa.Table:
        q = pc.list_value_length(
            pc.split_pattern(t["text"], " ")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": d, "q": q, "h": (d * KNUTH) % HMOD})

    # three int64 columns, read four times (max, sample, totals, scan):
    # one text pass instead of four
    feats = ds.map_batches(featurize, batch_format="pyarrow").materialize()
    max_q = int(feats.max("q"))

    def band_key(t: pa.Table) -> pa.Table:
        band = t["q"].to_numpy(zero_copy_only=False) * 4 // (max_q + 1)
        key = band * HMOD + t["h"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"], "band": band, "__key": key})

    ranked = global_scan_offsets(
        feats.map_batches(band_key, batch_format="pyarrow"),
        order_col=["__key", "doc_id"],
        offset_col="pos",
    )
    return ranked.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "band": t["band"],
                "pos": pc.add(t["pos"], 1),
            }
        ),
        batch_format="pyarrow",
    )


SQL_CURRICULUM_ORDER = """
WITH f AS (
  SELECT doc_id,
         LEN(string_split(text, ' ')) AS q,
         (doc_id * 2654435761) % 2147483648 AS h
  FROM documents
),
b AS (
  SELECT doc_id, h,
         q * 4 // ((SELECT MAX(q) FROM f) + 1) AS band
  FROM f
)
SELECT doc_id, band,
       CAST(ROW_NUMBER() OVER (ORDER BY band, h, doc_id) AS BIGINT) AS pos
FROM b
"""


def q_pps_sample(sf_dir: str):
    """Systematic PPS sampling (probability proportional to size — the
    survey-sampling workhorse for weighted corpus draws), ORACLE-CHECKED
    with exact integers: documents are walked in doc_id order with their
    character counts as weights, and every crossing of a step-S boundary
    in the cumulative weight selects the crossing doc (a doc heavier
    than S is selected multiple times — emitted as ``times_selected``).
    Deterministic offset-0 variant (a production draw would add a seeded
    start < S; the arithmetic is identical). The cumulative weight before
    each doc is the exclusive prefix sum from the ordered scan
    ``packing.global_scan_offsets``, so the GLOBAL prefix sum is exact
    with no single-node scan owner; S comes from one sum of the weights.
    Twin: one window cumsum and the same floor-division crossing rule."""
    N_SAMPLES = 64

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def featurize(t: pa.Table) -> pa.Table:
        w = pc.cast(pc.utf8_length(pc.fill_null(t["text"], "")), pa.int64())
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()), "w": w})

    # two int64 columns, read four times (sum, sample, totals, scan): one
    # text pass instead of four
    feats = ds.map_batches(featurize, batch_format="pyarrow").materialize()
    step = max(1, int(feats.sum("w") or 0) // N_SAMPLES)
    scanned = global_scan_offsets(
        feats, order_col="doc_id", size_col="w", offset_col="before"
    )

    def select(t: pa.Table) -> pa.Table:
        w = t["w"].to_numpy(zero_copy_only=False)
        before = t["before"].to_numpy(zero_copy_only=False)
        sel = (before + w) // step - before // step
        keep = sel > 0
        return pa.table(
            {
                "doc_id": t["doc_id"].to_numpy(zero_copy_only=False)[keep],
                "times_selected": sel[keep],
            }
        )

    return scanned.map_batches(select, batch_format="pyarrow")


SQL_PPS_SAMPLE = """
WITH w AS (
  SELECT doc_id, CAST(length(COALESCE(text, '')) AS BIGINT) AS w
  FROM documents
),
c AS (
  SELECT doc_id, w,
         SUM(w) OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING) AS cum_after
  FROM w
),
s AS (
  SELECT doc_id, w, cum_after, cum_after - w AS cum_before,
         GREATEST(1, (SELECT SUM(w) FROM w) // 64) AS step
  FROM c
)
SELECT doc_id,
       CAST(cum_after // step - cum_before // step AS BIGINT)
         AS times_selected
FROM s
WHERE cum_after // step - cum_before // step > 0
"""


# ---------------------------------------------------------------------------
# generated Poisson-bootstrap oracles (r5: rows-only -> hash-checked)
# ---------------------------------------------------------------------------
#
# The "seeded hash draw has no SQL twin" claim died in r5: splitmix64 is
# exact 64-bit integer arithmetic, which SQL can do via HUGEINT with a
# 32-bit-split modular multiply (verified bit-equal to numpy on the full
# pipeline), and the Poisson(1) inverse-CDF thresholds are EMBEDDED as
# exact float64 reprs — both engines compare the identical doubles, so
# there is no libm parity risk anywhere. u = mix64(id*B + r)/2^64 is a
# round-to-nearest cast on both sides.


def _sql_mix64(x: str) -> str:
    """SQL expression computing functions/dedup._mix64 over HUGEINT.

    Each step reads its input 2-3 times, so each step binds it once to a
    lambda variable (``list_transform([e], v -> ...)[1]``); pasting the
    input instead grows the SQL 72-fold, and DuckDB evaluates every copy."""

    def modmul(e: str, c: int) -> str:
        cl, ch = c & 0xFFFFFFFF, c >> 32
        return (
            f"((({e}) % 4294967296) * {cl} + "
            f"(((({e}) % 4294967296) * {ch} + "
            f"(({e}) // 4294967296) * {cl}) % 4294967296) * 4294967296"
            f") % 18446744073709551616"
        )

    def xsh(e: str) -> str:
        return (
            f"CAST(xor(CAST(({e}) AS UBIGINT), "
            f"CAST(({e}) AS UBIGINT) >> 33) AS HUGEINT)"
        )

    steps = (
        xsh,
        lambda v: modmul(v, 0xFF51AFD7ED558CCD),
        xsh,
        lambda v: modmul(v, 0xC4CEB9FE1A85EC53),
        xsh,
    )
    e = f"CAST(({x}) AS HUGEINT)"
    for i, step in enumerate(steps):
        e = f"list_transform([{e}], m{i} -> {step(f'm{i}')})[1]"
    return e


def _sql_pois1_weight(u: str) -> str:
    """Poisson(1) draw = searchsorted(CDF, u) = #thresholds strictly < u,
    thresholds embedded as the EXACT doubles numpy uses. ``u`` is bound
    once to a lambda variable, as in :func:`_sql_mix64`."""
    import math as _m

    cdf = []
    acc = 0.0
    for k in range(9):
        acc += _m.exp(-1.0) / _m.factorial(k)
        cdf.append(acc)
    draw = " + ".join(f"(CASE WHEN u > {t!r} THEN 1 ELSE 0 END)" for t in cdf)
    return f"list_transform([{u}], u -> {draw})[1]"


def _bootstrap_ci_sql() -> str:
    m = _sql_mix64("b.id * 64 + r.r")
    u = f"CAST(({m}) AS DOUBLE) / 18446744073709551616.0"
    w = _sql_pois1_weight(u)
    return f"""
WITH b AS (
  SELECT o_orderkey AS id,
         CAST(ROUND(100 * o_totalprice) AS BIGINT) AS v
  FROM orders
),
d AS (
  SELECT b.id, b.v, r.r, CAST({w} AS BIGINT) AS w
  FROM b, UNNEST(generate_series(0, 63)) AS r(r)
),
reps AS (
  SELECT r, SUM(w * v) AS s, SUM(w) AS c FROM d GROUP BY r
),
means AS (
  SELECT (s * 10000) // c AS m_e4,
         ROW_NUMBER() OVER (ORDER BY (s * 10000) // c) - 1 AS i,
         COUNT(*) OVER () AS nr
  FROM reps WHERE c > 0
),
tot AS (SELECT COUNT(*) AS n, SUM(v) AS tv FROM b)
SELECT t.n AS n,
       CAST((t.tv * 10000) // t.n AS BIGINT) AS mean_e4,
       CAST((SELECT m_e4 FROM means
             WHERE i = CAST(FLOOR(0.025 * nr) AS BIGINT)) AS BIGINT)
         AS ci_lo_e4,
       CAST((SELECT m_e4 FROM means
             WHERE i = LEAST(nr - 1, CAST(CEIL(0.975 * nr) AS BIGINT)))
         AS BIGINT) AS ci_hi_e4
FROM tot t
"""


SQL_BOOTSTRAP_CI = _bootstrap_ci_sql()


def _ab_test_sql() -> str:
    m = _sql_mix64("b.id * 64 + r.r")
    u = f"CAST(({m}) AS DOUBLE) / 18446744073709551616.0"
    w = _sql_pois1_weight(u)
    return f"""
WITH b AS (
  SELECT event_id AS id, event_type,
         CAST(ROUND(100 * value) AS BIGINT) AS v
  FROM events WHERE event_type IN ('purchase', 'view')
),
d AS (
  SELECT b.id, b.event_type, b.v, r.r, CAST({w} AS BIGINT) AS w
  FROM b, UNNEST(generate_series(0, 63)) AS r(r)
),
reps AS (
  SELECT r,
         SUM(CASE WHEN event_type = 'purchase' THEN w * v ELSE 0 END) AS s_a,
         SUM(CASE WHEN event_type = 'purchase' THEN w ELSE 0 END) AS c_a,
         SUM(CASE WHEN event_type = 'view' THEN w * v ELSE 0 END) AS s_b,
         SUM(CASE WHEN event_type = 'view' THEN w ELSE 0 END) AS c_b
  FROM d GROUP BY r
),
diffs AS (
  SELECT (s_a * 10000) // c_a - (s_b * 10000) // c_b AS dm,
         ROW_NUMBER() OVER (
             ORDER BY (s_a * 10000) // c_a - (s_b * 10000) // c_b) - 1 AS i,
         COUNT(*) OVER () AS nr
  FROM reps WHERE c_a > 0 AND c_b > 0
),
tots AS (
  SELECT COUNT(*) FILTER (WHERE event_type = 'purchase') AS n_a,
         COUNT(*) FILTER (WHERE event_type = 'view') AS n_b,
         SUM(v) FILTER (WHERE event_type = 'purchase') AS tot_a,
         SUM(v) FILTER (WHERE event_type = 'view') AS tot_b
  FROM b
),
ci AS (
  SELECT (SELECT dm FROM diffs
          WHERE i = CAST(FLOOR(0.025 * nr) AS BIGINT)) AS lo,
         (SELECT dm FROM diffs
          WHERE i = LEAST(nr - 1, CAST(CEIL(0.975 * nr) AS BIGINT))) AS hi
)
SELECT t.n_a AS n_a, t.n_b AS n_b,
       CAST((t.tot_a * 10000) // GREATEST(1, t.n_a) AS BIGINT) AS mean_a_e4,
       CAST((t.tot_b * 10000) // GREATEST(1, t.n_b) AS BIGINT) AS mean_b_e4,
       CAST(ci.lo AS BIGINT) AS diff_lo_e4,
       CAST(ci.hi AS BIGINT) AS diff_hi_e4,
       (ci.lo > 0 OR ci.hi < 0) AS significant
FROM tots t, ci
"""


SQL_AB_TEST = _ab_test_sql()
