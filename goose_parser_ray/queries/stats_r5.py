"""Round-5 exact-integer statistics: Spearman rank correlation and the
Mann–Kendall trend test.

Both are classically "float" statistics re-expressed so EVERY emitted
column is an exact int64 — tie-aware doubled ranks (min+max rank is an
integer even when the average rank is x.5) and the raw S/variance
integers of Mann–Kendall — which is what lets DuckDB hash-match them
with zero float-parity risk. Upstream context: goose-parser has no
analytics; this extends the quality-audit family (SURVEY §2.6 S22/S31
Benford/Theil–Sen) with the two standard nonparametric monitors a
corpus pipeline runs over its quality scores and daily volumes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from goose_parser_ray.functions.relational import pre_aggregated_sum
from goose_parser_ray.queries._shared import _read


def q_spearman(sf_dir: str):
    """Spearman rank correlation between document length (n_chars) and
    whitespace token count, ORACLE-CHECKED with exact integers: ranks are
    tie-aware DOUBLED ranks r2 = min_rank + max_rank (always integral),
    computed distributed from the bounded value-count tables (one tiny
    aggregation per variable, cum-sum on the driver, dict broadcast into
    a single map pass emitting int64 moment partials). Emitted columns
    are the exact Pearson-on-ranks building blocks — numerator
    n·Σxy − Σx·Σy and both denominator squares — which determine ρ but
    stay integers. Scale shape: two bounded-domain aggregations + one
    map pass; no row-level shuffle."""
    import pandas as pd

    ds = _read(sf_dir, "documents", ["n_chars", "text"])

    def vals(t: pa.Table) -> pa.Table:
        ntok = pc.cast(
            pc.count_substring_regex(t["text"], pattern=r"\S+"), pa.int64()
        )
        return pa.Table.from_pydict(
            {"x": pc.cast(t["n_chars"], pa.int64()), "y": ntok}
        )

    base = ds.map_batches(vals, batch_format="pyarrow").materialize()

    def rank2_map(col: str) -> dict:
        vc = (
            pre_aggregated_sum(
                base.select_columns([col]), keys=[col], sums={},
                count_alias="n",
            )
            .to_pandas()
            .sort_values(col)
        )
        cum = vc["n"].cumsum().to_numpy()
        lo = np.concatenate(([0], cum[:-1])) + 1  # min rank
        return dict(zip(vc[col].to_numpy(), (lo + cum).astype(np.int64)))

    r2x_ref = ray.put(rank2_map("x"))
    r2y_ref = ray.put(rank2_map("y"))

    def moments(t: pa.Table) -> pa.Table:
        mx, my = ray.get(r2x_ref), ray.get(r2y_ref)
        x = np.array([mx[v] for v in t["x"].to_pylist()], np.int64)
        y = np.array([my[v] for v in t["y"].to_pylist()], np.int64)
        return pa.Table.from_pydict(
            {
                "n": [len(x)],
                "sx": [int(x.sum())],
                "sy": [int(y.sum())],
                "sxx": [int((x * x).sum())],
                "syy": [int((y * y).sum())],
                "sxy": [int((x * y).sum())],
            }
        )

    m = base.map_batches(moments, batch_format="pyarrow").to_pandas().sum()
    n = int(m["n"])
    num = n * int(m["sxy"]) - int(m["sx"]) * int(m["sy"])
    denx = n * int(m["sxx"]) - int(m["sx"]) ** 2
    deny = n * int(m["syy"]) - int(m["sy"]) ** 2
    return pd.DataFrame(
        {
            "n": [n],
            "num": [num],
            "den_x": [denx],
            "den_y": [deny],
            # sign is integer-derivable; magnitude lives in the 3 ints
            "rho_sign": [int(np.sign(num))],
        }
    )


SQL_SPEARMAN = r"""
WITH v AS (
  SELECT CAST(n_chars AS BIGINT) AS x,
         CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS y
  FROM documents
),
r AS (
  SELECT
    2 * RANK() OVER (ORDER BY x) + COUNT(*) OVER (PARTITION BY x) - 1 AS rx,
    2 * RANK() OVER (ORDER BY y) + COUNT(*) OVER (PARTITION BY y) - 1 AS ry
  FROM v
),
m AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS n,
         SUM(rx) AS sx, SUM(ry) AS sy,
         SUM(rx * rx) AS sxx, SUM(ry * ry) AS syy,
         SUM(rx * ry) AS sxy
  FROM r
)
SELECT n,
       CAST(n * sxy - sx * sy AS BIGINT) AS num,
       CAST(n * sxx - sx * sx AS BIGINT) AS den_x,
       CAST(n * syy - sy * sy AS BIGINT) AS den_y,
       CAST(SIGN(n * sxy - sx * sy) AS BIGINT) AS rho_sign
FROM m
"""


def q_mann_kendall(sf_dir: str):
    """Mann–Kendall trend test over the DAILY event-value series,
    ORACLE-CHECKED with exact integers: S = Σ_{i<j} sign(v_j − v_i) over
    day order, plus the tie-corrected variance as 18·Var (an exact
    integer: n(n−1)(2n+5) − Σ t(t−1)(2t+5)). The day series is built by
    one bounded exchange (per-day cent-sum partials, the gapfill
    pattern); the O(days²) pair scan runs on the driver over the
    day-bounded table (≈90 days — never row-bounded). The standard
    pre-deployment drift monitor for pipeline volumes."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = us // 86_400_000_000
        v = np.round(
            100 * t["value"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        df = pd.DataFrame({"day": day, "v": v}).groupby("day", as_index=False)[
            "v"
        ].sum()
        return pa.Table.from_pandas(df, preserve_index=False)

    series = (
        pre_aggregated_sum(
            ds.map_batches(partial, batch_format="pyarrow"),
            keys=["day"],
            sums={"v": "v"},
        )
        .to_pandas()
        .sort_values("day")
    )
    v = series["v"].to_numpy(np.int64)
    n = len(v)
    diff_sign = np.sign(v[None, :] - v[:, None])
    s_stat = int(np.triu(diff_sign, 1).sum())
    _, counts = np.unique(v, return_counts=True)
    ties = int(
        sum(int(t) * (int(t) - 1) * (2 * int(t) + 5) for t in counts if t > 1)
    )
    var18 = n * (n - 1) * (2 * n + 5) - ties
    return pd.DataFrame(
        {
            "n_days": [n],
            "s_stat": [s_stat],
            "var18": [int(var18)],
            "trend": [int(np.sign(s_stat))],
        }
    )


SQL_MANN_KENDALL = """
WITH d AS (
  SELECT CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
         SUM(CAST(ROUND(100 * value) AS BIGINT)) AS v
  FROM events GROUP BY 1
),
pairs AS (
  SELECT SIGN(b.v - a.v) AS sg
  FROM d a JOIN d b ON b.day > a.day
),
s AS (SELECT CAST(COALESCE(SUM(sg), 0) AS BIGINT) AS s_stat FROM pairs),
nn AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d),
ties AS (
  SELECT CAST(COALESCE(SUM(t * (t - 1) * (2 * t + 5)), 0) AS BIGINT) AS tt
  FROM (SELECT COUNT(*) AS t FROM d GROUP BY v HAVING COUNT(*) > 1)
)
SELECT nn.n AS n_days, s.s_stat,
       CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - ties.tt AS BIGINT) AS var18,
       CAST(SIGN(s.s_stat) AS BIGINT) AS trend
FROM nn, s, ties
"""


def q_prf_metrics(sf_dir: str):
    """Per-class precision/recall/F1 building blocks for the language-ID
    classifier, ORACLE-CHECKED with exact integers: the actor-pool
    predictions (same LangIdActor as q_lang_id) are reduced map-side to
    the (label, prediction) confusion counts, and per language the exact
    tp / fp / fn integers are emitted — precision = tp/(tp+fp) and
    recall = tp/(tp+fn) are fully determined by them without shipping a
    float. The twin nests the SAME generated stopword classifier SQL
    (the q_langid_confusion discipline). The eval step every learned
    gate needs before it filters a corpus."""
    import pandas as pd

    from goose_parser_ray.functions.textstats import LangIdActor

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    pred = ds.map_batches(
        lambda t: LangIdActor()(t), batch_format="pyarrow"
    )
    conf = pre_aggregated_sum(
        pred.map_batches(
            lambda t: pa.Table.from_arrays(
                [t["lang"], t["lang_pred"]], names=["lang", "lang_pred"]
            ),
            batch_format="pyarrow",
        ),
        keys=["lang", "lang_pred"],
        sums={},
        count_alias="n",
    ).to_pandas()  # |langs|^2-bounded
    langs = sorted(set(conf["lang"]) | set(conf["lang_pred"]))
    rows = []
    for lg in langs:
        tp = int(conf[(conf["lang"] == lg) & (conf["lang_pred"] == lg)]["n"].sum())
        fp = int(conf[(conf["lang"] != lg) & (conf["lang_pred"] == lg)]["n"].sum())
        fn = int(conf[(conf["lang"] == lg) & (conf["lang_pred"] != lg)]["n"].sum())
        rows.append({"lang": lg, "tp": tp, "fp": fp, "fn": fn})
    return pd.DataFrame(rows)


def _prf_metrics_sql() -> str:
    from goose_parser_ray.queries.text_media import _langid_sql

    inner = _langid_sql().strip()
    return f"""
WITH pred AS ({inner}),
conf AS (
  SELECT d.lang, pred.lang_pred, COUNT(*) AS n
  FROM documents d JOIN pred ON d.doc_id = pred.doc_id
  GROUP BY d.lang, pred.lang_pred
),
langs AS (
  SELECT lang FROM conf UNION SELECT lang_pred FROM conf
)
SELECT l.lang,
       CAST(COALESCE(SUM(CASE WHEN c.lang = l.lang
                               AND c.lang_pred = l.lang
                              THEN c.n END), 0) AS BIGINT) AS tp,
       CAST(COALESCE(SUM(CASE WHEN c.lang <> l.lang
                               AND c.lang_pred = l.lang
                              THEN c.n END), 0) AS BIGINT) AS fp,
       CAST(COALESCE(SUM(CASE WHEN c.lang = l.lang
                               AND c.lang_pred <> l.lang
                              THEN c.n END), 0) AS BIGINT) AS fn
FROM langs l LEFT JOIN conf c
  ON c.lang = l.lang OR c.lang_pred = l.lang
GROUP BY l.lang
"""


SQL_PRF_METRICS = _prf_metrics_sql()
