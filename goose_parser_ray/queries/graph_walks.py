"""Graph walks + similarity diagnostics: personalized PageRank, random walks, assortativity, association rules, degree histograms, dup-cluster sizes, n-gram Jaccard.

Split from ``queries/diagnostics.py`` (r5 item 6).
See package docstring for parity rules."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import pre_aggregated_sum

from goose_parser_ray.functions import dedup as _dedup
from goose_parser_ray.queries._shared import _cents, _read

from goose_parser_ray.queries.graph_mlstats import _copurchase_edges
from goose_parser_ray.queries.versioning_graph2 import (
    _SQL_CAPPED_BASKETS,
    _basket_pair_counts,
    _capped_baskets,
)


def q_ppr(sf_dir: str):
    """PERSONALIZED PageRank (teleport restricted to a seed set — the
    recommendation/random-walk-with-restart variant): seeds are the
    suppliers with suppkey % 10 == 0; mass teleports back to them, so
    ranks measure proximity to the seed neighborhood rather than global
    centrality. Same tiered engine as q_pagerank (driver bincount under
    the pair guard, per-round join + broadcast-seed base map past it);
    fixed 3 rounds so the oracle unrolls identically."""
    from goose_parser_ray.functions.graph import pagerank_distributed

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"])

    # deterministic small seed set: suppkey % 10 == 0
    def pick_seeds(t: pa.Table) -> pa.Table:
        sk = pc.cast(t["l_suppkey"], pa.int64())
        keep = pc.equal(
            pc.subtract(
                sk,
                pc.multiply(
                    pc.divide(sk, pa.scalar(10, pa.int64())),
                    pa.scalar(10, pa.int64()),
                ),
            ),
            pa.scalar(0, pa.int64()),
        )
        return pa.Table.from_pydict({"node": sk.filter(keep)})

    seeds = ds.map_batches(pick_seeds, batch_format="pyarrow")
    ranks = pagerank_distributed(
        ds, src="l_suppkey", dst="l_partkey",
        damping=0.85, max_iters=3, tol=0.0,
        teleport_seeds=seeds,
    )
    return (
        ranks.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t["node"], "rank_e6": _cents(t["rank"], 1_000_000)}
            ),
            batch_format="pyarrow",
        )
        .sort(["rank_e6", "node"], descending=[True, False])
        .limit(20)
    )


SQL_PPR = """
WITH edges AS (
  SELECT CAST(l_suppkey AS BIGINT) AS u, CAST(l_partkey AS BIGINT) AS v
  FROM lineitem
),
deg AS (SELECT u, COUNT(*) AS deg FROM edges GROUP BY u),
nodes AS (SELECT u AS node FROM edges UNION SELECT v FROM edges),
seeds AS (SELECT DISTINCT u AS node FROM edges WHERE u % 10 = 0),
ns AS (SELECT COUNT(*) AS n FROM seeds),
t AS (SELECT nodes.node,
             CASE WHEN seeds.node IS NOT NULL
                  THEN 1.0 / (SELECT n FROM ns) ELSE 0.0 END AS tv
      FROM nodes LEFT JOIN seeds ON nodes.node = seeds.node),
r0 AS (SELECT node, tv AS rank FROM t),
d1 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r0 r JOIN deg ON deg.u = r.node),
c1 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r0 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r1 AS (SELECT t.node,
              (0.15 + 0.85 * (SELECT dm FROM d1)) * t.tv
              + 0.85 * COALESCE(c1.c, 0) AS rank
       FROM t LEFT JOIN c1 ON t.node = c1.node),
d2 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r1 r JOIN deg ON deg.u = r.node),
c2 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r1 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r2 AS (SELECT t.node,
              (0.15 + 0.85 * (SELECT dm FROM d2)) * t.tv
              + 0.85 * COALESCE(c2.c, 0) AS rank
       FROM t LEFT JOIN c2 ON t.node = c2.node),
d3 AS (SELECT 1.0 - COALESCE(SUM(r.rank), 0) AS dm
       FROM r2 r JOIN deg ON deg.u = r.node),
c3 AS (SELECT e.v AS node, SUM(r.rank / deg.deg) AS c
       FROM edges e JOIN r2 r ON e.u = r.node JOIN deg ON deg.u = e.u
       GROUP BY e.v),
r3 AS (SELECT t.node,
              (0.15 + 0.85 * (SELECT dm FROM d3)) * t.tv
              + 0.85 * COALESCE(c3.c, 0) AS rank
       FROM t LEFT JOIN c3 ON t.node = c3.node)
SELECT node, CAST(ROUND(rank * 1000000) AS BIGINT) AS rank_e6
FROM r3 ORDER BY rank_e6 DESC, node LIMIT 20
"""


def q_random_walks(sf_dir: str):
    """Deterministic random-walk corpus sampling (the node2vec p=q=1
    walk generator that feeds graph-embedding training), ORACLE-CHECKED:
    3-step walks over the undirected part co-purchase graph from every
    seed (part % 50 == 0), neighbor choice = an integer hash rule both
    engines state verbatim (``functions/graph.py:random_walks``). The
    SQL twin unrolls the three hops as ranked-adjacency joins."""
    from goose_parser_ray.functions.graph import random_walks

    und = _copurchase_edges(sf_dir, mask=15).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "u": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                ),
                "v": pa.concat_arrays(
                    [t["v"].combine_chunks(), t["u"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def pick_seeds(t: pa.Table) -> pa.Table:
        keep = pc.equal(
            pc.subtract(
                t["u"],
                pc.multiply(
                    pc.divide(t["u"], pa.scalar(50, pa.int64())),
                    pa.scalar(50, pa.int64()),
                ),
            ),
            pa.scalar(0, pa.int64()),
        )
        return pa.Table.from_pydict({"node": t["u"].filter(keep)})

    und = und.materialize()
    seeds = und.map_batches(pick_seeds, batch_format="pyarrow")
    return random_walks(und, seeds, steps=3)


SQL_RANDOM_WALKS = """
WITH li AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE (l_orderkey & 15) = 0
),
e0 AS (SELECT a.p AS u, b.p AS v FROM li a JOIN li b
       ON a.o = b.o AND a.p < b.p),
edges AS (SELECT DISTINCT u, v FROM
          (SELECT u, v FROM e0 UNION ALL SELECT v, u FROM e0)),
ranked AS (
  SELECT u, v,
         ROW_NUMBER() OVER (PARTITION BY u ORDER BY v) - 1 AS r,
         COUNT(*) OVER (PARTITION BY u) AS deg
  FROM edges
),
seeds AS (SELECT DISTINCT u AS node FROM edges WHERE u % 50 = 0),
w0 AS (SELECT ROW_NUMBER() OVER (ORDER BY node) - 1 AS walk_id, node
       FROM seeds),
s1 AS (SELECT w.walk_id, rk.v AS node FROM w0 w JOIN ranked rk
       ON rk.u = w.node
      AND rk.r = ((w.walk_id * 2654435761 + 1 * 40503 + w.node * 69069)
                  % 2147483647) % rk.deg),
s2 AS (SELECT w.walk_id, rk.v AS node FROM s1 w JOIN ranked rk
       ON rk.u = w.node
      AND rk.r = ((w.walk_id * 2654435761 + 2 * 40503 + w.node * 69069)
                  % 2147483647) % rk.deg),
s3 AS (SELECT w.walk_id, rk.v AS node FROM s2 w JOIN ranked rk
       ON rk.u = w.node
      AND rk.r = ((w.walk_id * 2654435761 + 3 * 40503 + w.node * 69069)
                  % 2147483647) % rk.deg)
SELECT walk_id, CAST(0 AS BIGINT) AS step, node FROM w0
UNION ALL SELECT walk_id, 1, node FROM s1
UNION ALL SELECT walk_id, 2, node FROM s2
UNION ALL SELECT walk_id, 3, node FROM s3
"""


def q_assortativity(sf_dir: str):
    """Degree assortativity of the part co-purchase graph (Newman's r —
    do hubs link to hubs?). Every moment is an EXACT int64 sum over the
    symmetric edge expansion (Σx, Σxy, Σx² with x = deg(u), y = deg(v)),
    emitted alongside r_e6 whose one sqrt is mirrored op-for-op by the
    twin (the wilson_ctr discipline). Scale shape: degree attach is one
    node-keyed join against the node-bounded degree table; moments
    map-side combine to ONE row."""
    und = _copurchase_edges(sf_dir, mask=15).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "u": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                ),
                "v": pa.concat_arrays(
                    [t["v"].combine_chunks(), t["u"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    deg = pre_aggregated_sum(
        und.map_batches(
            lambda t: pa.Table.from_pydict({"u": t["u"]}),
            batch_format="pyarrow",
        ),
        keys=["u"], sums={}, count_alias="deg",
    ).materialize()
    npart = _dedup._default_join_partitions()
    from goose_parser_ray.functions.relational import compact_for_join

    j = (
        und.join(
            compact_for_join(deg, npart), join_type="inner",
            num_partitions=npart, on=("u",),
        )
        .join(
            compact_for_join(
                deg.map_batches(
                    lambda t: pa.Table.from_pydict(
                        {"v": t["u"], "deg_v": t["deg"]}
                    ),
                    batch_format="pyarrow",
                ),
                npart,
            ),
            join_type="inner", num_partitions=npart, on=("v",),
        )
    )

    def moments(t: pa.Table) -> pa.Table:
        x = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = t["deg_v"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "m": pa.array([len(x)], pa.int64()),
                "sx": pa.array([int(x.sum())], pa.int64()),
                "sy": pa.array([int(y.sum())], pa.int64()),
                "sxy": pa.array([int(np.dot(x, y))], pa.int64()),
                "sxx": pa.array([int(np.dot(x, x))], pa.int64()),
                "syy": pa.array([int(np.dot(y, y))], pa.int64()),
            }
        )

    rows = j.map_batches(moments, batch_format="pyarrow").take_all()
    m = sum(r["m"] for r in rows)
    sx = sum(r["sx"] for r in rows)
    sy = sum(r["sy"] for r in rows)
    sxy = sum(r["sxy"] for r in rows)
    sxx = sum(r["sxx"] for r in rows)
    syy = sum(r["syy"] for r in rows)
    num = m * sxy - sx * sy
    den_x = m * sxx - sx * sx
    den_y = m * syy - sy * sy
    # one float sqrt, same op order as the SQL twin
    r_e6 = int(np.floor(1_000_000.0 * num / np.sqrt(float(den_x) * float(den_y))))
    return pa.Table.from_pydict(
        {
            "m": pa.array([m], pa.int64()),
            "num": pa.array([num], pa.int64()),
            "den_x": pa.array([den_x], pa.int64()),
            "den_y": pa.array([den_y], pa.int64()),
            "r_e6": pa.array([r_e6], pa.int64()),
        }
    )


SQL_ASSORTATIVITY = """
WITH li AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE (l_orderkey & 15) = 0
),
e0 AS (SELECT DISTINCT a.p AS u, b.p AS v FROM li a JOIN li b
       ON a.o = b.o AND a.p < b.p),
edges AS (SELECT u, v FROM e0 UNION ALL SELECT v, u FROM e0),
deg AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS deg FROM edges GROUP BY u),
j AS (SELECT du.deg AS x, dv.deg AS y
      FROM edges e JOIN deg du ON du.u = e.u JOIN deg dv ON dv.u = e.v),
mo AS (SELECT CAST(COUNT(*) AS BIGINT) AS m,
              CAST(SUM(x) AS BIGINT) AS sx, CAST(SUM(y) AS BIGINT) AS sy,
              CAST(SUM(x * y) AS BIGINT) AS sxy,
              CAST(SUM(x * x) AS BIGINT) AS sxx,
              CAST(SUM(y * y) AS BIGINT) AS syy
       FROM j)
SELECT m,
       CAST(m * sxy - sx * sy AS BIGINT) AS num,
       CAST(m * sxx - sx * sx AS BIGINT) AS den_x,
       CAST(m * syy - sy * sy AS BIGINT) AS den_y,
       CAST(FLOOR(1000000.0 * (m * sxy - sx * sy)
                  / SQRT(CAST(m * sxx - sx * sx AS DOUBLE)
                         * CAST(m * syy - sy * sy AS DOUBLE)))
            AS BIGINT) AS r_e6
FROM mo
"""


def q_assoc_rules(sf_dir: str):
    """Association rules over co-purchase pairs — frequent_pairs extended
    to the full market-basket metrics, ALL integer-exact: support count,
    confidence_e4 = 10⁴·co // c(u) (directed u→v), and
    lift_e6 = 10⁶·co·N // (c(u)·c(v)). Same scale shape as item_cf: one
    bucketed basket fold, map-side pair expansion, two node-bounded count
    attaches."""
    dis = _capped_baskets(sf_dir)
    n_baskets = (
        dis.map_batches(
            lambda t: pa.Table.from_pydict(
                {"o": t["o"].take(pa.array([], pa.int64()))}
            )
            if t.num_rows == 0
            else pa.Table.from_pydict(
                {"o": pc.unique(t["o"].combine_chunks())}
            ),
            batch_format="pyarrow",
        )
        .count()
    )  # baskets are whole per block, so per-block unique orders sum exactly
    cnt = pre_aggregated_sum(
        dis.map_batches(
            lambda t: pa.Table.from_arrays([t["p"]], names=["p"]),
            batch_format="pyarrow",
        ),
        keys=["p"], sums={}, count_alias="c",
    )
    npart = _dedup._default_join_partitions()
    from goose_parser_ray.functions.relational import compact_for_join

    co = _basket_pair_counts(dis).map_batches(
        lambda t: t.filter(pc.greater_equal(t["support"], 2)),
        batch_format="pyarrow",
    ).materialize()
    # directed rules: emit both u->v and v->u before the confidence attach
    directed = co.map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "a": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                ),
                "b": pa.concat_arrays(
                    [t["v"].combine_chunks(), t["u"].combine_chunks()]
                ),
                "co": pa.concat_arrays(
                    [t["support"].combine_chunks(),
                     t["support"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    )
    j = compact_for_join(directed.materialize(), npart).join(
        compact_for_join(
            cnt.map_batches(
                lambda t: pa.Table.from_pydict({"a": t["p"], "ca": t["c"]}),
                batch_format="pyarrow",
            ),
            npart,
        ),
        join_type="inner", num_partitions=npart, on=("a",),
    )
    j = compact_for_join(j.materialize(), npart).join(
        compact_for_join(
            cnt.map_batches(
                lambda t: pa.Table.from_pydict({"b": t["p"], "cb": t["c"]}),
                batch_format="pyarrow",
            ),
            npart,
        ),
        join_type="inner", num_partitions=npart, on=("b",),
    )

    def metrics(t: pa.Table) -> pa.Table:
        co_ = t["co"].to_numpy(zero_copy_only=False).astype(np.int64)
        ca = t["ca"].to_numpy(zero_copy_only=False).astype(np.int64)
        cb = t["cb"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "antecedent": t["a"],
                "consequent": t["b"],
                "support": co_,
                "confidence_e4": (10_000 * co_) // ca,
                "lift_e6": (1_000_000 * co_ * n_baskets) // (ca * cb),
            }
        )

    return j.map_batches(metrics, batch_format="pyarrow")


SQL_ASSOC_RULES = f"""
WITH {_SQL_CAPPED_BASKETS}
, n AS (SELECT CAST(COUNT(DISTINCT o) AS BIGINT) AS nb FROM li)
, cnt AS (SELECT p, CAST(COUNT(*) AS BIGINT) AS c FROM li GROUP BY p)
, co AS (
  SELECT a.p AS u, b.p AS v, CAST(COUNT(*) AS BIGINT) AS support
  FROM li a JOIN li b ON a.o = b.o AND a.p < b.p
  GROUP BY a.p, b.p HAVING COUNT(*) >= 2
), directed AS (
  SELECT u AS a, v AS b, support FROM co
  UNION ALL SELECT v, u, support FROM co
)
SELECT d.a AS antecedent, d.b AS consequent, d.support,
       CAST(10000 * d.support // ca.c AS BIGINT) AS confidence_e4,
       CAST(1000000 * d.support * (SELECT nb FROM n)
            // (ca.c * cb.c) AS BIGINT) AS lift_e6
FROM directed d
JOIN cnt ca ON ca.p = d.a
JOIN cnt cb ON cb.p = d.b
"""


def q_degree_hist(sf_dir: str):
    """Degree distribution of the co-purchase graph in power-of-two
    buckets — the graph-shape profile (is this scale-free? where do the
    hubs start?) that decides join/salting strategy, same exact integer
    frexp log₂ bucketing as q_skew_profile, node-bounded degree table,
    ≤64-row final aggregate."""
    from ray.data.aggregate import Max, Sum

    und = _copurchase_edges(sf_dir, mask=15).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "u": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                )
            }
        ),
        batch_format="pyarrow",
    )
    deg = pre_aggregated_sum(und, keys=["u"], sums={}, count_alias="deg")

    def bucketize(t: pa.Table) -> pa.Table:
        import pandas as pd

        d = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        _m, e = np.frexp(d.astype(np.float64))
        df = pd.DataFrame(
            {"bucket_log2": e.astype(np.int64) - 1, "one": 1, "deg": d}
        )
        out = df.groupby("bucket_log2", as_index=False).agg(
            n_nodes=("one", "sum"), max_deg=("deg", "max")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        deg.map_batches(bucketize, batch_format="pyarrow")
        .groupby("bucket_log2")
        .aggregate(
            Sum("n_nodes", alias_name="n_nodes"),
            Max("max_deg", alias_name="max_deg"),
        )
    )


SQL_DEGREE_HIST = """
WITH li AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
  WHERE (l_orderkey & 15) = 0
),
e0 AS (SELECT DISTINCT a.p AS u, b.p AS v FROM li a JOIN li b
       ON a.o = b.o AND a.p < b.p),
edges AS (SELECT u FROM e0 UNION ALL SELECT v FROM e0),
deg AS (SELECT u, CAST(COUNT(*) AS BIGINT) AS deg FROM edges GROUP BY u)
SELECT CAST(FLOOR(LOG2(deg)) AS BIGINT) AS bucket_log2,
       CAST(COUNT(*) AS BIGINT) AS n_nodes,
       CAST(MAX(deg) AS BIGINT) AS max_deg
FROM deg GROUP BY 1
"""


def q_dup_cluster_sizes(sf_dir: str):
    """Duplicate-cluster profile: histogram of exact-text cluster sizes
    (how much of the corpus is 1×, 2×, k×-replicated — the number that
    decides whether dedup is worth a full pass). Content-hash bucketed
    fold (identical texts share a bucket ⇒ bucket-local cluster sizes are
    exact), then a size-domain-bounded (≤ max multiplicity) sum — the
    corpus text never shuffles twice."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import num_shuffle_buckets

    ds = _read(sf_dir, "documents", ["text"])
    nb = num_shuffle_buckets(ds.count())

    def bucket(t: pa.Table) -> pa.Table:
        return _dedup.add_hash_bucket(t, "text", nb, "__hb")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g.groupby("text", dropna=False).size()
        hist = sizes.value_counts()
        return pd.DataFrame(
            {
                "cluster_size": hist.index.to_numpy(np.int64),
                "n_clusters": hist.to_numpy(np.int64),
            }
        )

    partial = ds.map_batches(bucket, batch_format="pyarrow").groupby(
        "__hb"
    ).map_groups(fold, batch_format="pandas")
    return pre_aggregated_sum(
        partial, keys=["cluster_size"], sums={"n_clusters": "n_clusters"}
    )


SQL_DUP_CLUSTER_SIZES = """
WITH c AS (
  SELECT text, CAST(COUNT(*) AS BIGINT) AS cluster_size
  FROM documents GROUP BY text
)
SELECT cluster_size, CAST(COUNT(*) AS BIGINT) AS n_clusters
FROM c GROUP BY cluster_size
"""


def q_ngram_jaccard(sf_dir: str):
    """EXACT 3-gram (word-shingle) Jaccard near-dup join — the
    n-gram-level sibling of q_set_similarity's unigram sets: shingles are
    far more discriminative than token sets on template-generated text, so
    the same PPJoin machinery runs at a lower τ without pair explosion.
    Shingle construction is fully Arrow/numpy-vectorized (flat word array
    + parent offsets → element-wise 3-way binary_join → per-doc list
    rebuild; no per-row Python), emitting a shingle-token column the
    prefix-filter join consumes unchanged."""
    from goose_parser_ray.functions.dedup import set_similarity_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def shingle3(t: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(t["text"], "")), pattern=r"\s+"
        )
        flat = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        f = pc.list_flatten(flat)
        parent = pc.list_parent_indices(flat).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(f, "").to_numpy(zero_copy_only=False)
        toks = f.filter(pa.array(keep))
        parent = parent[keep]
        n = len(parent)
        if n >= 3:
            ok = parent[:-2] == parent[2:]
            a = toks.slice(0, n - 2).filter(pa.array(ok))
            b = toks.slice(1, n - 2).filter(pa.array(ok))
            c = toks.slice(2, n - 2).filter(pa.array(ok))
            sh = pc.binary_join_element_wise(a, b, c, "\x1f")
            sh_parent = parent[:-2][ok]
        else:
            sh = pa.array([], pa.string())
            sh_parent = np.array([], np.int64)
        counts = np.bincount(sh_parent, minlength=t.num_rows) if len(
            sh_parent
        ) else np.zeros(t.num_rows, np.int64)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), sh)
        joined = pc.binary_join(lst, " ")
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "shingles": joined}
        )

    sh_ds = ds.map_batches(shingle3, batch_format="pyarrow")
    return set_similarity_join(
        sh_ds, col="shingles", threshold_num=6, threshold_den=10
    )


SQL_NGRAM_JACCARD = r"""
WITH arrs AS (
  SELECT doc_id, regexp_split_to_array(lower(text), '\s+') AS arr
  FROM documents
), tok0 AS (
  SELECT doc_id, arr[g.i] AS tok, g.i AS pos
  FROM arrs, UNNEST(generate_series(1, len(arr))) AS g(i)
), tok AS (
  SELECT doc_id, tok,
         ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY pos) AS ord
  FROM tok0 WHERE tok <> ''
), sh0 AS (
  SELECT doc_id,
         tok || chr(31) || LEAD(tok, 1) OVER w
             || chr(31) || LEAD(tok, 2) OVER w AS s
  FROM tok
  WINDOW w AS (PARTITION BY doc_id ORDER BY ord)
  QUALIFY LEAD(tok, 2) OVER w IS NOT NULL
), sh AS (
  SELECT DISTINCT doc_id, s FROM sh0
), sz AS (
  SELECT doc_id, COUNT(*) AS l FROM sh GROUP BY doc_id
), inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS i
  FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT id_a, id_b,
       CAST(10000 * i // (sa.l + sb.l - i) AS BIGINT) AS jac_e4
FROM inter
JOIN sz sa ON sa.doc_id = id_a
JOIN sz sb ON sb.doc_id = id_b
WHERE 10 * i >= 6 * (sa.l + sb.l - i)
"""


def q_dag_critical_path(sf_dir: str):
    """Longest-path (critical-path) levels in a DAG, ORACLE-CHECKED: docs
    form 8-deep DAG blocks with BOTH unit and skip edges (d→d+1 under
    pos<7, d→d+2 under pos<6 — the skip edges are the trap: a shortest-
    path relaxation would report level 〈pos/2〉, only a true MAX
    relaxation yields pos). Engine = ``graph.longest_path_dag`` (tiered:
    driver numpy relaxation under the edge guard, per-round join +
    grouped-max past it; raises on non-convergence instead of returning
    partial levels). The twin states lvl = doc_id % 8 over the edge-
    incident node set. The scheduling-depth primitive of a pipeline DAG
    executor."""
    from goose_parser_ray.functions.graph import longest_path_dag

    ds = _read(sf_dir, "documents", ["doc_id"]).materialize()
    n = ds.count()

    def edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        u1 = d[(d % 8 < 7) & (d + 1 < n)]
        u2 = d[(d % 8 < 6) & (d + 2 < n)]
        return pa.Table.from_pydict(
            {
                "u": pa.array(np.concatenate([u1, u2]), pa.int64()),
                "v": pa.array(
                    np.concatenate([u1 + 1, u2 + 2]), pa.int64()
                ),
            }
        )

    e = ds.map_batches(edges, batch_format="pyarrow")
    return longest_path_dag(e).sort("node")


SQL_DAG_CRITICAL_PATH = """
WITH nn AS (SELECT COUNT(*) AS N FROM documents),
e AS (
  SELECT doc_id AS u, doc_id + 1 AS v FROM documents, nn
  WHERE doc_id % 8 < 7 AND doc_id + 1 < N
  UNION ALL
  SELECT doc_id, doc_id + 2 FROM documents, nn
  WHERE doc_id % 8 < 6 AND doc_id + 2 < N
),
nodes AS (SELECT u AS node FROM e UNION SELECT v FROM e)
SELECT CAST(node AS BIGINT) AS node, CAST(node % 8 AS BIGINT) AS lvl
FROM nodes ORDER BY node
"""
