"""Relational core: filter / aggregate / top-k / joins / union (S5-S9).

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import datetime as _dt

import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.functions.relational import (
    broadcast_join,
    keyed_aggregate,
    safe_join,
)

from goose_parser_ray.queries._shared import _cents, _read


# ---------------------------------------------------------------------------
# S5 filter / S6 aggregate / S7 top-k / S8 join / S9 union
# ---------------------------------------------------------------------------


def q_filter_docs(sf_dir: str):
    """S5: vectorized predicate inside map_batches (read-pruned columns)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t["lang"], "en"), pc.greater_equal(t["n_chars"], 200))
        ),
        batch_format="pyarrow",
    )


SQL_FILTER_DOCS = """
SELECT doc_id, lang, source, n_chars FROM documents
WHERE lang = 'en' AND n_chars >= 200
"""


def q_agg_by_lang(sf_dir: str):
    """S6: partial-aggregate pattern (combine per batch, tiny shuffle)."""
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return keyed_aggregate(
        ds, ["lang"],
        {"sum_chars": ("n_chars", "sum"), "n_docs": ("lang", "count")},
        bounded_domain=True,  # |langs| is a constant, not data-proportional
    )


SQL_AGG_BY_LANG = """
SELECT lang, CAST(SUM(n_chars) AS BIGINT) AS sum_chars, COUNT(*) AS n_docs
FROM documents GROUP BY lang
"""


def q_topk_docs(sf_dir: str):
    """S7: top-k with deterministic tie-break."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


SQL_TOPK_DOCS = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id ASC LIMIT 10
"""


def q_join_segment(sf_dir: str):
    """S8: broadcast join (customer is the small side — ray.put once) then
    partial aggregate; no shuffle joins."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).rename_columns(["c_custkey", "segment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = broadcast_join(orders, cust, key="o_custkey")
    joined = joined.map_batches(
        lambda t: t.append_column("total_cents", _cents(t["o_totalprice"])),
        batch_format="pyarrow",
    )
    return keyed_aggregate(
        joined, ["segment"],
        {"total_cents": ("total_cents", "sum"), "n_orders": ("segment", "count")},
        bounded_domain=True,  # |segments| = 5, a constant
    )


SQL_JOIN_SEGMENT = """
SELECT c_mktsegment AS segment,
       CAST(SUM(CAST(ROUND(100 * o_totalprice) AS BIGINT)) AS BIGINT) AS total_cents,
       COUNT(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_join_hash(sf_dir: str):
    """S8 (large×large): Ray's native hash-partitioned ``Dataset.join`` —
    both sides shuffled on the key; used when neither side is broadcastable.
    Contrast with q_join_segment's broadcast join (small side)."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"])
    joined = safe_join(li, part, on=("l_partkey",), right_on=("p_partkey",))
    joined = joined.map_batches(
        lambda t: t.append_column("qty", pc.cast(t["l_quantity"], pa.int64())),
        batch_format="pyarrow",
    )
    return keyed_aggregate(
        joined, ["p_brand"],
        {"sum_qty": ("qty", "sum"), "n_items": ("p_brand", "count")},
    )


SQL_JOIN_HASH = """
SELECT p_brand,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       COUNT(*) AS n_items
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY p_brand
"""


def q_join_left(sf_dir: str):
    """S8 left variant through the query surface (r2 VERDICT #7): broadcast
    LEFT join with the DICT small-side input path — customers keep their row
    with a null nation_name when their nation is outside regions 0-1, so
    the unmatched-row semantics are actually exercised and oracle-checked."""
    import pyarrow.parquet as pq

    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    nat = nat.filter(pc.less(nat["n_regionkey"], 2))
    small = {
        int(k): {"nation_name": v}
        for k, v in zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    }
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = broadcast_join(
        cust, small, key="c_nationkey", how="left"
    )
    return joined.select_columns(["c_custkey", "nation_name"])


SQL_JOIN_LEFT = """
SELECT c_custkey, n_name AS nation_name
FROM customer
LEFT JOIN (SELECT n_nationkey, n_name FROM nation WHERE n_regionkey < 2) n
  ON c_nationkey = n_nationkey
"""


def q_join_salted(sf_dir: str):
    """S8 skew-hardened variant: salted hash join (hot keys spread over
    ``salts`` partitions; small side replicated per salt). Same row set as
    the plain join — the salt only changes partitioning — so the oracle is
    an ordinary JOIN. lineitem.l_suppkey is Zipf-ish enough at sf≥0.01 to
    exercise the path; at 100 TB this is the join to use when one supplier
    (or one crawl host, one language) dominates the big side."""
    from goose_parser_ray.functions.relational import salted_join

    li = _read(sf_dir, "lineitem", ["l_suppkey", "l_quantity"])
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    joined = salted_join(
        li, sup, key="l_suppkey", right_key="s_suppkey",
        salts=4,
    )
    joined = joined.map_batches(
        lambda t: t.append_column("qty", pc.cast(t["l_quantity"], pa.int64())),
        batch_format="pyarrow",
    )
    out = keyed_aggregate(
        joined, ["s_nationkey"],
        {"sum_qty": ("qty", "sum"), "n_items": ("s_nationkey", "count")},
    )
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("s_nationkey"), "s_nationkey",
            pc.cast(t["s_nationkey"], pa.int64()),
        ),
        batch_format="pyarrow",
    )


SQL_JOIN_SALTED = """
SELECT CAST(s_nationkey AS BIGINT) AS s_nationkey,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       COUNT(*) AS n_items
FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
GROUP BY s_nationkey
"""


def q_sample_mod(sf_dir: str):
    """S7 deterministic sampling (modulo — SQL-checkable; seeded
    ``random_sample`` exists but cannot be oracle-matched)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.map_batches(
        lambda t: t.filter(
            pc.equal(pc.bit_wise_and(t["doc_id"], pa.scalar(7, pa.int64())), 0)
        ),
        batch_format="pyarrow",
    )


SQL_SAMPLE_MOD = """
SELECT doc_id, n_chars FROM documents WHERE (doc_id & 7) = 0
"""


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary (read-pruned, cents-exact)."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
         "l_discount", "l_shipdate"],
    )
    cutoff = _dt.datetime(1998, 9, 2)

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(cutoff)))
        disc = pc.multiply(
            t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])
        )
        t = t.append_column("qty", pc.cast(t["l_quantity"], pa.int64()))
        t = t.append_column("base_cents", _cents(t["l_extendedprice"]))
        t = t.append_column("disc_cents", _cents(disc))
        return t.select(
            ["l_returnflag", "l_linestatus", "qty", "base_cents", "disc_cents"]
        )

    ds = ds.map_batches(prep, batch_format="pyarrow")
    return keyed_aggregate(
        ds, ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_base_cents": ("base_cents", "sum"),
            "sum_disc_cents": ("disc_cents", "sum"),
            "count_order": ("l_returnflag", "count"),
        },
        bounded_domain=True,  # flag×status is a ≤6-cell constant grid
    )


SQL_PRICING_SUMMARY = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(ROUND(100 * l_extendedprice) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(ROUND(100 * (l_extendedprice * (1 - l_discount))) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q_union_names(sf_dir: str):
    """S9: union."""
    r = _read(sf_dir, "region", ["r_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    n = _read(sf_dir, "nation", ["n_name"]).map_batches(
        lambda t: t.rename_columns(["name"]), batch_format="pyarrow"
    )
    return r.union(n)


SQL_UNION_NAMES = """
SELECT r_name AS name FROM region
UNION ALL
SELECT n_name AS name FROM nation
"""


def q_distinct_sources(sf_dir: str):
    """Distinct via the bucketed helper — shuffle groups are coarse hash
    buckets, never per-value, so the plan survives high-cardinality keys
    (r2 VERDICT noted the raw-key groupby would not)."""
    from goose_parser_ray.functions.relational import distinct_rows

    ds = _read(sf_dir, "documents", ["source"])
    return distinct_rows(ds, ["source"], rows=ds.count())


SQL_DISTINCT_SOURCES = "SELECT DISTINCT source FROM documents"
