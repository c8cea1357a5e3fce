"""Distributed AS-OF join — a temporal operator Ray Data lacks natively
(upstream reference has no equivalent either; this is part of the
beyond-reference training-data/stream surface, SURVEY.md §2.6 extension).

Semantics: for every left row, attach the single right row with the same
``by`` key and the LARGEST right timestamp ≤ the left timestamp (backward
as-of, exact matches allowed) — identical to DuckDB's ``ASOF LEFT JOIN ...
ON l.by = r.by AND l.ts >= r.ts`` and pandas ``merge_asof(direction=
'backward')``.

Scale shape (the partitioning assumption, documented per the custom-operator
rule): both sides are hash-bucketed by the ``by`` key into a
data-proportional number of coarse buckets (``dedup.bucket_groups``, sized
from ``rows``: the left plus right row count, or an upper bound) — ONE
shuffle group per bucket, never per key. Inside each bucket the join is
one vectorized pandas ``merge_asof`` over the bucket's keys (sorted by ts,
``by=`` for per-key matching). Group payload = (left+right rows)/buckets,
bounded by the data-proportional sizing at any corpus size. Requires only that a single
(key-bucket) group fits in a worker's heap — the same contract as every
bucketed windowing stage here (sessionize, user_deltas).

RIGHT-side determinism: if the right side has duplicate (by, ts) rows the
as-of winner is ambiguous across engines — callers must pre-aggregate the
right side to unique (by, ts) keys (the query surface does; an assert
guards it here).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions.dedup import bucket_groups


def windowed_count_bucketed(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    ts: str = "ts",
    window: "pd.Timedelta",
    out_col: str = "n_in_window",
    rows: int = 0,
) -> ray.data.Dataset:
    """RANGE-join count: for every left row, the number of right rows with
    the same ``by`` key and timestamp in ``(left.ts - window, left.ts]`` —
    the SQL inequality join ``r.ts <= l.ts AND r.ts > l.ts - window`` +
    COUNT, LEFT semantics (0 when none).

    Instead of materializing the O(|L|·|R|) inequality-join pairs, the count
    is computed as a difference of per-key CUMULATIVE counts looked up with
    TWO vectorized as-of merges: F(ts) − F(ts − window) where F = running
    right-row count per key. Same partitioning contract as
    :func:`asof_join_bucketed` (hash-bucketed by key, one vectorized pandas
    pass per bucket — no per-key groups, no per-row Python)."""

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return fn

    left_cols = [c for c in left.columns()]
    lschema = left.schema()
    left_int_cols = [
        n
        for n, t in zip(lschema.names, lschema.types)
        if pa.types.is_integer(t)
    ]

    def pad_left(t: pa.Table) -> pa.Table:
        return t

    def shrink_right(t: pa.Table) -> pa.Table:
        t = t.select([by, ts])
        for c in left_cols:
            if c not in (by, ts):
                t = t.append_column(c, pa.nulls(t.num_rows, pa.int64()))
        return t.select(left_cols)  # column order must match for union

    lt = left.map_batches(pad_left, batch_format="pyarrow").map_batches(
        tag(0), batch_format="pyarrow"
    )
    rt = right.map_batches(shrink_right, batch_format="pyarrow").map_batches(
        tag(1), batch_format="pyarrow"
    )
    out_cols = [*sorted(left_cols), out_col]

    def count_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0].drop(columns=["__side"])
        r = g[g["__side"] == 1]
        for c in left_int_cols:
            if l[c].dtype.kind == "f":
                # left rows' own int values are never null — plain int64
                # (nullable Int64 would leak into the output dtype)
                l = l.assign(**{c: l[c].astype("int64")})
        l = l.sort_values(ts, kind="mergesort").reset_index(drop=True)
        if r.empty:
            out = l.copy()
            out[out_col] = np.int64(0)
            return out[out_cols]
        r = (
            r[[by, ts]]
            .sort_values([by, ts], kind="mergesort")
            .reset_index(drop=True)
        )
        r["__cum"] = r.groupby(by).cumcount() + 1
        r = r.sort_values(ts, kind="mergesort").reset_index(drop=True)
        # F(ts): right rows ≤ ts (merge_asof matches the LAST row among
        # equal timestamps, so duplicate right ts need no dedup)
        hi = pd.merge_asof(
            l[[by, ts]], r, on=ts, by=by, direction="backward"
        )["__cum"].fillna(0)
        lo_keys = l[[by, ts]].copy()
        # subtracting a (ns-resolution) Timedelta upcasts us-unit timestamps
        # to ns — cast back so merge_asof keys keep matching dtypes
        lo_keys[ts] = (lo_keys[ts] - window).astype(l[ts].dtype)
        lo_keys = lo_keys.sort_values(ts, kind="mergesort")
        lo = (
            pd.merge_asof(lo_keys, r, on=ts, by=by, direction="backward")
            .set_index(lo_keys.index)["__cum"]
            .fillna(0)
            .sort_index()
        )
        out = l.copy()
        out[out_col] = (hi.to_numpy() - lo.to_numpy()).astype(np.int64)
        return out[out_cols]

    return bucket_groups([lt, rt], by, count_bucket, rows=rows)


def asof_join_bucketed(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    by: str,
    ts: str = "ts",
    value_cols: list[str],
    rows: int = 0,
    right_agg: "dict[str, str] | None" = None,
) -> ray.data.Dataset:
    """Backward as-of join of ``left`` against ``right`` on ``by`` + ``ts``.

    ``value_cols``: right-side columns attached to each left row (null when
    no right row at-or-before the left timestamp exists — LEFT-join
    semantics). Right columns other than ``by``/``ts``/``value_cols`` are
    dropped. Left must not already contain ``value_cols`` names.

    ``right_agg``: optional ``{value_col: 'max'|'min'|...}`` spec that
    collapses duplicate right (by, ts) keys INSIDE each bucket (every key's
    rows co-locate, so per-bucket aggregation is globally correct) — this
    replaces a whole upstream groupby-aggregate SHUFFLE with one vectorized
    pandas pass and is the preferred way to satisfy the unique-(by, ts)
    contract; without it, an assert enforces that the caller pre-deduped."""

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "__side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return fn

    # pad each side with the other's columns so the union stream has one
    # schema (Arrow unions require it)
    left_cols = set(left.columns())
    # left integer columns become float64 in pandas once the union's padded
    # nulls land in them — remember which to cast back (schema() only peeks
    # the first block of the lazy pipeline)
    lschema = left.schema()
    left_int_cols = [
        n
        for n, t in zip(lschema.names, lschema.types)
        if pa.types.is_integer(t)
    ]

    def pad_left(t: pa.Table) -> pa.Table:
        for c in value_cols:
            t = t.append_column(c, pa.nulls(t.num_rows, pa.int64()))
        return t

    def pad_right(t: pa.Table) -> pa.Table:
        keep = [by, ts, *value_cols]
        t = t.select(keep)
        for c in left_cols:
            if c not in keep:
                t = t.append_column(c, pa.nulls(t.num_rows, pa.int64()))
        return t

    lt = left.map_batches(pad_left, batch_format="pyarrow").map_batches(
        tag(0), batch_format="pyarrow"
    )
    rt = right.map_batches(pad_right, batch_format="pyarrow").map_batches(
        tag(1), batch_format="pyarrow"
    )

    out_cols = [*sorted(left_cols), *value_cols]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g[g["__side"] == 0]
        r = g[g["__side"] == 1]
        l = l.drop(columns=["__side", *value_cols]).sort_values(
            ts, kind="mergesort"
        )
        for c in left_int_cols:  # un-float columns the union nulls widened
            if l[c].dtype.kind == "f":
                # left rows' own int values are never null -> plain int64
                l = l.assign(**{c: l[c].astype("int64")})
        if r.empty:
            out = l.copy()
            for c in value_cols:
                out[c] = pd.array([None] * len(out), dtype="Int64")
            return out[out_cols]
        r = r[[by, ts, *value_cols]]
        if right_agg:
            r = r.groupby([by, ts], as_index=False).agg(right_agg)
        r = r.sort_values(ts, kind="mergesort").reset_index(drop=True)
        if not right_agg:
            assert not r.duplicated([by, ts]).any(), (
                "asof right side must be unique per (by, ts) — pass "
                "right_agg or pre-aggregate"
            )
        out = pd.merge_asof(
            l.reset_index(drop=True), r, on=ts, by=by, direction="backward"
        )
        for c in value_cols:  # unmatched rows: NaN→float64; keep int64+null
            out[c] = out[c].astype("Int64")
        return out[out_cols]

    return bucket_groups([lt, rt], by, join_bucket, rows=rows)
