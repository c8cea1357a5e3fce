"""Relational helpers: broadcast join + the keyed aggregate
(SURVEY.md §2.6 S6/S8; guide "Joins and lookups", "Aggregation at scale").
"""

from __future__ import annotations

from typing import Any

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


class _BroadcastJoiner:
    """Broadcast-join kernel: the small side is fetched from plasma as an
    Arrow table (zero-copy — the buffers live ONCE per node in shared
    memory no matter how many tasks bind them, unlike a pickled dict which
    re-materializes per access), and each batch is joined by a vectorized
    ``pc.index_in`` + ``take`` gather — no per-row Python loop. Invoked
    per task (see broadcast_join) or held by an actor when a caller needs
    one."""

    def __init__(self, small_ref, key: str, how: str) -> None:
        small: pa.Table = ray.get(small_ref)
        self.keys = small.column(0)  # join key, first column by construction
        self.values = small.drop_columns([small.column_names[0]])
        self.key, self.how = key, how

    def __call__(self, batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch[self.key], value_set=self.keys)
        if self.how == "inner":
            mask = idx.is_valid()
            if not pc.all(mask).as_py():
                batch = batch.filter(mask)
                idx = idx.filter(mask)
        gathered = self.values.take(idx)  # null idx -> null row (left join)
        for name in gathered.column_names:
            batch = batch.append_column(name, gathered[name])
        return batch


def broadcast_join(
    ds: ray.data.Dataset,
    small: "dict[Any, dict[str, Any]] | pa.Table",
    key: str,
    *,
    how: str = "inner",
) -> ray.data.Dataset:
    """Join ``ds`` against a small side WITHOUT a shuffle.

    ``small`` is either an Arrow table whose FIRST column is the join key, or
    a ``key → {col: value}`` dict (converted once here). It is ``ray.put``
    once on the driver; every task reads it from node-local plasma
    (zero-copy, shared across tasks on a node).
    ``how``: 'inner' drops unmatched rows, 'left' keeps them with nulls."""
    if isinstance(small, dict):
        if not small:
            raise ValueError("broadcast_join: empty small side")
        add_cols = sorted(next(iter(small.values())).keys())
        small = pa.Table.from_pydict(
            {
                "__key": pa.array(list(small.keys())),
                **{
                    c: pa.array([row[c] for row in small.values()])
                    for c in add_cols
                },
            }
        )
    elif small.num_rows == 0:
        raise ValueError("broadcast_join: empty small side")
    ref = ray.put(small)
    # task pool, not actor pool: per-task "init" is a zero-copy plasma get
    # (the Arrow buffers live once per node in shared memory) plus three
    # attribute binds — actor spin-up costs more than it saves on short
    # stages (media_png measurement)
    return ds.map_batches(
        lambda t: _BroadcastJoiner(small_ref=ref, key=key, how=how)(t),
        batch_format="pyarrow",
    )


def distinct_rows(
    ds: ray.data.Dataset, cols: list[str], *, rows: int = 0
) -> ray.data.Dataset:
    """Distinct over ``cols`` at scale, the one bucketed distinct of the
    package: map-side local drop_duplicates (a value repeated M times across
    B blocks ships ≤B rows), then ONE ``dedup.bucket_groups`` fold sized
    from ``rows`` (an upper bound on the rows of ``ds``; the default sizes
    to the cluster floor, which counts nothing). Returns only ``cols``."""
    from goose_parser_ray.functions.dedup import bucket_groups

    local = ds.map_batches(
        lambda t: pa.Table.from_pandas(
            t.select(cols).to_pandas().drop_duplicates(), preserve_index=False
        ),
        batch_format="pyarrow",
    )
    return bucket_groups(local, cols, lambda g: g.drop_duplicates(), rows=rows)


def pin_schema(schema: pa.Schema):
    """Schema normalizer for post-groupby streams with NON-EMPTY blocks:
    casts drift and re-orders columns so the executor's RefBundle schema
    check stays stable. NOTE it cannot repair empty blocks — Ray 2.49's
    map_batches never invokes the UDF on a 0-row block and forwards a
    ZERO-COLUMN empty instead; use :func:`compact_for_join` for that."""

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        return t.select(schema.names).cast(schema)

    return fn


# Rows one hash-join partition is sized for when the caller knows a count.
_ROWS_PER_JOIN_PARTITION = 100_000

# Ray 2.49 reserves this many ``target_max_block_size`` of memory per join
# partition (see :func:`join_width`).
_RESERVED_BLOCKS_PER_PARTITION = 7


def join_width(
    *,
    cpus: float,
    memory: float,
    block_bytes: int | None,
    rows: int | None = None,
    requested: int | None = None,
) -> int:
    """Hash-join partition count for a cluster with ``cpus`` CPUs and
    ``memory`` bytes of schedulable memory — the rule behind
    :func:`safe_join`, kept free of Ray so it can be tested alone.

    The width is ``requested`` when the caller pins one, else half the
    CPUs (one aggregator actor per partition; more aggregators than cores
    starves a small cluster's map side), cut to one partition per
    ``_ROWS_PER_JOIN_PARTITION`` known ``rows``, and never below 2.

    Either way it then has to fit the cluster's memory. Ray 2.49's join
    operator reserves, per aggregator actor, its share of both shuffled
    inputs (2 blocks), the in-memory Arrow join with 50% overhead (3) and
    the output of both sides (2) — 7 × ``target_max_block_size`` per
    partition (``operators/join.py``, ``_estimate_aggregator_memory_
    allocation``). An actor whose reservation the cluster cannot grant is
    never scheduled: Ray logs one warning and the job waits forever. So
    the width shrinks until the reservation fits, and when not even one
    partition fits this raises, naming both numbers, before a plan is
    built. ``block_bytes=None`` (no target block size) reserves nothing."""
    if requested is not None:
        width = int(requested)
    else:
        width = int(cpus) // 2
        if rows is not None:
            width = min(width, -(-int(rows) // _ROWS_PER_JOIN_PARTITION))
        width = max(2, width)
    per_partition = _RESERVED_BLOCKS_PER_PARTITION * (block_bytes or 0)
    if per_partition:
        fits = int(memory // per_partition)
        if fits < 1:
            gib = 1 << 30
            raise RuntimeError(
                f"hash join needs {per_partition / gib:.2f} GiB of "
                f"aggregator memory for one partition, but the cluster "
                f"has {memory / gib:.2f} GiB"
            )
        width = min(width, fits)
    return width


def _cluster_join_width(
    rows: int | None = None, requested: int | None = None
) -> int:
    """:func:`join_width` for the running Ray cluster."""
    from ray.data import DataContext

    res = ray.cluster_resources()
    return join_width(
        cpus=res.get("CPU", 0),
        memory=res.get("memory", 0),
        block_bytes=DataContext.get_current().target_max_block_size,
        rows=rows,
        requested=requested,
    )


def compact_for_join(
    ds: ray.data.Dataset, n_rows: int | None = None
) -> ray.data.Dataset:
    """Make a dataset safe as a hash-join input. Ray 2.49's hash join fails
    (pyarrow acero: "No match or multiple matches for key field reference
    …") when an input carries EMPTY blocks: empty partitions of upstream
    aggregates surface as zero-column blocks, and ``map_batches`` skips
    0-row blocks entirely (the UDF is never called), re-poisoning anything
    it forwards. ``repartition`` merges blocks and restores the typed
    schema; the block count is the join width, clamped by the row count so
    every output block is non-empty. Call on any join input that passed
    through a groupby/aggregate (directly or via intervening maps).
    ``n_rows`` skips the count when the caller already knows it
    (metadata-only on a materialized dataset either way)."""
    n = n_rows if n_rows is not None else ds.count()
    return ds.repartition(max(1, min(_cluster_join_width(n), n)))


def safe_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    on: tuple,
    join_type: str = "inner",
    right_on: tuple | None = None,
    num_partitions: int | None = None,
    compact: bool = False,
    left_rows: int | None = None,
    right_rows: int | None = None,
    **suffixes: str,
) -> ray.data.Dataset:
    """The one way this package calls ``Dataset.join``: the partition count
    comes from :func:`join_width` for the running cluster. The larger of
    ``left_rows``/``right_rows``, when known, sizes it (for a side that is
    not compacted an upper bound will do); ``num_partitions`` pins it,
    still subject to the memory fit.

    ``compact=True`` routes both inputs through :func:`compact_for_join` —
    needed for any join whose inputs passed through a groupby/aggregate/
    filter/join (all of which can emit the zero-column empty blocks that
    crash Ray 2.49's hash join with ``ArrowInvalid: No match ...
    FieldRef``). A side whose row count is unknown is then materialized
    first so the count + repartition don't execute its plan twice. Join
    OUTPUTS are themselves poisoned — chain ``compact=True`` calls rather
    than joining a join result as it is. ``suffixes`` pass
    ``left_suffix``/``right_suffix`` through."""
    if compact:
        if left_rows is None:
            left = left.materialize()
            left_rows = left.count()
        if right_rows is None:
            right = right.materialize()
            right_rows = right.count()
    known = [n for n in (left_rows, right_rows) if n is not None]
    width = _cluster_join_width(max(known) if known else None, num_partitions)
    if compact:
        left = left.repartition(max(1, min(width, left_rows)))
        right = right.repartition(max(1, min(width, right_rows)))
    return left.join(
        right, join_type=join_type, num_partitions=width, on=on,
        right_on=right_on, **suffixes,
    )


# How a keyed aggregate's partials combine: counts add up like sums.
_COMBINE = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _group_aggregate(
    t: pa.Table, keys: list[str], aggs: dict[str, tuple[str, str]]
) -> pa.Table:
    """One Arrow hash ``group_by`` of ``t``: columns ``keys`` then each
    ``out`` of ``aggs = {out: (src, op)}``. A null key is one group (SQL
    ``GROUP BY``); a sum skips nulls and gives 0 for an all-null group;
    integer and boolean sums and counts come out ``int64``."""
    spec = {}
    for src, op in aggs.values():
        if op == "count":  # rows per key, whatever src holds
            spec[src, op] = (src, "count", pc.CountOptions(mode="all"))
        elif op == "sum":
            spec[src, op] = (src, "sum", pc.ScalarAggregateOptions(min_count=0))
        else:
            spec[src, op] = (src, op)
    grouped = t.group_by(keys, use_threads=False).aggregate(list(spec.values()))
    out = grouped.select(keys)
    for name, (src, op) in aggs.items():
        col = grouped[f"{src}_{op}"]
        if op == "sum" and not pa.types.is_floating(col.type):
            col = col.cast(pa.int64())
        out = out.append_column(name, col)
    return out


def keyed_aggregate(
    ds: ray.data.Dataset,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    bounded_domain: bool = False,
) -> ray.data.Dataset:
    """The package's keyed aggregate, SQL ``SELECT keys, op(src) AS out
    ... GROUP BY keys``: ``aggs = {out: (src, op)}`` with ``op`` one of
    ``sum``, ``min``, ``max`` or ``count`` (rows per key), the pandas
    named-aggregation shape. Output columns are ``keys`` then the ``out``
    names; rows come in no particular order. An input with no rows but an
    Arrow schema gives an empty table with those columns, typed from it.

    Map side: each block is grouped once by Arrow (no per-group Python,
    no pandas metadata), so the shuffle moves one partial row per key per
    block. The partials are materialized (the shuffle waits for all of
    them anyway) and their row count, read from block metadata, sizes
    the combine: the partials go through :func:`dedup.bucket_groups` with
    ``num_shuffle_buckets(<partial rows>)`` buckets, so a bucket's payload
    stays bounded as the key domain grows, and each bucket is grouped
    again the same way, summing sums and counts.

    ``bounded_domain=True`` is the caller's declaration that the key domain
    is SMALL AND DATA-INDEPENDENT (market segments, languages, digits,
    calendar days — never ids): the partials then combine as
    ``repartition(1)`` plus the same in-block group, skipping the shuffle
    whose fixed cost dwarfs the work for a ≤10³-row partial stream. Leave
    False for unbounded keys: a single block must never hold a
    data-proportional domain."""
    from goose_parser_ray.functions.dedup import bucket_groups

    merge = {out: (out, _COMBINE[op]) for out, (_, op) in aggs.items()}

    def partial(t: pa.Table) -> pa.Table:
        return _group_aggregate(t, keys, aggs)

    def combine(t: pa.Table) -> pa.Table:
        return _group_aggregate(t, keys, merge)

    partials = ds.map_batches(partial, batch_format="pyarrow").materialize()
    n_partial = partials.count()  # metadata only: just materialized
    if n_partial == 0:  # Ray would give column-less blocks, or none
        schema = ds.schema()
        base = None if schema is None else schema.base_schema
        if not isinstance(base, pa.Schema):  # no rows ever, or pandas blocks
            return partials
        return ray.data.from_arrow(combine(partial(base.empty_table())))
    if bounded_domain:
        return partials.repartition(1).map_batches(combine, batch_format="pyarrow")
    return bucket_groups(
        partials, keys, combine, rows=n_partial, batch_format="pyarrow"
    )


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    *,
    id_col: str,
    weight_col: str,
    seed: int = 42,
) -> ray.data.Dataset:
    """Distributed weighted random sampling WITHOUT replacement (Efraimidis–
    Spirakis A-ES): each row draws a deterministic uniform u from a
    seed-fixed hash of its id and scores ``u^(1/w)``; the global top-k
    scores ARE the weighted sample. Map-side local top-k per batch (only k
    rows per block survive), tiny global merge — no full-data shuffle.
    Deterministic for a given (seed, ids, weights): reruns and resumes
    produce the identical sample. The uniform comes from the Knuth
    multiplicative hash on the integer id (seed-salted) through the
    ``dedup._mix64`` avalanche, so ids that differ only in their high bits
    still draw different uniforms. It is cross-engine exact integer
    arithmetic, so a SQL oracle can restate the draw: ``h = mix64((id *
    (2654435761+2*seed)) % 2^64) >> 32``, then ``(h+0.5)/2^32``."""
    import numpy as np

    from goose_parser_ray.functions.dedup import _mix64

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("__sk", pa.array([], pa.float64()))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mult = np.uint64(2654435761 + 2 * seed)
        h = _mix64(ids.astype(np.uint64) * mult) >> np.uint64(32)
        # exact uniform in (0, 1): (h + 0.5) / 2^32, exact in float64
        u = (h.astype(np.float64) + 0.5) / float(1 << 32)
        w = t[weight_col].to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.maximum(w, 1e-12)
        score = np.power(u, 1.0 / w)
        t = t.append_column("__sk", pa.array(score, pa.float64()))
        if t.num_rows <= k:
            return t
        keep = np.argpartition(-score, kth=k - 1)[:k]
        return t.take(pa.array(np.sort(keep)))

    partial = ds.map_batches(local_topk, batch_format="pyarrow")
    # global merge: the surviving ≤ k-per-block rows sort by score
    out = partial.sort(["__sk", id_col], descending=[True, False]).limit(k)
    return out.drop_columns(["__sk"])


def mixture_resample(
    ds: ray.data.Dataset,
    *,
    id_col: str,
    group_col: str,
    rates_pct: dict[str, int],
    default_pct: int = 0,
) -> ray.data.Dataset:
    """Training-mixture resampling: keep each row with a per-GROUP rate
    (domain/source weighting — upsample curated sources, downsample crawl
    tails). Deterministic and cross-engine exact: row kept iff
    ``id % 100 < rate_pct(group)`` — no RNG state, so reruns/resumes keep
    identical rows. Vectorized broadcast lookup (``pc.index_in`` against
    the tiny rates table), pure map stage — no shuffle at any scale."""
    groups = pa.array(list(rates_pct.keys()))
    pcts = pa.array(
        [int(v) for v in rates_pct.values()], pa.int64()
    )

    def keep(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t[group_col], value_set=groups)
        rate = pc.fill_null(pc.take(pcts, idx), default_pct)
        slot = pc.cast(
            pc.subtract(
                t[id_col],
                pc.multiply(pc.divide(t[id_col], 100), 100),
            ),
            pa.int64(),
        )  # id % 100 via integer div (pc has no modulo kernel)
        return t.filter(pc.less(slot, rate))

    return ds.map_batches(keep, batch_format="pyarrow")


def salted_join(
    big: ray.data.Dataset,
    small: ray.data.Dataset,
    *,
    key: str,
    right_key: str,
    salts: int = 8,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Hash join hardened against KEY SKEW: a hot key on the big side lands
    every row in one join partition; salting splits it. The big side gets a
    deterministic per-row salt (content hash — independent of the key), the
    small side is replicated ``salts``× with every salt value, and the join
    runs on (key, salt) — each hot key now spreads over ``salts``
    partitions while every big row still meets its matching small rows
    exactly once. Results are identical to the unsalted join (tested);
    costs ``salts``× the small-side shuffle volume, the standard trade."""
    import numpy as np
    import pandas as pd

    def add_salt(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            t.to_pandas(), index=False
        ).to_numpy()
        return t.append_column(
            "__salt", pa.array((h % salts).astype(np.int64))
        )

    def replicate(t: pa.Table) -> pa.Table:
        n = t.num_rows
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64), salts))
        rep = t.take(idx)
        salt = pa.array(
            np.repeat(np.arange(salts, dtype=np.int64), n)
        )
        return rep.append_column("__rsalt", salt)

    big2 = big.map_batches(add_salt, batch_format="pyarrow")
    small2 = small.map_batches(replicate, batch_format="pyarrow")
    out = safe_join(
        big2, small2, num_partitions=num_partitions, on=(key, "__salt"),
        right_on=(right_key, "__rsalt"),
    )
    drop = [c for c in ("__salt", "__rsalt") if c in out.columns()]
    return out.drop_columns(drop) if drop else out


def detect_key_skew(
    ds: ray.data.Dataset,
    key: str,
    *,
    sample_rows: int = 100_000,
    seed: int = 42,
    n_rows: int | None = None,
) -> float:
    """Estimated share of the hottest join key, from a bounded seeded
    sample (real fraction + limit — never first-n-rows). Driver state is
    one value_counts over ≤ ``sample_rows`` keys regardless of input size.
    """
    if n_rows is None:
        n_rows = ds.count()
    if n_rows == 0:
        return 0.0
    frac = min(1.0, 1.2 * sample_rows / n_rows)
    samp = (
        ds.select_columns([key])
        .random_sample(frac, seed=seed)
        .limit(sample_rows)
        .to_pandas()[key]
    )
    if len(samp) == 0:
        return 0.0
    return float(samp.value_counts(normalize=True).iloc[0])


def auto_join(
    big: ray.data.Dataset,
    small: ray.data.Dataset,
    *,
    key: str,
    right_key: str,
    num_partitions: int | None = None,
    hot_share: float = 0.05,
    salts: int = 8,
    sample_rows: int = 100_000,
) -> ray.data.Dataset:
    """Skew-adaptive inner join: sample the big side's key distribution and
    pick the plan — plain hash join when no key exceeds ``hot_share`` of
    the sampled rows, :func:`salted_join` when one does. Both plans produce
    identical rows (salting changes partitioning only, tested), so the
    choice is purely a cost decision; the sample is bounded and seeded, so
    the plan is deterministic for a given input."""
    share = detect_key_skew(big, key, sample_rows=sample_rows)
    if share >= hot_share:
        return salted_join(
            big,
            small,
            key=key,
            right_key=right_key,
            salts=salts,
            num_partitions=num_partitions,
        )
    return safe_join(
        big, small, num_partitions=num_partitions, on=(key,),
        right_on=(right_key,),
    )


def _pareto_local(df: "pd.DataFrame", mn: str, mx: str) -> "pd.DataFrame":
    """Rows not dominated within this frame (minimize ``mn``, maximize
    ``mx``). Dominance: b dominates a iff b.mn <= a.mn and b.mx >= a.mx
    with at least one strict. Exact duplicates on (mn, mx) never dominate
    each other, matching the SQL NOT-EXISTS formulation. Vectorized:
    per-mn-value max of mx, then a strict cummax scan over ascending mn."""
    pairs = (
        df.groupby(mn, as_index=False)[mx].max().sort_values(mn, kind="mergesort")
    )
    # a distinct pair survives iff its mx strictly exceeds every mx seen at
    # a strictly smaller mn (equal mx at larger mn is dominated)
    prev_best = pairs[mx].cummax().shift(1)
    front = pairs[(prev_best.isna()) | (pairs[mx] > prev_best)]
    keyed = df.merge(front, on=[mn, mx], how="inner")
    return keyed


def pareto_front(
    ds: "ray.data.Dataset", *, minimize: str, maximize: str
) -> "ray.data.Dataset":
    """Distributed skyline (Pareto-dominance filter) on two criteria.

    Scale shape: the global front is a subset of the union of per-block
    fronts (any globally non-dominated row is non-dominated in its own
    block), so phase 1 is an embarrassingly-parallel vectorized local
    filter and phase 2 re-runs the same filter once over the (small)
    union of survivors in a single partition. The final pass holds only
    candidate front rows — bounded by the front size × blocks, not the
    corpus."""

    def local(df: pd.DataFrame) -> pd.DataFrame:
        return _pareto_local(df, minimize, maximize)

    survivors = ds.map_batches(local, batch_format="pandas")
    return survivors.repartition(1).map_batches(
        local, batch_format="pandas", batch_size=None
    )


def diff_datasets(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    key: str,
    compare: list[str],
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """Snapshot diff (CDC-style): rows ``added`` (key only in ``right``),
    ``removed`` (only in ``left``), ``modified`` (present in both, any
    ``compare`` column differs — null-safe). Unchanged rows are dropped
    map-side after one full-outer hash join, so the output is bounded by
    the CHANGE volume, not the table size."""

    def tag(side: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = [t[key]] + [t[c] for c in compare]
            names = [key] + [f"{c}__{side}" for c in compare]
            cols.append(pa.array([True] * t.num_rows))
            names.append(f"__in_{side}")
            return pa.Table.from_arrays(cols, names=names)

        return fn

    j = safe_join(
        left.map_batches(tag("l"), batch_format="pyarrow"),
        right.map_batches(tag("r"), batch_format="pyarrow"),
        join_type="full_outer", num_partitions=num_partitions, on=(key,),
    )

    def classify(t: pa.Table) -> pa.Table:
        in_l = pc.fill_null(t["__in_l"], False)
        in_r = pc.fill_null(t["__in_r"], False)
        differs = pa.array([False] * t.num_rows)
        for c in compare:
            a, b = t[f"{c}__l"], t[f"{c}__r"]
            neq = pc.fill_null(pc.not_equal(a, b), False)
            null_mismatch = pc.xor(pc.is_null(a), pc.is_null(b))
            differs = pc.or_(differs, pc.or_(neq, null_mismatch))
        change = pc.if_else(
            pc.and_(in_l, pc.invert(in_r)),
            "removed",
            pc.if_else(
                pc.and_(in_r, pc.invert(in_l)),
                "added",
                pc.if_else(differs, "modified", "unchanged"),
            ),
        )
        out = pa.Table.from_arrays([t[key], change], names=[key, "change"])
        return out.filter(pc.not_equal(change, "unchanged"))

    return j.map_batches(classify, batch_format="pyarrow")


def apply_changes(
    snapshot: "ray.data.Dataset",
    changes: "ray.data.Dataset",
    *,
    key: str,
    op_col: str = "op",
    num_partitions: int | None = None,
) -> "ray.data.Dataset":
    """CDC MERGE/upsert: apply a change feed to a snapshot. ``changes``
    carries ``op_col`` ∈ {'U' update, 'D' delete, 'I' insert} plus the full
    row payload for U/I (snapshot columns). Result = snapshot rows whose
    key is untouched (one hash-partitioned LEFT ANTI join against the
    keys-only change feed — the only exchange, sized by the CHANGE volume
    on the build side) ∪ U/I payloads (map-only).

    Deterministic contract: at most one change row per key (last-writer
    resolution is the feed compactor's job, as in log-compacted CDC);
    U on a missing key behaves as insert (standard MERGE semantics)."""
    keys_only = changes.map_batches(
        lambda t: pa.Table.from_arrays([t[key]], names=[key]),
        batch_format="pyarrow",
    )
    untouched = safe_join(
        snapshot, keys_only, join_type="left_anti",
        num_partitions=num_partitions, on=(key,),
    )
    payload_cols = [c for c in snapshot.schema().names]
    upserts = changes.map_batches(
        lambda t: pa.Table.from_arrays(
            [t[c] for c in payload_cols], names=payload_cols
        ).filter(
            pc.is_in(t[op_col], value_set=pa.array(["U", "I"]))
        ),
        batch_format="pyarrow",
    )
    return untouched.union(upserts)


def gap_ranges(ds: "ray.data.Dataset", *, col: str) -> "ray.data.Dataset":
    """Data-quality gap detection: all maximal missing ranges in an integer
    id sequence, as (gap_start, gap_end) rows.

    Distributed shape: one range-partitioning sort, then a single map over
    the sorted stream — each batch emits its INTERIOR gaps via a vectorized
    neighbor diff plus one tagged (batch-min, batch-max) summary row.
    Cross-batch gaps are stitched from the summary rows alone, which are
    bounded by the BATCH count (not the row count): after a range sort,
    batches cover disjoint contiguous id ranges, so adjacent summary rows
    in min-order decide every boundary gap exactly. Assumes unique ids
    (duplicate handling belongs to dedup, not gap detection)."""
    import numpy as np

    sorted_ds = ds.sort(col)

    def interior(t: pa.Table) -> pa.Table:
        ids = t[col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.Table.from_pydict(
                {
                    "gap_start": pa.array([], pa.int64()),
                    "gap_end": pa.array([], pa.int64()),
                    "kind": pa.array([], pa.int64()),
                }
            )
        d = np.diff(ids)
        brk = np.nonzero(d > 1)[0]
        return pa.Table.from_pydict(
            {
                "gap_start": np.concatenate(
                    [ids[brk] + 1, [int(ids[0])]]
                ).astype(np.int64),
                "gap_end": np.concatenate(
                    [ids[brk + 1] - 1, [int(ids[-1])]]
                ).astype(np.int64),
                # kind 0 = interior gap; kind 1 = (min, max) batch summary
                "kind": np.concatenate(
                    [np.zeros(len(brk), dtype=np.int64), [1]]
                ),
            }
        )

    tagged = sorted_ds.map_batches(
        interior, batch_format="pyarrow"
    ).materialize()
    gaps = tagged.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0)), batch_format="pyarrow"
    )

    # summary rows: one per batch — driver-side stitch is batch-bounded
    summaries = (
        tagged.map_batches(
            lambda t: t.filter(pc.equal(t["kind"], 1)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("gap_start", kind="mergesort")
    )
    lo = summaries["gap_start"].to_numpy()  # batch min ids
    hi = summaries["gap_end"].to_numpy()  # batch max ids
    b_start, b_end = [], []
    for k in range(1, len(lo)):
        if lo[k] > hi[k - 1] + 1:
            b_start.append(int(hi[k - 1] + 1))
            b_end.append(int(lo[k] - 1))
    boundary = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "gap_start": pa.array(b_start, pa.int64()),
                "gap_end": pa.array(b_end, pa.int64()),
                "kind": pa.array([0] * len(b_start), pa.int64()),
            }
        )
    )
    out = gaps.union(boundary) if len(b_start) else gaps
    return out.map_batches(
        lambda t: pa.Table.from_pydict(
            {"gap_start": t["gap_start"], "gap_end": t["gap_end"]}
        ),
        batch_format="pyarrow",
    )
