"""Global ordered scan + training-example sequence packing.

A training-data pipeline's last step concatenates tokenized documents in a
deterministic global order and chunks the stream into fixed-length
examples (the standard pack-and-chunk used for LLM pretraining). The core
primitive is an EXCLUSIVE PREFIX SUM over a global order — a window
``SUM ... ROWS UNBOUNDED PRECEDING`` in SQL — which Ray Data has no
operator for. :func:`global_scan_offsets` is the package's one ordered
scan (packing, epoch shuffles, global row numbers and ranks, curricula,
PPS samples, KS and AUC statistics, sorted-neighborhood blocking all run
on it), a two-light-pass range-bucketed scan:

0. range bounds from a seeded sample of the leading order key (bounded,
   ~32 keys per range; range count is data-proportional via
   ``dedup.num_shuffle_buckets``), so a skewed key cannot build one giant
   range, and no arithmetic is done on key values (strings work);
1. per-range weight totals (map-side partials collected on the driver),
   cumsummed into per-range BASE offsets (O(ranges) driver work, never
   O(rows));
2. one range-bucketed ``map_groups`` sorts each range locally by the
   order columns and emits base + local exclusive cumsum.

A row's range is ``searchsorted(bounds, key, side="right")``: monotone in
the key, and equal leading keys share a range, so range order == key order
and ties on the trailing order columns are settled inside one group.
Group payload is ~rows/ranges — bounded at any corpus size.

Upstream parity note: the reference engine (SURVEY.md §2.6) has no
packing stage — this is part of the §2.6 "training-data operations"
mandate, not a goose-parser port.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions import dedup

# Seeds the boundary sample. The sample only shapes range SIZES, never an
# offset, so the output does not depend on it; a fixed seed keeps reruns
# on one layout.
_SAMPLE_SEED = 42

_RANGE = "__range"


def global_scan_offsets(
    ds: ray.data.Dataset,
    *,
    order_col: str | list[str],
    size_col: str | None = None,
    offset_col: str = "start_off",
    n_rows: int | None = None,
) -> ray.data.Dataset:
    """Add ``offset_col`` = exclusive prefix sum of ``size_col`` in global
    ``order_col`` order. ``order_col`` is one column or a list, compared
    lexicographically; together they must be unique (ties would make the
    scan ambiguous). With ``size_col=None`` every row weighs 1, so the
    offset is the row's 0-based dense rank. ``n_rows`` sizes the ranges;
    defaults to ``ds.count()`` (metadata-only on a plain read, pass an
    upper bound when ``ds`` is mid-pipeline). Empty input gives no rows."""
    cols = [order_col] if isinstance(order_col, str) else list(order_col)
    lead = cols[0]
    if n_rows is None:
        n_rows = ds.count()
    nb = dedup.num_shuffle_buckets(n_rows)

    # range bounds: ~32 sampled leading keys per range, capped
    want = min(nb * 32, 65_536)
    frac = 1.0 if n_rows <= want else 1.2 * want / n_rows
    samp = (
        ds.select_columns([lead])
        .random_sample(frac, seed=_SAMPLE_SEED)
        .limit(want)
        .to_pandas()
    )
    keys = np.sort(samp[lead].to_numpy()) if len(samp) else np.array([])
    cut = np.linspace(0, len(keys) - 1, nb + 1)[1:-1].astype(int)
    bounds = np.unique(keys[cut]) if len(keys) else keys  # none: one range

    def range_of(t: pa.Table) -> np.ndarray:
        k = t[lead].to_numpy(zero_copy_only=False)
        return np.searchsorted(bounds, k, side="right").astype(np.int64)

    def weights(t: pa.Table | pd.DataFrame) -> np.ndarray:
        if size_col is None:
            return np.ones(len(t), dtype=np.int64)
        return np.asarray(t[size_col]).astype(np.int64)

    # pass 1: per-range totals, exact integer partials per block
    def range_sums(t: pa.Table) -> pa.Table:
        sums = np.zeros(len(bounds) + 1, dtype=np.int64)
        np.add.at(sums, range_of(t), weights(t))
        nz = np.flatnonzero(sums)
        return pa.table({"r": nz.astype(np.int64), "s": sums[nz]})

    partials = (
        ds.select_columns(cols[:1] + ([size_col] if size_col else []))
        .map_batches(range_sums, batch_format="pyarrow", batch_size=None)
        .to_pandas()
    )
    totals = np.zeros(len(bounds) + 1, dtype=np.int64)
    if len(partials):
        np.add.at(totals, partials["r"].to_numpy(), partials["s"].to_numpy())
    bases = np.cumsum(totals) - totals  # exclusive, captured by local_scan

    # pass 2: range-bucketed local scan (the one real shuffle)
    def tag_range(t: pa.Table) -> pa.Table:
        # no pandas metadata into the shuffle: Ray cannot hash its schema
        t = t.append_column(_RANGE, pa.array(range_of(t)))
        return t.replace_schema_metadata(None)

    def local_scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(cols, kind="mergesort", ignore_index=True)
        w = weights(g)
        g[offset_col] = bases[g[_RANGE].iloc[0]] + np.cumsum(w) - w
        return g.drop(columns=_RANGE)

    tagged = ds.map_batches(tag_range, batch_format="pyarrow")
    return tagged.groupby(_RANGE).map_groups(local_scan, batch_format="pandas")


def pack_sequences(
    ds: ray.data.Dataset,
    *,
    order_col: str,
    size_col: str,
    seq_len: int,
    n_rows: int | None = None,
) -> ray.data.Dataset:
    """Pack-and-chunk: concatenate docs in ``order_col`` order and cut the
    token stream into ``seq_len``-token training examples. Emits per doc
    its stream offset and the [ex_start, ex_end] example-index range it
    lands in (a doc spanning a boundary appears in consecutive examples —
    the standard pretraining layout). Rows with ``size_col`` == 0 must be
    filtered upstream (a zero-length doc has no position in the stream)."""
    ds = global_scan_offsets(
        ds, order_col=order_col, size_col=size_col, n_rows=n_rows
    )

    def chunk(t: pa.Table) -> pa.Table:
        off = t["start_off"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t[size_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.append_column("ex_start", pa.array(off // seq_len))
        t = t.append_column("ex_end", pa.array((off + n - 1) // seq_len))
        return t

    return ds.map_batches(chunk, batch_format="pyarrow")


def epoch_shuffle_shards(
    ds: ray.data.Dataset,
    *,
    id_col: str = "doc_id",
    n_shards: int = 8,
    stride: int = 9973,
    n_rows: int | None = None,
) -> ray.data.Dataset:
    """Deterministic epoch shuffle → training-shard assignment: permute the
    corpus by the STRIDED order (id mod stride, id) — the classic exact
    interleave that scatters storage-adjacent docs ``stride`` shards apart —
    then deal the permuted sequence round-robin into ``n_shards``:
    ``shard`` = rank % n_shards, ``pos`` = rank // n_shards. Varying the
    (prime) ``stride`` per epoch gives a fresh deterministic permutation
    each epoch with zero stored state — re-runnable on resume, identical on
    every engine (no seeded RNG to reconcile).

    The global rank is the ``global_scan_offsets`` dense rank over the
    composite key (id mod stride)·2⁴⁰ + id — exact, two light passes,
    never a driver-side sort. Requires 0 ≤ id < 2⁴⁰ (1.1e12 docs) and
    stride < 2²² so the composite stays inside int64."""
    if not (0 < stride < (1 << 22)):
        raise ValueError("stride must be in (0, 2^22)")

    def add_key(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= (1 << 40)):
            raise ValueError(
                "epoch_shuffle_shards requires 0 <= id < 2^40; got "
                f"[{ids.min()}, {ids.max()}]"
            )
        key = (ids % np.int64(stride)) * np.int64(1 << 40) + ids
        return pa.Table.from_arrays(
            [t[id_col], pa.array(key)], names=[id_col, "__key"]
        )

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    ranked = global_scan_offsets(
        keyed, order_col="__key", offset_col="__rank", n_rows=n_rows,
    )

    def deal(t: pa.Table) -> pa.Table:
        r = t["__rank"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.Table.from_arrays(
            [
                t[id_col],
                pa.array(r % np.int64(n_shards)),
                pa.array(r // np.int64(n_shards)),
            ],
            names=[id_col, "shard", "pos"],
        )

    return ranked.map_batches(deal, batch_format="pyarrow")
