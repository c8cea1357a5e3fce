"""Normalize + salt stage — a stateless function the pipeline's one map
task applies to each slice of its block before extracting it (SURVEY.md
§3.4 stage 3, §4.2 "salting").

Adds ``partition_id = stable_hash(doc_id) % P`` (the ONE partitioning key,
reused by the write layout and the manifest — SURVEY.md §2.6 S3) and splits
mega-documents (span count > ``salt_threshold``) into ``(doc_id, salt)``
chunk rows so no single row blows a worker's heap. Once the slice is
extracted, :func:`merge_salted` reassembles each doc from its chunks
(§2.6 S1), so no chunk row leaves the task. Unsalted docs carry
``salt=0, n_salts=1`` and pass through both untouched.

Both halves work on the spans column's list offsets and flattened values
with Arrow and numpy kernels: the split sorts a mega-doc's spans with one
``np.lexsort`` and cuts them into chunks with new offsets, and the merge
concatenates a doc's chunk spans under new offsets. No span becomes a
Python object, and a slice with nothing to split or merge is returned
zero-copy.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from goose_parser_ray.spans import SPAN_STRUCT


def stable_hash(s: str) -> int:
    """Deterministic across processes and runs (SURVEY.md §7.6-7) —
    crc32, not ``hash()``."""
    return zlib.crc32(s.encode("utf-8")) & 0xFFFFFFFF


def coerce_spans_column(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Schema-tolerant ingest: accept any spans column whose struct carries
    the canonical FIELDS in any order / wider integer types (Arrow ``cast``
    refuses struct field reorders, so parquet written by another engine with
    alphabetized fields or int64 offsets would otherwise crash the job).
    Children are matched BY NAME and cast individually; a missing child
    becomes typed nulls (the poison-doc quarantine catches it per row).
    Zero-copy no-op when the column already matches ``SPAN_STRUCT``."""
    target = pa.list_(SPAN_STRUCT)
    if col.type == target:
        return col
    ch = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lengths = pc.fill_null(pc.list_value_length(ch), 0)
    offsets = pa.array(
        np.concatenate([[0], np.cumsum(lengths.to_numpy(zero_copy_only=False))]),
        pa.int32(),
    )
    values = ch.flatten()  # used values in row order (null lists contribute 0)
    have = {f.name for f in values.type} if pa.types.is_struct(values.type) else set()
    children = []
    for f in SPAN_STRUCT:
        if f.name in have:
            children.append(pc.cast(values.field(f.name), f.type))
        else:
            children.append(pa.nulls(len(values), f.type))
    sv = pa.StructArray.from_arrays(children, fields=list(SPAN_STRUCT))
    return pa.chunked_array([pa.ListArray.from_arrays(offsets, sv)])


NORMALIZED_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("source", pa.string()),  # per-source plan dispatch key (G8); '' if absent
        ("salt", pa.int32()),
        ("n_salts", pa.int32()),
        ("partition_id", pa.int32()),
        ("spans", pa.list_(SPAN_STRUCT)),
    ]
)


def make_normalize_fn(
    num_partitions: int,
    salt_threshold: int = 256,
    partition_source: str = "hash",
):
    """Build the stage fn (compile-time params captured once; the returned fn
    is a plain, stateless function).

    ``salt_threshold`` must be ≥ 1 (it is both the split trigger and the
    chunk size — 0 would mean zero-span chunks). Callers that want "no
    salting" pass ``None`` at the pipeline level, which sets a threshold no
    doc reaches. A row is split only when it has more spans than that and
    none of its spans or offsets is null: a row without a full order stays
    whole, as it came, and the extract quarantines it with the error
    whole-doc extraction raises. A split row's spans are sorted by
    ``offset`` (stable) and cut into ``ceil(len / salt_threshold)`` chunk
    rows; every other row keeps its spans as they came (the extract sorts
    them).

    ``partition_source``: 'hash' computes ``stable_hash(doc_id) % P`` per
    row; 'column' trusts an existing ``partition_id`` column (fragment-
    aligned mode — the reader stamped the input fragment's id, so blocks
    never straddle partitions and the hive write emits one file per block
    instead of P splits)."""
    if salt_threshold is not None and salt_threshold < 1:
        raise ValueError(
            f"salt_threshold must be >= 1 (got {salt_threshold}); "
            "pass salt_threshold=None to disable salting"
        )

    def normalize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if partition_source == "column":
            pids = pc.cast(batch["partition_id"], pa.int32())
        else:
            pids = pa.array(
                [stable_hash(str(d)) % num_partitions for d in batch["doc_id"].to_pylist()],
                pa.int32(),
            )
        spans = coerce_spans_column(batch["spans"])
        table = pa.Table.from_arrays(
            [
                pc.cast(batch["doc_id"], pa.string()),
                pc.cast(batch["source"], pa.string())
                if "source" in batch.column_names
                else pa.array([""] * n, pa.string()),
                pa.array(np.zeros(n, np.int32)),
                pa.array(np.ones(n, np.int32)),
                pids,
                spans,
            ],
            schema=NORMALIZED_SCHEMA,
        )
        lengths = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
        split = lengths > salt_threshold
        if not split.any():
            return table
        spans = spans.combine_chunks()
        values = spans.flatten()  # the non-null lists' spans, in row order
        row = np.repeat(np.arange(n), lengths)
        offset = pc.struct_field(values, "offset")  # also null for a null span
        # a row with a null offset has no order to split by: it stays whole,
        # and the extract quarantines it as it does when nothing is salted
        split[row[offset.is_null().to_numpy(zero_copy_only=False)]] = False
        if not split.any():
            return table
        # each split row's spans, sorted by offset (stable); the other rows'
        # spans keep their place
        key = np.where(split[row], pc.fill_null(offset, 0).to_numpy(), 0)
        values = values.take(np.lexsort((key, row)))
        n_chunks = np.where(split, -(-lengths // salt_threshold), 1)
        rep = np.repeat(np.arange(n), n_chunks)
        salt = np.arange(len(rep)) - np.repeat(np.cumsum(n_chunks) - n_chunks, n_chunks)
        chunk_len = np.where(
            split[rep],
            np.minimum(salt_threshold, lengths[rep] - salt * salt_threshold),
            lengths[rep],
        )
        null_list = spans.is_null().to_numpy(zero_copy_only=False)
        chunks = pa.ListArray.from_arrays(
            pa.array(np.concatenate([[0], np.cumsum(chunk_len)]), pa.int32()),
            values,
            mask=pa.array(null_list[rep]) if null_list.any() else None,
        )
        keys = table.select(["doc_id", "source", "partition_id"]).take(rep)
        return pa.Table.from_arrays(
            [
                keys["doc_id"],
                keys["source"],
                pa.array(salt, pa.int32()),
                pa.array(n_chunks[rep], pa.int32()),
                keys["partition_id"],
                chunks,
            ],
            schema=NORMALIZED_SCHEMA,
        )

    return normalize


def merge_salted(t: pa.Table) -> pa.Table:
    """Merge every salted doc of one extracted slice back into one row.

    Normalize emits all chunks of a doc together and in salt order, and the
    partition filter keeps or drops them together (they share one
    ``partition_id``), so each doc's chunk set in the slice is complete and
    contiguous: a run starts at its ``salt == 0`` row. A run's spans are
    its chunks' spans in salt order under new list offsets, their
    ``offset`` renumbered 0..n-1 within the doc. A chunk error quarantines
    the whole doc as unsalted extraction does: no spans, and the first
    chunk error in salt order, which is the error whole-doc extraction
    raises. Unsalted rows come first, untouched, then one row per run in
    run order; a slice without a salted doc passes through as it is."""
    salted = pc.greater(t["n_salts"], 1)
    if not pc.any(salted).as_py():
        return t
    s = t.filter(salted).combine_chunks()
    starts = s["salt"].to_numpy() == 0
    run = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    n_runs = len(first)
    # per run, the row of its first chunk error, -1 when it has none
    errors = s["error"].chunk(0)
    err_rows = np.flatnonzero(
        pc.fill_null(pc.not_equal(errors, ""), False).to_numpy(zero_copy_only=False)
    )
    err_runs, first_err = np.unique(run[err_rows], return_index=True)
    err_row = np.full(n_runs, -1)
    err_row[err_runs] = err_rows[first_err]
    spans = s["spans"].chunk(0)
    lengths = pc.fill_null(pc.list_value_length(spans), 0).to_numpy()
    keep = err_row[run] < 0
    counts = np.bincount(run, weights=lengths * keep, minlength=n_runs).astype(np.int64)
    values = spans.flatten()
    if not keep.all():
        values = values.filter(pa.array(np.repeat(keep, lengths)))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    position = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
    children = {f.name: a for f, a in zip(values.type, values.flatten())}
    children["offset"] = pa.array(position, pa.int32())
    merged = pa.Table.from_arrays(
        [
            s["doc_id"].take(first),
            pa.array(np.zeros(n_runs, np.int32)),
            pa.array(np.ones(n_runs, np.int32)),
            s["partition_id"].take(first),
            pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()),
                pa.StructArray.from_arrays(
                    [children[f.name] for f in SPAN_STRUCT], fields=list(SPAN_STRUCT)
                ),
            ),
            pa.array(counts, pa.int32()),
            pc.fill_null(errors.take(pa.array(err_row, mask=err_row < 0)), ""),
        ],
        schema=t.schema,
    )
    return pa.concat_tables([t.filter(pc.invert(salted)), merged])
