"""Normalize + salt stage — stateless ``map_batches`` tasks (SURVEY.md §3.4
stage 3, §4.2 "salting").

Adds ``partition_id = stable_hash(doc_id) % P`` (the ONE partitioning key,
reused by the write layout and the manifest — SURVEY.md §2.6 S3) and splits
mega-documents (span count > ``salt_threshold``) into ``(doc_id, salt)``
chunk rows so no single row blows an actor's heap; the write stage
(``stages.residual.PartitionSink``) reassembles them (§2.6 S1). Unsalted
docs carry ``salt=0, n_salts=1`` and pass through that merge untouched.
"""

from __future__ import annotations

import zlib

import pyarrow as pa

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
    import numpy as np
    import pyarrow.compute as pc

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
    is a plain function → stateless Ray tasks).

    ``salt_threshold`` must be ≥ 1 (it is both the split trigger and the
    chunk size — 0 would mean zero-span chunks). Callers that want "no
    salting" pass ``None`` at the pipeline level, which skips this stage's
    salting branch entirely.

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
        import pyarrow.compute as pc

        spans_idx = batch.column_names.index("spans")
        batch = batch.set_column(
            spans_idx,
            pa.field("spans", pa.list_(SPAN_STRUCT)),
            coerce_spans_column(batch["spans"]),
        )
        doc_ids = batch["doc_id"].to_pylist()
        n = len(doc_ids)
        if partition_source == "column":
            pids = batch["partition_id"].to_pylist()
            batch = batch.drop_columns(["partition_id"])
        else:
            pids = [stable_hash(str(d)) % num_partitions for d in doc_ids]

        # fast path: no mega-doc in this batch → spans column passes through
        # untouched (zero-copy); the python row loop below only runs for
        # batches that actually contain something to salt
        lengths = pc.list_value_length(batch["spans"])
        max_len = pc.max(lengths).as_py() or 0
        if max_len <= salt_threshold:
            source_col = (
                pc.cast(batch["source"], pa.string())
                if "source" in batch.column_names
                else pa.array([""] * n, pa.string())
            )
            zeros = pa.array([0] * n, pa.int32())
            ones = pa.array([1] * n, pa.int32())
            return pa.Table.from_arrays(
                [
                    pc.cast(batch["doc_id"], pa.string()),
                    source_col,
                    zeros,
                    ones,
                    pa.array(pids, pa.int32()),
                    batch["spans"],
                ],
                schema=NORMALIZED_SCHEMA,
            )

        spans_col = batch["spans"].to_pylist()
        sources = (
            batch["source"].to_pylist()
            if "source" in batch.column_names
            else [""] * n
        )
        out = {
            "doc_id": [], "source": [], "salt": [], "n_salts": [],
            "partition_id": [], "spans": [],
        }
        for doc_id, source, spans, row_pid in zip(
            doc_ids, sources, spans_col, pids
        ):
            doc_id = str(doc_id)
            source = "" if source is None else str(source)
            pid = int(row_pid)
            spans = sorted(spans or [], key=lambda s: s["offset"])
            if len(spans) <= salt_threshold:
                chunks = [spans]
            else:
                chunks = [
                    spans[i : i + salt_threshold]
                    for i in range(0, len(spans), salt_threshold)
                ]
            for k, chunk in enumerate(chunks):
                out["doc_id"].append(doc_id)
                out["source"].append(source)
                out["salt"].append(k)
                out["n_salts"].append(len(chunks))
                out["partition_id"].append(pid)
                out["spans"].append(chunk)
        return pa.Table.from_pydict(out, schema=NORMALIZED_SCHEMA)

    return normalize
