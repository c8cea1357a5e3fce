"""Partition-counting parquet sink — the one regroup path for salted
mega-docs.

Normalize splits a mega-doc into salted chunks (``stages/normalize.py``),
and every chunk of one doc originates from ONE normalize input row, so the
chunks are almost always co-located in one block. Each write task therefore
merges them in place (:func:`partial_merge_batch`, no shuffle); the only
incomplete chunk sets left are those split across write tasks — a handful
of docs per billion, not a property of the whole stream. A general
``groupby(doc_id)`` regroup would instead move every row through an
all-to-all (measured ~14s wall + ~100s CPU on a 50k-row corpus with zero
docs salted).

:class:`PartitionSink` is the job runner's write stage. Each write task
partial-merges its blocks, writes the complete rows as hive partitions and
returns per-partition ``(rows, spans, errors)`` plus the few residual rows
that are still incomplete. ``on_write_complete`` runs on the driver once
every write task has returned: it sums the counts, merges each residual
doc's chunks in salt order (:func:`merge_residual`) and writes the merged
rows as one extra ``residual.parquet`` per partition. No actor, no per-task
RPC, no rescan of the written files; the returns are O(partitions +
residual docs), not O(corpus).

Row bookkeeping: ``salt`` = first original chunk index in the row,
``salt_count`` = chunks merged into it, ``n_salts`` = the doc's original
chunk total (invariant). A doc is complete when one row has
``salt_count == n_salts``; fully merged rows are normalized to
``salt=0, salt_count=1, n_salts=1``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Private Ray Data module, checked against ray 2.49: the subclass relies on
# ``write(blocks, ctx)`` running once per write task with its return value
# collected into ``WriteResult.write_returns`` for ``on_write_complete``.
# Re-check both when upgrading Ray.
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import Block, BlockAccessor
from ray.data.datasource import WriteResult

from goose_parser_ray.stages.extract import EXTRACT_OUT_SCHEMA


def _merge_run(rows: list[dict]) -> dict:
    """Merge salt-contiguous rows of one doc (callers guarantee contiguity
    and salt order)."""
    merged: list[dict] = []
    errors: list[str] = []
    seq = 0
    for r in rows:
        if r["error"]:
            errors.append(r["error"])
        for s in r["spans"]:
            merged.append(
                {
                    "kind": s["kind"],
                    "text": s["text"],
                    "media_ref": s["media_ref"],
                    "offset": seq,
                }
            )
            seq += 1
    base = rows[0]
    count = sum(r["salt_count"] for r in rows)
    complete = count == base["n_salts"]
    return {
        "doc_id": base["doc_id"],
        "salt": 0 if complete else base["salt"],
        "salt_count": 1 if complete else count,
        "n_salts": 1 if complete else base["n_salts"],
        "partition_id": base["partition_id"],
        "spans": merged,
        "n_spans": seq,
        "error": "; ".join(errors),
    }


def partial_merge_batch(batch: pa.Table) -> pa.Table:
    """Merge co-located contiguous chunk runs inside one block.

    Fast path: a block with no salted chunks (the overwhelming case — only
    mega-docs salt) passes through untouched; the Python-object merge below
    runs only on blocks that actually carry multi-chunk docs."""
    if batch.num_rows == 0 or not pc.any(
        pc.greater(batch["n_salts"], 1)
    ).as_py():
        return batch
    rows = batch.to_pylist()
    by_doc: dict[str, list[dict]] = {}
    out: list[dict] = []
    for r in rows:
        if r["n_salts"] == 1:
            out.append(r)
        else:
            by_doc.setdefault(r["doc_id"], []).append(r)
    for chunk_rows in by_doc.values():
        chunk_rows.sort(key=lambda r: r["salt"])
        run: list[dict] = []
        for r in chunk_rows:
            if run and r["salt"] != run[-1]["salt"] + run[-1]["salt_count"]:
                out.append(_merge_run(run))
                run = []
            run.append(r)
        if run:
            out.append(_merge_run(run))
    return pa.Table.from_pylist(out, schema=EXTRACT_OUT_SCHEMA)


# (rows, spans, errors) per partition_id
Counts = dict[int, tuple[int, int, int]]


def _partition_counts(t: pa.Table) -> Counts:
    """(rows, spans, errors) per partition_id — one arrow groupby."""
    g = (
        t.select(["partition_id", "n_spans"])
        .append_column("__err", pc.cast(pc.not_equal(t["error"], ""), pa.int64()))
        .group_by("partition_id")
        .aggregate([("n_spans", "sum"), ("__err", "sum"), ("partition_id", "count")])
    )
    return {
        pid: (n, s or 0, e or 0)
        for pid, s, e, n in zip(
            g["partition_id"].to_pylist(),
            g["n_spans_sum"].to_pylist(),
            g["__err_sum"].to_pylist(),
            g["partition_id_count"].to_pylist(),
        )
    }


def _add_counts(into: dict[int, list[int]], counts: Counts) -> None:
    for pid, row in counts.items():
        acc = into.setdefault(int(pid), [0, 0, 0])
        for i, v in enumerate(row):
            acc[i] += int(v)


class PartitionSink(ParquetDatasink):
    """Hive-partitioned (``partition_id``) parquet sink that finishes the
    salted-chunk merge and counts what it writes. After the write,
    ``counts`` holds the per-partition ``[rows, spans, errors]`` of every
    written row, merged residual docs included, and ``merge_s`` the driver
    time of the residual merge."""

    def __init__(self, path: str) -> None:
        super().__init__(path, partition_cols=["partition_id"])
        self.out_dir = Path(path)
        self.counts: dict[int, list[int]] = {}
        self.merge_s = 0.0

    def write(self, blocks: Iterable[Block], ctx) -> tuple[Counts, pa.Table | None]:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}, None
        merged = partial_merge_batch(pa.concat_tables(tables))
        incomplete = pc.greater(merged["n_salts"], 1)
        residual = None
        if pc.any(incomplete).as_py():
            residual = merged.filter(incomplete)
            merged = merged.filter(pc.invert(incomplete))
        super().write([merged], ctx)
        return _partition_counts(merged), residual

    def on_write_complete(self, write_result: WriteResult) -> None:
        t0 = time.monotonic()
        parts = []
        for counts, residual in write_result.write_returns:
            _add_counts(self.counts, counts)
            if residual is not None:
                parts.append(residual)
        merged = merge_residual(parts)
        if merged is not None:
            _add_counts(self.counts, _partition_counts(merged))
            for pid in pc.unique(merged["partition_id"]).to_pylist():
                sub = merged.filter(
                    pc.equal(merged["partition_id"], pa.scalar(pid, pa.int32()))
                ).drop_columns(["partition_id"])  # hive layout omits the key
                pdir = self.out_dir / f"partition_id={pid}"
                pdir.mkdir(parents=True, exist_ok=True)
                pq.write_table(sub, pdir / "residual.parquet")
        self.merge_s = time.monotonic() - t0


def merge_residual(parts: list[pa.Table]) -> pa.Table | None:
    """Merge every residual doc's chunks (salt order) into one final row;
    None when nothing was left incomplete."""
    if not parts:
        return None
    by_doc: dict[str, list[dict]] = {}
    for r in pa.concat_tables(parts).to_pylist():
        by_doc.setdefault(r["doc_id"], []).append(r)
    out = []
    for doc_id in sorted(by_doc):
        merged = _merge_run(sorted(by_doc[doc_id], key=lambda r: r["salt"]))
        merged["salt"], merged["salt_count"], merged["n_salts"] = 0, 1, 1
        out.append(merged)
    return pa.Table.from_pylist(out, schema=EXTRACT_OUT_SCHEMA)
