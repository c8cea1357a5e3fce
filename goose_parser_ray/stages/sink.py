"""Partition-counting parquet sink — the job runner's write stage.

Every row that reaches it is a whole document: the extract task merged each
salted mega-doc back from its chunks in the slice that split it
(``stages.normalize.merge_salted``). :class:`PartitionSink` writes each
task's blocks as hive partitions and returns their per-partition
``(rows, spans, errors)``; ``on_write_complete`` sums those on the driver
once every write task has returned. No actor, no per-task RPC, no rescan of
the written files; the returns are O(partitions), not O(corpus).
"""

from __future__ import annotations

from collections.abc import Iterable

import pyarrow as pa
import pyarrow.compute as pc

# Private Ray Data module, checked against ray 2.49: the subclass relies on
# ``write(blocks, ctx)`` running once per write task with its return value
# collected into ``WriteResult.write_returns`` for ``on_write_complete``.
# Re-check both when upgrading Ray.
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import Block, BlockAccessor
from ray.data.datasource import WriteResult

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


class PartitionSink(ParquetDatasink):
    """Hive-partitioned (``partition_id``) parquet sink that counts what it
    writes. After the write, ``counts`` holds the per-partition
    ``[rows, spans, errors]`` of every written row."""

    def __init__(self, path: str) -> None:
        super().__init__(path, partition_cols=["partition_id"])
        self.counts: dict[int, list[int]] = {}

    def write(self, blocks: Iterable[Block], ctx) -> Counts:
        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return {}
        t = pa.concat_tables(tables)
        super().write([t], ctx)
        return _partition_counts(t)

    def on_write_complete(self, write_result: WriteResult) -> None:
        for counts in write_result.write_returns:
            for pid, row in counts.items():
                acc = self.counts.setdefault(int(pid), [0, 0, 0])
                for i, v in enumerate(row):
                    acc[i] += int(v)
