"""Partition-counting parquet sink (stages/sink.py): every write task writes
its rows as hive partitions and returns their per-partition counts, which
``on_write_complete`` sums on the driver."""

import pyarrow as pa
import pyarrow.dataset as pads
from ray.data._internal.execution.interfaces import TaskContext
from ray.data._internal.planner.plan_write_op import WRITE_UUID_KWARG_NAME
from ray.data.datasource import WriteResult

from goose_parser_ray.stages.extract import EXTRACT_OUT_SCHEMA
from goose_parser_ray.stages.sink import PartitionSink


def doc_row(doc_id, texts, pid=0):
    return {
        "doc_id": doc_id,
        "salt": 0,
        "n_salts": 1,
        "partition_id": pid,
        "spans": [
            {"kind": "text", "text": t, "media_ref": "", "offset": i}
            for i, t in enumerate(texts)
        ],
        "n_spans": len(texts),
        "error": "",
    }


def run_sink(path, blocks_per_task):
    """Drive the sink as the Write operator does: one ``write`` call per
    task, then ``on_write_complete`` on the driver with every return."""
    sink = PartitionSink(str(path))
    sink.on_write_start()
    returns = []
    for idx, blocks in enumerate(blocks_per_task):
        ctx = TaskContext(task_idx=idx, op_name="Write", kwargs={WRITE_UUID_KWARG_NAME: "w"})
        tables = [pa.Table.from_pylist(rows, schema=EXTRACT_OUT_SCHEMA) for rows in blocks]
        returns.append(sink.write(tables, ctx))
    sink.on_write_complete(WriteResult(num_rows=0, size_bytes=0, write_returns=returns))
    return sink, returns


def written_ids(path):
    files = sorted(str(f) for f in path.glob("partition_id=*/*.parquet"))
    if not files:
        return []
    return pads.dataset(files, format="parquet").to_table()["doc_id"].to_pylist()


def test_stream_without_residual_rows(tmp_path):
    bad = doc_row("q", [], pid=1)
    bad["error"] = "ValueError: poison"
    sink, returns = run_sink(
        tmp_path,
        [
            [[doc_row("a", ["x", "y"]), bad]],
            [[doc_row("b", ["z"], pid=1)]],
            [],  # a task that received no rows
        ],
    )
    assert returns == [{0: (1, 2, 0), 1: (1, 0, 1)}, {1: (1, 1, 0)}, {}]
    assert sorted(written_ids(tmp_path)) == ["a", "b", "q"]
    assert sink.counts == {0: [1, 2, 0], 1: [2, 1, 1]}
