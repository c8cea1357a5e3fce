"""Partition-counting sink regroup fast path (stages/residual.py): chunks of
one doc split across two write tasks must be withheld from the written
stream and come back from the driver-side merge in ``on_write_complete``,
in salt order, offsets renumbered, as the partition's ``residual.parquet``;
the sink's counts cover every written row."""

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
from ray.data._internal.execution.interfaces import TaskContext
from ray.data._internal.planner.plan_write_op import WRITE_UUID_KWARG_NAME
from ray.data.datasource import WriteResult

from goose_parser_ray.stages.extract import EXTRACT_OUT_SCHEMA
from goose_parser_ray.stages.residual import PartitionSink, merge_residual


def chunk_row(doc_id, salt, n_salts, texts, pid=0):
    return {
        "doc_id": doc_id,
        "salt": salt,
        "salt_count": 1,
        "n_salts": n_salts,
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
    """doc_ids of the complete rows the write tasks wrote."""
    files = sorted(
        str(f) for f in path.glob("partition_id=*/*.parquet") if f.name != "residual.parquet"
    )
    if not files:
        return []
    return pads.dataset(files, format="parquet").to_table()["doc_id"].to_pylist()


def residual_rows(path):
    """{partition_id: rows} of the driver-side merge's output files."""
    return {
        int(f.parent.name.split("=")[1]): pq.read_table(f).to_pylist()
        for f in sorted(path.glob("partition_id=*/residual.parquet"))
    }


def test_cross_block_residual_merge(tmp_path):
    # task 1: unsalted doc + first two chunks of mega-doc M (out of 3);
    # task 2: the last chunk of M
    sink, (ret1, ret2) = run_sink(
        tmp_path,
        [
            [[chunk_row("plain", 0, 1, ["p0"]), chunk_row("M", 0, 3, ["a", "b"]), chunk_row("M", 1, 3, ["c"])]],
            [[chunk_row("M", 2, 3, ["d", "e"])]],
        ],
    )
    # plain passes through; M's partial merge is withheld
    assert written_ids(tmp_path) == ["plain"]
    assert ret1[0] == {0: (1, 1, 0)} and ret1[1].num_rows == 1
    assert ret2[0] == {} and ret2[1].num_rows == 1
    # counts: plain (1 span) from task 1, merged M (5 spans) from the driver
    assert sink.counts == {0: [2, 6, 0]}

    merged = residual_rows(tmp_path)
    assert list(merged) == [0] and len(merged[0]) == 1
    row = merged[0][0]
    assert row["doc_id"] == "M"
    assert [s["text"] for s in row["spans"]] == ["a", "b", "c", "d", "e"]
    assert [s["offset"] for s in row["spans"]] == [0, 1, 2, 3, 4]
    assert row["n_salts"] == 1 and row["salt"] == 0

    # nothing residual, nothing merged
    assert merge_residual([]) is None


def test_blocks_of_one_task_merge_in_the_sink(tmp_path):
    # M's chunks in two blocks of the SAME task: complete before writing
    sink, _ = run_sink(
        tmp_path,
        [[[chunk_row("M", 0, 2, ["a"], pid=3)], [chunk_row("M", 1, 2, ["b", "c"], pid=3)]]],
    )
    assert residual_rows(tmp_path) == {}
    assert written_ids(tmp_path) == ["M"]
    assert sink.counts == {3: [1, 3, 0]}


def test_stream_without_residual_rows(tmp_path):
    bad = chunk_row("q", 0, 1, [], pid=1)
    bad["error"] = "ValueError: poison"
    sink, _ = run_sink(
        tmp_path,
        [
            [[chunk_row("a", 0, 1, ["x", "y"]), bad]],
            [[chunk_row("b", 0, 1, ["z"], pid=1)]],
            [],  # a task that received no rows
        ],
    )
    assert residual_rows(tmp_path) == {}
    assert sorted(written_ids(tmp_path)) == ["a", "b", "q"]
    assert sink.counts == {0: [1, 2, 0], 1: [2, 1, 1]}


def test_out_of_order_chunks_merge_in_salt_order(tmp_path):
    # chunks arrive in reverse salt order, in separate tasks
    sink, _ = run_sink(
        tmp_path,
        [[[chunk_row("Z", salt, 2, texts)]] for salt, texts in [(1, ["later"]), (0, ["first"])]],
    )
    (row,) = residual_rows(tmp_path)[0]
    assert [s["text"] for s in row["spans"]] == ["first", "later"]
    assert sink.counts == {0: [1, 2, 0]}
