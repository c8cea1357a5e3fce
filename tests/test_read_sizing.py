"""Query reads size their blocks from the file's bytes: one block per
``READ_BLOCK_BYTES`` of parquet, at most ``max(8, CPUs // 2)``. A small table
read as many tiny blocks pays a fixed cost per block in every downstream
map and shuffle."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from goose_parser_ray.queries._shared import _read
from goose_parser_ray.sources.io import READ_BLOCK_BYTES


def _write(tmp_path, n_chunks: int) -> int:
    """documents.parquet of ~``n_chunks`` × READ_BLOCK_BYTES incompressible
    bytes over 4096 rows (enough rows for any block count); returns the
    expected block count before the cap."""
    rows = 4096
    payload = n_chunks * READ_BLOCK_BYTES - 64 * 1024
    rng = np.random.default_rng(n_chunks)
    blob = rng.bytes(payload)
    size = payload // rows
    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array(np.arange(rows), pa.int64()),
            "body": pa.array(
                [blob[i * size : (i + 1) * size] for i in range(rows)], pa.binary()
            ),
        }
    )
    path = tmp_path / "documents.parquet"
    pq.write_table(t, path, compression="none")
    return -(-path.stat().st_size // READ_BLOCK_BYTES)


def test_small_file_reads_as_one_block(ray_session, tmp_path):
    pq.write_table(
        pa.Table.from_pydict({"doc_id": list(range(800)), "text": ["x y"] * 800}),
        tmp_path / "documents.parquet",
    )
    ds = _read(str(tmp_path), "documents", ["doc_id"])
    assert ds.materialize().num_blocks() == 1
    assert ds.count() == 800


def test_block_count_follows_bytes_up_to_cap(ray_session, tmp_path):
    cap = max(8, int(ray.cluster_resources()["CPU"]) // 2)
    for n in (3, cap + 4):
        expected = _write(tmp_path, n)
        assert expected == n
        ds = _read(str(tmp_path), "documents").materialize()
        assert ds.num_blocks() == min(n, cap), n
        assert ds.count() == 4096
