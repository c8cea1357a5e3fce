"""Shard writers in sources/io.py: one file per block, and every row reads
back through the matching reader — also when two blocks are byte-identical
(their shards must not share a file name and overwrite each other)."""

import os

import pyarrow as pa
import pytest
import ray.data

from goose_parser_ray.sources.io import (
    read_documents,
    read_record_shards,
    read_tar_shards,
    write_avro_shards,
    write_record_shards,
    write_tar_shards,
)

AVRO_SCHEMA = {
    "type": "record",
    "name": "d",
    "fields": [{"name": "doc_id", "type": "long"}, {"name": "text", "type": "string"}],
}


# format -> (write(ds, out_dir), read(out_dir), file-name prefix, suffix)
WRITERS = {
    "avro": (
        lambda ds, out: write_avro_shards(ds, out, AVRO_SCHEMA),
        lambda out: read_documents(out, fmt="avro"),
        "part-",
        ".avro",
    ),
    "record": (write_record_shards, read_record_shards, "part-", ".rec"),
    "tar": (
        # the members function runs on workers, so it must pickle by value
        lambda ds, out: write_tar_shards(
            ds,
            out,
            lambda t: [
                (f"{d}.txt", p)
                for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist())
            ],
        ),
        read_tar_shards,
        "shard-",
        ".tar",
    ),
}


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_identical_blocks_all_read_back(fmt, tmp_path, ray_session):
    write, read, prefix, suffix = WRITERS[fmt]
    block = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["a", "b", "c"],
            "payload": [b"x", b"y", b"z"],
        }
    )
    ds = ray.data.from_arrow([block, block])
    assert ds.num_blocks() == 2
    out = str(tmp_path / fmt)
    write(ds, out)
    files = os.listdir(out)
    assert len(files) == 2, files
    assert all(f.startswith(prefix) and f.endswith(suffix) for f in files), files
    assert read(out).count() == 2 * block.num_rows
