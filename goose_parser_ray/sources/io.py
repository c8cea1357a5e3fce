"""IO shim: Lance-shaped tables, Parquet transport (SURVEY.md §7.0).

``read_documents``/``write_spans`` are the ONLY points where storage format
appears; when ``pylance`` exists, ``ray.data.read_lance``/``write_lance``
slot in here without touching pipeline code.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data

# Input bytes per read block, for extraction waves
# (``pipelines.extraction.read_block_count``) and for small query tables
# (``queries._shared._read``): ~900 wrapped docs or ~2.3k rule-carrying case
# docs. Every block pays a fixed per-task cost downstream, so a block should
# carry enough bytes to amortize it.
READ_BLOCK_BYTES = 128 << 10


def _lance_available() -> bool:
    try:  # pragma: no cover - sandbox has no pylance
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def read_documents(
    path: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
    fmt: str | None = None,
) -> ray.data.Dataset:
    """Read an interleaved-span documents table (FIXTURES.md F1 schema).

    ``fmt`` selects the source format (``parquet`` | ``jsonl`` | ``csv`` |
    ``lance``); when omitted it is inferred from the file extension
    (directories and ``.parquet`` → parquet). Parquet/Lance are the scale
    path — column pruning is passed down to the reader so only requested
    columns leave storage (read-level pruning — a 100 TB corpus must never
    ship unused columns through the object store). JSONL/CSV are ingest
    formats: rows are parsed distributed (one read task per file/block)
    but pruning happens post-parse, so convert to parquet before repeated
    scans. ``num_blocks`` controls block granularity: finer blocks keep
    every CPU busy to the end of an extraction wave (measured: coarse
    ~9k-row blocks left each slot ~1.8s idle at the end), but every block
    pays a fixed per-task cost, so ``extract_corpus`` sizes it from the
    input bytes (``pipelines.extraction.read_block_count``)."""
    if fmt is None:
        low = path.lower()
        if low.endswith((".jsonl", ".json", ".ndjson")):
            fmt = "jsonl"
        elif low.endswith(".csv"):
            fmt = "csv"
        elif low.endswith((".arrow", ".feather", ".ipc")):
            fmt = "arrow"
        elif low.endswith(".avro"):
            fmt = "avro"
        elif _lance_available():  # pragma: no cover
            fmt = "lance"
        else:
            fmt = "parquet"
    kw = {"override_num_blocks": num_blocks} if num_blocks else {}
    if fmt == "lance":  # pragma: no cover - sandbox has no pylance
        return ray.data.read_lance(path, columns=columns)
    if fmt == "jsonl":
        ds = ray.data.read_json(path, **kw)
        return ds.select_columns(columns) if columns else ds
    if fmt == "csv":
        ds = ray.data.read_csv(path, **kw)
        return ds.select_columns(columns) if columns else ds
    if fmt == "arrow":
        # Arrow IPC / Feather ingest: one read task per file (the file is
        # the parallelism unit — IPC has no row-group pruning, so like
        # JSONL/CSV this is an ingest format: convert to parquet/lance
        # before repeated scans). Handles Feather v1/v2 and stream IPC.
        import pyarrow.feather as _feather

        ds = ray.data.read_binary_files(path, **kw)

        def _parse_ipc(t: "pa.Table") -> "pa.Table":
            tables = []
            for buf in t["bytes"].to_pylist():
                reader = pa.BufferReader(buf)
                try:
                    tbl = _feather.read_table(reader)
                except pa.ArrowInvalid:
                    reader.seek(0)
                    tbl = pa.ipc.open_stream(reader).read_all()
                tables.append(
                    tbl.select(columns) if columns else tbl
                )
            return pa.concat_tables(tables)

        return ds.map_batches(_parse_ipc, batch_format="pyarrow", batch_size=1)
    if fmt == "avro":
        # Avro object containers via the in-repo wire codec
        # (sources/avromini.py). Like JSONL/Arrow-IPC this is an ingest
        # format — the FILE is the parallelism unit (no row-group pruning;
        # blocks share one schema header) and pruning happens post-parse.
        from goose_parser_ray.sources.avromini import decode_avro

        ds = ray.data.read_binary_files(path, **kw)

        def _parse_avro(t: "pa.Table") -> "pa.Table":
            tables = []
            for buf in t["bytes"].to_pylist():
                names, cols = decode_avro(bytes(buf))
                tbl = pa.table({n: cols[n] for n in names})
                tables.append(tbl.select(columns) if columns else tbl)
            return pa.concat_tables(tables)

        return ds.map_batches(_parse_avro, batch_format="pyarrow", batch_size=1)
    if fmt != "parquet":
        raise ValueError(f"unknown documents format: {fmt!r}")
    return ray.data.read_parquet(path, columns=columns, **kw)


def _write_shards(
    ds: ray.data.Dataset, out_dir: str, encode, name: str
) -> None:
    """Write one file per block of ``ds`` into ``out_dir`` (the
    resumable-shards discipline: never one giant file). ``encode(table)``
    returns the file's bytes; ``name`` is a pattern over ``uniq``, ``tag``
    and ``rows``. Fully distributed: each block encodes and writes its own
    shard from the worker, nothing funnels through the driver.

    The crc32 ``tag`` is an integrity hint only; the uuid ``uniq`` keeps
    names unique, so two blocks with identical content (duplicate rows) or
    a crc32 collision cannot overwrite each other and drop rows."""
    import os
    import uuid
    import zlib

    os.makedirs(out_dir, exist_ok=True)

    def _write(t: "pa.Table") -> "pa.Table":
        payload = encode(t)
        fname = name.format(
            uniq=uuid.uuid4().hex[:12],
            tag=zlib.crc32(payload) & 0xFFFFFFFF,
            rows=t.num_rows,
        )
        with open(os.path.join(out_dir, fname), "wb") as f:
            f.write(payload)
        return pa.table({"rows": [t.num_rows]})

    # consume for effect; the tiny per-block row counts are the only output
    ds.map_batches(_write, batch_format="pyarrow").materialize()


def write_avro_shards(
    ds: ray.data.Dataset, out_dir: str, schema: dict, codec: str = "deflate"
) -> None:
    """Write a Dataset as one Avro object container per block
    (``_write_shards``). Schema must be the primitive-record subset
    ``avromini`` supports; field order follows the schema."""

    def encode(t: "pa.Table") -> bytes:
        from goose_parser_ray.sources.avromini import encode_avro

        names = [f["name"] for f in schema["fields"]]
        return encode_avro({n: t[n].to_pylist() for n in names}, schema, codec=codec)

    _write_shards(ds, out_dir, encode, "part-{uniq}-{tag:08x}-{rows}.avro")


def read_extracted(path: str) -> ray.data.Dataset:
    """Read back an extraction output directory. Hive partitioning restores
    ``partition_id`` as a STRING column (pyarrow partition inference); this
    normalizes it to int32 so round-trips keep the pipeline schema."""
    import pyarrow as pa
    import pyarrow.compute as pc

    ds = ray.data.read_parquet(path)

    def fix(t: "pa.Table") -> "pa.Table":
        if "partition_id" in t.column_names and t.schema.field(
            "partition_id"
        ).type == pa.string():
            idx = t.column_names.index("partition_id")
            t = t.set_column(
                idx, "partition_id", pc.cast(t["partition_id"], pa.int32())
            )
        return t

    return ds.map_batches(fix, batch_format="pyarrow")


def write_spans(ds: ray.data.Dataset, path: str, **kwargs) -> None:
    """Write span rows as partitioned Parquet (a directory of part files —
    resumable layout, never one giant file)."""
    if _lance_available():  # pragma: no cover
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)


def compact_shards(
    in_dir: str,
    out_dir: str,
    target_rows_per_file: int,
    columns: "list[str] | None" = None,
) -> dict:
    """Small-file compaction — the maintenance op every long-running
    100 TB pipeline needs (a resumable job that commits per input shard
    leaves thousands of tiny part files; readers then pay per-file open
    cost and lose row-group pruning).

    Shuffle-free by design: ``read_parquet`` coalesces many small
    fragments into few blocks at the READER (Ray packs fragments to the
    target block size — no all-to-all), and the writer re-slices blocks to
    ``target_rows_per_file`` bounds. Returns ``{files_in, files_out,
    rows}`` so callers/tests can assert the compaction actually happened.
    """
    import os

    def _count_files(d: str) -> int:
        n = 0
        for root, _dirs, files in os.walk(d):
            n += sum(f.endswith(".parquet") for f in files)
        return n

    ds = ray.data.read_parquet(in_dir, columns=columns)
    rows = ds.count()
    ds.write_parquet(
        out_dir,
        min_rows_per_file=target_rows_per_file,
        max_rows_per_file=target_rows_per_file,
    )
    return {
        "files_in": _count_files(in_dir),
        "files_out": _count_files(out_dir),
        "rows": rows,
    }


def read_evolving(path: str, target_schema: "pa.Schema") -> ray.data.Dataset:
    """Schema-evolution read over heterogeneous parquet shards (old shards
    missing later-added columns, or carrying narrower integer types).
    Passing an explicit unified schema pushes the evolution INTO the
    pyarrow scanner: missing columns come back as typed nulls and
    compatible types are cast per fragment at the read — no post-hoc
    per-batch fixup stage, no driver-side schema sniffing loop."""
    return ray.data.read_parquet(path, schema=target_schema)


def write_record_shards(
    ds: ray.data.Dataset, out_dir: str, payload_col: str = "payload"
) -> None:
    """Write a binary column as TFRecord-style shards, one container per
    block (``_write_shards``; masked-CRC32C framing via ``recordio``)."""

    def encode(t: "pa.Table") -> bytes:
        from goose_parser_ray.sources.recordio import encode_records

        return encode_records([p or b"" for p in t[payload_col].to_pylist()])

    _write_shards(ds, out_dir, encode, "part-{uniq}-{tag:08x}-{rows}.rec")


def read_record_shards(path: str) -> ray.data.Dataset:
    """Read TFRecord-style shards back as a one-binary-column Dataset
    (``payload``). The FILE is the parallelism unit; both CRCs of every
    record are verified during decode (bit-rot raises, never silently
    yields a corrupt example)."""
    files = ray.data.read_binary_files(path)

    def _decode(t: "pa.Table") -> "pa.Table":
        from goose_parser_ray.sources.recordio import decode_records

        out = []
        for blob in t["bytes"].to_pylist():
            out.extend(decode_records(blob))
        return pa.table({"payload": pa.array(out, pa.binary())})

    return files.map_batches(_decode, batch_format="pyarrow")


def write_tar_shards(
    ds: "ray.data.Dataset",
    out_dir: str,
    members_fn,
) -> None:
    """WebDataset-style shard writer: one POSIX ustar archive per block
    (``_write_shards``; ``functions/tarmini`` — stdlib-interoperable,
    differential-tested). ``members_fn(table) -> [(name, bytes), ...]``
    supplies the members."""

    def encode(t: "pa.Table") -> bytes:
        from goose_parser_ray.functions.tarmini import encode_tar

        return encode_tar(members_fn(t))

    _write_shards(ds, out_dir, encode, "shard-{uniq}-{tag:08x}-{rows}.tar")


def read_tar_shards(path: str) -> "ray.data.Dataset":
    """Read WebDataset tar shards back as (sample key, member name,
    payload) rows — the FILE is the parallelism unit; every member's
    header checksum is verified during decode."""
    files = ray.data.read_binary_files(path)

    def _decode(t: "pa.Table") -> "pa.Table":
        from goose_parser_ray.functions.tarmini import decode_tar

        keys, names, payloads = [], [], []
        for blob in t["bytes"].to_pylist():
            for name, payload in decode_tar(blob):
                stem, _, ext = name.rpartition(".")
                keys.append(stem)
                names.append(ext)
                payloads.append(payload)
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "ext": pa.array(names, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    return files.map_batches(_decode, batch_format="pyarrow")
