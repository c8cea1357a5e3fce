"""Driver-contract query surface (``__ray_entry__.queries`` / ``oracle_sql``).

One entry per operator from SURVEY.md §2 / §2.6 plus the training-data ops.
Each Ray implementation is paired with ANSI SQL the driver runs in DuckDB on
the same parquet; column NAMES and value semantics must match exactly
(driver hashes values after sorting columns by name).

Float-sum parity: double sums are order-dependent in IEEE arithmetic, and the
Ray and DuckDB plans sum in different orders. Every monetary/real aggregate
is therefore computed as an integer-cents sum — per-element
``CAST(ROUND(100*x) AS BIGINT)`` on both sides (element-wise rounding is
deterministic; int64 sums are exact in any order).

Ray never calls ``ray.init`` here — the driver owns the session.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from goose_parser_ray.sources.io import READ_BLOCK_BYTES


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    """Column-pruned parquet read with a SMALL-INPUT anti-over-split guard.
    Every read block becomes a task in each downstream map and a piece in
    every shuffle, and each pays a fixed cost whatever its size (measured:
    dedup_minhash 5.4s → 3.7s at sf0.1 just from 64 → 8 read blocks; on 4
    CPUs an identity groupby over 800 rows took 0.37s at 8 blocks and 64
    groups, 0.12s at 1 block and 4 groups). Under 1M rows a file therefore gets one block
    per ``READ_BLOCK_BYTES`` of parquet, capped at ``max(8, CPUs // 2)``: a
    97 KB table reads as 1 block, sf0.1's 595 KB ``documents`` as 5. At
    real corpus scale the guard never triggers and Ray's native block
    sizing (target_max_block_size against file fragments) governs."""
    path = f"{sf_dir}/{table}.parquet"
    nb = None
    try:
        import pyarrow.parquet as pq

        if pq.read_metadata(path).num_rows < 1_000_000:
            by_bytes = -(-os.path.getsize(path) // READ_BLOCK_BYTES)
            cpus = int(ray.cluster_resources().get("CPU", 4))
            nb = min(max(8, cpus // 2), max(1, by_bytes))
    except Exception:
        pass
    return ray.data.read_parquet(path, columns=columns, override_num_blocks=nb)


def _cents(col: pa.ChunkedArray, scale: int = 100) -> pa.ChunkedArray:
    # half_towards_infinity == DuckDB ROUND (half away from zero); the
    # default half_to_even would diverge on exact .5 cents
    return pc.cast(
        pc.round(pc.multiply(col, float(scale)), round_mode="half_towards_infinity"),
        pa.int64(),
    )
