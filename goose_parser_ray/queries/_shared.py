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

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _pool() -> int:
    """Actor-pool size for query stages: CPU-proportional (half the
    cluster, floor 8) rather than a fixed cap — a fixed 8 starves a big
    cluster's actor stages; the floor keeps spin-up overhead bounded on
    small hosts. Measured at 32 CPUs/sf0.1: 8→16 left the pure-map
    queries flat and shaved the actor-pool-heavy ones (see commit).

    ``GRAFT_POOL_SIZE`` overrides with an exact count — the scaling
    protocol pins the SAME pool fraction at both parallelism levels
    (the floor would give the small leg proportionally more actors and
    bias the efficiency ratio); autoscaling stays off either way."""
    import os as _os

    env = _os.environ.get("GRAFT_POOL_SIZE")
    if env:
        return max(1, int(env))
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return max(1, min(cpus - 2, max(8, cpus // 2)))


def _read(
    sf_dir: str,
    table: str,
    columns: list[str] | None = None,
    blocks_per_cpu: int | None = None,
):
    """Column-pruned parquet read with a SMALL-INPUT anti-over-split guard:
    Ray's default parallelism splits a 5k-row file into ~2×CPU tiny blocks,
    and every downstream all-to-all then pays per-task overhead × blocks
    (measured: dedup_minhash 5.4s → 3.7s at sf0.1 just from 64 → 8 read
    blocks). Under 1M rows we cap blocks near the actor-pool size; at real
    corpus scale the guard never triggers and Ray's native block sizing
    (target_max_block_size against file fragments) governs.

    ``blocks_per_cpu``: CODEC-BOUND map-only queries (per-doc encode/decode
    kernels, no downstream shuffle) pass 2 — for them more, smaller blocks
    is pure load-balance win (measured: media_png 3.2s → 1.7s stage wall at
    sf0.1/32 CPUs), while shuffle-bound queries keep the tight default."""
    path = f"{sf_dir}/{table}.parquet"
    nb = None
    try:
        import pyarrow.parquet as pq

        if pq.read_metadata(path).num_rows < 1_000_000:
            nb = max(8, _pool() * (blocks_per_cpu or 1))
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
