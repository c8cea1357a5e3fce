"""Distributed iterative graph algorithms beyond connected components.

PageRank here follows the classic synchronized power iteration (Page et
al. 1999; the Pregel formulation): per round one hash join (ranks ⋈ edges
on src), one dst-keyed grouped sum, plus two tiny aggregates (dangling
mass, L1 delta). Per-round distributed state is the rank vector — bounded
by the NODE set, never the edge set — matching the label-propagation
pattern of ``dedup.connected_components_distributed``.

Semantics (locked by the numpy-parity test): synchronized updates,
uniform teleport, dangling-node mass redistributed uniformly each round:

    r'(v) = (1-d)/N + d * (Σ_{u→v} r(u)/deg(u) + dangling_mass/N)
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from goose_parser_ray.functions.relational import (
    compact_for_join,
    keyed_aggregate,
    safe_join,
)


def _pagerank_driver(
    e_pd, damping, max_iters, tol, seed_arr=None
) -> ray.data.Dataset:
    """Driver tier of :func:`pagerank_distributed` for collapsed edge
    lists under the pair guard (same tiering contract as the dedup
    family's driver union-find and ``_hits_driver``): one collect of the
    weighted (u, v, w) triples, then every round is a ``np.bincount`` —
    no per-round joins or Ray executions. Identical update rule (damping,
    dangling redistribution, L1-tolerance early exit); float sums differ
    only in order (≪ 0.5e-6, the bound the SQL twins rely on).
    ``seed_arr`` switches to the PERSONALIZED teleport vector
    (t = 1/|seeds| on seeds, 0 elsewhere; seeds join the node set)."""
    parts = [e_pd["u"].to_numpy(np.int64), e_pd["v"].to_numpy(np.int64)]
    if seed_arr is not None:
        parts.append(np.asarray(seed_arr, np.int64))
    node_arr, inv = np.unique(np.concatenate(parts), return_inverse=True)
    ui, vi = inv[: len(e_pd)], inv[len(e_pd) : 2 * len(e_pd)]
    w = e_pd["w"].to_numpy(np.int64).astype(np.float64)
    n = len(node_arr)
    deg = np.bincount(ui, weights=w, minlength=n)
    if seed_arr is None:
        t = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        t = np.zeros(n, dtype=np.float64)
        t[inv[2 * len(e_pd) :]] = 1.0 / len(np.unique(seed_arr))
    rank = t.copy()
    src_deg = deg[ui]
    for _ in range(max_iters):
        c = np.bincount(vi, weights=rank[ui] / src_deg * w, minlength=n)
        dangling = 1.0 - float(c.sum())
        if seed_arr is None:
            # scalar base, same op order as the SQL twin's
            # (1-d)/n + d*dm/n expression
            base = (1.0 - damping) / n + damping * dangling / n
            new_rank = base + damping * c
        else:
            new_rank = (
                ((1.0 - damping) + damping * dangling) * t + damping * c
            )
        if tol > 0 and float(np.abs(new_rank - rank).sum()) <= tol:
            rank = new_rank
            break
        rank = new_rank
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(node_arr, pa.int64()),
                "rank": pa.array(rank, pa.float64()),
            }
        )
    )


def pagerank_distributed(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    damping: float = 0.85,
    max_iters: int = 30,
    tol: float = 1e-9,
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
    teleport_seeds: "ray.data.Dataset | None" = None,
    seed_col: str = "node",
) -> ray.data.Dataset:
    """PageRank over a directed edge list. Returns Dataset(node, rank)
    with Σ rank = 1. Nodes are every src/dst endpoint; parallel edges
    count as parallel (weight 1 each).

    Scale shape: the edge list is the big side and is never collected —
    it is materialized once (re-joined every round) with a precomputed
    per-src out-degree attached, so each round moves (dst, contribution)
    pairs through one hash shuffle. Ranks materialize per round (node-
    bounded, the same legitimacy argument as component labels).

    ``tol <= 0`` runs exactly ``max_iters`` rounds and skips the
    per-round L1-delta join (one fewer shuffle per round)."""
    from ray.data.aggregate import Sum

    def collapse_block(t: pa.Table) -> pa.Table:
        df = pa.Table.from_arrays(
            [pc.cast(t[src], pa.int64()), pc.cast(t[dst], pa.int64())],
            names=["u", "v"],
        ).to_pandas()
        out = df.groupby(["u", "v"], as_index=False).size()
        out["w"] = out.pop("size").astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    # map-side partial collapse (no shuffle); the partial row count
    # upper-bounds distinct pairs, so it gates the driver tier
    partials = edges.map_batches(collapse_block, batch_format="pyarrow").materialize()
    n_partial = partials.count()  # metadata-only
    seed_arr = None
    if teleport_seeds is not None:
        # personalized teleport: seed sets are small by use-case (a user's
        # history, a topic whitelist) — collected once and broadcast; the
        # per-round base map does a searchsorted membership, no joins
        seed_arr = np.unique(
            teleport_seeds.to_pandas()[seed_col].to_numpy(np.int64)
        )
        if len(seed_arr) == 0:
            raise ValueError("personalized pagerank needs >=1 teleport seed")
    if 0 < n_partial <= driver_edges_threshold:
        pdf = (
            partials.to_pandas().groupby(["u", "v"], as_index=False)["w"].sum()
        )
        return _pagerank_driver(pdf, damping, max_iters, tol, seed_arr)

    e = edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.cast(t[src], pa.int64()), pc.cast(t[dst], pa.int64())],
            names=["u", "v"],
        ),
        batch_format="pyarrow",
    ).materialize()
    n_edges = e.count()  # metadata-only: e was just materialized

    # out-degree per src, attached to the edges ONCE (not per round).
    # Aggregate-derived join inputs are compacted — Ray's hash join breaks
    # on the empty blocks aggregates emit for empty partitions (see
    # relational.compact_for_join).
    deg = compact_for_join(
        keyed_aggregate(e, ["u"], {"deg": ("u", "count")}).materialize()
    )
    e = safe_join(
        e, deg, num_partitions=num_partitions, on=("u",), left_rows=n_edges
    ).materialize()

    # node set = distinct endpoints (distinct via grouped count partials);
    # teleport seeds join the node set (isolated seeds still carry mass)
    node_src = e.map_batches(
        lambda t: pa.Table.from_pydict(
            {"node": pa.concat_arrays(
                [t["u"].combine_chunks(), t["v"].combine_chunks()]
            )}
        ),
        batch_format="pyarrow",
    )
    if seed_arr is not None:
        node_src = node_src.union(
            ray.data.from_arrow(
                pa.Table.from_pydict({"node": pa.array(seed_arr, pa.int64())})
            )
        )
    nodes = keyed_aggregate(
        node_src, ["node"], {"k": ("node", "count")}
    ).drop_columns(["k"]).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: t.append_column("rank", pa.array([], pa.float64())),
            batch_format="pyarrow",
        )

    nodes = compact_for_join(nodes, n_nodes).materialize()
    if seed_arr is None:
        t_ref = None
        init = 1.0 / n_nodes

        def init_fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "rank", pa.array(np.full(t.num_rows, init, dtype=np.float64))
            )
    else:
        t_ref = ray.put(seed_arr)
        t_val = 1.0 / len(seed_arr)

        def init_fn(t: pa.Table) -> pa.Table:
            sa = ray.get(t_ref)
            node = t["node"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sa, node)
            pos[pos >= len(sa)] = len(sa) - 1
            tv = np.where(sa[pos] == node, t_val, 0.0)
            return t.append_column("rank", pa.array(tv, pa.float64()))

    ranks = nodes.map_batches(init_fn, batch_format="pyarrow").materialize()

    def scalar_sum(ds: ray.data.Dataset, col: str) -> float:
        row = ds.aggregate(Sum(col, alias_name="s"))
        return float(row["s"] or 0.0)

    for _ in range(max_iters):
        # contributions along edges
        msgs = safe_join(
            e, ranks, num_partitions=num_partitions,
            on=("u",), right_on=("node",), left_rows=n_edges,
        ).map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t["v"],
                 "c": pa.array(
                     t["rank"].to_numpy(zero_copy_only=False)
                     / t["deg"].to_numpy(zero_copy_only=False)
                 )}
            ),
            batch_format="pyarrow",
        )
        contrib = compact_for_join(
            keyed_aggregate(msgs, ["node"], {"c": ("c", "sum")}).materialize()
        ).materialize()
        # Σ contributions = Σ_{u: deg>0} rank(u) (each u emits deg copies
        # of rank/deg), so the dangling mass needs NO extra ranks⋈out_nodes
        # join — one tiny aggregate over the already-materialized contrib
        dangling = 1.0 - scalar_sum(contrib, "c")
        if seed_arr is None:
            base = (1.0 - damping) / n_nodes + damping * dangling / n_nodes

            def apply_base(t: pa.Table) -> pa.Table:
                # true division (not reciprocal-multiply): the SQL twin
                # writes COALESCE(c,0)/s and IEEE x/s != x*(1/s) last-ulp
                return pa.Table.from_pydict(
                    {"node": pc.cast(t["node"], pa.int64()),
                     "rank": pa.array(
                         base
                         + damping
                         * np.nan_to_num(
                             t["c"].to_numpy(zero_copy_only=False)
                             .astype(np.float64)
                         )
                     )}
                )
        else:
            scale = (1.0 - damping) + damping * dangling

            def apply_base(t: pa.Table) -> pa.Table:
                sa = ray.get(t_ref)
                node = pc.cast(t["node"], pa.int64())
                nv = node.to_numpy(zero_copy_only=False)
                pos = np.searchsorted(sa, nv)
                pos[pos >= len(sa)] = len(sa) - 1
                tv = np.where(sa[pos] == nv, 1.0 / len(sa), 0.0)
                return pa.Table.from_pydict(
                    {"node": node,
                     "rank": pa.array(
                         scale * tv
                         + damping
                         * np.nan_to_num(
                             t["c"].to_numpy(zero_copy_only=False)
                             .astype(np.float64)
                         )
                     )}
                )

        new_ranks = compact_for_join(
            safe_join(
                nodes, contrib, join_type="left_outer",
                num_partitions=num_partitions, on=("node",), left_rows=n_nodes,
            ).map_batches(apply_base, batch_format="pyarrow"),
            n_nodes,  # left-outer on the unique node key ⇒ n_nodes rows
        ).materialize()

        if tol <= 0:
            ranks = new_ranks
            continue
        # L1 delta via one join + aggregate
        delta_ds = safe_join(
            new_ranks,
            ranks.map_batches(
                lambda t: pa.Table.from_pydict(
                    {"node": t["node"], "prev": t["rank"]}
                ),
                batch_format="pyarrow",
            ),
            num_partitions=num_partitions, on=("node",), left_rows=n_nodes,
        ).map_batches(
            lambda t: pa.Table.from_pydict(
                {"d": pa.array(
                    np.abs(
                        t["rank"].to_numpy(zero_copy_only=False)
                        - t["prev"].to_numpy(zero_copy_only=False)
                    )
                )}
            ),
            batch_format="pyarrow",
        )
        delta = scalar_sum(delta_ds, "d")
        ranks = new_ranks
        if delta <= tol:
            break
    return ranks


def _hits_broadcast(
    e: ray.data.Dataset,
    nodes: ray.data.Dataset,
    n_nodes: int,
    max_iters: int,
) -> ray.data.Dataset:
    """Broadcast tier of :func:`hits_distributed` for node sets that fit
    in a worker heap: the score vector rides the object store (one
    ``ray.put`` per half-round, zero-copy ``ray.get`` per task), the
    weighted edge list streams through ONE ``map_batches`` +
    node-bounded aggregate per half-round — no hash joins at all. The
    edge list stays distributed; only node-bounded vectors reach the
    driver (≤ ``broadcast_nodes_threshold`` rows, the same collect bound
    the verify/components tiers use)."""

    node_arr = np.sort(
        nodes.to_pandas()["node"].to_numpy(np.int64, copy=True)
    )
    nodes_ref = ray.put(node_arr)

    def push(scores_vec: np.ndarray, join_col: str, emit_col: str) -> np.ndarray:
        s_ref = ray.put(scores_vec)

        def msgs(t: pa.Table) -> pa.Table:
            na = ray.get(nodes_ref)
            s = ray.get(s_ref)
            idx = np.searchsorted(
                na, t[join_col].to_numpy(zero_copy_only=False)
            )
            c = s[idx] * t["w"].to_numpy(zero_copy_only=False).astype(
                np.float64
            )
            return pa.Table.from_pydict({"node": t[emit_col], "c": pa.array(c)})

        raw = keyed_aggregate(
            e.map_batches(msgs, batch_format="pyarrow"), ["node"],
            {"c": ("c", "sum")},
        ).to_pandas()  # node-bounded
        vals = np.zeros(n_nodes, dtype=np.float64)
        if len(raw) == 0:
            return vals  # no mass moved: this side is all 0, unnormalized
        pos = np.searchsorted(node_arr, raw["node"].to_numpy(np.int64))
        vals[pos] = raw["c"].to_numpy(np.float64)
        tot = float(raw["c"].to_numpy(np.float64).sum()) or 1.0
        # true division, matching the SQL twin's COALESCE(c,0)/SUM(c)
        return vals / tot

    hub = np.full(n_nodes, 1.0 / n_nodes, dtype=np.float64)
    auth = np.zeros(n_nodes, dtype=np.float64)
    for _ in range(max_iters):
        auth = push(hub, "u", "v")
        hub = push(auth, "v", "u")
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(node_arr, pa.int64()),
                "auth": pa.array(auth, pa.float64()),
                "hub": pa.array(hub, pa.float64()),
            }
        )
    )


def _hits_driver(e_pd, max_iters: int) -> ray.data.Dataset:
    """Driver tier of :func:`hits_distributed` for collapsed edge lists
    under the pair guard (same tiering contract as the dedup family's
    driver union-find): one collect of the weighted (u, v, w) triples,
    then every half-round is a single ``np.bincount`` — no per-round Ray
    execution. Float sums differ from the distributed tiers only in
    order (same ≪ 0.5e-6 noise bound the SQL twins rely on)."""
    uv = np.concatenate([e_pd["u"].to_numpy(np.int64), e_pd["v"].to_numpy(np.int64)])
    node_arr, inv = np.unique(uv, return_inverse=True)
    ui, vi = inv[: len(e_pd)], inv[len(e_pd) :]
    w = e_pd["w"].to_numpy(np.int64).astype(np.float64)
    n = len(node_arr)
    hub = np.full(n, 1.0 / n, dtype=np.float64)
    auth = np.zeros(n, dtype=np.float64)

    def push(s: np.ndarray, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
        c = np.bincount(to, weights=s[frm] * w, minlength=n)
        tot = float(c.sum()) or 1.0
        return c / tot

    for _ in range(max_iters):
        auth = push(hub, ui, vi)
        hub = push(auth, vi, ui)
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(node_arr, pa.int64()),
                "auth": pa.array(auth, pa.float64()),
                "hub": pa.array(hub, pa.float64()),
            }
        )
    )


def hits_distributed(
    edges: ray.data.Dataset,
    *,
    src: str = "src",
    dst: str = "dst",
    max_iters: int = 2,
    num_partitions: int | None = None,
    broadcast_nodes_threshold: int = 5_000_000,
    driver_edges_threshold: int = 5_000_000,
) -> ray.data.Dataset:
    """HITS hub/authority scores over a directed edge list (Kleinberg's
    power iteration with L1 normalization — the sum-normalized variant
    keeps the SQL unroll to plain SUM/division). Returns
    Dataset(node, auth, hub) over every endpoint; parallel edges count as
    parallel (weight 1 each), nodes with no in-edges carry authority 0
    (resp. hubs for out-edges).

    Scale shape mirrors :func:`pagerank_distributed`: the edge list is
    materialized ONCE and re-joined per half-round (one hash shuffle per
    direction), score tables stay node-bounded, and the normalizer is one
    tiny scalar aggregate — nothing corpus-sized ever reaches the driver.
    Fixed ``max_iters`` (no tolerance path) so bounded-round SQL twins can
    unroll the identical computation.

    Perf tiers (same pattern as the dedup family's broadcast/join gates):
    parallel edges are first collapsed to weighted (u, v, w) — messages
    push w·s, identical mass, a fraction of the join/map input on
    multi-edge graphs — and while the node set fits under
    ``broadcast_nodes_threshold`` the per-half-round hash joins are
    replaced by a broadcast score vector (``ray.put`` once per
    half-round, ``np.searchsorted`` lookup inside ``map_batches``); past
    the threshold the node-keyed hash-join path below runs unchanged.
    w·s vs repeated addition and driver vs distributed sum order differ
    only in last-ulp float noise — covered by the same ≪ 0.5e-6 rounding
    argument the SQL twins already rely on (see q_hits)."""
    from ray.data.aggregate import Sum

    def collapse_block(t: pa.Table) -> pa.Table:
        df = pa.Table.from_arrays(
            [pc.cast(t[src], pa.int64()), pc.cast(t[dst], pa.int64())],
            names=["u", "v"],
        ).to_pandas()
        out = df.groupby(["u", "v"], as_index=False).size()
        out["w"] = out.pop("size").astype("int64")
        return pa.Table.from_pandas(out, preserve_index=False)

    # map-side partial collapse only (no shuffle): the partial row count
    # upper-bounds the distinct pair count, so it IS the tier gate
    partials = edges.map_batches(collapse_block, batch_format="pyarrow").materialize()
    n_partial = partials.count()  # metadata-only on the materialized set
    if n_partial == 0:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array([], pa.int64()),
                    "auth": pa.array([], pa.float64()),
                    "hub": pa.array([], pa.float64()),
                }
            )
        )
    if n_partial <= driver_edges_threshold:
        # partial pairs fit the same guard the dedup driver union-find
        # uses: finish the collapse in one pandas fold and run every
        # half-round as a bincount — the distributed ~600k-group Aggregate
        # (8s at sf0.1) and the per-round Ray executions disappear
        pdf = (
            partials.to_pandas()
            .groupby(["u", "v"], as_index=False)["w"]
            .sum()
        )
        return _hits_driver(pdf, max_iters)
    e = keyed_aggregate(partials, ["u", "v"], {"w": ("w", "sum")}).materialize()
    n_edges = e.count()

    nodes = keyed_aggregate(
        e.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                )}
            ),
            batch_format="pyarrow",
        ),
        ["node"], {"k": ("node", "count")},
    ).drop_columns(["k"]).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array([], pa.int64()),
                    "auth": pa.array([], pa.float64()),
                    "hub": pa.array([], pa.float64()),
                }
            )
        )
    if n_nodes <= broadcast_nodes_threshold:
        return _hits_broadcast(e, nodes, n_nodes, max_iters)

    # every aggregate-derived join input is compacted: Ray's hash join
    # breaks on the empty blocks aggregates emit for empty partitions
    nodes = compact_for_join(nodes, n_nodes).materialize()

    def scalar_sum(ds: ray.data.Dataset, col: str) -> float:
        row = ds.aggregate(Sum(col, alias_name="s"))
        return float(row["s"] or 0.0)

    def half_round(
        scores: ray.data.Dataset, join_col: str, emit_col: str, score_col: str
    ) -> ray.data.Dataset:
        """One HITS half-step: push ``score_col`` along edges from
        ``join_col`` endpoints to ``emit_col`` endpoints, sum per target,
        L1-normalize over the full node set (absent targets → 0)."""
        msgs = safe_join(
            e, scores, num_partitions=num_partitions,
            on=(join_col,), right_on=("node",), left_rows=n_edges,
        ).map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t[emit_col],
                    "c": pc.multiply(
                        t[score_col], pc.cast(t["w"], pa.float64())
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        raw = keyed_aggregate(msgs, ["node"], {"c": ("c", "sum")}).materialize()
        n_raw = raw.count()
        if n_raw == 0:
            # no mass moved (an all-sinks direction): this side is all 0
            return nodes.map_batches(
                lambda t: t.append_column(
                    score_col,
                    pa.array(np.zeros(t.num_rows, dtype=np.float64)),
                ),
                batch_format="pyarrow",
            ).materialize()
        tot = scalar_sum(raw, "c") or 1.0
        out = safe_join(
            nodes, compact_for_join(raw, n_raw), join_type="left_outer",
            num_partitions=num_partitions, on=("node",), left_rows=n_nodes,
        ).map_batches(
            # true division (not reciprocal-multiply): the SQL twin writes
            # COALESCE(c,0)/s and IEEE x/s != x*(1/s) in the last ulp
            lambda t: pa.Table.from_pydict(
                {"node": pc.cast(t["node"], pa.int64()),
                 score_col: pa.array(
                     np.nan_to_num(
                         t["c"].to_numpy(zero_copy_only=False)
                         .astype(np.float64)
                     ) / tot
                 )}
            ),
            batch_format="pyarrow",
        )
        # the normalize map skips empty join partitions, re-poisoning the
        # stream — compact before this table feeds the NEXT edge join
        # (left-outer on the unique node key ⇒ exactly n_nodes rows)
        return compact_for_join(out, n_nodes).materialize()

    init = 1.0 / n_nodes
    hub = nodes.map_batches(
        lambda t: t.append_column(
            "s", pa.array(np.full(t.num_rows, init, dtype=np.float64))
        ),
        batch_format="pyarrow",
    ).materialize()
    auth = None
    for _ in range(max_iters):
        auth = half_round(hub, "u", "v", "s")    # a ∝ Σ h over in-edges
        hub = half_round(auth, "v", "u", "s")    # h ∝ Σ a over out-edges

    return safe_join(
        auth.map_batches(
            lambda t: pa.Table.from_pydict({"node": t["node"], "auth": t["s"]}),
            batch_format="pyarrow",
        ),
        hub.map_batches(
            lambda t: pa.Table.from_pydict({"node": t["node"], "hub": t["s"]}),
            batch_format="pyarrow",
        ),
        num_partitions=num_partitions, on=("node",), left_rows=n_nodes,
    )


def _triangle_driver(
    un: np.ndarray, vn: np.ndarray, wedge_cap: int = 20_000_000
) -> "dict[str, int] | None":
    """Driver tier of :func:`triangle_count` (canonical u<v edge lists
    under the pair guard): identical a<b<c wedge-then-close counting in
    numpy. Returns None when the wedge volume exceeds ``wedge_cap`` — the
    one quantity that can explode past the edge guard on hub-heavy
    graphs — so the caller falls back to the streaming join path."""
    nodes, inv = np.unique(np.concatenate([un, vn]), return_inverse=True)
    ui, vi = inv[: len(un)], inv[len(un) :]
    n = len(nodes)
    l = np.bincount(vi, minlength=n).astype(np.int64)  # in-degree (a, b)
    r = np.bincount(ui, minlength=n).astype(np.int64)  # out-degree (b, c)
    wedges = int((l * r).sum())
    if wedges > wedge_cap:
        return None
    keys = ui.astype(np.int64) * n + vi
    keyset = np.sort(keys)
    # enumerate wedges grouped by the middle node b: a-list = in-neighbors
    # (sorted by b via vi), c-list = out-neighbors (sorted by b via ui)
    vo = np.argsort(vi, kind="stable")
    uo = np.argsort(ui, kind="stable")
    a_by_b, b_in = ui[vo], vi[vo]
    c_by_b, b_out = vi[uo], ui[uo]
    in_start = np.searchsorted(b_in, np.arange(n))
    in_end = np.searchsorted(b_in, np.arange(n) + 1)
    out_start = np.searchsorted(b_out, np.arange(n))
    out_end = np.searchsorted(b_out, np.arange(n) + 1)
    tri = 0
    mid = np.flatnonzero((l > 0) & (r > 0))
    wa, wc = [], []
    pending = 0
    for b in mid:
        a_seg = a_by_b[in_start[b] : in_end[b]]
        c_seg = c_by_b[out_start[b] : out_end[b]]
        wa.append(np.repeat(a_seg, len(c_seg)))
        wc.append(np.tile(c_seg, len(a_seg)))
        pending += len(a_seg) * len(c_seg)
        if pending >= 2_000_000:
            wk = np.concatenate(wa) * n + np.concatenate(wc)
            pos = np.searchsorted(keyset, wk)
            pos[pos >= len(keyset)] = len(keyset) - 1
            tri += int((keyset[pos] == wk).sum())
            wa, wc, pending = [], [], 0
    if pending:
        wk = np.concatenate(wa) * n + np.concatenate(wc)
        pos = np.searchsorted(keyset, wk)
        pos[pos >= len(keyset)] = len(keyset) - 1
        tri += int((keyset[pos] == wk).sum())
    return {"edges": len(un), "wedges": wedges, "triangles": tri}


def triangle_count(
    edges: ray.data.Dataset,
    *,
    u: str = "u",
    v: str = "v",
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
) -> "dict[str, int]":
    """Exact triangle / wedge / edge counts over a canonical undirected
    edge list (``u < v``, distinct pairs). Returns
    ``{"edges": E, "wedges": W, "triangles": T}``.

    Scale shape: the classic two-join orientation method (edge-iterator on
    the a<b<c orientation). The WEDGE COUNT never materializes wedges — it
    is Σ_b in(b)·out(b) from two node-bounded degree aggregates joined on
    the node. Triangles stream the wedge join (a,b)⋈(b,c) directly into the
    closing-edge hash join on (a,c); nothing is collected driver-side. The
    u<v orientation bounds wedge fan-out the same way degree-ordering does
    in the standard algorithm."""
    from ray.data.aggregate import Sum

    e = edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.cast(t[u], pa.int64()), pc.cast(t[v], pa.int64())],
            names=["u", "v"],
        ),
        batch_format="pyarrow",
    ).materialize()
    n_edges = e.count()
    if n_edges == 0:
        return {"edges": 0, "wedges": 0, "triangles": 0}
    if n_edges <= driver_edges_threshold:
        pdf = e.to_pandas()
        res = _triangle_driver(
            pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64)
        )
        if res is not None:
            return res
        # wedge volume too large for one heap — fall through to the
        # streaming join path, which never materializes the wedges

    def degrees(col: str, alias: str) -> ray.data.Dataset:
        return keyed_aggregate(
            e.map_batches(
                lambda t, c=col: pa.Table.from_arrays([t[c]], names=["node"]),
                batch_format="pyarrow",
            ),
            ["node"], {alias: ("node", "count")},
        )

    # wedges (a<b<c paths) = Σ_b (#edges ending at b) × (#edges starting at b)
    prod = safe_join(
        degrees("v", "l"), degrees("u", "r"),
        num_partitions=num_partitions, on=("node",), compact=True,
    ).map_batches(
        lambda t: pa.Table.from_pydict(
            {"w": pc.multiply(t["l"], t["r"])}
        ),
        batch_format="pyarrow",
    )
    row = prod.aggregate(Sum("w", alias_name="s"))
    n_wedges = int(row["s"] or 0)

    left = e.map_batches(
        lambda t: pa.Table.from_arrays([t["u"], t["v"]], names=["a", "b"]),
        batch_format="pyarrow",
    )
    right = e.map_batches(
        lambda t: pa.Table.from_arrays([t["u"], t["v"]], names=["b", "c"]),
        batch_format="pyarrow",
    )
    closing = e.map_batches(
        lambda t: pa.Table.from_arrays([t["u"], t["v"]], names=["a", "c"]),
        batch_format="pyarrow",
    )
    # wedge join stays streaming (never materialized): inputs are compacted
    # with the known edge count, and the wedge→closing intermediate is
    # compacted by repartition using the just-computed wedge count — an
    # exchange, not a driver/object-store pin.
    wedge_join = safe_join(
        left, right, num_partitions=num_partitions, on=("b",),
        compact=True, left_rows=n_edges, right_rows=n_edges,
    )
    tri = safe_join(
        wedge_join, closing, num_partitions=num_partitions, on=("a", "c"),
        compact=True, left_rows=max(1, n_wedges), right_rows=n_edges,
    )
    return {"edges": n_edges, "wedges": n_wedges, "triangles": tri.count()}


def triangle_count_numpy(edges: "list[tuple[int, int]]") -> "dict[str, int]":
    """Brute-force reference with identical semantics (parity tests)."""
    es = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    nodes = sorted({x for p in es for x in p})
    n_wedges = sum(
        sum(1 for e in es if e[1] == b) * sum(1 for e in es if e[0] == b)
        for b in nodes
    )
    tri = 0
    for a, b in es:
        for c in nodes:
            if c > b and (b, c) in es and (a, c) in es:
                tri += 1
    return {"edges": len(es), "wedges": n_wedges, "triangles": tri}


def pagerank_numpy(
    edges: "list[tuple[int, int]]",
    *,
    damping: float = 0.85,
    max_iters: int = 30,
    tol: float = 1e-9,
) -> dict[int, float]:
    """Reference implementation with identical semantics (parity tests)."""
    nodes = sorted({x for p in edges for x in p})
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        return {}
    deg = np.zeros(n)
    for u, _ in edges:
        deg[idx[u]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        contrib = np.zeros(n)
        for u, v in edges:
            contrib[idx[v]] += r[idx[u]] / deg[idx[u]]
        dangling = r[deg == 0].sum()
        new = (1 - damping) / n + damping * (contrib + dangling / n)
        if np.abs(new - r).sum() <= tol:
            r = new
            break
        r = new
    return {v: float(r[idx[v]]) for v in nodes}


def _kcore_driver(
    un: np.ndarray, vn: np.ndarray, k: int, max_iters: int, allow_partial: bool
) -> ray.data.Dataset:
    """Driver tier of :func:`kcore_distributed` (edge lists under the pair
    guard): the identical synchronized peel — degrees at round start,
    simultaneous removal, edge-count fixpoint — as numpy bincounts, so the
    returned (node, deg) table is bit-identical to the join path,
    including the bounded-round ``allow_partial`` truncation."""

    def empty() -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {"node": pa.array([], pa.int64()), "deg": pa.array([], pa.int64())}
            )
        )

    def result(nodes, deg) -> ray.data.Dataset:
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "deg": pa.array(deg, pa.int64()),
                }
            )
        )

    if len(un) == 0:
        return empty()
    good_nodes = good_deg = None
    for _ in range(max_iters):
        nodes, inv = np.unique(np.concatenate([un, vn]), return_inverse=True)
        deg = np.bincount(inv, minlength=len(nodes)).astype(np.int64)
        good = deg >= k
        if not good.any():
            return empty()
        good_nodes, good_deg = nodes[good], deg[good]
        ui, vi = inv[: len(un)], inv[len(un) :]
        keep = good[ui] & good[vi]
        if keep.all():
            return result(good_nodes, good_deg)
        un, vn = un[keep], vn[keep]
        if len(un) == 0:
            return empty()
    if allow_partial:
        return result(good_nodes, good_deg)
    raise RuntimeError(
        f"k-core peel did not reach a fixpoint in max_iters={max_iters} "
        "rounds (pathological chain graph?); raise max_iters or pass "
        "allow_partial=True for bounded-round semantics"
    )


def kcore_distributed(
    edges: ray.data.Dataset,
    *,
    k: int,
    u: str = "u",
    v: str = "v",
    max_iters: int = 100,
    num_partitions: int | None = None,
    allow_partial: bool = False,
    driver_edges_threshold: int = 5_000_000,
) -> ray.data.Dataset:
    """Nodes of the k-core (maximal subgraph where every node has degree
    ≥ k) of an undirected edge list, via the classic synchronized peel.

    ``allow_partial``: the peel is EXACT only at its fixpoint. By default,
    exhausting ``max_iters`` raises (the remaining node set is over-
    inclusive — same failure class as the r2-ADVICE connected-components
    silent exit). Callers whose CONTRACT is "k rounds of peeling" (e.g. a
    bounded-round unrolled-CTE oracle twin) pass ``allow_partial=True`` to
    get the round-truncated set deliberately.

    Scale shape: each round is one node-bounded degree aggregate plus two
    semi-joins that keep only edges whose BOTH endpoints survive; the edge
    set shrinks monotonically, so convergence is detected by an edge-count
    fixed point (metadata-only after materialize). Per-round distributed
    state = the current edge set; nothing is collected driver-side."""

    e = edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.cast(t[u], pa.int64()), pc.cast(t[v], pa.int64())],
            names=["u", "v"],
        ),
        batch_format="pyarrow",
    ).materialize()
    n_edges = e.count()
    if n_edges <= driver_edges_threshold:
        pdf = e.to_pandas()
        return _kcore_driver(
            pdf["u"].to_numpy(np.int64),
            pdf["v"].to_numpy(np.int64),
            int(k), max_iters, allow_partial,
        )

    def degrees(cur: ray.data.Dataset) -> ray.data.Dataset:
        both = cur.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": pa.concat_arrays(
                        [t["u"].combine_chunks(), t["v"].combine_chunks()]
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        return keyed_aggregate(both, ["node"], {"deg": ("node", "count")})

    empty = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"node": pa.array([], pa.int64()), "deg": pa.array([], pa.int64())}
        )
    )
    if n_edges == 0:
        return empty

    for _ in range(max_iters):
        good = degrees(e).filter(expr=f"deg >= {int(k)}").materialize()
        n_good = good.count()
        if n_good == 0:
            return empty
        keep_u = good.map_batches(
            lambda t: pa.Table.from_arrays([t["node"]], names=["u"]),
            batch_format="pyarrow",
        )
        keep_v = good.map_batches(
            lambda t: pa.Table.from_arrays([t["node"]], names=["v"]),
            batch_format="pyarrow",
        )
        # compact both halves: good is filter-of-aggregate and e is a
        # prior-round join output — both can carry the empty blocks Ray's
        # hash join rejects (see compact_for_join).
        e2 = safe_join(
            safe_join(
                e, keep_u, num_partitions=num_partitions, on=("u",),
                compact=True, left_rows=n_edges, right_rows=n_good,
            ),
            keep_v, num_partitions=num_partitions, on=("v",),
            compact=True, right_rows=n_good,
        ).materialize()
        n2 = e2.count()
        if n2 == n_edges:
            return good
        e, n_edges = e2, n2
        if n_edges == 0:
            return empty
    if allow_partial:
        return good
    raise RuntimeError(
        f"k-core peel did not reach a fixpoint in max_iters={max_iters} "
        "rounds (pathological chain graph?); raise max_iters or pass "
        "allow_partial=True for bounded-round semantics"
    )


def kcore_numpy(edges: "list[tuple[int, int]]", k: int) -> "set[int]":
    """Brute-force peel reference with identical semantics (parity tests)."""
    es = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    # NOTE: parallel edges collapse here; the distributed version counts
    # them separately — pass distinct pairs when comparing.
    while True:
        deg: dict[int, int] = {}
        for a, b in es:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bad = {n for n, d in deg.items() if d < k}
        if not bad:
            return set(deg)
        es = {e for e in es if e[0] not in bad and e[1] not in bad}
        if not es:
            return set()


def _bfs_driver(
    un: np.ndarray, vn: np.ndarray, seed_arr: np.ndarray, max_hops: int
) -> ray.data.Dataset:
    """Driver tier of :func:`bfs_levels_distributed` (edge lists under the
    pair guard): identical level-synchronous semantics — min hop distance
    is implementation-independent, so the (node, lvl) table is
    bit-identical to the join path."""
    nodes, inv = np.unique(np.concatenate([un, vn, seed_arr]), return_inverse=True)
    ui, vi = inv[: len(un)], inv[len(un) : 2 * len(un)]
    si = inv[2 * len(un) :]
    lvl = np.full(len(nodes), -1, dtype=np.int64)
    lvl[si] = 0
    in_frontier = np.zeros(len(nodes), dtype=bool)
    in_frontier[si] = True
    for h in range(1, max_hops + 1):
        cand = vi[in_frontier[ui]]
        fresh = cand[lvl[cand] < 0]
        if len(fresh) == 0:
            break
        lvl[fresh] = h
        in_frontier[:] = False
        in_frontier[fresh] = True
    vis = lvl >= 0
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(nodes[vis], pa.int64()),
                "lvl": pa.array(lvl[vis], pa.int64()),
            }
        )
    )


def bfs_levels_distributed(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    *,
    cols: tuple[str, str] = ("u", "v"),
    seed_col: str = "node",
    max_hops: int = 6,
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """Level-synchronous BFS (hop distance from a seed SET): per round one
    hash join (frontier ⋈ edges on src) + a distinct on the discovered
    endpoints + a visited-set anti-filter — the Pregel frontier pattern.
    Distributed state per round is the visited table (node, lvl), bounded
    by the REACHABLE set, never the edge set; the frontier shrinks to the
    newly discovered nodes so join work tracks the wavefront, not the
    graph. Terminates on an empty frontier or at ``max_hops`` (callers
    pairing with a recursive-SQL twin keep the same cap on both sides).
    Directed semantics: pass both edge directions for undirected graphs.

    Returns Dataset(node, lvl) with lvl = min hop distance ≤ max_hops."""
    from goose_parser_ray.functions.dedup import (
        _drop_empty_blocks,
        filter_out_ids,
    )

    a, b = cols
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= driver_edges_threshold:
        epd = edges.to_pandas()
        spd = seeds.to_pandas()
        return _bfs_driver(
            epd[a].to_numpy(np.int64),
            epd[b].to_numpy(np.int64),
            np.unique(spd[seed_col].to_numpy(np.int64)),
            max_hops,
        )

    def tag(lvl: int):
        def fn(t: pa.Table) -> pa.Table:
            return pa.Table.from_pydict(
                {
                    "node": t["node"],
                    "lvl": np.full(t.num_rows, lvl, dtype=np.int64),
                }
            )

        return fn

    def _distinct(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        # map-side-combined distinct (the repo idiom): one narrow row per
        # distinct node per block crosses the exchange
        return keyed_aggregate(
            ds, ["node"],
            {"k": ("node", "count")},
        ).drop_columns(["k"])

    frontier = _drop_empty_blocks(
        _distinct(
            seeds.map_batches(
                lambda t: pa.Table.from_arrays(
                    [t[seed_col]], names=["node"]
                ),
                batch_format="pyarrow",
            )
        ).materialize()
    )
    visited = _drop_empty_blocks(
        frontier.map_batches(tag(0), batch_format="pyarrow").materialize()
    )

    for lvl in range(1, max_hops + 1):
        hops = safe_join(
            edges, frontier, num_partitions=num_partitions, on=(a,),
            right_on=("node",), left_rows=n_edges,
        ).map_batches(
            lambda t: pa.Table.from_arrays([t[b]], names=["node"]),
            batch_format="pyarrow",
        )
        # distinct BEFORE the anti-filter: discovered set ≤ node set
        hops = _drop_empty_blocks(_distinct(hops).materialize())
        fresh = _drop_empty_blocks(
            filter_out_ids(
                hops, visited, "node", drop_col="node"
            ).materialize()
        )
        if fresh.count() == 0:
            break
        tagged = fresh.map_batches(tag(lvl), batch_format="pyarrow")
        visited = _drop_empty_blocks(
            keyed_aggregate(
                visited.union(tagged), ["node"], {"lvl": ("lvl", "min")},
            ).materialize()
        )
        frontier = fresh
    return visited


def _sssp_driver(
    un: np.ndarray,
    vn: np.ndarray,
    wn: np.ndarray,
    seed_arr: np.ndarray,
    rounds: int,
) -> ray.data.Dataset:
    """Driver tier of :func:`sssp_bounded` (edge lists under the pair
    guard): the identical synchronous Bellman-Ford — every round relaxes
    each edge once against the PREVIOUS round's distances — as
    ``np.minimum.at`` folds over int64, bit-identical to the join path."""
    nodes, inv = np.unique(np.concatenate([un, vn, seed_arr]), return_inverse=True)
    ui, vi = inv[: len(un)], inv[len(un) : 2 * len(un)]
    si = inv[2 * len(un) :]
    inf = np.iinfo(np.int64).max
    dist = np.full(len(nodes), inf, dtype=np.int64)
    dist[si] = 0
    for _ in range(rounds):
        src_ok = dist[ui] < inf
        if not src_ok.any():
            break
        new = dist.copy()
        np.minimum.at(new, vi[src_ok], dist[ui[src_ok]] + wn[src_ok])
        if (new == dist).all():
            break
        dist = new
    reach = dist < inf
    return ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "node": pa.array(nodes[reach], pa.int64()),
                "d": pa.array(dist[reach], pa.int64()),
            }
        )
    )


def sssp_bounded(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    *,
    cols: tuple[str, str, str] = ("u", "v", "w"),
    seed_col: str = "node",
    rounds: int = 4,
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """Bounded-round single-source(-set) shortest paths: synchronous
    Bellman-Ford over the min-plus semiring — each round relaxes every
    edge once via ONE hash join (dist ⋈ edges on src) and folds with a
    groupby-min, so after R rounds dist(v) = exact shortest distance
    using ≤ R edges. Distributed state is the distance table (bounded by
    the reachable node set); the edge list is the big side and is only
    ever joined, never collected. The fixed round count is what makes an
    exact unrolled-CTE SQL twin possible (the q_pagerank pattern) — for
    full convergence loop until a monotone distance-sum fixed point, the
    components template."""
    from goose_parser_ray.functions.dedup import _drop_empty_blocks

    a, b, wcol = cols
    e = edges.materialize()
    n_edges = e.count()
    if n_edges <= driver_edges_threshold:
        epd = e.to_pandas()
        spd = seeds.to_pandas()
        return _sssp_driver(
            epd[a].to_numpy(np.int64),
            epd[b].to_numpy(np.int64),
            epd[wcol].to_numpy(np.int64),
            np.unique(spd[seed_col].to_numpy(np.int64)),
            rounds,
        )

    dist = _drop_empty_blocks(
        keyed_aggregate(
            seeds.map_batches(
                lambda t: pa.Table.from_pydict(
                    {
                        "node": t[seed_col],
                        "d": np.zeros(t.num_rows, dtype=np.int64),
                    }
                ),
                batch_format="pyarrow",
            ),
            ["node"], {"d": ("d", "min")},
        ).materialize()
    )
    for _ in range(rounds):
        relaxed = safe_join(
            e, dist, num_partitions=num_partitions, on=(a,),
            right_on=("node",), left_rows=n_edges,
        ).map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t[b],
                    "d": (
                        t["d"].to_numpy(zero_copy_only=False)
                        + t[wcol].to_numpy(zero_copy_only=False)
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        dist = _drop_empty_blocks(
            keyed_aggregate(
                dist.union(relaxed), ["node"], {"d": ("d", "min")},
            ).materialize()
        )
    return dist


def random_walks(
    edges: "ray.data.Dataset",
    seeds: "ray.data.Dataset",
    *,
    cols: tuple[str, str] = ("u", "v"),
    seed_col: str = "node",
    steps: int = 3,
    driver_edges_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """Deterministic hash-choice random walks (the node2vec p=q=1 corpus
    sampler): from every seed, ``steps`` hops where hop ``s`` from node
    ``x`` on walk ``w`` picks out-neighbor index
    ``H(w, s, x) mod deg(x)`` with ``H = (w·2654435761 + s·40503 +
    x·69069) mod 2147483647`` over the by-``v``-sorted adjacency — a pure
    integer rule both this engine and a SQL twin state verbatim, so walks
    are exactly reproducible. Walks that reach a sink stop (no row for
    that step).

    Tiers: adjacency ranks come from ONE u-bucketed fold (sort + cumcount
    inside data-proportional buckets); under the pair guard the walk
    itself is vectorized index chasing on the driver, past it each hop is
    one frontier ⋈ ranked-edges hash join filtered on the hash rule
    (fan-out = frontier × out-degree, the same bound the join tier of
    PageRank moves per round).

    Returns Dataset(walk_id, step, node) including step 0 = the seed."""
    from goose_parser_ray.functions.dedup import bucket_groups

    a, b = cols
    e = edges.map_batches(
        lambda t: pa.Table.from_arrays(
            [pc.cast(t[a], pa.int64()), pc.cast(t[b], pa.int64())],
            names=["u", "v"],
        ),
        batch_format="pyarrow",
    ).materialize()
    n_edges = e.count()

    def rank_fold(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.drop_duplicates(["u", "v"]).sort_values(
            ["u", "v"], kind="mergesort"
        )
        g["r"] = g.groupby("u").cumcount().astype("int64")
        g["deg"] = g.groupby("u")["v"].transform("size").astype("int64")
        return g[["u", "v", "r", "deg"]].reset_index(drop=True)

    ranked = bucket_groups(e, "u", rank_fold, rows=n_edges).materialize()

    sd = seeds.map_batches(
        lambda t: pa.Table.from_pydict(
            {"node": pc.cast(t[seed_col], pa.int64())}
        ),
        batch_format="pyarrow",
    ).materialize()

    M = 2_147_483_647

    if n_edges <= driver_edges_threshold:
        rpd = ranked.to_pandas().sort_values(["u", "r"], kind="mergesort")
        ru = rpd["u"].to_numpy(np.int64)
        rv = rpd["v"].to_numpy(np.int64)
        seeds_arr = np.unique(sd.to_pandas()["node"].to_numpy(np.int64))
        starts = np.searchsorted(ru, seeds_arr, side="left")
        out_w, out_s, out_n = [], [], []
        walk = np.arange(len(seeds_arr), dtype=np.int64)
        cur = seeds_arr.copy()
        alive = np.ones(len(cur), dtype=bool)
        out_w.append(walk.copy()); out_s.append(np.zeros(len(cur), np.int64))
        out_n.append(cur.copy())
        for s in range(1, steps + 1):
            lo = np.searchsorted(ru, cur)
            hi = np.searchsorted(ru, cur, side="right")
            deg = hi - lo
            alive = alive & (deg > 0)
            if not alive.any():
                break
            h = (walk * 2654435761 + s * 40503 + cur * 69069) % M
            nxt = np.where(
                alive, rv[np.minimum(lo + np.where(deg > 0, h % np.maximum(deg, 1), 0), len(rv) - 1)], cur
            )
            cur = nxt
            out_w.append(walk[alive].copy())
            out_s.append(np.full(int(alive.sum()), s, np.int64))
            out_n.append(cur[alive].copy())
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "walk_id": pa.array(np.concatenate(out_w), pa.int64()),
                    "step": pa.array(np.concatenate(out_s), pa.int64()),
                    "node": pa.array(np.concatenate(out_n), pa.int64()),
                }
            )
        )

    # join tier: one hop per round
    n_ranked = ranked.count()
    ranked = compact_for_join(ranked, n_ranked).materialize()
    frontier = (
        sd.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t["node"]}
            ),
            batch_format="pyarrow",
        )
        .groupby("node")
        .count()
        .map_batches(
            lambda t: pa.Table.from_pydict({"node": t["node"]}),
            batch_format="pyarrow",
        )
        .sort("node")
        .materialize()
    )
    # deterministic walk ids = rank of the seed in sorted order
    fpd_parts = []
    offset = 0
    for t in frontier.iter_batches(batch_format="pyarrow", batch_size=None):
        fpd_parts.append(
            pa.Table.from_pydict(
                {
                    "walk_id": pa.array(
                        np.arange(offset, offset + t.num_rows, dtype=np.int64)
                    ),
                    "node": t["node"],
                }
            )
        )
        offset += t.num_rows
    cur_ds = ray.data.from_arrow(pa.concat_tables(fpd_parts))
    outs = [
        cur_ds.map_batches(
            lambda t: t.append_column(
                "step", pa.array(np.zeros(t.num_rows, np.int64))
            ).select(["walk_id", "step", "node"]),
            batch_format="pyarrow",
        )
    ]
    for s in range(1, steps + 1):
        hop = safe_join(
            compact_for_join(cur_ds.materialize()), ranked,
            on=("node",), right_on=("u",), right_rows=n_ranked,
        )

        def pick(t: pa.Table, _s=s) -> pa.Table:
            w = t["walk_id"].to_numpy(zero_copy_only=False)
            x = t["node"].to_numpy(zero_copy_only=False)
            r = t["r"].to_numpy(zero_copy_only=False)
            deg = t["deg"].to_numpy(zero_copy_only=False)
            h = (w * 2654435761 + _s * 40503 + x * 69069) % M
            keep = r == h % deg
            return pa.Table.from_pydict(
                {
                    "walk_id": pa.array(w[keep], pa.int64()),
                    "node": pa.array(
                        t["v"].to_numpy(zero_copy_only=False)[keep], pa.int64()
                    ),
                }
            )

        cur_ds = hop.map_batches(pick, batch_format="pyarrow")
        outs.append(
            cur_ds.map_batches(
                lambda t, _s=s: t.append_column(
                    "step", pa.array(np.full(t.num_rows, _s, np.int64))
                ).select(["walk_id", "step", "node"]),
                batch_format="pyarrow",
            )
        )
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def scc_tarjan(un: np.ndarray, vn: np.ndarray) -> "dict[int, int]":
    """Exact strongly connected components — iterative Tarjan (one DFS
    pass, no recursion so deep chains can't blow the stack). Ground truth
    for the distributed coloring tier's parity tests and the driver tier
    of :func:`scc_distributed` (edge lists under the pair guard are
    node-bounded, so a single-pass driver algorithm beats log-round
    distributed peeling there).

    Returns {node: scc_id} with scc_id = min node id in the component
    (canonicalized after Tarjan's own root assignment, so the labeling is
    implementation-independent — the property the SQL twin checks)."""
    nodes = np.unique(np.concatenate([un, vn]))
    idx = {int(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    # CSR adjacency
    ui = np.fromiter((idx[int(x)] for x in un), np.int64, len(un))
    vi = np.fromiter((idx[int(x)] for x in vn), np.int64, len(vn))
    order = np.argsort(ui, kind="stable")
    ui, vi = ui[order], vi[order]
    starts = np.searchsorted(ui, np.arange(n + 1))
    index = np.full(n, -1, np.int64)
    low = np.zeros(n, np.int64)
    on_stack = np.zeros(n, bool)
    stack: list[int] = []
    comp = np.full(n, -1, np.int64)
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        # explicit DFS frames: (node, next-edge cursor)
        frames = [(root, int(starts[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while frames:
            x, cur = frames[-1]
            if cur < starts[x + 1]:
                frames[-1] = (x, cur + 1)
                w = int(vi[cur])
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, int(starts[w])))
                elif on_stack[w]:
                    low[x] = min(low[x], index[w])
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    low[p] = min(low[p], low[x])
                if low[x] == index[x]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = x
                        if w == x:
                            break
    # canonicalize: scc id = min ORIGINAL node id in the component
    out_nodes = nodes.astype(np.int64)
    min_per_root: dict[int, int] = {}
    for i in range(n):
        r = int(comp[i])
        m = min_per_root.get(r)
        if m is None or out_nodes[i] < m:
            min_per_root[r] = int(out_nodes[i])
    return {int(out_nodes[i]): min_per_root[int(comp[i])] for i in range(n)}


def scc_distributed(
    edges: "ray.data.Dataset",
    *,
    cols: tuple[str, str] = ("u", "v"),
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
    max_peels: int = 30,
    max_color_rounds: int = 60,
) -> "ray.data.Dataset":
    """Strongly connected components, tiered like every iterative graph op
    here: under ``driver_edges_threshold`` distinct edges the exact
    single-pass Tarjan runs on the driver (edge lists under the guard are
    small); past it the Orzan FW-BW *coloring* algorithm runs on
    Datasets — per peel round (1) forward min-label propagation to
    fixpoint (per round one hash join edges ⋈ colors + groupby-min, the
    connected-components machinery but directed), (2) roots = nodes whose
    color is their own id, (3) backward BFS from the roots along REVERSED
    edges restricted to same-colored nodes — color(x)=r means r→x, the
    backward walk adds x→r, so the intersection is exactly SCC(r) — then
    (4) settled nodes leave the active set and their edges are dropped.
    Distributed state per round is node-bounded (the color table), never
    edge-bounded; every aggregate-derived join input is
    ``compact_for_join``-ed (the Ray 2.49 empty-block hazard). Worst case
    (a long path DAG) peels one topological layer per round, which is why
    the driver tier exists and why ``max_peels`` raises instead of
    returning silently-partial labels (the r2-ADVICE convergence-signal
    rule).

    Returns Dataset(node, scc) with scc = min node id of the component."""
    from goose_parser_ray.functions.dedup import (
        _drop_empty_blocks,
        filter_out_ids,
    )

    a, b = cols
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= driver_edges_threshold:
        epd = edges.to_pandas()
        lab = scc_tarjan(
            epd[a].to_numpy(np.int64), epd[b].to_numpy(np.int64)
        )
        ks = np.fromiter(lab.keys(), np.int64, len(lab))
        vs = np.fromiter(lab.values(), np.int64, len(lab))
        o = np.argsort(ks)
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(ks[o], pa.int64()),
                    "scc": pa.array(vs[o], pa.int64()),
                }
            )
        )

    def _nodes_of(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
        return ds.map_batches(
            lambda t, c=col: pa.Table.from_arrays([t[c]], names=["node"]),
            batch_format="pyarrow",
        )

    def _compact(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        m = ds.materialize()
        return compact_for_join(m, m.count()).materialize()

    all_nodes = _compact(
        keyed_aggregate(
            _nodes_of(edges, a).union(_nodes_of(edges, b)), ["node"],
            {"k": ("node", "count")},
        ).drop_columns(["k"])
    )
    active_edges = edges
    settled: list["ray.data.Dataset"] = []
    for _peel in range(max_peels):
        active_edges = _compact(active_edges)
        n_active = active_edges.count()
        if n_active == 0:
            break
        # (1) forward min-color fixpoint: color(v) = min over ids reaching v
        colors = _compact(
            keyed_aggregate(
                _nodes_of(active_edges, a).union(_nodes_of(active_edges, b)), ["node"],
                {"k": ("node", "count")},
            )
            .drop_columns(["k"])
            .map_batches(
                lambda t: pa.Table.from_pydict(
                    {"node": t["node"], "color": t["node"]}
                ),
                batch_format="pyarrow",
            )
        )
        prev = None
        for _r in range(max_color_rounds):
            pushed = safe_join(
                active_edges, colors, num_partitions=num_partitions, on=(a,),
                right_on=("node",), left_rows=n_active,
            ).map_batches(
                lambda t: pa.Table.from_pydict(
                    {"node": t[b], "color": t["color"]}
                ),
                batch_format="pyarrow",
            )
            colors = _compact(
                keyed_aggregate(
                    colors.union(pushed), ["node"], {"color": ("color", "min")},
                )
            )
            # pointer-jumping shortcut (sound for min-forward-reaching-id
            # because reachability is transitive: color(color(v)) reaches
            # color(v) reaches v): color(v) ← color(color(v)). Same
            # O(log diameter) round bound as connected components.
            colors = _compact(
                safe_join(
                    colors,
                    colors.map_batches(
                        lambda t: pa.Table.from_pydict(
                            {"__jn": t["node"], "__jc": t["color"]}
                        ),
                        batch_format="pyarrow",
                    ),
                    num_partitions=num_partitions,
                    on=("color",),
                    right_on=("__jn",),
                    left_rows=colors.count(),
                ).map_batches(
                    lambda t: pa.Table.from_pydict(
                        {"node": t["node"], "color": t["__jc"]}
                    ),
                    batch_format="pyarrow",
                )
            )
            s = colors.map_batches(
                lambda t: pa.Table.from_pydict(
                    {
                        "s": [int(pc.sum(t["color"]).as_py() or 0)],
                        "n": [t.num_rows],
                    }
                ),
                batch_format="pyarrow",
            ).to_pandas()
            cur = (int(s["s"].sum()), int(s["n"].sum()))
            if cur == prev:
                break
            prev = cur
        else:
            raise RuntimeError(
                "scc_distributed: color propagation did not converge in "
                f"{max_color_rounds} rounds — raise max_color_rounds "
                "(graph diameter exceeds the cap)"
            )
        # (2)+(3) backward BFS from roots restricted to same color.
        # Frontier rows are (node, color = the root's scc id).
        frontier = _compact(
            colors.map_batches(
                lambda t: t.filter(pc.equal(t["node"], t["color"])),
                batch_format="pyarrow",
            )
        )
        members = frontier
        for _r in range(max_color_rounds):
            if frontier.count() == 0:
                break
            # reversed hop: frontier(node=v) → predecessor u, then keep
            # only u whose own color equals the root color (one more
            # node-keyed join against the color table)
            hop = _compact(
                safe_join(
                    active_edges, frontier, num_partitions=num_partitions,
                    on=(b,), right_on=("node",), left_rows=n_active,
                ).map_batches(
                    lambda t: pa.Table.from_pydict(
                        {"node": t[a], "color": t["color"]}
                    ),
                    batch_format="pyarrow",
                )
            )
            if hop.count() == 0:
                break
            checked = _compact(
                keyed_aggregate(
                    safe_join(
                        hop,
                        colors.map_batches(
                            lambda t: pa.Table.from_pydict(
                                {"node": t["node"], "__c2": t["color"]}
                            ),
                            batch_format="pyarrow",
                        ),
                        num_partitions=num_partitions,
                        on=("node",),
                        right_on=("node",),
                        right_rows=colors.count(),
                    )
                    .map_batches(
                        lambda t: pa.Table.from_pydict(
                            {"node": t["node"], "color": t["color"]}
                        ).filter(
                            pc.equal(t["color"], t["__c2"])
                        ),
                        batch_format="pyarrow",
                    ),
                    ["node"], {"color": ("color", "min")},
                )
            )
            fresh = _compact(
                filter_out_ids(checked, members, "node", drop_col="node")
            )
            if fresh.count() == 0:
                break
            members = _compact(members.union(fresh))
            frontier = fresh
        else:
            raise RuntimeError(
                "scc_distributed: backward reachability did not settle in "
                f"{max_color_rounds} rounds"
            )
        settled.append(
            members.map_batches(
                lambda t: pa.Table.from_pydict(
                    {"node": t["node"], "scc": t["color"]}
                ),
                batch_format="pyarrow",
            ).materialize()
        )
        # (4) drop settled nodes' edges (both endpoints)
        done = members.select_columns(["node"]).materialize()
        active_edges = filter_out_ids(active_edges, done, a, drop_col="node")
        active_edges = filter_out_ids(active_edges, done, b, drop_col="node")
    else:
        raise RuntimeError(
            "scc_distributed: active graph not exhausted after "
            f"{max_peels} peel rounds — DAG-like structure; raise "
            "max_peels or lower driver_edges_threshold"
        )
    # nodes whose every edge was dropped with a settled SCC never re-enter
    # the active graph — they are singleton SCCs of the remainder
    emitted = settled[0] if settled else None
    for s_ in settled[1:]:
        emitted = emitted.union(s_)
    if emitted is None:
        leftovers = all_nodes
    else:
        emitted = _compact(emitted)
        leftovers = _compact(
            filter_out_ids(
                all_nodes, emitted.select_columns(["node"]).materialize(),
                "node", drop_col="node",
            )
        )
    singles = leftovers.map_batches(
        lambda t: pa.Table.from_pydict({"node": t["node"], "scc": t["node"]}),
        batch_format="pyarrow",
    )
    return singles if emitted is None else emitted.union(singles)


# ---------------------------------------------------------------------------
# label propagation communities (synchronous, deterministic)
# ---------------------------------------------------------------------------


def _lpa_driver(u: np.ndarray, v: np.ndarray, rounds: int) -> "pa.Table":
    """Driver tier: the per-round neighbor-label mode as lexsort + run
    boundaries (no Python loop over nodes). Inputs are the SYMMETRIZED
    edge arrays."""
    nodes = np.unique(np.concatenate([u, v]))
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    labels = nodes.copy()  # init: own id
    for _ in range(rounds):
        lab = labels[ui]  # message label along each (u -> v) edge
        order = np.lexsort((lab, vi))
        sv, sl = vi[order], lab[order]
        # run boundaries over (v, label)
        new_run = np.empty(len(sv), dtype=bool)
        new_run[0] = True
        np.not_equal(sv[1:], sv[:-1], out=new_run[1:])
        new_run[1:] |= sl[1:] != sl[:-1]
        starts = np.flatnonzero(new_run)
        counts = np.diff(np.append(starts, len(sv)))
        run_v = sv[starts]
        run_l = sl[starts]
        # per v: argmax count, tie → smallest label. Within a v group runs
        # are label-ASC, so a STABLE max-pick keeps the smallest label:
        # sort runs by (v asc, count desc) with a stable mergesort.
        o2 = np.argsort(-counts, kind="stable")
        o3 = np.argsort(run_v[o2], kind="stable")
        pick = o2[o3]
        pv, pl = run_v[pick], run_l[pick]
        first = np.empty(len(pv), dtype=bool)
        first[0] = True
        np.not_equal(pv[1:], pv[:-1], out=first[1:])
        new_labels = labels.copy()
        new_labels[pv[first]] = pl[first]
        labels = new_labels
    return pa.Table.from_pydict(
        {
            "node": nodes.astype(np.int64),
            "label": labels.astype(np.int64),
        }
    )


def label_propagation(
    edges: "ray.data.Dataset",
    *,
    src: str = "src",
    dst: str = "dst",
    rounds: int = 3,
    num_partitions: int | None = None,
    driver_edges_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """Synchronous label-propagation communities (Raghavan 2007, made
    deterministic): labels start as node ids; each round every node takes
    the most frequent label among its neighbors (undirected — edges are
    symmetrized), ties broken to the SMALLEST label; exactly ``rounds``
    rounds (bounded-round discipline, same as the q_pagerank oracle
    shape — no order-dependent convergence races).

    Tiering matches the rest of the graph family: map-side edge collapse
    gates a numpy driver tier under ``driver_edges_threshold``; past it
    each round is one hash join (edges ⋈ labels) + a (v, label) partial
    count + a v-grouped mode pick."""
    import pandas as pd

    def sym_block(t: pa.Table) -> pa.Table:
        a = pc.cast(t[src], pa.int64()).combine_chunks()
        b = pc.cast(t[dst], pa.int64()).combine_chunks()
        tbl = pa.Table.from_pydict(
            {
                "u": pa.concat_arrays([a, b]),
                "v": pa.concat_arrays([b, a]),
            }
        )
        tbl = tbl.filter(pc.not_equal(tbl["u"], tbl["v"]))  # drop self-loops
        # map-side collapse of duplicate (u, v): parallel edges vote once
        df = tbl.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    sym = edges.map_batches(sym_block, batch_format="pyarrow").materialize()
    n_partial = sym.count()
    if n_partial == 0:
        return sym.map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    if n_partial <= driver_edges_threshold:
        pdf = sym.to_pandas().drop_duplicates()
        return ray.data.from_arrow(
            _lpa_driver(
                pdf["u"].to_numpy(np.int64), pdf["v"].to_numpy(np.int64), rounds
            )
        )

    # join tier: global dedup of (u, v) once, then bounded rounds
    e = compact_for_join(
        keyed_aggregate(sym, ["u", "v"], {"w": ("u", "count")})
        .drop_columns(["w"])
        .materialize()
    )
    nodes = compact_for_join(
        keyed_aggregate(
            e.map_batches(
                lambda t: pa.Table.from_pydict({"node": t["u"]}),
                batch_format="pyarrow",
            ),
            ["node"],
            {"k": ("node", "count")},
        )
        .drop_columns(["k"])
        .materialize()
    )
    labels = nodes.map_batches(
        lambda t: pa.Table.from_pydict({"u": t["node"], "label": t["node"]}),
        batch_format="pyarrow",
    ).materialize()

    def pick_mode(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) == 0:
            return pd.DataFrame(
                {
                    "u": pd.Series([], dtype=np.int64),
                    "label": pd.Series([], dtype=np.int64),
                }
            )
        g = g.sort_values(["v", "c", "label"], ascending=[True, False, True])
        top = g.drop_duplicates("v", keep="first")
        return pd.DataFrame(
            {
                "u": top["v"].to_numpy(np.int64),
                "label": top["label"].to_numpy(np.int64),
            }
        )

    for _ in range(rounds):
        msgs = safe_join(
            e, labels, num_partitions=num_partitions, on=("u",),
            left_rows=n_partial,  # upper bound: e is sym deduplicated
        )
        counts = keyed_aggregate(
            msgs.map_batches(
                lambda t: pa.Table.from_pydict(
                    {"v": t["v"], "label": t["label"]}
                ),
                batch_format="pyarrow",
            ),
            ["v", "label"],
            {"c": ("v", "count")},
        )
        labels = compact_for_join(
            counts.groupby("v").map_groups(pick_mode, batch_format="pandas")
            .materialize()
        )
    return labels.map_batches(
        lambda t: pa.Table.from_pydict({"node": t["u"], "label": t["label"]}),
        batch_format="pyarrow",
    )


def resolve_redirects(
    state: "ray.data.Dataset",
    n_nodes: "int | None" = None,
    *,
    hop_cap: int = 16,
    driver_nodes_threshold: int = 5_000_000,
    num_partitions: "int | None" = None,
) -> "ray.data.Dataset":
    """Resolve a FUNCTIONAL graph (every node has at most one out-edge —
    an HTTP 301 map, an alias table, a symlink forest) by pointer
    doubling: ``state`` carries one row per node with columns
    ``u`` (node), ``cur`` (where it lands so far), ``hops`` (path length
    so far) and ``done`` (cur is terminal), as built by the caller from
    the raw edge map. Composing the partial-path relation with itself
    doubles the known horizon each round, so a ``hop_cap`` needs only
    ceil(log2(hop_cap)) rounds; rows still not done at the cap are
    cycle-trapped or over-long and stay ``done=False``. Terminal rows
    absorb (composing with a done row keeps final/hops fixed).

    Tiered like the other iterative graph ops (the r2-VERDICT gated
    pattern): at or under ``driver_nodes_threshold`` the node-bounded
    state is pulled to the driver and doubled as vectorized numpy
    gathers (zero shuffles); past the guard each round is ONE hash join
    on the landing key (compacted, see compact_for_join), with per-round
    materialization of the node-bounded state (the pagerank convention —
    without it each round's three consumers re-execute the whole prior
    lineage)."""
    import math

    rounds = max(1, math.ceil(math.log2(hop_cap)))
    if n_nodes is None:
        n_nodes = state.count()
    if n_nodes <= driver_nodes_threshold:
        df = state.to_pandas()  # node-bounded under the guard
        u = df["u"].to_numpy(np.int64)
        cur = df["cur"].to_numpy(np.int64).copy()
        hops = df["hops"].to_numpy(np.int64).copy()
        done = df["done"].to_numpy(bool).copy()
        order = np.argsort(u, kind="stable")
        su = u[order]

        def pos(x: np.ndarray) -> np.ndarray:
            p = np.searchsorted(su, x)
            if (p >= len(su)).any() or (su[np.minimum(p, len(su) - 1)] != x).any():
                raise ValueError("resolve_redirects: dangling target")
            return order[p]

        for _ in range(rounds):
            nd = ~done
            if not nd.any():
                break
            f = pos(cur[nd])
            curf, hopsf, donef = cur[f], hops[f], done[f]
            cur[nd] = curf
            hops[nd] = hops[nd] + hopsf
            done[nd] = donef
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "u": pa.array(u, pa.int64()),
                    "cur": pa.array(cur, pa.int64()),
                    "hops": pa.array(hops, pa.int64()),
                    "done": pa.array(done, pa.bool_()),
                }
            )
        )

    # normalize column ORDER once: compose() emits (u, cur, hops, done)
    # and union-ing blocks with mismatched layouts poisons the next join.
    state = state.map_batches(
        lambda t: t.select(["u", "cur", "hops", "done"]),
        batch_format="pyarrow",
    ).materialize()

    def as_right(t: pa.Table) -> pa.Table:
        # select by NAME first — callers may carry extra columns or a
        # different order; positional rename alone would mislabel them.
        t = t.select(["u", "cur", "hops", "done"])
        return t.rename_columns(["r_u", "r_cur", "r_hops", "r_done"])

    def compose(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "u": t["u"],
                "cur": t["r_cur"],
                "hops": pa.array(
                    t["hops"].to_numpy(zero_copy_only=False)
                    + t["r_hops"].to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
                "done": t["r_done"],
            }
        )

    for _ in range(rounds):
        done_rows = state.filter(expr="done == True").materialize()
        todo = state.filter(expr="done == False").materialize()
        n_todo = todo.count()
        if n_todo == 0:
            break  # fully resolved — and an empty join side is poisoned
        right = state.map_batches(as_right, batch_format="pyarrow")
        j = safe_join(
            todo, right, on=("cur",), right_on=("r_u",),
            num_partitions=num_partitions, compact=True, left_rows=n_todo,
        ).materialize()
        # u is unique, so each todo row matches AT MOST one right row; an
        # inner-join shrinkage means some cur points outside the node set
        # — the same malformed input the driver tier rejects. Raise here
        # so the tiers agree instead of silently dropping rows.
        if done_rows.count() + j.count() != n_nodes:
            raise ValueError("resolve_redirects: dangling target")
        state = done_rows.union(
            j.map_batches(compose, batch_format="pyarrow")
        ).materialize()
    return state


def longest_path_dag(
    edges: "ray.data.Dataset",
    *,
    cols: tuple[str, str] = ("u", "v"),
    max_rounds: int = 32,
    num_partitions: "int | None" = None,
    driver_edges_threshold: int = 5_000_000,
) -> "ray.data.Dataset":
    """Longest-path level per node in a DAG — the critical-path /
    scheduling-depth primitive (level(v) = max over incoming
    level(u)+1, sources at 0). Tiered like the other iterative graph
    ops: under ``driver_edges_threshold`` edges a numpy Bellman-style
    relaxation runs on the driver; past it each round is one hash join
    of the current level table against the edge list on the SOURCE key
    plus a grouped-max — node-bounded state, edge-bounded join, round
    count = DAG depth. Raises ValueError if levels still change after
    ``max_rounds`` (a cycle — longest path undefined; the r2-ADVICE
    convergence-signal rule, no silently-partial output).

    Returns Dataset(node, lvl)."""
    a, b = cols
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= driver_edges_threshold:
        epd = edges.to_pandas()
        u = epd[a].to_numpy(np.int64)
        v = epd[b].to_numpy(np.int64)
        nodes = np.unique(np.concatenate([u, v]))
        idx = {int(n): i for i, n in enumerate(nodes)}
        ui = np.array([idx[int(x)] for x in u], np.int64)
        vi = np.array([idx[int(x)] for x in v], np.int64)
        lvl = np.zeros(len(nodes), np.int64)
        for _ in range(max_rounds):
            cand = lvl[ui] + 1
            new = lvl.copy()
            np.maximum.at(new, vi, cand)
            if np.array_equal(new, lvl):
                break
            lvl = new
        else:
            raise ValueError("longest_path_dag: no fixpoint (cycle?)")
        return ray.data.from_arrow(
            pa.Table.from_pydict(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "lvl": pa.array(lvl, pa.int64()),
                }
            )
        )

    def nodes_of(col: str):
        return edges.map_batches(
            lambda t, c=col: pa.Table.from_arrays([t[c]], names=["node"]),
            batch_format="pyarrow",
        )

    state = (
        keyed_aggregate(
            nodes_of(a).union(nodes_of(b)), ["node"],
            {"k": ("node", "count")},
        )
        .map_batches(
            lambda t: pa.Table.from_pydict(
                {"node": t["node"],
                 "lvl": np.zeros(t.num_rows, dtype=np.int64)}
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    edges_c = compact_for_join(edges, n_edges).materialize()
    for _ in range(max_rounds):
        n_state = state.count()
        pushed = safe_join(
            compact_for_join(state, n_state),
            edges_c, num_partitions=num_partitions,
            on=("node",), right_on=(a,), right_rows=n_edges,
        )
        cand = pushed.map_batches(
            lambda t: pa.Table.from_pydict(
                {
                    "node": t[b],
                    "lvl": pa.array(
                        t["lvl"].to_numpy(zero_copy_only=False) + 1,
                        pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        merged = keyed_aggregate(
            state.union(cand), ["node"], {"lvl": ("lvl", "max")}
        ).materialize()
        # converged when the level multiset is unchanged (levels only grow)
        old_sum = state.map_batches(
            lambda t: pa.Table.from_pydict(
                {"s": [int(t["lvl"].to_numpy(zero_copy_only=False).sum())]}
            ),
            batch_format="pyarrow",
        ).to_pandas()["s"].sum()
        new_sum = merged.map_batches(
            lambda t: pa.Table.from_pydict(
                {"s": [int(t["lvl"].to_numpy(zero_copy_only=False).sum())]}
            ),
            batch_format="pyarrow",
        ).to_pandas()["s"].sum()
        state = merged
        if int(new_sum) == int(old_sum):
            break
    else:
        raise ValueError("longest_path_dag: no fixpoint (cycle?)")
    return state
