"""Mergeable sketches for shuffle-free distributed statistics (guide
"Aggregation at scale" — the same map-only + tiny-driver-merge pattern as
the HLL sketch in textstats.py).

LogHistogramSketch: quantiles over positive values via a log-spaced
histogram — one numpy pass per batch, one count-vector merge per block on
the driver. Relative error is bounded by the bin ratio
``(hi/lo)^(1/nbins)`` (~1% at the defaults), independent of data size or
distribution, and the sketch is trivially mergeable so the scale shape is
identical to HLL: no all-to-all, O(nbins) driver state.

This is the 10^12-row path for the exact per-group quantiles surfaced by
``queries.q_quantiles`` (exact sort-based quantiles stop being feasible
when a group no longer fits one worker).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

DEFAULT_LO = 1e-6
DEFAULT_HI = 1e12
DEFAULT_BINS = 4096


def sketch_batch(
    values: np.ndarray,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    nbins: int = DEFAULT_BINS,
) -> np.ndarray:
    """One batch → int64[nbins + 2] counts (underflow bin 0, overflow last)."""
    v = np.asarray(values, dtype=np.float64)
    counts = np.zeros(nbins + 2, dtype=np.int64)
    if v.size == 0:
        return counts
    scale = nbins / np.log(hi / lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        idx = np.floor(np.log(v / lo) * scale).astype(np.int64) + 1
    idx = np.where(v <= lo, 0, idx)
    idx = np.clip(idx, 0, nbins + 1)
    np.add.at(counts, idx, 1)
    return counts


def merge(sketches: list[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(sketches[0])
    for s in sketches:
        out += s
    return out


def quantile_bin(counts: np.ndarray, q: float) -> int:
    """Index of the bin holding the ceil(q*n)-th value (exact integer —
    the ulp-free half of the estimate an oracle can compare exactly)."""
    n = int(counts.sum())
    if n == 0:
        return -1
    target = max(1, int(np.ceil(q * n)))
    return int(np.searchsorted(np.cumsum(counts), target))


def quantile(
    counts: np.ndarray,
    q: float,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
) -> float:
    """q-quantile estimate: geometric midpoint of the bin holding the
    ceil(q*n)-th value (discrete-quantile convention, matching
    queries.q_quantiles / DuckDB quantile_disc up to bin resolution)."""
    nbins = len(counts) - 2
    if int(counts.sum()) == 0:
        return float("nan")
    b = quantile_bin(counts, q)
    if b == 0:
        return lo
    if b == nbins + 1:
        return hi
    ratio = np.log(hi / lo) / nbins
    left = lo * np.exp((b - 1) * ratio)
    return float(left * np.exp(ratio / 2))


def sketch_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    *,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    nbins: int = DEFAULT_BINS,
    return_bins: bool = False,
):
    """Distributed quantile estimation: one sketch row per batch (map-only),
    tiny driver merge — no shuffle touches the data."""

    def sk(batch: pa.Table) -> pa.Table:
        vals = batch[col].to_numpy(zero_copy_only=False)
        return pa.Table.from_pydict(
            {"counts": [sketch_batch(vals, lo, hi, nbins).tobytes()]}
        )

    def fold(t: pa.Table) -> pa.Table:
        # map-side coalescing merge: ≤64 per-block partials → 1 row, so the
        # driver's take_all() is bounded by blocks/64, not block count (sum
        # is associative — result bit-identical to a flat merge)
        acc = merge([np.frombuffer(b, dtype=np.int64) for b in t["counts"].to_pylist()])
        return pa.Table.from_pydict({"counts": [acc.tobytes()]})

    rows = (
        ds.map_batches(sk, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow", batch_size=64)
        .take_all()
    )
    merged = merge([np.frombuffer(r["counts"], dtype=np.int64) for r in rows])
    est = {q: quantile(merged, q, lo, hi) for q in qs}
    if return_bins:
        return est, {q: quantile_bin(merged, q) for q in qs}
    return est


# ---------------------------------------------------------------------------
# Heavy hitters: truncated-counts top-k summary (SpaceSaving-style merge)
# ---------------------------------------------------------------------------
#
# Per-batch EXACT vectorized value counts truncated to `width` entries plus
# the largest dropped count as an error bound; summaries merge by summing
# counts and re-truncating (bounds add). For a word w surviving the merge,
# true_count(w) <= est(w) + sum(bounds) — the standard mergeable top-k
# approximation with an explicit error certificate, vectorized end to end
# (no per-word Python loop, unlike textbook Misra-Gries).


def topk_words_summary(words, width: int):
    """One batch -> (words[<=width], counts, dropped_bound). `words` is a
    pandas Series of already-tokenized words."""
    import pandas as pd  # noqa: F401

    vc = words.value_counts()  # vectorized C pass, sorted desc
    if len(vc) <= width:
        return vc.index.to_numpy(), vc.to_numpy(), 0
    return (
        vc.index.to_numpy()[:width],
        vc.to_numpy()[:width],
        int(vc.iloc[width]),
    )


def merge_topk_summaries(summaries, width: int):
    """[(words, counts, bound), ...] -> (Series est counts desc, total_bound)."""
    import pandas as pd

    total_bound = sum(b for _, _, b in summaries)
    merged = (
        pd.concat(
            [pd.Series(c, index=w) for w, c, _ in summaries if len(w)]
        )
        .groupby(level=0)
        .sum()
        .sort_values(ascending=False)
    )
    return merged.head(width), total_bound


def heavy_hitters(ds, col: str, k: int, *, width: int | None = None):
    """Distributed approximate top-k frequent words over a text column:
    map-only truncated summaries (one row per batch), tiny driver merge —
    the HLL/quantile-sketch shuffle-free pattern. Returns a pandas
    DataFrame (word, est_count, bound) of the top k by estimated count
    (ties broken by word for determinism)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from goose_parser_ray.functions.textstats import WORD_SPLIT_RE

    if width is None:
        width = max(64, 8 * k)

    def summarize(batch: pa.Table) -> pa.Table:
        lowered = pc.fill_null(pc.utf8_lower(batch[col]), "")
        words = pc.split_pattern_regex(lowered, pattern=WORD_SPLIT_RE)
        flat = pc.list_flatten(
            words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        )
        s = pd.Series(flat.to_pylist(), dtype=object)
        s = s[s != ""]
        w, c, b = topk_words_summary(s, width)
        return pa.Table.from_pydict(
            {
                "words": [list(map(str, w))],
                "counts": [[int(x) for x in c]],
                "bound": [int(b)],
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        # map-side coalesce of ≤64 truncated summaries → 1 (bounds add per
        # the mergeable-summary contract; the driver merge is then bounded
        # by blocks/64 rows)
        w, c, b = t["words"].to_pylist(), t["counts"].to_pylist(), t["bound"].to_pylist()
        m, tb = merge_topk_summaries(list(zip(w, c, b)), width)
        return pa.Table.from_pydict(
            {
                "words": [list(map(str, m.index))],
                "counts": [[int(x) for x in m.to_numpy()]],
                "bound": [int(tb)],
            }
        )

    rows = (
        ds.map_batches(summarize, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow", batch_size=64)
        .take_all()
    )
    merged, bound = merge_topk_summaries(
        [(r["words"], r["counts"], r["bound"]) for r in rows], width
    )
    out = merged.reset_index()
    out.columns = ["word", "est_count"]
    out = out.sort_values(
        ["est_count", "word"], ascending=[False, True], kind="mergesort"
    ).head(k)
    out["bound"] = bound
    return out.reset_index(drop=True)


def grouped_sketch_quantiles(
    ds: ray.data.Dataset,
    key: str,
    col: str,
    qs: list[float],
    *,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    nbins: int = DEFAULT_BINS,
    return_bins: bool = False,
):
    """PER-GROUP quantile estimation at unbounded group count — the 10^12-row
    path for ``queries.q_quantiles``: each batch emits SPARSE (key, bin,
    count) rows (vectorized digitize + one pandas groupby per batch — never
    a dense per-key histogram), one partial-aggregate shuffle moves ≤
    groups × occupied-bins tiny rows, and per-key quantiles extract from
    the merged sparse histograms. Same ~1%-relative-error bound as the
    global sketch. Returns a pandas DataFrame (key, one column per q)."""
    import pandas as pd

    scale = nbins / np.log(hi / lo)

    def binify(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy(zero_copy_only=False).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            idx = np.floor(np.log(v / lo) * scale).astype(np.int64) + 1
        idx = np.where(v <= lo, 0, idx)
        idx = np.clip(idx, 0, nbins + 1)
        return pa.table({key: batch[key], "bin": idx})

    from goose_parser_ray.functions.relational import keyed_aggregate

    agg = keyed_aggregate(
        ds.map_batches(binify, batch_format="pyarrow"), [key, "bin"],
        {"n": ("bin", "count")},
    )
    pdf = agg.to_pandas()  # groups × occupied bins — tiny vs the data
    ratio = np.log(hi / lo) / nbins

    def bin_value(b: int) -> float:
        if b == 0:
            return lo
        if b == nbins + 1:
            return hi
        return float(lo * np.exp((b - 1) * ratio) * np.exp(ratio / 2))

    out_rows = []
    for k, g in pdf.groupby(key, sort=True):
        g = g.sort_values("bin")
        cum = g["n"].cumsum().to_numpy()
        n = int(cum[-1])
        row = {key: k}
        for q in qs:
            target = max(1, int(np.ceil(q * n)))
            b = int(g["bin"].to_numpy()[np.searchsorted(cum, target)])
            row[f"q{int(q * 100)}"] = bin_value(b)
            if return_bins:
                row[f"q{int(q * 100)}_bin"] = b
        out_rows.append(row)
    return pd.DataFrame(out_rows)


# ---------------------------------------------------------------------------
# Bloom filter: mergeable set-membership sketch
# ---------------------------------------------------------------------------
#
# The building block for semi-join pushdown when the id set is too big to
# broadcast exactly: build map-only (per-batch bit arrays OR-merge like HLL
# registers), ship the packed bits once, probe vectorized map-side. No
# false negatives; false-positive rate ≈ (1 - e^{-kn/m})^k.


def _bloom_positions(values, salt: int, n_bits: int) -> np.ndarray:
    """Per-salt bit positions. Integer keys take the splitmix64 path —
    pos = mix64(x·2654435761 + salt) mod n_bits — which a SQL oracle can
    replay bit-exactly (the r5 HUGEINT modmul construction); other types
    fall back to the pandas string hash (same determinism, no SQL twin)."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import _mix64

    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        base = arr.astype(np.uint64) * np.uint64(2654435761) + np.uint64(salt)
        h = _mix64(base)
    else:
        s = pd.Series(values, dtype=object).astype(str)
        h = pd.util.hash_pandas_object(
            s + f"#b{salt}", index=False
        ).to_numpy()
    return (h % np.uint64(n_bits)).astype(np.int64)


def bloom_batch(values, n_bits: int, n_hashes: int) -> np.ndarray:
    """One batch → packed bit array (uint8[n_bits/8]). Vectorized: one
    deterministic 64-bit hash pass per salt, no per-value Python."""
    bits = np.zeros(n_bits // 8, dtype=np.uint8)
    if len(values) == 0:
        return bits
    for salt in range(n_hashes):
        pos = _bloom_positions(values, salt, n_bits)
        np.bitwise_or.at(bits, pos >> 3, (1 << (pos & 7)).astype(np.uint8))
    return bits


def bloom_contains(
    bits: np.ndarray, values, n_bits: int, n_hashes: int
) -> np.ndarray:
    """Vectorized membership probe → bool array (no false negatives)."""
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    hit = np.ones(len(values), dtype=bool)
    for salt in range(n_hashes):
        pos = _bloom_positions(values, salt, n_bits)
        hit &= (bits[pos >> 3] & (1 << (pos & 7)).astype(np.uint8)) != 0
    return hit


def bloom_build(ds, col: str, *, n_bits: int = 1 << 20, n_hashes: int = 4):
    """Distributed build: one packed-bits row per batch (map-only), OR-merge
    on the driver — identical scale shape to the HLL sketch."""
    import pyarrow as _pa

    assert n_bits % 8 == 0

    def sk(batch: _pa.Table) -> _pa.Table:
        return _pa.Table.from_pydict(
            {
                "bits": [
                    bloom_batch(
                        batch[col].to_pylist(), n_bits, n_hashes
                    ).tobytes()
                ]
            }
        )

    def fold(t: _pa.Table) -> _pa.Table:
        # map-side OR-coalesce (≤64 × 128KB partials → 1) so the driver's
        # final merge is bounded by blocks/64 — OR is associative, result
        # bit-identical
        acc = np.zeros(n_bits // 8, dtype=np.uint8)
        for b in t["bits"].to_pylist():
            acc |= np.frombuffer(b, dtype=np.uint8)
        return _pa.Table.from_pydict({"bits": [acc.tobytes()]})

    rows = (
        ds.map_batches(sk, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow", batch_size=64)
        .take_all()
    )
    out = np.zeros(n_bits // 8, dtype=np.uint8)
    for r in rows:
        out |= np.frombuffer(r["bits"], dtype=np.uint8)
    return out


# ---------------------------------------------------------------------------
# count-min sketch (Cormode & Muthukrishnan 2005)
# ---------------------------------------------------------------------------


def cms_batch(values, width: int, depth: int) -> np.ndarray:
    """One batch → (depth, width) int64 count matrix. Vectorized: one
    deterministic salted 64-bit hash pass per row, bincount adds — no
    per-value Python. Counters are int64 (no saturation at corpus scale)."""
    import pandas as pd

    counts = np.zeros((depth, width), dtype=np.int64)
    s = pd.Series(values, dtype=object).astype(str)
    if s.empty:
        return counts
    for row in range(depth):
        h = pd.util.hash_pandas_object(
            s + f"#c{row}", index=False
        ).to_numpy()
        pos = (h % np.uint64(width)).astype(np.int64)
        counts[row] += np.bincount(pos, minlength=width)
    return counts


def cms_query(counts: np.ndarray, values, width: int, depth: int) -> np.ndarray:
    """Point-frequency estimates: min over the depth rows — NEVER an
    underestimate; overestimate ≤ εN (ε = e/width) w.p. 1−(1/e)^depth."""
    import pandas as pd

    s = pd.Series(values, dtype=object).astype(str)
    if s.empty:
        return np.zeros(0, dtype=np.int64)
    est = np.full(len(s), np.iinfo(np.int64).max, dtype=np.int64)
    for row in range(depth):
        h = pd.util.hash_pandas_object(
            s + f"#c{row}", index=False
        ).to_numpy()
        pos = (h % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, counts[row, pos])
    return est


def cms_build(ds, col: str, *, width: int = 2048, depth: int = 4) -> np.ndarray:
    """Distributed build: one (depth×width) int64 partial per batch
    (map-only over the corpus), map-side sum-coalesce (≤64 partials → 1,
    addition is associative and exact — the merged sketch is BIT-IDENTICAL
    to a single-pass build, the mergeability contract), tiny driver fold.
    Same scale shape as the HLL/bloom builders."""
    import pyarrow as _pa

    def sk(batch: _pa.Table) -> _pa.Table:
        return _pa.Table.from_pydict(
            {"cnt": [cms_batch(batch[col].to_pylist(), width, depth).tobytes()]}
        )

    def fold(t: _pa.Table) -> _pa.Table:
        acc = np.zeros(depth * width, dtype=np.int64)
        for b in t["cnt"].to_pylist():
            acc += np.frombuffer(b, dtype=np.int64)
        return _pa.Table.from_pydict({"cnt": [acc.tobytes()]})

    rows = (
        ds.map_batches(sk, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow", batch_size=64)
        .take_all()
    )
    acc = np.zeros(depth * width, dtype=np.int64)
    for r in rows:
        acc += np.frombuffer(r["cnt"], dtype=np.int64)
    return acc.reshape(depth, width)
