"""Edit-distance-1 similarity join (FastSS deletion-neighborhood blocking).

Finds all string pairs with Levenshtein distance exactly 1 — the entity-
resolution primitive for typo-level matching (names, SKUs, URLs). Blocking
is the FastSS construction (Bocek et al. 2007): every string emits itself
plus all single-character deletions as block keys; two strings at edit
distance ≤ 1 necessarily share a key (substitution → same deletion at the
mismatch position; insert/delete → one string IS a deletion of the other),
so the candidate set has zero misses. Candidates are verified with an exact
distance-1 predicate — no DP table:

- equal lengths: distance = 1 ⇔ hamming = 1 (vectorized codepoint matrix)
- lengths differ by 1: distance = 1 ⇔ common-prefix + common-suffix covers
  the shorter string (linear scan per candidate; candidates are
  blocking-bounded, not corpus-bounded)

Scale shape: variant generation is per-row but bounded (len+1 keys/row);
the only shuffle moves (variant, id, string) triples into data-proportional
buckets; per-variant groups are star-capped like every other pair generator
in this repo (a pathological hot variant emits a linear star, not a
quadratic clique). Verification is map-side within the group.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from goose_parser_ray.functions.dedup import bucket_groups, split_for_groupby
from goose_parser_ray.functions.relational import distinct_rows

_PAIR_CAP = 256  # per-variant star cap, same constant family as LSH buckets


def _codepoint_matrix(strings: np.ndarray, width: int) -> np.ndarray:
    """(n, width) uint32 codepoint matrix of same-length strings."""
    if len(strings) == 0:
        return np.zeros((0, width), dtype=np.uint32)
    arr = np.array(list(strings), dtype=f"U{width}")
    return arr.view(np.uint32).reshape(len(strings), width)


def edit1_verify(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized exact predicate: levenshtein(a[i], b[i]) == 1."""
    n = len(a)
    out = np.zeros(n, dtype=bool)
    if n == 0:
        return out
    la = np.fromiter((len(s) for s in a), np.int64, n)
    lb = np.fromiter((len(s) for s in b), np.int64, n)

    same = la == lb
    if same.any():
        for width in np.unique(la[same]):
            if width == 0:
                continue
            m = same & (la == width)
            ma = _codepoint_matrix(a[m], int(width))
            mb = _codepoint_matrix(b[m], int(width))
            out[m] = (ma != mb).sum(axis=1) == 1

    diff1 = np.abs(la - lb) == 1
    if diff1.any():
        idx = np.nonzero(diff1)[0]
        for i in idx:
            s, t = (a[i], b[i]) if la[i] < lb[i] else (b[i], a[i])
            # distance 1 ⇔ prefix+suffix of the short string covers it
            k = 0
            while k < len(s) and s[k] == t[k]:
                k += 1
            j = 0
            while j < len(s) - k and s[len(s) - 1 - j] == t[len(t) - 1 - j]:
                j += 1
            out[i] = k + j >= len(s)
    return out


def edit1_pairs(
    ds: ray.data.Dataset,
    *,
    col: str,
    id_col: str,
    n_rows: int | None = None,
) -> ray.data.Dataset:
    """All (id_a, id_b) with levenshtein(col_a, col_b) == 1, id_a < id_b.

    Exact while no variant block exceeds ``_PAIR_CAP`` members (blocking
    has zero misses and every candidate is verified); a pathological hot
    variant — mass near-identical strings — degrades to a linear star like
    the repo's other pair generators. Assumes ``id_col`` unique; equal
    strings (distance 0) are never emitted."""
    if n_rows is None:
        n_rows = ds.count()

    def variants(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        strs = t[col].to_pylist()
        v_ids: list[int] = []
        v_str: list[str] = []
        v_key: list[str] = []
        for i, s in zip(ids, strs):
            if s is None:
                continue
            v_ids.append(i)
            v_str.append(s)
            # self key UNPREFIXED: an insert/delete pair collides exactly
            # because one string IS a deletion variant of the other; the
            # only extra collision this invites is equal strings, which
            # verification rejects (distance 0).
            v_key.append(s)
            for p in range(len(s)):
                v_ids.append(i)
                v_str.append(s)
                v_key.append(s[:p] + s[p + 1 :])
        out = pa.Table.from_pydict(
            {
                "__vk": pa.array(v_key, pa.string()),
                "id": pa.array(v_ids, pa.int64()),
                "s": pa.array(v_str, pa.string()),
            }
        )
        return out

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids, a_s, b_s = [], [], [], []
        for _, grp in g.groupby("__vk", sort=False):
            if len(grp) < 2:
                continue
            # a run of equal chars makes one string emit the same deletion
            # variant several times — one membership per id is enough
            grp = grp.drop_duplicates("id").sort_values(
                "id", kind="mergesort"
            )
            if len(grp) < 2:
                continue
            ids = grp["id"].to_numpy()
            ss = grp["s"].to_numpy()
            if len(grp) > _PAIR_CAP:
                # star: anchor to the smallest id (linear, not quadratic)
                a_ids.append(np.full(len(ids) - 1, ids[0]))
                b_ids.append(ids[1:])
                a_s.append(np.full(len(ids) - 1, ss[0], dtype=object))
                b_s.append(ss[1:])
            else:
                iu, ju = np.triu_indices(len(ids), k=1)
                a_ids.append(ids[iu])
                b_ids.append(ids[ju])
                a_s.append(ss[iu])
                b_s.append(ss[ju])
        if not a_ids:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                }
            )
        aa = np.concatenate(a_ids)
        bb = np.concatenate(b_ids)
        sa = np.concatenate(a_s)
        sb = np.concatenate(b_s)
        ok = edit1_verify(sa, sb)
        return pd.DataFrame(
            {
                "id_a": aa[ok].astype("int64"),
                "id_b": bb[ok].astype("int64"),
            }
        )

    fanned = ds.map_batches(variants, batch_format="pyarrow")
    pairs = bucket_groups(
        fanned, "__vk", pairs_in_bucket, rows=n_rows * 16  # ≈ variants per row
    )
    # a pair can collide on several variants (and across buckets) — one
    # bounded distinct on the pair key
    return distinct_rows(pairs, ["id_a", "id_b"])


def jaro_similarity(s1: str, s2: str) -> float:
    """Exact Jaro similarity (Jaro 1989), bit-compatible with DuckDB's
    ``jaro_similarity``: match window ⌊max(len)/2⌋−1, transpositions =
    half the out-of-order matches, mean of the three ratios in float64."""
    l1, l2 = len(s1), len(s2)
    # DuckDB order of edge cases: any empty side → 0, even for ("","")
    if not l1 or not l2:
        return 0.0
    if s1 == s2:
        return 1.0
    window = max(l1, l2) // 2 - 1
    m1 = [False] * l1
    m2 = [False] * l2
    m = 0
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(l2, i + window + 1)
        for j in range(lo, hi):
            if not m2[j] and s2[j] == ch:
                m1[i] = m2[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    t = 0
    k = 0
    for i in range(l1):
        if m1[i]:
            while not m2[k]:
                k += 1
            if s1[i] != s2[k]:
                t += 1
            k += 1
    t //= 2
    return (m / l1 + m / l2 + (m - t) / m) / 3.0


def jaro_winkler(
    s1: str, s2: str, *, p: float = 0.1, boost_threshold: float = 0.7
) -> float:
    """Jaro-Winkler (Winkler 1990): prefix boost (≤4 chars, scale ``p``)
    applied only when the Jaro base exceeds ``boost_threshold`` — verified
    term-for-term against DuckDB's ``jaro_winkler_similarity`` so the SQL
    oracle twin can use the builtin."""
    j = jaro_similarity(s1, s2)
    if j <= boost_threshold:
        return j
    l = 0
    for a, b in zip(s1[:4], s2[:4]):
        if a != b:
            break
        l += 1
    return j + l * p * (1.0 - j)


def jw_pairs_over_domain(
    ds: "ray.data.Dataset",
    *,
    col: str,
    threshold: float,
    domain_cap: int = 100_000,
) -> "ray.data.Dataset":
    """Jaro-Winkler similarity join over the DISTINCT-value domain of
    ``col``: all unordered pairs of distinct values with JW ≥ threshold,
    plus the similarity as an e6 integer.

    Scale contract: the corpus-scale work is the map-side-combined
    distinct aggregate (one narrow row per distinct value crosses the
    exchange); the pair grid is DOMAIN-bounded — valid when the column is
    categorical-ish (vocabularies, SKU names, enum-like strings), which
    the ``domain_cap`` guard enforces rather than assumes. An unbounded
    free-text domain needs threshold-driven prefix filtering (PPJoin
    family) instead — out of scope here and documented as such. Pair
    scoring runs distributed over the pair-grid dataset; JW itself is a
    per-pair scalar kernel (character-level DP-free scan), the classic
    irreducible inner loop of string-similarity joins."""
    from goose_parser_ray.functions.relational import keyed_aggregate

    distinct = keyed_aggregate(
        ds.map_batches(
            lambda t: pa.Table.from_arrays([t[col]], names=["name"]),
            batch_format="pyarrow",
        ),
        ["name"],
        {"k": ("name", "count")},
    ).drop_columns(["k"])
    names = sorted(
        v for v in distinct.to_pandas()["name"].tolist() if v is not None
    )
    n = len(names)
    if n > domain_cap:
        raise ValueError(
            f"jw_pairs_over_domain: {n} distinct values exceeds the "
            f"domain-bounded contract (cap {domain_cap}); use a "
            "threshold-filtered blocking join for free-text domains"
        )
    iu, ju = np.triu_indices(n, k=1)
    arr = np.asarray(names, dtype=object)
    grid = ray.data.from_arrow(
        pa.Table.from_pydict(
            {"name_a": arr[iu], "name_b": arr[ju]}
        )
    )

    def score(t: pa.Table) -> pa.Table:
        a = t["name_a"].to_pylist()
        b = t["name_b"].to_pylist()
        sim = np.fromiter(
            (jaro_winkler(x, y) for x, y in zip(a, b)),
            dtype=np.float64, count=len(a),
        )
        keep = sim >= threshold
        return pa.Table.from_pydict(
            {
                "name_a": np.asarray(a, dtype=object)[keep],
                "name_b": np.asarray(b, dtype=object)[keep],
                # half-away-from-zero == DuckDB ROUND (sims are ≥ 0)
                "jw_e6": np.floor(1e6 * sim[keep] + 0.5).astype(np.int64),
            }
        )

    return grid.map_batches(score, batch_format="pyarrow")


def lev_capped(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized exact Levenshtein distance per aligned pair (99 when the
    length gap alone exceeds 2 — callers threshold at ≤ 2). Full DP rolled
    across rows: pairs are grouped by (len_a, len_b) so each group runs
    one (len_a × len_b)-step loop of O(pairs)-wide numpy ops — no
    per-pair Python DP."""
    n = len(a)
    out = np.full(n, 99, np.int64)
    if n == 0:
        return out
    la = np.fromiter((len(s) for s in a), np.int64, n)
    lb = np.fromiter((len(s) for s in b), np.int64, n)
    near = np.abs(la - lb) <= 2
    for A, B in {(int(x), int(y)) for x, y in zip(la[near], lb[near])}:
        sel = np.nonzero((la == A) & (lb == B))[0]
        if A == 0 or B == 0:
            out[sel] = max(A, B)
            continue
        ma = _codepoint_matrix(a[sel], A)
        mb = _codepoint_matrix(b[sel], B)
        prev = np.tile(np.arange(B + 1, dtype=np.int64), (len(sel), 1))
        cur = np.empty_like(prev)
        for i in range(1, A + 1):
            cur[:, 0] = i
            ai = ma[:, i - 1 : i]
            cost = (ai != mb).astype(np.int64)
            for j in range(1, B + 1):
                cur[:, j] = np.minimum(
                    np.minimum(prev[:, j] + 1, cur[:, j - 1] + 1),
                    prev[:, j - 1] + cost[:, j - 1],
                )
            prev, cur = cur, prev
        out[sel] = prev[:, B]
    return out


def edit2_pairs(
    ds: ray.data.Dataset,
    *,
    col: str,
    id_col: str,
    n_rows: int | None = None,
    pair_cap: int = _PAIR_CAP,
) -> ray.data.Dataset:
    """All (id_a, id_b, dist) with levenshtein ∈ {1, 2}, id_a < id_b —
    the FastSS theorem at k=2: two strings are within edit distance 2 iff
    their ≤2-deletion neighborhoods intersect, so blocking on every
    variant from 0, 1 or 2 deletions has ZERO misses and each candidate
    is verified with the exact vectorized DP (:func:`lev_capped`).

    Scale: variant fan-out is 1 + L + C(L,2) per row (quadratic in string
    LENGTH, not corpus size); per-variant groups above ``pair_cap``
    degrade to a linear star like every pair generator here — dense
    near-sequential key spaces (this fixture's zero-padded customer
    names) need the cap raised to stay exact, and the true result itself
    grows superlinearly on such data (documented skew assumption)."""
    import pandas as pd

    if n_rows is None:
        n_rows = ds.count()
    ds = split_for_groupby(ds, n_rows)

    def variants(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        strs = t[col].to_pylist()
        v_ids: list[int] = []
        v_str: list[str] = []
        v_key: list[str] = []
        for i, s in zip(ids, strs):
            if s is None:
                continue
            seen = {s}
            L = len(s)
            for p in range(L):
                d1 = s[:p] + s[p + 1 :]
                seen.add(d1)
                for q in range(p, L - 1):
                    seen.add(d1[:q] + d1[q + 1 :])
            for v in seen:
                v_ids.append(i)
                v_str.append(s)
                v_key.append(v)
        out = pa.Table.from_pydict(
            {
                "__vk": pa.array(v_key, pa.string()),
                "id": pa.array(v_ids, pa.int64()),
                "s": pa.array(v_str, pa.string()),
            }
        )
        return out

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids, a_s, b_s = [], [], [], []
        for _, grp in g.groupby("__vk", sort=False):
            if len(grp) < 2:
                continue
            grp = grp.drop_duplicates("id").sort_values(
                "id", kind="mergesort"
            )
            if len(grp) < 2:
                continue
            ids = grp["id"].to_numpy()
            ss = grp["s"].to_numpy()
            if len(grp) > pair_cap:
                a_ids.append(np.full(len(ids) - 1, ids[0]))
                b_ids.append(ids[1:])
                a_s.append(np.full(len(ids) - 1, ss[0], dtype=object))
                b_s.append(ss[1:])
            else:
                iu, ju = np.triu_indices(len(ids), k=1)
                a_ids.append(ids[iu])
                b_ids.append(ids[ju])
                a_s.append(ss[iu])
                b_s.append(ss[ju])
        if not a_ids:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype="int64"),
                    "id_b": pd.Series([], dtype="int64"),
                    "dist": pd.Series([], dtype="int64"),
                }
            )
        df = pd.DataFrame(
            {
                "id_a": np.concatenate(a_ids).astype("int64"),
                "id_b": np.concatenate(b_ids).astype("int64"),
                "sa": np.concatenate(a_s),
                "sb": np.concatenate(b_s),
            }
        ).drop_duplicates(["id_a", "id_b"])
        d = lev_capped(df["sa"].to_numpy(), df["sb"].to_numpy())
        keep = (d >= 1) & (d <= 2)
        return pd.DataFrame(
            {
                "id_a": df["id_a"].to_numpy()[keep],
                "id_b": df["id_b"].to_numpy()[keep],
                "dist": d[keep],
            }
        )

    fanned = ds.map_batches(variants, batch_format="pyarrow")
    # variants per row ≈ 1 + L + L(L-1)/2 with L ≈ 18 → ~170
    pairs = bucket_groups(fanned, "__vk", pairs_in_bucket, rows=n_rows * 170)
    return distinct_rows(pairs, ["id_a", "id_b", "dist"])
