"""Image raster ops: histogram equalization, Otsu, CCL blobs, Sobel, template match, integral images, pyramids, dHash near-dup.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from goose_parser_ray.queries._shared import _read


def q_hist_equalize(sf_dir: str):
    """Histogram EQUALIZATION (the classic contrast-normalization
    preprocessing step, in the OpenCV integer formulation
    out = (cdf(v) − cdf_min) · 255 // (n − cdf_min)), ORACLE-CHECKED
    over REAL image bytes: deterministic low-contrast grayscale PGMs are
    decoded by the in-repo codec, equalized with a vectorized
    bincount→cumsum→lookup (no floats — integer floor division IS the
    spec), and summarized as exact integers (equalized sum, min, max,
    distinct levels). The twin rebuilds the per-image CDF with a window
    cumsum and maps every pixel through it, so the hash compare
    certifies the whole transform pixel-exactly. Scale shape: map-only
    decode + O(pixels + 256) per image, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 12 + (d % 5)
            h = 10 + (d % 7)
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            # low-contrast band [60, 60+40): equalization must stretch it
            img = (60 + (7 * i + 11 * j + d) % 40).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def equalize(t: pa.Table) -> pa.Table:
        sums, mins, maxs, lvls = [], [], [], []
        for p in t["payload"].to_pylist():
            img = decode_pgm(p or b"").astype(np.int64)
            n = img.size
            hist = np.bincount(img.ravel(), minlength=256)
            cdf = np.cumsum(hist)
            cdf_min = int(cdf[np.nonzero(hist)[0][0]])
            lut = (cdf - cdf_min) * 255 // (n - cdf_min)
            out = lut[img]
            sums.append(int(out.sum()))
            mins.append(int(out.min()))
            maxs.append(int(out.max()))
            lvls.append(int(np.unique(out).size))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "eq_sum": pa.array(sums, pa.int64()),
                "eq_min": pa.array(mins, pa.int64()),
                "eq_max": pa.array(maxs, pa.int64()),
                "eq_levels": pa.array(lvls, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(equalize, batch_format="pyarrow", batch_size=256)


SQL_HIST_EQUALIZE = """
WITH pix AS (
  SELECT d.doc_id,
         60 + (7 * a.i + 11 * b.j + d.doc_id) % 40 AS v
  FROM documents d,
       UNNEST(generate_series(0, 9 + (d.doc_id % 7))) AS a(i),
       UNNEST(generate_series(0, 11 + (d.doc_id % 5))) AS b(j)
),
hist AS (
  SELECT doc_id, v, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM pix GROUP BY doc_id, v
),
cdf AS (
  SELECT doc_id, v, cnt,
         SUM(cnt) OVER (PARTITION BY doc_id ORDER BY v
                        ROWS UNBOUNDED PRECEDING) AS c,
         SUM(cnt) OVER (PARTITION BY doc_id) AS n
  FROM hist
),
firsts AS (
  SELECT doc_id, MIN(v) AS v0 FROM hist GROUP BY doc_id
),
lut AS (
  SELECT c.doc_id, c.v,
         (c.c - f0.c0) * 255 // (c.n - f0.c0) AS outv,
         c.cnt
  FROM cdf c
  JOIN (SELECT c2.doc_id, c2.c AS c0
        FROM cdf c2 JOIN firsts f ON f.doc_id = c2.doc_id AND f.v0 = c2.v)
       f0 ON f0.doc_id = c.doc_id
)
SELECT doc_id,
       CAST(SUM(outv * cnt) AS BIGINT) AS eq_sum,
       CAST(MIN(outv) AS BIGINT) AS eq_min,
       CAST(MAX(outv) AS BIGINT) AS eq_max,
       CAST(COUNT(DISTINCT outv) AS BIGINT) AS eq_levels
FROM lut GROUP BY doc_id
"""


def q_otsu_threshold(sf_dir: str):
    """Otsu binarization threshold (the OCR/document-scan segmentation
    step), ORACLE-CHECKED with EXACT arithmetic end to end: bimodal
    grayscale PGMs (a dark band and a bright band mixed per pixel) are
    decoded by the in-repo codec and the threshold maximizing
    between-class variance is found over the present gray levels. The
    objective (S·W0 − S0·N)² / (W0·(N−W0)) is a fraction; to keep the
    argmax float-free BOTH sides evaluate the quotient
    num·10¹⁸ // den — Python big ints here, HUGEINT in the DuckDB twin —
    with the smallest-threshold tie-break, so threshold, foreground
    count AND the scaled objective value hash-match exactly. Scale
    shape: map-only decode + a ≤256-level loop per image (constant
    work, the codec-loop class), no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    SCALE = 10**18

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 12 + (d % 5)
            h = 10 + (d % 7)
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            dark = 30 + (5 * i + 7 * j + d) % 25
            bright = 170 + (3 * i + 11 * j + d) % 30
            fg = (2 * i + 3 * j + d) % 5 < 2  # ~40% bright pixels
            img = np.where(fg, bright, dark).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def otsu(t: pa.Table) -> pa.Table:
        ts_, fgs, qs = [], [], []
        for p in t["payload"].to_pylist():
            img = decode_pgm(p or b"").astype(np.int64)
            n = int(img.size)
            s_tot = int(img.sum())
            vals, cnts = np.unique(img.ravel(), return_counts=True)
            best = (-1, -1, -1)  # (q, -t) ordering via explicit compare
            w0 = s0 = 0
            for v, c in zip(vals.tolist(), cnts.tolist()):
                w0 += c
                s0 += v * c
                if w0 == n:
                    break  # class1 empty — not a valid threshold
                num = (s_tot * w0 - s0 * n) ** 2
                den = w0 * (n - w0)
                q = num * SCALE // den
                if q > best[0]:
                    best = (q, v, n - w0)
            ts_.append(best[1])
            fgs.append(best[2])
            qs.append(best[0])
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "otsu_t": pa.array(ts_, pa.int64()),
                "n_fg": pa.array(fgs, pa.int64()),
                "score_q": pa.array([str(q) for q in qs], pa.string()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(otsu, batch_format="pyarrow", batch_size=256)


SQL_OTSU_THRESHOLD = """
WITH pix AS (
  SELECT d.doc_id,
         CASE WHEN (2 * a.i + 3 * b.j + d.doc_id) % 5 < 2
              THEN 170 + (3 * a.i + 11 * b.j + d.doc_id) % 30
              ELSE 30 + (5 * a.i + 7 * b.j + d.doc_id) % 25 END AS v
  FROM documents d,
       UNNEST(generate_series(0, 9 + (d.doc_id % 7))) AS a(i),
       UNNEST(generate_series(0, 11 + (d.doc_id % 5))) AS b(j)
),
hist AS (
  SELECT doc_id, v, CAST(COUNT(*) AS BIGINT) AS cnt
  FROM pix GROUP BY doc_id, v
),
cum AS (
  SELECT doc_id, v,
         SUM(cnt) OVER (PARTITION BY doc_id ORDER BY v
                        ROWS UNBOUNDED PRECEDING) AS w0,
         SUM(v * cnt) OVER (PARTITION BY doc_id ORDER BY v
                            ROWS UNBOUNDED PRECEDING) AS s0,
         SUM(cnt) OVER (PARTITION BY doc_id) AS n,
         SUM(v * cnt) OVER (PARTITION BY doc_id) AS s
  FROM hist
),
scored AS (
  SELECT doc_id, v, n - w0 AS n_fg,
         CAST(CAST(s * w0 - s0 * n AS HUGEINT)
              * CAST(s * w0 - s0 * n AS HUGEINT)
              * CAST(1000000000000000000 AS HUGEINT)
              // CAST(w0 * (n - w0) AS HUGEINT) AS HUGEINT) AS q
  FROM cum WHERE w0 < n
),
ranked AS (
  SELECT doc_id, v, n_fg, q,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY q DESC, v ASC) AS rn
  FROM scored
)
SELECT doc_id, CAST(v AS BIGINT) AS otsu_t,
       CAST(n_fg AS BIGINT) AS n_fg,
       CAST(q AS VARCHAR) AS score_q
FROM ranked WHERE rn = 1
"""


def ccl_blob_stats(img) -> "tuple[int, int, int]":
    """Runs-based two-pass 8-connected component labeling over a boolean
    mask; returns (n_blobs, max_area, total_foreground). Union-find over
    row runs — the standard scan-line CCL, no per-pixel Python."""
    parent: "dict[int, int]" = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    run_id = 0
    prev_runs: "list[tuple[int, int, int]]" = []  # raw half-open (s, e, id)
    sizes: "dict[int, int]" = {}
    for row in img:
        edges = np.flatnonzero(
            np.diff(np.concatenate(([0], row.view(np.int8), [0])))
        )
        cur = []
        for s, e in zip(edges[0::2], edges[1::2]):
            rid = run_id
            run_id += 1
            parent[rid] = rid
            sizes[rid] = int(e - s)
            # 8-connectivity against RAW half-open prev-row runs:
            # cur cols [s, e-1], prev cols [ps, pe-1]; diagonal touch
            # iff s <= (pe-1)+1 and ps <= (e-1)+1, i.e. s<=pe, ps<=e.
            # (Storing expanded bounds AND comparing with <= double-counted
            # the tolerance, wrongly unioning runs across a 2-column gap.)
            for ps, pe, pid in prev_runs:
                if s <= pe and ps <= e:
                    union(rid, pid)
            cur.append((int(s), int(e), rid))
        prev_runs = cur
    blob_sizes: "dict[int, int]" = {}
    for rid, sz in sizes.items():
        root = find(rid)
        blob_sizes[root] = blob_sizes.get(root, 0) + sz
    return (
        len(blob_sizes),
        max(blob_sizes.values()) if blob_sizes else 0,
        sum(blob_sizes.values()),
    )


def q_image_blobs(sf_dir: str):
    """Connected-component BLOB labeling on binary masks (the OCR /
    document-layout step after binarization), ORACLE-CHECKED: masks with
    1..4 disjoint rectangles (deterministic placement with ≥3 px
    separation) are encoded as real PGM bytes, decoded, and labeled by a
    REAL runs-based two-pass union-find (row runs → union 8-connected
    overlaps between consecutive rows — the standard scan-line CCL, no
    per-pixel Python), emitting blob count, largest blob area and total
    foreground. The twin states the planted rectangle geometry closed
    form, so a labeling bug that merges or splits ANY blob breaks the
    hash. Scale shape: map-only decode + per-image bounded labeling, no
    shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            img = np.zeros((32, 40), np.uint8)
            k = 1 + d % 4
            for r in range(k):
                x0 = 2 + 9 * r
                y0 = 3 + 6 * r
                wr = 3 + (d + r) % 4
                hr = 2 + (d + 2 * r) % 3
                img[y0 : y0 + hr, x0 : x0 + wr] = 255
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def label(t: pa.Table) -> pa.Table:
        nb, ma, tf = [], [], []
        for p in t["payload"].to_pylist():
            b, a, f = ccl_blob_stats(decode_pgm(p or b"") > 0)
            nb.append(b)
            ma.append(a)
            tf.append(f)
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_blobs": pa.array(nb, pa.int64()),
                "max_area": pa.array(ma, pa.int64()),
                "total_fg": pa.array(tf, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(label, batch_format="pyarrow", batch_size=256)


SQL_IMAGE_BLOBS = """
WITH rects AS (
  SELECT d.doc_id,
         (3 + (d.doc_id + r.r) % 4) * (2 + (d.doc_id + 2 * r.r) % 3)
           AS area
  FROM documents d,
       UNNEST(generate_series(0, d.doc_id % 4)) AS r(r)
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_blobs,
       CAST(MAX(area) AS BIGINT) AS max_area,
       CAST(SUM(area) AS BIGINT) AS total_fg
FROM rects GROUP BY doc_id
"""


def q_sobel_energy(sf_dir: str):
    """Sobel edge energy (the canonical gradient feature extraction),
    ORACLE-CHECKED with exact integers: textured grayscale PGMs are
    decoded by the in-repo codec and convolved with the integer Sobel
    pair (Gx = [[-1,0,1],[-2,0,2],[-1,0,1]], Gy its transpose) over the
    INTERIOR pixels (no border-policy ambiguity), summarizing per doc
    the L1 gradient magnitude sum |Gx|+|Gy| and its maximum — the
    blur/sharpness signal an image-quality gate thresholds on. The
    convolution is pure slice arithmetic (vectorized, no Python pixel
    loop); the twin re-states every neighbor from the pixel formula
    closed-form. Scale shape: map-only, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 12 + (d % 5)
            h = 10 + (d % 7)
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            img = (60 + (7 * i + 11 * j + d) % 40).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def sobel(t: pa.Table) -> pa.Table:
        sums, maxs = [], []
        for p in t["payload"].to_pylist():
            a = decode_pgm(p or b"").astype(np.int64)
            gx = (
                (a[:-2, 2:] + 2 * a[1:-1, 2:] + a[2:, 2:])
                - (a[:-2, :-2] + 2 * a[1:-1, :-2] + a[2:, :-2])
            )
            gy = (
                (a[2:, :-2] + 2 * a[2:, 1:-1] + a[2:, 2:])
                - (a[:-2, :-2] + 2 * a[:-2, 1:-1] + a[:-2, 2:])
            )
            mag = np.abs(gx) + np.abs(gy)
            sums.append(int(mag.sum()))
            maxs.append(int(mag.max()))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "edge_sum": pa.array(sums, pa.int64()),
                "edge_max": pa.array(maxs, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(sobel, batch_format="pyarrow", batch_size=256)


SQL_SOBEL_ENERGY = """
WITH g AS (
  SELECT d.doc_id, a.i, b.j,
         (60 + (7 * (a.i - 1) + 11 * (b.j + 1) + d.doc_id) % 40)
           + 2 * (60 + (7 * a.i + 11 * (b.j + 1) + d.doc_id) % 40)
           + (60 + (7 * (a.i + 1) + 11 * (b.j + 1) + d.doc_id) % 40)
           - (60 + (7 * (a.i - 1) + 11 * (b.j - 1) + d.doc_id) % 40)
           - 2 * (60 + (7 * a.i + 11 * (b.j - 1) + d.doc_id) % 40)
           - (60 + (7 * (a.i + 1) + 11 * (b.j - 1) + d.doc_id) % 40)
           AS gx,
         (60 + (7 * (a.i + 1) + 11 * (b.j - 1) + d.doc_id) % 40)
           + 2 * (60 + (7 * (a.i + 1) + 11 * b.j + d.doc_id) % 40)
           + (60 + (7 * (a.i + 1) + 11 * (b.j + 1) + d.doc_id) % 40)
           - (60 + (7 * (a.i - 1) + 11 * (b.j - 1) + d.doc_id) % 40)
           - 2 * (60 + (7 * (a.i - 1) + 11 * b.j + d.doc_id) % 40)
           - (60 + (7 * (a.i - 1) + 11 * (b.j + 1) + d.doc_id) % 40)
           AS gy
  FROM documents d,
       UNNEST(generate_series(1, 8 + (d.doc_id % 7))) AS a(i),
       UNNEST(generate_series(1, 10 + (d.doc_id % 5))) AS b(j)
)
SELECT doc_id,
       CAST(SUM(ABS(gx) + ABS(gy)) AS BIGINT) AS edge_sum,
       CAST(MAX(ABS(gx) + ABS(gy)) AS BIGINT) AS edge_max
FROM g GROUP BY doc_id
"""


def q_template_match(sf_dir: str):
    """Exact TEMPLATE MATCHING (integer SSD over all offsets — the
    logo/watermark localization primitive), ORACLE-CHECKED with a
    planted ground truth: each doc's 24×28 texture carries a bilinear
    i·j term (so no two offsets look alike), a 6×7 template is cropped
    at a doc-dependent location, BOTH are round-tripped through real PGM
    bytes, and the matcher scans every offset computing the exact sum of
    squared differences with a (smallest dy, then dx) tie-break — the
    planted offset scores SSD 0 and must be recovered. The twin
    re-states the full offset×pixel SSD surface closed-form, so a
    matcher that is off by one pixel ANYWHERE breaks the hash. Scale
    shape: map-only decode + a bounded offset loop with vectorized
    window diffs (constant per image), no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    H, W, TH, TW = 24, 28, 6, 7

    def synth(t: pa.Table) -> pa.Table:
        imgs, tmpls = [], []
        for d in t["doc_id"].to_pylist():
            i = np.arange(H, dtype=np.int64)[:, None]
            j = np.arange(W, dtype=np.int64)[None, :]
            img = ((13 * i + 17 * j + i * j + d) % 251).astype(np.uint8)
            y0 = 3 + d % 9
            x0 = 4 + d % 11
            imgs.append(encode_pgm(img))
            tmpls.append(encode_pgm(img[y0 : y0 + TH, x0 : x0 + TW]))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "image": pa.array(imgs, pa.binary()),
                "template": pa.array(tmpls, pa.binary()),
            }
        )

    def match(t: pa.Table) -> pa.Table:
        dys, dxs, ssds = [], [], []
        for ip, tp in zip(t["image"].to_pylist(), t["template"].to_pylist()):
            img = decode_pgm(ip or b"").astype(np.int64)
            tmpl = decode_pgm(tp or b"").astype(np.int64)
            best = None
            for dy in range(H - TH + 1):
                win = img[dy : dy + TH]
                for dx in range(W - TW + 1):
                    ssd = int(
                        ((win[:, dx : dx + TW] - tmpl) ** 2).sum()
                    )
                    if best is None or ssd < best[0]:
                        best = (ssd, dy, dx)
            dys.append(best[1])
            dxs.append(best[2])
            ssds.append(best[0])
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "best_dy": pa.array(dys, pa.int64()),
                "best_dx": pa.array(dxs, pa.int64()),
                "ssd_min": pa.array(ssds, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=128
    )
    return ds.map_batches(match, batch_format="pyarrow", batch_size=128)


SQL_TEMPLATE_MATCH = """
WITH surf AS (
  SELECT d.doc_id, o.dy, o.dx,
         SUM(POWER(
           (13 * (o.dy + p.ti) + 17 * (o.dx + p.tj)
              + (o.dy + p.ti) * (o.dx + p.tj) + d.doc_id) % 251
           - (13 * (3 + d.doc_id % 9 + p.ti)
              + 17 * (4 + d.doc_id % 11 + p.tj)
              + (3 + d.doc_id % 9 + p.ti) * (4 + d.doc_id % 11 + p.tj)
              + d.doc_id) % 251, 2)) AS ssd
  FROM documents d,
       (SELECT a.dy, b.dx
        FROM UNNEST(generate_series(0, 18)) AS a(dy),
             UNNEST(generate_series(0, 21)) AS b(dx)) o,
       (SELECT a.ti, b.tj
        FROM UNNEST(generate_series(0, 5)) AS a(ti),
             UNNEST(generate_series(0, 6)) AS b(tj)) p
  GROUP BY d.doc_id, o.dy, o.dx
),
ranked AS (
  SELECT doc_id, dy, dx, ssd,
         ROW_NUMBER() OVER (PARTITION BY doc_id
                            ORDER BY ssd ASC, dy ASC, dx ASC) AS rn
  FROM surf
)
SELECT doc_id, CAST(dy AS BIGINT) AS best_dy,
       CAST(dx AS BIGINT) AS best_dx,
       CAST(ssd AS BIGINT) AS ssd_min
FROM ranked WHERE rn = 1
"""


def q_integral_image(sf_dir: str):
    """Summed-area table (integral image — the O(1) box-sum primitive
    behind Viola–Jones features and fast box blurs), ORACLE-CHECKED:
    decoded PGMs build a 2-D prefix-sum table once, then five
    doc-dependent rectangular windows are answered by the 4-corner
    identity SAT[y1,x1] − SAT[y0-1,x1] − SAT[y1,x0-1] + SAT[y0-1,x0-1];
    the twin computes the same window sums by brute-force pixel
    summation, so any corner-index error in the SAT lookup breaks the
    hash. One row per (doc, window). Scale shape: map-only, constant
    per image, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    H, W = 20, 24

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            i = np.arange(H, dtype=np.int64)[:, None]
            j = np.arange(W, dtype=np.int64)[None, :]
            img = ((11 * i + 23 * j + d) % 256).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def windows_for(d: int):
        out = []
        for q in range(5):
            y0 = (3 * d + 5 * q) % (H - 4)
            x0 = (7 * d + 11 * q) % (W - 5)
            y1 = y0 + 2 + (d + q) % 3
            x1 = x0 + 3 + (d + 2 * q) % 2
            out.append((q, y0, x0, y1, x1))
        return out

    def sat_query(t: pa.Table) -> pa.Table:
        doc_ids, q_nos, sums = [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            img = decode_pgm(p or b"").astype(np.int64)
            sat = np.zeros((H + 1, W + 1), np.int64)
            sat[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
            for q, y0, x0, y1, x1 in windows_for(d):
                s = int(
                    sat[y1 + 1, x1 + 1]
                    - sat[y0, x1 + 1]
                    - sat[y1 + 1, x0]
                    + sat[y0, x0]
                )
                doc_ids.append(d)
                q_nos.append(q)
                sums.append(s)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "q_no": pa.array(q_nos, pa.int64()),
                "window_sum": pa.array(sums, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(sat_query, batch_format="pyarrow", batch_size=256)


SQL_INTEGRAL_IMAGE = """
WITH wins AS (
  SELECT d.doc_id, q.q,
         (3 * d.doc_id + 5 * q.q) % 16 AS y0,
         (7 * d.doc_id + 11 * q.q) % 19 AS x0,
         (3 * d.doc_id + 5 * q.q) % 16 + 2 + (d.doc_id + q.q) % 3 AS y1,
         (7 * d.doc_id + 11 * q.q) % 19 + 3 + (d.doc_id + 2 * q.q) % 2
           AS x1
  FROM documents d, UNNEST(generate_series(0, 4)) AS q(q)
),
px AS (
  SELECT w.doc_id, w.q,
         (11 * a.i + 23 * b.j + w.doc_id) % 256 AS v
  FROM wins w,
       UNNEST(generate_series(w.y0, w.y1)) AS a(i),
       UNNEST(generate_series(w.x0, w.x1)) AS b(j)
)
SELECT doc_id, CAST(q AS BIGINT) AS q_no,
       CAST(SUM(v) AS BIGINT) AS window_sum
FROM px GROUP BY doc_id, q
"""


def q_image_pyramid(sf_dir: str):
    """Multi-resolution image PYRAMID (the mipmap/coarse-to-fine
    preprocessing structure), ORACLE-CHECKED: 32×32 decoded rasters are
    reduced through 3 levels of 2× box downsampling kept as EXACT block
    SUMS (level L cell = sum of its 4^L source pixels — no division, no
    float), each level summarized by its cell count, total (invariant
    across levels — the conservation check is part of the hash) and a
    position-weighted checksum certifying every cell and its layout.
    One row per (doc, level). Scale shape: map-only decode + reshape
    sums, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    N = 32

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            i = np.arange(N, dtype=np.int64)[:, None]
            j = np.arange(N, dtype=np.int64)[None, :]
            img = ((29 * i + 37 * j + d) % 256).astype(np.uint8)
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def pyramid(t: pa.Table) -> pa.Table:
        doc_ids, levels, cells, totals, cks = [], [], [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            a = decode_pgm(p or b"").astype(np.int64)
            for lvl in range(1, 4):
                n = N >> lvl
                a = a.reshape(n, 2, n, 2).sum(axis=(1, 3))
                w = (
                    np.arange(1, n * n + 1, dtype=np.int64).reshape(n, n)
                )
                doc_ids.append(d)
                levels.append(lvl)
                cells.append(n * n)
                totals.append(int(a.sum()))
                cks.append(int((w * a).sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "level": pa.array(levels, pa.int64()),
                "n_cells": pa.array(cells, pa.int64()),
                "total": pa.array(totals, pa.int64()),
                "checksum": pa.array(cks, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(pyramid, batch_format="pyarrow", batch_size=256)


SQL_IMAGE_PYRAMID = """
WITH px AS (
  SELECT d.doc_id, a.i, b.j,
         (29 * a.i + 37 * b.j + d.doc_id) % 256 AS v
  FROM documents d,
       UNNEST(generate_series(0, 31)) AS a(i),
       UNNEST(generate_series(0, 31)) AS b(j)
),
lv AS (
  SELECT p.doc_id, l.lvl,
         p.i // CAST(POWER(2, l.lvl) AS BIGINT) AS ci,
         p.j // CAST(POWER(2, l.lvl) AS BIGINT) AS cj,
         p.v,
         CAST(32 / POWER(2, l.lvl) AS BIGINT) AS n
  FROM px p, UNNEST(generate_series(1, 3)) AS l(lvl)
),
cellsums AS (
  SELECT doc_id, lvl, n, ci, cj, SUM(v) AS s
  FROM lv GROUP BY doc_id, lvl, n, ci, cj
)
SELECT doc_id, CAST(lvl AS BIGINT) AS level,
       CAST(n * n AS BIGINT) AS n_cells,
       CAST(SUM(s) AS BIGINT) AS total,
       CAST(SUM((ci * n + cj + 1) * s) AS BIGINT) AS checksum
FROM cellsums GROUP BY doc_id, lvl, n
"""


def q_image_dhash_dedup(sf_dir: str):
    """Perceptual image near-dup via difference-hash, ORACLE-CHECKED end
    to end: every third doc shares a base 32×36 grayscale pattern
    (d0 = doc_id - doc_id % 3) but each doc's PGM payload is perturbed by
    a doc-specific ±1 pixel dither — the three payloads are byte-distinct,
    so an exact byte/content hash keeps all three, yet the dither adds a
    constant 4 to every 4×4 block sum, so the dHash comparisons (is this
    block brighter than its right neighbor?) are untouched and the three
    collapse to ONE perceptual cluster. The pipeline is the image sibling
    of content near-dup: real PGM encode → ``ImageDHashActor`` decode +
    64-bit dHash (two int64 halves) → map-side (hash → min/count)
    partials → one aggregate exchange. Hamming-tolerant variants compose
    with the existing ``hamming1_join`` over (dhash_hi, dhash_lo). Scale
    shape: map-only hash, partials before the shuffle, group domain
    bounded by distinct base patterns (≤ corpus/3)."""
    from ray.data.aggregate import Min, Sum

    from goose_parser_ray.functions.netpbm import encode_pgm
    from goose_parser_ray.functions.multimodal import ImageDHashActor

    H, W = 32, 36  # 8×9 grid of 4×4 blocks

    def synth(t: pa.Table) -> pa.Table:
        i = np.arange(H, dtype=np.int64)[:, None]
        j = np.arange(W, dtype=np.int64)[None, :]
        bi = i // 4
        bj = j // 4
        payloads = []
        for d in t["doc_id"].to_pylist():
            d0 = d - d % 3
            base = (31 * bi + 17 * bj + d0) % 199
            # dither: exactly 4 hits per 4x4 block for EVERY d (residues
            # of 2i+3j mod 4 are uniform within a block), so block sums
            # shift by a constant and no dHash comparison can flip
            dither = ((2 * i + 3 * j + d) % 4 == 0).astype(np.int64)
            payloads.append(encode_pgm((base + dither).astype(np.uint8)))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    hashes = ds.map_batches(
        # task pool, not actor pool: the actor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: ImageDHashActor()(t),
        batch_format="pyarrow",
        batch_size=128,
    )

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        out = df.groupby(["dhash_hi", "dhash_lo"], as_index=False).agg(
            first_doc=("doc_id", "min"), n_docs=("doc_id", "size")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    partials = hashes.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["dhash_hi", "dhash_lo"]).aggregate(
        Min("first_doc", alias_name="first_doc"),
        Sum("n_docs", alias_name="n_docs"),
    )


SQL_IMAGE_DHASH_DEDUP = """
WITH g AS (
  SELECT doc_id, bi.bi, bj.bj,
         CASE WHEN (31 * bi.bi + 17 * bj.bj + doc_id - doc_id % 3) % 199
                 > (31 * bi.bi + 17 * (bj.bj + 1) + doc_id - doc_id % 3) % 199
              THEN 1 ELSE 0 END AS bit
  FROM documents,
       UNNEST(generate_series(0, 7)) AS bi(bi),
       UNNEST(generate_series(0, 7)) AS bj(bj)
),
h AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN bi < 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * bi + bj))
                       ELSE 0 END) AS BIGINT) AS dhash_lo,
         CAST(SUM(CASE WHEN bi >= 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * (bi - 4) + bj))
                       ELSE 0 END) AS BIGINT) AS dhash_hi
  FROM g GROUP BY doc_id
)
SELECT dhash_hi, dhash_lo,
       MIN(doc_id) AS first_doc,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM h GROUP BY dhash_hi, dhash_lo
"""


def q_image_neardup(sf_dir: str):
    """Hamming-TOLERANT perceptual image pairing, ORACLE-CHECKED — the
    composition q_image_dhash_dedup points at: consecutive doc pairs
    (2k, 2k+1) share a base block pattern but the odd doc's top-left
    block is nudged past its right neighbor, flipping EXACTLY ONE of the
    64 dHash comparisons, so exact-hash grouping misses every planted
    pair and only a distance-1 match finds them. Pipeline: real PGM
    encode → ``ImageDHashActor`` decode+hash → 64-char bitstring →
    ``hamming1_pairs`` (split-block blocking: Hamming ≤ 1 strings agree
    exactly on one half — zero misses, no all-pairs scan). The twin
    recomputes every bit closed-form and self-joins on
    bit_count(xor) ≤ 1, so it also certifies the ORGANIC distance-0
    collisions (base patterns repeat every 97 groups). Scale shape:
    map-only hash, the pair search inherits hamming1_pairs' bounded
    blocked-compare slabs."""
    from goose_parser_ray.functions.dedup import hamming1_pairs
    from goose_parser_ray.functions.netpbm import encode_pgm
    from goose_parser_ray.functions.multimodal import ImageDHashActor

    H, W = 32, 36

    def synth(t: pa.Table) -> pa.Table:
        bi = np.arange(8, dtype=np.int64)[:, None]
        bj = np.arange(9, dtype=np.int64)[None, :]
        payloads = []
        for d in t["doc_id"].to_pylist():
            k = d // 2
            grid = (23 * bi + 41 * bj + k) % 97 + 50
            if d % 2 == 1:
                right = grid[0, 1]
                grid = grid.copy()
                grid[0, 0] = right - 1 if grid[0, 0] > right else right + 1
            img = np.repeat(np.repeat(grid, 4, axis=0), 4, axis=1)
            payloads.append(encode_pgm(img.astype(np.uint8)))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    hashes = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(
            lambda t: ImageDHashActor()(t),
            batch_format="pyarrow",
            batch_size=128,
        )
    )

    def bitstring(t: pa.Table) -> pa.Table:
        hi = t["dhash_hi"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = t["dhash_lo"].to_numpy(zero_copy_only=False).astype(np.int64)
        shifts = np.arange(32, dtype=np.int64)
        bits = np.ascontiguousarray(
            np.concatenate(
                [(hi[:, None] >> shifts) & 1, (lo[:, None] >> shifts) & 1],
                axis=1,
            ).astype(np.uint8)
            + ord("0")
        )
        s = [b.decode() for b in bits.view("S64").ravel()]
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "bits": pa.array(s, pa.string())}
        )

    keyed = hashes.map_batches(bitstring, batch_format="pyarrow")
    return hamming1_pairs(keyed, col="bits", id_col="doc_id")


SQL_IMAGE_NEARDUP = """
WITH cells AS (
  SELECT d.doc_id, bi.bi, bj.bj,
         CASE WHEN d.doc_id % 2 = 1 AND bi.bi = 0 AND bj.bj = 0 THEN
           CASE WHEN (d.doc_id // 2) % 97 + 50
                   > (41 + d.doc_id // 2) % 97 + 50
                THEN (41 + d.doc_id // 2) % 97 + 49
                ELSE (41 + d.doc_id // 2) % 97 + 51 END
         ELSE (23 * bi.bi + 41 * bj.bj + d.doc_id // 2) % 97 + 50
         END AS v
  FROM documents d,
       UNNEST(generate_series(0, 7)) AS bi(bi),
       UNNEST(generate_series(0, 8)) AS bj(bj)
),
bits AS (
  SELECT c1.doc_id, c1.bi, c1.bj,
         CASE WHEN c1.v > c2.v THEN 1 ELSE 0 END AS bit
  FROM cells c1
  JOIN cells c2 ON c1.doc_id = c2.doc_id AND c1.bi = c2.bi
               AND c2.bj = c1.bj + 1
  WHERE c1.bj < 8
),
h AS (
  SELECT doc_id,
         CAST(SUM(CASE WHEN bi < 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * bi + bj))
                       ELSE 0 END) AS BIGINT) AS lo,
         CAST(SUM(CASE WHEN bi >= 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * (bi - 4) + bj))
                       ELSE 0 END) AS BIGINT) AS hi
  FROM bits GROUP BY doc_id
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM h a JOIN h b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.hi, b.hi)) + bit_count(xor(a.lo, b.lo)) <= 1
"""


def q_morphology(sf_dir: str):
    """Binary morphology (3×3 erosion / dilation / opening — the document
    denoise step before CCL), ORACLE-CHECKED with exact integers: one
    interior rectangle (w,h ≥ 3, placed ≥ 2 px from every border) is
    planted per doc; the engine decodes the PGM and computes REAL
    vectorized morphology (erosion = AND over the 9 shifted masks on the
    padded image, dilation = OR, opening = erode→dilate), while the twin
    states the closed forms: erosion area (w−2)(h−2), dilation area
    (w+2)(h+2) (no border clipping by construction), and the opening of
    a ≥3×3 rectangle restoring it exactly (area w·h — a hard structural
    invariant, not a tolerance). Scale shape: map-only, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_pgm, encode_pgm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            img = np.zeros((24, 32), np.uint8)
            w = 3 + d % 5
            h = 3 + (d // 5) % 4
            x0 = 3 + d % 7
            y0 = 3 + (d // 7) % 6
            img[y0 : y0 + h, x0 : x0 + w] = 255
            payloads.append(encode_pgm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def morph(t: pa.Table) -> pa.Table:
        er, di, op = [], [], []
        for p in t["payload"].to_pylist():
            m = decode_pgm(p or b"") > 0
            pad = np.pad(m, 1)
            sh = [
                pad[1 + dy : 1 + dy + m.shape[0], 1 + dx : 1 + dx + m.shape[1]]
                for dy in (-1, 0, 1)
                for dx in (-1, 0, 1)
            ]
            ero = np.logical_and.reduce(sh)
            dil = np.logical_or.reduce(sh)
            pe = np.pad(ero, 1)
            opn = np.logical_or.reduce(
                [
                    pe[1 + dy : 1 + dy + m.shape[0],
                       1 + dx : 1 + dx + m.shape[1]]
                    for dy in (-1, 0, 1)
                    for dx in (-1, 0, 1)
                ]
            )
            er.append(int(ero.sum()))
            di.append(int(dil.sum()))
            op.append(int(opn.sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "erosion_area": pa.array(er, pa.int64()),
                "dilation_area": pa.array(di, pa.int64()),
                "opening_area": pa.array(op, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(morph, batch_format="pyarrow", batch_size=256)


SQL_MORPHOLOGY = """
WITH r AS (
  SELECT doc_id,
         3 + doc_id % 5 AS w,
         3 + (doc_id // 5) % 4 AS h
  FROM documents
)
SELECT doc_id,
       CAST((w - 2) * (h - 2) AS BIGINT) AS erosion_area,
       CAST((w + 2) * (h + 2) AS BIGINT) AS dilation_area,
       CAST(w * h AS BIGINT) AS opening_area
FROM r
"""


def q_rle_mask(sf_dir: str):
    """RLE mask compression (the CCITT-G3/TIFF idea: rows as alternating
    run lengths), ORACLE-CHECKED end to end: a vertical-stripe mask
    (stripe width 2 + d%3 over a 16×40 canvas) is RLE-encoded by the REAL
    in-repo codec (``functions/rlemask.py``, mutation-fuzzed), decoded
    back (exact roundtrip asserted in-engine — a hard invariant), and
    summarized as (runs, foreground pixels, encoded bytes). The twin
    restates all three from the stripe arithmetic: segments per row
    ceil(40/sw), fg = full odd stripes + the possible odd partial, bytes
    = 4 + 2·h·(1 + runs_per_row). Any off-by-one in the run split or the
    wire format breaks the hash. Scale shape: map-only, no shuffle."""
    from goose_parser_ray.functions.rlemask import (
        decode_rle_mask,
        encode_rle_mask,
    )

    H, W = 16, 40

    def stats(t: pa.Table) -> pa.Table:
        runs, fg, nbytes = [], [], []
        for d in t["doc_id"].to_pylist():
            sw = 2 + d % 3
            cols = np.arange(W)
            row = ((cols // sw) % 2).astype(bool)
            mask = np.tile(row, (H, 1))
            enc = encode_rle_mask(mask)
            back = decode_rle_mask(enc)
            if not np.array_equal(back, mask):
                raise ValueError("rle roundtrip mismatch")
            # runs = alternating segments per row × rows (incl. the
            # 0-length lead when a row starts with foreground — not here)
            buf = np.frombuffer(enc, np.uint16)
            n_runs = 0
            pos = 2
            for _ in range(H):
                n = int(buf[pos])
                n_runs += n
                pos += 1 + n
            runs.append(n_runs)
            fg.append(int(mask.sum()))
            nbytes.append(len(enc))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_runs": pa.array(runs, pa.int64()),
                "n_fg": pa.array(fg, pa.int64()),
                "n_bytes": pa.array(nbytes, pa.int64()),
            }
        )

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(
        stats, batch_format="pyarrow", batch_size=512
    )


SQL_RLE_MASK = """
WITH p AS (
  SELECT doc_id, 2 + doc_id % 3 AS sw FROM documents
),
seg AS (
  SELECT doc_id, sw,
         (40 + sw - 1) // sw AS segs,       -- ceil(40/sw) segments per row
         40 // sw AS full_segs,
         40 % sw AS part_len
  FROM p
),
fgc AS (
  SELECT doc_id, sw, segs,
         -- odd-indexed segments are foreground: among full segments,
         -- floor(full/2) of them; the partial segment (index full_segs)
         -- is foreground iff full_segs is odd
         (full_segs // 2) * sw
           + CASE WHEN part_len > 0 AND full_segs % 2 = 1
                  THEN part_len ELSE 0 END AS fg_row
  FROM seg
)
SELECT doc_id,
       CAST(16 * segs AS BIGINT) AS n_runs,
       CAST(16 * fg_row AS BIGINT) AS n_fg,
       CAST(4 + 2 * 16 * (1 + segs) AS BIGINT) AS n_bytes
FROM fgc
"""
