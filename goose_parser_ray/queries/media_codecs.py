"""Media container/codec roundtrips: WAV, PNG, GIF, BMP, TIFF, PDF, format sniffing, ORC/CSV/JSONL interchange.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from goose_parser_ray.functions.relational import keyed_aggregate
from goose_parser_ray.queries._shared import _cents, _read


def q_media_wav(sf_dir: str):
    """REAL audio pipeline, oracle-checked end to end: deterministic square
    waves are synthesized per doc (amplitude / half-period / length keyed
    off doc_id), round-tripped through actual RIFF/PCM16 bytes (encode →
    binary column → actor-pool WAV decode → exact integer features:
    energy Σx², peak, strict-sign zero crossings). The DuckDB twin
    recomputes every feature in closed form from the same parameters — all
    integer arithmetic, exact hash compare. The audio sibling of
    q_media_pgm; the stub codecs in q_media_decode remain for formats the
    sandbox genuinely can't decode."""
    from goose_parser_ray.functions.multimodal import WavFeatureActor
    from goose_parser_ray.functions.wav import encode_wav_pcm16

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 800 + (d % 50) * 16
            half = 4 + (d % 8)
            amp = 1000 + (d % 100) * 10
            idx = np.arange(n, dtype=np.int64)
            x = np.where((idx // half) % 2 == 0, amp, -amp).astype(np.int16)
            payloads.append(encode_wav_pcm16(x, sample_rate=16_000))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: WavFeatureActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: WavFeatureActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_MEDIA_WAV = """
WITH p AS (
  SELECT doc_id,
         800 + (doc_id % 50) * 16 AS n,
         4 + (doc_id % 8) AS half,
         1000 + (doc_id % 100) * 10 AS amp
  FROM documents
)
SELECT doc_id,
       CAST(n AS BIGINT) AS n_samples,
       CAST(16000 AS BIGINT) AS sample_rate,
       CAST(n * amp * amp AS BIGINT) AS energy,
       CAST(amp AS BIGINT) AS peak,
       CAST((n - 1) // half AS BIGINT) AS zero_crossings
FROM p
"""


def q_media_png(sf_dir: str):
    """REAL compressed-image pipeline, oracle-checked end to end:
    deterministic RGB gradients are synthesized per doc, encoded through
    the in-repo zlib PNG codec with a per-row CYCLING scanline filter
    (None/Sub/Up/Average/Paeth all exercised on every image), decoded in
    an actor pool, and summarized as the FULL-raster pixel sum — so the
    hash compare against the closed-form DuckDB twin proves every byte of
    DEFLATE + unfiltering reconstruction, not just a sampled thumbnail.
    The compressed sibling of q_media_pgm/q_media_ppm."""
    from goose_parser_ray.functions.multimodal import PngStatsActor
    from goose_parser_ray.functions.pngmini import encode_png

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 16 + (d & 15)
            h = 16 + ((d >> 4) & 15)
            i = np.arange(h, dtype=np.int64)[:, None, None]
            j = np.arange(w, dtype=np.int64)[None, :, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            img = ((31 * i + 17 * j + 7 * c + d) % 256).astype(np.uint8)
            payloads.append(encode_png(img, filter_mode="cycle"))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: setup is an import bind — actor
        # spin-up costs more than it saves (measured here: stage wall
        # 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: PngStatsActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_MEDIA_PNG = """
WITH dims AS (
  SELECT doc_id,
         16 + (doc_id & 15) AS width,
         16 + ((doc_id // 16) & 15) AS height
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height,
         (31 * a.i + 17 * b.j + 7 * e.c + d.doc_id) % 256 AS val
  FROM dims d,
       UNNEST(generate_series(0, d.height - 1)) AS a(i),
       UNNEST(generate_series(0, d.width - 1)) AS b(j),
       UNNEST(generate_series(0, 2)) AS e(c)
)
SELECT doc_id, width, height, CAST(3 AS BIGINT) AS channels,
       CAST(SUM(val) AS BIGINT) AS px_sum
FROM pix GROUP BY doc_id, width, height
"""


def q_media_gif(sf_dir: str):
    """REAL palette-image pipeline, oracle-checked end to end: per doc a
    deterministic palette (power-of-two sized, 2..256 entries) and index
    raster are synthesized, encoded through the in-repo GIF89a/LZW codec
    (variable-width codes, 12-bit dictionary resets, sub-block framing),
    decoded in an actor pool, and summarized as the full-raster RGB sum
    after palette lookup plus the count of distinct indices used — so the
    hash compare against the closed-form DuckDB twin proves the LZW index
    stream was reconstructed bit-exactly. The palette sibling of
    q_media_png (upstream: goose-parser media spans carry opaque binary
    payloads; this is the decode stage run in an actor pool)."""
    from goose_parser_ray.functions.gifmini import encode_gif
    from goose_parser_ray.functions.multimodal import GifStatsActor

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 8 + (d & 15)
            h = 8 + ((d >> 4) & 15)
            p_n = 1 << (1 + d % 8)  # 2..256, power of two == GCT size
            pi = np.arange(p_n, dtype=np.int64)
            pal = np.stack(
                [
                    (37 * pi + d) % 256,
                    (11 * pi + 2 * d) % 256,
                    (53 * pi + 3 * d + 1) % 256,
                ],
                axis=1,
            ).astype(np.uint8)
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            idx = ((7 * i + 13 * j + d) % p_n).astype(np.uint8)
            payloads.append(encode_gif(w, h, pal, idx))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: GifStatsActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: GifStatsActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_MEDIA_GIF = """
WITH dims AS (
  SELECT doc_id,
         8 + (doc_id & 15) AS width,
         8 + ((doc_id // 16) & 15) AS height,
         CAST(POWER(2, 1 + doc_id % 8) AS BIGINT) AS p_n
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height, d.p_n,
         (7 * a.i + 13 * b.j + d.doc_id) % d.p_n AS p
  FROM dims d,
       UNNEST(generate_series(0, d.height - 1)) AS a(i),
       UNNEST(generate_series(0, d.width - 1)) AS b(j)
)
SELECT doc_id, width, height,
       p_n AS palette_size,
       CAST(COUNT(DISTINCT p) AS BIGINT) AS colors_used,
       CAST(SUM((37 * p + doc_id) % 256 + (11 * p + 2 * doc_id) % 256
                + (53 * p + 3 * doc_id + 1) % 256) AS BIGINT) AS rgb_sum
FROM pix GROUP BY doc_id, width, height, p_n
"""


def q_media_bmp(sf_dir: str):
    """REAL Windows-BMP pipeline (the bottom-up/BGR/row-padded sibling of
    q_media_ppm), ORACLE-CHECKED: deterministic RGB gradients — widths
    chosen NOT divisible by 4 so the row-padding path is always exercised
    — are encoded to actual 24-bit BI_RGB bytes, decoded back by the
    in-repo ``bmpmini`` codec in an actor pool, and summarized as exact
    integers including the top-left pixel (the orientation proof: a
    row-flip or BGR mix-up breaks the hash). Closed-form SQL twin states
    every pixel."""
    from goose_parser_ray.functions.bmpmini import encode_bmp
    from goose_parser_ray.functions.multimodal import BmpStatsActor

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 9 + (d % 6)
            h = 7 + (d % 5)
            i = np.arange(h, dtype=np.int64)[:, None, None]
            j = np.arange(w, dtype=np.int64)[None, :, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            img = ((23 * i + 29 * j + 71 * c + d) % 256).astype(np.uint8)
            payloads.append(encode_bmp(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: BmpStatsActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: BmpStatsActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    ).sort("doc_id")


SQL_MEDIA_BMP = """
WITH dims AS (
  SELECT doc_id, 9 + (doc_id % 6) AS width, 7 + (doc_id % 5) AS height
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height, c.c, i.i, j.j,
         (23 * i.i + 29 * j.j + 71 * c.c + d.doc_id) % 256 AS val
  FROM dims d,
       (SELECT unnest(generate_series(0, 11)) AS i) i,
       (SELECT unnest(generate_series(0, 14)) AS j) j,
       (SELECT unnest(generate_series(0, 2)) AS c) c
  WHERE i.i < d.height AND j.j < d.width
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(MAX(width) AS BIGINT) AS width,
       CAST(MAX(height) AS BIGINT) AS height,
       CAST(SUM(CASE WHEN c = 0 THEN val END) AS BIGINT) AS r_sum,
       CAST(SUM(CASE WHEN c = 1 THEN val END) AS BIGINT) AS g_sum,
       CAST(SUM(CASE WHEN c = 2 THEN val END) AS BIGINT) AS b_sum,
       CAST(MAX(CASE WHEN c = 0 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS r00,
       CAST(MAX(CASE WHEN c = 1 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS g00,
       CAST(MAX(CASE WHEN c = 2 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS b00
FROM pix GROUP BY doc_id ORDER BY doc_id
"""


def q_media_tiff(sf_dir: str):
    """REAL TIFF pipeline (baseline uncompressed, the IFD/strip sibling of
    q_media_bmp), ORACLE-CHECKED: deterministic RGB gradients are encoded
    to actual little-endian TIFF bytes with 4-row strips (heights chosen so
    every image spans ≥2 strips), decoded back by the in-repo ``tiffmini``
    codec in an actor pool — IFD walk, out-of-line value arrays, strip
    reassembly — and summarized as exact integers incl. the top-left pixel
    (orientation/channel-order proof) and ``n_strips`` (reassembly proof).
    Closed-form SQL twin states every pixel."""
    from goose_parser_ray.functions.multimodal import TiffStatsActor
    from goose_parser_ray.functions.tiffmini import encode_tiff

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 6 + (d % 7)
            h = 5 + (d % 6)
            i = np.arange(h, dtype=np.int64)[:, None, None]
            j = np.arange(w, dtype=np.int64)[None, :, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            img = ((31 * i + 17 * j + 53 * c + d) % 256).astype(np.uint8)
            payloads.append(encode_tiff(img, rows_per_strip=4))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: TiffStatsActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: TiffStatsActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    ).sort("doc_id")


SQL_MEDIA_TIFF = """
WITH dims AS (
  SELECT doc_id, 6 + (doc_id % 7) AS width, 5 + (doc_id % 6) AS height
  FROM documents
),
pix AS (
  SELECT d.doc_id, d.width, d.height, c.c, i.i, j.j,
         (31 * i.i + 17 * j.j + 53 * c.c + d.doc_id) % 256 AS val
  FROM dims d,
       (SELECT unnest(generate_series(0, 10)) AS i) i,
       (SELECT unnest(generate_series(0, 12)) AS j) j,
       (SELECT unnest(generate_series(0, 2)) AS c) c
  WHERE i.i < d.height AND j.j < d.width
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(MAX(width) AS BIGINT) AS width,
       CAST(MAX(height) AS BIGINT) AS height,
       CAST((MAX(height) + 3) // 4 AS BIGINT) AS n_strips,
       CAST(SUM(CASE WHEN c = 0 THEN val END) AS BIGINT) AS r_sum,
       CAST(SUM(CASE WHEN c = 1 THEN val END) AS BIGINT) AS g_sum,
       CAST(SUM(CASE WHEN c = 2 THEN val END) AS BIGINT) AS b_sum,
       CAST(MAX(CASE WHEN c = 0 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS r00,
       CAST(MAX(CASE WHEN c = 1 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS g00,
       CAST(MAX(CASE WHEN c = 2 AND i = 0 AND j = 0 THEN val END) AS BIGINT)
         AS b00
FROM pix
GROUP BY doc_id
ORDER BY doc_id
"""


def q_media_pdf(sf_dir: str):
    """REAL PDF layout-text pipeline, oracle-checked end to end: each doc's
    first 12 words are typeset into an actual single-page PDF (FlateDecode
    content stream, correct xref) and round-tripped through real bytes —
    binary column → actor-pool parse (object walk, zlib inflate, Tj
    tokenization) → extracted text. The DuckDB twin recomputes the expected
    text closed-form from the same words, so the hash compare certifies the
    whole encode→parse path. This replaces the stub-only PDF branch of
    q_media_decode for the north rule's media-span parse obligation."""
    from goose_parser_ray.functions.multimodal import PdfTextActor
    from goose_parser_ray.functions.pdfmini import encode_pdf

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for txt in t["text"].to_pylist():
            words = (txt or "").split(" ")[:12]
            lines = [" ".join(words[i : i + 4]) for i in range(0, len(words), 4)]
            payloads.append(encode_pdf(lines))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: PdfTextActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: PdfTextActor()(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_MEDIA_PDF = """
WITH w AS (
  SELECT doc_id,
         list_slice(string_split(text, ' '), 1, 12) AS first12,
         len(string_split(text, ' ')) AS n_words
  FROM documents
)
SELECT doc_id,
       CAST(CEIL(LEAST(n_words, 12) / 4.0) AS BIGINT) AS n_lines,
       array_to_string(first12, ' ') AS extracted_text,
       CAST(length(array_to_string(first12, ' ')) AS BIGINT) AS n_chars
FROM w
"""


def q_pdf_pages(sf_dir: str):
    """MULTI-page PDF page fan-out, ORACLE-CHECKED — the document
    sibling of q_video_frames: each doc's first 24 words paginate into
    up to three REAL PDF pages (one /Page object + one FlateDecode
    content stream per page, /Kids array fixing page order), and
    ``extract_pdf_pages`` walks the object graph back — sequential
    object walk with stream SKIPPING by declared /Length, so compressed
    bytes can never fake an object header — emitting one row per page
    with its line count and reconstructed text. The closed-form twin
    re-slices the same words per page, so the hash compare certifies
    page ORDER (Kids), per-page stream isolation, and Tj text recovery.
    Scale shape: map-only, small batches for wide binaries."""
    from goose_parser_ray.functions.pdfmini import (
        encode_pdf_pages,
        extract_pdf_pages,
    )

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for txt in t["text"].to_pylist():
            words = (txt or "").split(" ")[:24]
            pages = [words[i : i + 8] for i in range(0, len(words), 8)] or [[]]
            payloads.append(
                encode_pdf_pages(
                    [
                        [" ".join(pw[i : i + 4]) for i in range(0, len(pw), 4)]
                        for pw in pages
                    ]
                )
            )
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def per_page(t: pa.Table) -> pa.Table:
        doc_ids, page_nos, n_lines, texts = [], [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            for pno, lines in enumerate(extract_pdf_pages(p or b"")):
                doc_ids.append(d)
                page_nos.append(pno)
                n_lines.append(len(lines))
                texts.append(" ".join(lines))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "page_no": pa.array(page_nos, pa.int64()),
                "n_lines": pa.array(n_lines, pa.int64()),
                "page_text": pa.array(texts, pa.string()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        per_page, batch_format="pyarrow", batch_size=64
    )


SQL_PDF_PAGES = """
WITH w AS (
  SELECT doc_id, list_slice(string_split(text, ' '), 1, 24) AS w24
  FROM documents
),
p AS (
  SELECT doc_id, w24, g.p
  FROM w,
       UNNEST(generate_series(
         0, CAST(CEIL(LEN(w24) / 8.0) AS BIGINT) - 1)) AS g(p)
)
SELECT doc_id, p AS page_no,
       CAST(CEIL(LEAST(LEN(w24) - p * 8, 8) / 4.0) AS BIGINT) AS n_lines,
       array_to_string(
         list_slice(w24, p * 8 + 1, LEAST(p * 8 + 8, LEN(w24))), ' ')
         AS page_text
FROM p
"""


def q_format_sniff(sf_dir: str):
    """Magic-byte format sniffing + spoof detection over REAL mixed
    payloads, ORACLE-CHECKED: each doc carries an actual encoded file
    (doc_id % 6 rotates through the six in-repo codecs — PNG, GIF, PDF,
    WAV, BMP, PGM) plus a CLAIMED format label that is sometimes wrong
    ((3*doc_id) % 6 — a crawl's Content-Type/extension header is
    untrusted). The sniff stage classifies by leading magic bytes only
    (vectorized slice-compare, never a full decode — the cheap gate a
    100 TB ingest runs before routing payloads to per-format decode
    pools), then (claimed, actual) pairs are counted with map-side
    partials. Mismatched rows are the spoofed ones. The twin re-states
    both labels closed-form; payload LENGTHS are compression-dependent
    and deliberately not emitted."""
    from goose_parser_ray.functions.bmpmini import encode_bmp
    from goose_parser_ray.functions.gifmini import encode_gif
    from goose_parser_ray.functions.netpbm import encode_pgm
    from goose_parser_ray.functions.pdfmini import encode_pdf
    from goose_parser_ray.functions.pngmini import encode_png
    from goose_parser_ray.functions.wav import encode_wav_pcm16

    FORMATS = ["png", "gif", "pdf", "wav", "bmp", "pgm"]

    def synth(t: pa.Table) -> pa.Table:
        payloads, claimed = [], []
        for d in t["doc_id"].to_pylist():
            kind = d % 6
            g = ((np.arange(64, dtype=np.int64).reshape(8, 8) * 3 + d) % 256
                 ).astype(np.uint8)
            if kind == 0:
                p = encode_png(g)
            elif kind == 1:
                pal = np.stack([np.arange(4, dtype=np.int64) * 60] * 3,
                               axis=1).astype(np.uint8)
                p = encode_gif(8, 8, pal, (g % 4).astype(np.uint8))
            elif kind == 2:
                p = encode_pdf([f"doc {d} line one", "line two"])
            elif kind == 3:
                s = (((np.arange(256, dtype=np.int64) * 31 + d) % 2048)
                     - 1024).astype(np.int16)
                p = encode_wav_pcm16(s)
            elif kind == 4:
                p = encode_bmp(np.stack([g] * 3, axis=2))
            else:
                p = encode_pgm(g)
            payloads.append(p)
            claimed.append(FORMATS[(3 * d) % 6])
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "claimed": pa.array(claimed, pa.string()),
                "payload": pa.array(payloads, pa.binary()),
            }
        )

    def sniff(t: pa.Table) -> pa.Table:
        ps = t["payload"].to_pylist()
        head = np.frombuffer(
            b"".join((p or b"")[:12].ljust(12, b"\x00") for p in ps),
            np.uint8,
        ).reshape(-1, 12)

        def has(prefix: bytes, at: int = 0) -> np.ndarray:
            want = np.frombuffer(prefix, np.uint8)
            return (head[:, at : at + len(want)] == want).all(axis=1)

        actual = np.select(
            [
                has(b"\x89PNG\r\n\x1a\n"),
                has(b"GIF87a") | has(b"GIF89a"),
                has(b"%PDF-"),
                has(b"RIFF") & has(b"WAVE", at=8),
                has(b"BM"),
                has(b"P5"),
            ],
            FORMATS,
            default="unknown",
        )
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "claimed": t["claimed"],
                "actual": pa.array(actual.tolist(), pa.string()),
            }
        )

    labeled = (
        _read(sf_dir, "documents", ["doc_id"])
        .map_batches(synth, batch_format="pyarrow", batch_size=256)
        .map_batches(sniff, batch_format="pyarrow")
    )

    return keyed_aggregate(
        labeled, ["claimed", "actual"],
        {"first_doc": ("doc_id", "min"), "n_docs": ("doc_id", "count")},
    )


SQL_FORMAT_SNIFF = """
WITH f(i, name) AS (VALUES (0, 'png'), (1, 'gif'), (2, 'pdf'),
                           (3, 'wav'), (4, 'bmp'), (5, 'pgm')),
lab AS (
  SELECT d.doc_id, fc.name AS claimed, fa.name AS actual
  FROM documents d
  JOIN f fc ON fc.i = (3 * d.doc_id) % 6
  JOIN f fa ON fa.i = d.doc_id % 6
)
SELECT claimed, actual,
       MIN(doc_id) AS first_doc,
       CAST(COUNT(*) AS BIGINT) AS n_docs
FROM lab GROUP BY claimed, actual
"""


def q_orc_roundtrip(sf_dir: str):
    """Columnar interchange: export the events table to ORC shards (one
    per block, content-keyed streaming sink) and read it back through the
    parallel ``read_binary_files`` + pyarrow.orc decode path — proving a
    lossless event_id/event_type/value roundtrip row-for-row against the
    original parquet (see ``sources/orcio.py``)."""
    import hashlib
    import shutil

    from goose_parser_ray.sources.orcio import read_orc, write_orc_shards

    out = "/tmp/orc_roundtrip_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    write_orc_shards(ds, out, key_col="event_id")
    return read_orc(out).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "v_cents": _cents(t["value"]),
            }
        ),
        batch_format="pyarrow",
    )


SQL_ORC_ROUNDTRIP = """
SELECT event_id, event_type,
       CAST(ROUND(100 * value) AS BIGINT) AS v_cents
FROM events
"""


def q_csv_roundtrip(sf_dir: str):
    """Text interchange: export events to CSV shards through Ray Data's
    native streaming sink and read them back with the parallel
    ``read_csv`` path. Floats don't survive a text roundtrip bit-exact,
    so ``value`` is folded to integer cents BEFORE export — the
    int/string schema is lossless through CSV and the oracle hash proves
    row-for-row identity with the source parquet."""
    import hashlib
    import shutil

    out = "/tmp/csv_roundtrip_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "v_cents": _cents(t["value"]),
            }
        ),
        batch_format="pyarrow",
    )
    ds.write_csv(out)
    return ray.data.read_csv(out)


SQL_CSV_ROUNDTRIP = """
SELECT event_id, event_type,
       CAST(ROUND(100 * value) AS BIGINT) AS v_cents
FROM events
"""


def q_jsonl_roundtrip(sf_dir: str):
    """Row-oriented interchange: export events to JSONL shards
    (``write_json`` emits one JSON object per line) and read them back
    through the parallel ``read_json`` path. Same cents-before-export
    discipline as the CSV twin keeps the roundtrip lossless."""
    import hashlib
    import shutil

    out = "/tmp/jsonl_roundtrip_" + hashlib.md5(sf_dir.encode()).hexdigest()[:8]
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
        lambda t: pa.Table.from_pydict(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "v_cents": _cents(t["value"]),
            }
        ),
        batch_format="pyarrow",
    )
    ds.write_json(out)
    return ray.data.read_json(out)


SQL_JSONL_ROUNDTRIP = SQL_CSV_ROUNDTRIP
