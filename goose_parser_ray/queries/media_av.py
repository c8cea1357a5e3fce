"""Audio/video temporal ops: spectrum, frame sampling, scene cuts, VAD segmentation, resample, mixdown, video near-dup, luma.

Each ``q_<name>`` here is the query ``<name>`` and ``SQL_<NAME>`` its
DuckDB twin; see the package docstring for that naming rule and the
column-naming / integer-cents parity rules every query follows."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from goose_parser_ray.functions.relational import keyed_aggregate

from goose_parser_ray.queries._shared import _read


def q_audio_spectrum(sf_dir: str):
    """REAL frequency-domain audio features, oracle-checked: square waves
    whose period divides the clip length exactly are synthesized per doc,
    round-tripped through RIFF/PCM16 bytes, then analyzed with a full-clip
    ``np.fft.rfft`` in an actor pool. For an exactly-periodic square wave
    the spectrum is analytically sparse (odd harmonics of n/(2·half), all
    other bins identically zero), so the emitted integer features —
    dominant bin, its Hz, active-bin count at a 10×-amplitude threshold —
    are decision-margin-exact despite the float FFT, and the DuckDB twin
    states them closed-form. The frequency-domain sibling of q_media_wav's
    time-domain features."""
    from goose_parser_ray.functions.multimodal import SpectrumActor
    from goose_parser_ray.functions.wav import encode_wav_pcm16

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 32 * (25 + d % 50)
            half = 2 ** (1 + d % 4)  # 2/4/8/16 — period 2·half divides n
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
        # task pool, not actor pool: SpectrumActor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: SpectrumActor()(t),
        batch_format="pyarrow",
        batch_size=64,
    )


SQL_AUDIO_SPECTRUM = """
WITH p AS (
  SELECT doc_id,
         32 * (25 + doc_id % 50) AS n,
         CAST(POWER(2, 1 + doc_id % 4) AS BIGINT) AS half
  FROM documents
)
SELECT doc_id,
       CAST(n // (2 * half) AS BIGINT) AS dom_bin,
       CAST(8000 // half AS BIGINT) AS dom_freq_hz,
       CAST((half + 1) // 2 AS BIGINT) AS n_active_bins
FROM p
"""


def q_video_frames(sf_dir: str):
    """REAL video-frame-sampling pipeline, ORACLE-CHECKED end to end: per
    doc a deterministic ANIMATED GIF89a (2..6 frames, per-frame Graphic
    Control delays, NETSCAPE2.0 loop extension, one LZW stream per frame)
    is synthesized with the in-repo codec, then ``VideoFrameSampleActor``
    decodes the container frame-by-frame and keeps every 2nd frame
    (frame 0 always — the thumbnail convention), fanning one input row
    out to one row per SAMPLED frame with exact-integer summaries
    (GCE delay, distinct palette indices used, palette-mapped RGB sum).
    The hash compare against the closed-form DuckDB twin proves every
    sampled frame's LZW index stream AND its extension-block delay were
    reconstructed bit-exactly — the multi-frame "video" sibling of
    q_media_gif (upstream: goose-parser media spans carry opaque binary
    payloads; frame-sampling is the stage a video pipeline runs before
    per-frame feature extraction)."""
    from goose_parser_ray.functions.gifmini import encode_gif_animated
    from goose_parser_ray.functions.multimodal import VideoFrameSampleActor

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 8 + (d % 9)
            h = 6 + (d % 7)
            p_n = 1 << (1 + d % 7)  # 2..128, power of two == GCT size
            pi = np.arange(p_n, dtype=np.int64)
            pal = np.stack(
                [
                    (37 * pi + d) % 256,
                    (11 * pi + 2 * d) % 256,
                    (53 * pi + 3 * d + 1) % 256,
                ],
                axis=1,
            ).astype(np.uint8)
            n_frames = 2 + (d % 5)  # 2..6
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            frames = [
                ((7 * i + 13 * j + 5 * k + d) % p_n).astype(np.uint8)
                for k in range(n_frames)
            ]
            delays = [4 + ((d + 3 * k) % 10) for k in range(n_frames)]
            payloads.append(encode_gif_animated(w, h, pal, frames, delays))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        # task pool, not actor pool: the actor's setup is an import
        # bind — actor spin-up costs more than it saves (measured
        # on media_png: stage wall 3.0s -> 1.4s at sf0.1/32 CPUs)
        lambda t: VideoFrameSampleActor(stride=2)(t),
        batch_format="pyarrow",
        batch_size=64,  # wide binary payloads — small batches (guide)
    )


SQL_VIDEO_FRAMES = """
WITH dims AS (
  SELECT doc_id,
         8 + (doc_id % 9) AS width,
         6 + (doc_id % 7) AS height,
         CAST(POWER(2, 1 + doc_id % 7) AS BIGINT) AS p_n,
         2 + (doc_id % 5) AS n_frames
  FROM documents
),
fr AS (
  SELECT d.*, f.k AS frame_no
  FROM dims d, UNNEST(generate_series(0, d.n_frames - 1)) AS f(k)
  WHERE f.k % 2 = 0
),
pix AS (
  SELECT fr.doc_id, fr.frame_no,
         (7 * a.i + 13 * b.j + 5 * fr.frame_no + fr.doc_id) % fr.p_n AS p
  FROM fr,
       UNNEST(generate_series(0, fr.height - 1)) AS a(i),
       UNNEST(generate_series(0, fr.width - 1)) AS b(j)
)
SELECT p.doc_id, p.frame_no,
       4 + ((p.doc_id + 3 * p.frame_no) % 10) AS delay_cs,
       CAST(COUNT(DISTINCT p.p) AS BIGINT) AS colors_used,
       CAST(SUM((37 * p.p + p.doc_id) % 256 + (11 * p.p + 2 * p.doc_id) % 256
                + (53 * p.p + 3 * p.doc_id + 1) % 256) AS BIGINT) AS rgb_sum
FROM pix p GROUP BY p.doc_id, p.frame_no
"""


def q_scene_cuts(sf_dir: str):
    """Scene-change detection over a REAL multi-frame container,
    ORACLE-CHECKED: animated GIF89a clips are synthesized so consecutive
    frames within a scene differ by a +1 index drift (motion) while every
    second transition jumps the whole raster by +40 (a cut), the in-repo
    codec decodes each frame, and per transition the SAD (sum of absolute
    index differences against the previous frame — indices are the
    luminance proxy; the synthesized palette is monotone) is compared to
    a per-pixel threshold. One row per transition: (doc_id, frame_no,
    sad, is_cut). The closed-form DuckDB twin re-states every pixel of
    both frames, so the hash compare certifies the decoder reconstructed
    ADJACENT frames consistently — the property frame-sampling alone
    (q_video_frames) never checks. Scale shape: map-only decode + numpy
    SAD, no shuffle."""
    from goose_parser_ray.functions.gifmini import encode_gif_animated
    from goose_parser_ray.functions.gifmini import decode_gif_frames

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 8 + (d % 9)
            h = 6 + (d % 7)
            p_n = 1 << (2 + d % 6)  # 4..128
            pi = np.arange(p_n, dtype=np.int64)
            pal = np.stack([(2 * pi) % 256] * 3, axis=1).astype(np.uint8)
            n_frames = 3 + (d % 4)  # 3..6
            i = np.arange(h, dtype=np.int64)[:, None]
            j = np.arange(w, dtype=np.int64)[None, :]
            frames = [
                ((7 * i + 13 * j + d + 40 * (k // 2) + k % 2) % p_n).astype(
                    np.uint8
                )
                for k in range(n_frames)
            ]
            payloads.append(encode_gif_animated(w, h, pal, frames))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def sad_stage(t: pa.Table) -> pa.Table:
        doc_ids, frame_nos, sads, cuts = [], [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            w, h, pal, frames, _ = decode_gif_frames(p or b"")
            prev = frames[0].astype(np.int64)
            for k in range(1, len(frames)):
                cur = frames[k].astype(np.int64)
                sad = int(np.abs(cur - prev).sum())
                doc_ids.append(d)
                frame_nos.append(k)
                sads.append(sad)
                cuts.append(sad > 3 * w * h)  # cut = mean |delta| > 3
                prev = cur
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "frame_no": pa.array(frame_nos, pa.int64()),
                "sad": pa.array(sads, pa.int64()),
                "is_cut": pa.array(cuts, pa.bool_()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow"
    )
    return ds.map_batches(
        sad_stage, batch_format="pyarrow", batch_size=128
    )


SQL_SCENE_CUTS = """
WITH dims AS (
  SELECT doc_id,
         8 + (doc_id % 9) AS width,
         6 + (doc_id % 7) AS height,
         CAST(POWER(2, 2 + doc_id % 6) AS BIGINT) AS p_n,
         3 + (doc_id % 4) AS n_frames
  FROM documents
),
tr AS (
  SELECT d.*, f.k AS frame_no
  FROM dims d, UNNEST(generate_series(1, d.n_frames - 1)) AS f(k)
),
pix AS (
  SELECT t.doc_id, t.frame_no, t.width, t.height,
         ABS(
           (7 * a.i + 13 * b.j + t.doc_id
            + 40 * (t.frame_no // 2) + t.frame_no % 2) % t.p_n
           - (7 * a.i + 13 * b.j + t.doc_id
              + 40 * ((t.frame_no - 1) // 2) + (t.frame_no - 1) % 2) % t.p_n
         ) AS ad
  FROM tr t,
       UNNEST(generate_series(0, t.height - 1)) AS a(i),
       UNNEST(generate_series(0, t.width - 1)) AS b(j)
)
SELECT doc_id, frame_no,
       CAST(SUM(ad) AS BIGINT) AS sad,
       SUM(ad) > 3 * width * height AS is_cut
FROM pix GROUP BY doc_id, frame_no, width, height
"""


def q_audio_segments(sf_dir: str):
    """Silence-split audio segmentation over REAL WAV PCM,
    ORACLE-CHECKED: per doc an int16 waveform alternates loud bursts
    (|x| ≥ 200) and near-silence (|x| ≤ 25) in 64-sample blocks with a
    doc-dependent phase, is encoded to actual RIFF/PCM bytes, decoded by
    the in-repo codec, and split at the |x| ≥ 100 threshold into
    contiguous voiced runs (vectorized diff-of-mask + reduceat — no
    Python loop over samples). One row per segment: start sample, length,
    peak |x| and the exact |x| sum — the VAD-style pre-segmentation an
    audio pipeline runs before per-segment feature extraction. The
    gaps-and-islands DuckDB twin re-states every sample, so the hash
    compare certifies the PCM byte stream was reconstructed exactly.
    Scale shape: map-only decode + numpy runs, no shuffle."""
    from goose_parser_ray.functions.wav import decode_wav_pcm16
    from goose_parser_ray.functions.wav import encode_wav_pcm16

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 512 + 64 * (d % 4)
            ts = np.arange(n, dtype=np.int64)
            loud = ((ts // 64 + d) % 3) != 0
            x = np.where(
                loud, (37 * ts + d) % 1000 + 200, ts % 50 - 25
            ).astype(np.int16)
            payloads.append(encode_wav_pcm16(x))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def segment(t: pa.Table) -> pa.Table:
        doc_ids, seg_nos, starts, lengths, peaks, sums = [], [], [], [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            x, _, _ = decode_wav_pcm16(p or b"")
            ax = np.abs(x.astype(np.int64))
            mask = (ax >= 100).astype(np.int8)
            edges = np.flatnonzero(np.diff(np.concatenate(([0], mask, [0]))))
            run_starts, run_ends = edges[0::2], edges[1::2]
            if run_starts.size:
                peak = np.maximum.reduceat(ax, run_starts)
                csum = np.concatenate(([0], np.cumsum(ax)))
                asum = csum[run_ends] - csum[run_starts]
                for s_no in range(run_starts.size):
                    doc_ids.append(d)
                    seg_nos.append(s_no)
                    starts.append(int(run_starts[s_no]))
                    lengths.append(int(run_ends[s_no] - run_starts[s_no]))
                    peaks.append(int(peak[s_no]))
                    sums.append(int(asum[s_no]))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "seg_no": pa.array(seg_nos, pa.int64()),
                "start_sample": pa.array(starts, pa.int64()),
                "n_samples": pa.array(lengths, pa.int64()),
                "peak_abs": pa.array(peaks, pa.int64()),
                "abs_sum": pa.array(sums, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(segment, batch_format="pyarrow", batch_size=256)


SQL_AUDIO_SEGMENTS = """
WITH s AS (
  SELECT d.doc_id, ts.t,
         CASE WHEN ((ts.t // 64 + d.doc_id) % 3) != 0
              THEN (37 * ts.t + d.doc_id) % 1000 + 200
              ELSE ts.t % 50 - 25 END AS x
  FROM documents d,
       UNNEST(generate_series(0, 511 + 64 * (d.doc_id % 4))) AS ts(t)
),
loud AS (
  SELECT doc_id, t, ABS(x) AS ax,
         t - ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY t) AS grp
  FROM s WHERE ABS(x) >= 100
),
runs AS (
  SELECT doc_id, MIN(t) AS start_sample,
         CAST(COUNT(*) AS BIGINT) AS n_samples,
         CAST(MAX(ax) AS BIGINT) AS peak_abs,
         CAST(SUM(ax) AS BIGINT) AS abs_sum
  FROM loud GROUP BY doc_id, grp
)
SELECT doc_id,
       ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY start_sample) - 1
         AS seg_no,
       start_sample, n_samples, peak_abs, abs_sum
FROM runs
"""


def q_audio_downsample(sf_dir: str):
    """Integer audio decimation (the 16 kHz → 4 kHz front-end resample),
    ORACLE-CHECKED: the same RIFF/PCM waveforms as q_audio_segments are
    decoded and decimated ×4 with a box filter kept as EXACT block SUMS
    (no division, no float — the sum is the mean times a constant, so
    downstream energy math is unchanged and the twin is closed-form).
    Emitted per doc: input/output sample counts and a position-weighted
    checksum Σ (i+1)·out_i that certifies every output sample AND its
    order. Scale shape: map-only decode + one reshape-sum, no shuffle."""
    from goose_parser_ray.functions.wav import decode_wav_pcm16
    from goose_parser_ray.functions.wav import encode_wav_pcm16

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 512 + 64 * (d % 4)
            ts = np.arange(n, dtype=np.int64)
            loud = ((ts // 64 + d) % 3) != 0
            x = np.where(
                loud, (37 * ts + d) % 1000 + 200, ts % 50 - 25
            ).astype(np.int16)
            payloads.append(encode_wav_pcm16(x))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def decimate(t: pa.Table) -> pa.Table:
        n_ins, n_outs, cks = [], [], []
        for p in t["payload"].to_pylist():
            x, _, _ = decode_wav_pcm16(p or b"")
            xi = x.astype(np.int64)
            out = xi.reshape(-1, 4).sum(axis=1)
            w = np.arange(1, out.size + 1, dtype=np.int64)
            n_ins.append(xi.size)
            n_outs.append(out.size)
            cks.append(int((w * out).sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_in": pa.array(n_ins, pa.int64()),
                "n_out": pa.array(n_outs, pa.int64()),
                "checksum": pa.array(cks, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(decimate, batch_format="pyarrow", batch_size=256)


SQL_AUDIO_DOWNSAMPLE = """
WITH s AS (
  SELECT d.doc_id, ts.t,
         CASE WHEN ((ts.t // 64 + d.doc_id) % 3) != 0
              THEN (37 * ts.t + d.doc_id) % 1000 + 200
              ELSE ts.t % 50 - 25 END AS x
  FROM documents d,
       UNNEST(generate_series(0, 511 + 64 * (d.doc_id % 4))) AS ts(t)
),
blocks AS (
  SELECT doc_id, t // 4 AS i, SUM(x) AS v
  FROM s GROUP BY doc_id, t // 4
)
SELECT doc_id,
       CAST(4 * COUNT(*) AS BIGINT) AS n_in,
       CAST(COUNT(*) AS BIGINT) AS n_out,
       CAST(SUM((i + 1) * v) AS BIGINT) AS checksum
FROM blocks GROUP BY doc_id
"""


def q_video_neardup(sf_dir: str):
    """VIDEO near-duplicate detection by frame-fingerprint overlap — the
    flagship composition of the media-temporal family, ORACLE-CHECKED:
    every group of four docs shares the same clip CONTENT (seed =
    doc_id - doc_id % 4) but each doc's animated-GIF bytes differ (a
    per-doc dither shifts every 4×4 block sum by the same constant) and
    the clips differ in LENGTH (3..5 frames by doc_id % 3), so byte
    hashing finds nothing while per-frame dHashing after real decode
    finds everything: decode → per-frame difference hash (shared
    ``dhash_from_raster`` kernel) → distinct (doc, hash) → pairs of
    videos sharing ≥ 2 frame fingerprints with the shared-frame count.
    The twin recomputes every frame's 64 bits closed-form (dither
    cancels in block sums) and self-joins on hash equality, certifying
    pair identification AND overlap counts — including the organic
    cross-group collisions from the pattern's period 97. Scale shape:
    map-only decode+hash, pairs form inside data-proportional
    hash-keyed buckets, never all-pairs."""
    import pandas as pd

    from goose_parser_ray.functions.dedup import bucket_groups
    from goose_parser_ray.functions.gifmini import (
        decode_gif_frames,
        encode_gif_animated,
    )
    from goose_parser_ray.functions.multimodal import dhash_from_raster

    H, W = 32, 36

    def synth(t: pa.Table) -> pa.Table:
        bi = np.arange(8, dtype=np.int64)[:, None]
        bj = np.arange(9, dtype=np.int64)[None, :]
        i = np.arange(H, dtype=np.int64)[:, None]
        j = np.arange(W, dtype=np.int64)[None, :]
        pal = np.stack([np.arange(256, dtype=np.int64) % 256] * 3, axis=1
                       ).astype(np.uint8)
        payloads = []
        for d in t["doc_id"].to_pylist():
            seed = d - d % 4
            n_frames = 3 + d % 3
            dither = ((2 * i + 3 * j + d) % 4 == 0).astype(np.int64)
            frames = []
            for k in range(n_frames):
                grid = (23 * bi + 41 * bj + 17 * k + seed) % 97 + 50
                img = np.repeat(np.repeat(grid, 4, axis=0), 4, axis=1)
                frames.append((img + dither).astype(np.uint8))
            payloads.append(encode_gif_animated(W, H, pal, frames))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def frame_hashes(t: pa.Table) -> pa.Table:
        doc_ids, his, los = [], [], []
        for d, p in zip(t["doc_id"].to_pylist(), t["payload"].to_pylist()):
            _, _, _, frames, _ = decode_gif_frames(p or b"")
            seen = set()
            for fr in frames:
                hi, lo = dhash_from_raster(fr)
                if (hi, lo) not in seen:  # distinct (doc, hash)
                    seen.add((hi, lo))
                    doc_ids.append(d)
                    his.append(hi)
                    los.append(lo)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "hi": pa.array(his, pa.int64()),
                "lo": pa.array(los, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"])
    hashes = ds.map_batches(synth, batch_format="pyarrow", batch_size=64).map_batches(
        frame_hashes, batch_format="pyarrow", batch_size=64
    )

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, f in g.groupby(["hi", "lo"], sort=False):
            ids = np.sort(f["doc_id"].to_numpy(np.int64))
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            out_a.append(ids[ii])
            out_b.append(ids[jj])
        if not out_a:
            return pd.DataFrame(
                {
                    "id_a": pd.Series([], dtype=np.int64),
                    "id_b": pd.Series([], dtype=np.int64),
                    "n": pd.Series([], dtype=np.int64),
                }
            )
        df = pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        )
        out = df.groupby(["id_a", "id_b"], as_index=False).size()
        return out.rename(columns={"size": "n"})

    pairs = bucket_groups(
        hashes, ["hi", "lo"], pairs_in_bucket, rows=ds.count() * 4
    )
    agg = keyed_aggregate(pairs, ["id_a", "id_b"], {"n": ("n", "sum")})

    def gate(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(n >= 2))
        return t.rename_columns(["id_a", "id_b", "n_shared"])

    return agg.map_batches(gate, batch_format="pyarrow")


SQL_VIDEO_NEARDUP = """
WITH fr AS (
  SELECT d.doc_id, d.doc_id - d.doc_id % 4 AS seed, f.k
  FROM documents d,
       UNNEST(generate_series(0, 2 + d.doc_id % 3)) AS f(k)
),
bits AS (
  SELECT fr.doc_id, fr.k, bi.bi, bj.bj,
         CASE WHEN (23 * bi.bi + 41 * bj.bj + 17 * fr.k + fr.seed) % 97
                 > (23 * bi.bi + 41 * (bj.bj + 1) + 17 * fr.k + fr.seed) % 97
              THEN 1 ELSE 0 END AS bit
  FROM fr,
       UNNEST(generate_series(0, 7)) AS bi(bi),
       UNNEST(generate_series(0, 7)) AS bj(bj)
),
h AS (
  SELECT DISTINCT doc_id,
         CAST(SUM(CASE WHEN bi < 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * bi + bj))
                       ELSE 0 END) AS BIGINT) AS lo,
         CAST(SUM(CASE WHEN bi >= 4
                       THEN bit * (CAST(1 AS BIGINT) << (8 * (bi - 4) + bj))
                       ELSE 0 END) AS BIGINT) AS hi
  FROM bits GROUP BY doc_id, k
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared
FROM h a JOIN h b ON a.doc_id < b.doc_id AND a.hi = b.hi AND a.lo = b.lo
GROUP BY a.doc_id, b.doc_id
HAVING COUNT(*) >= 2
"""


def q_audio_mixdown(sf_dir: str):
    """Stereo → mono mixdown over REAL 2-channel RIFF/PCM bytes,
    ORACLE-CHECKED: per doc an interleaved stereo waveform (distinct L/R
    formulas) is encoded with channels=2, decoded by the in-repo codec,
    de-interleaved, and mixed as EXACT SUMS L+R (no /2, no float — the
    sum is the mean times two, so downstream energy math is unchanged);
    emitted per doc: frame count and the position-weighted mono checksum
    Σ (i+1)·(L_i+R_i) certifying every frame of BOTH channels and the
    interleave order. Scale shape: map-only, no shuffle."""
    from goose_parser_ray.functions.wav import (
        decode_wav_pcm16,
        encode_wav_pcm16,
    )

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 256 + 32 * (d % 4)  # frames
            ts = np.arange(n, dtype=np.int64)
            left = (53 * ts + d) % 2000 - 1000
            right = (29 * ts + 2 * d) % 1500 - 750
            inter = np.empty(2 * n, dtype=np.int16)
            inter[0::2] = left.astype(np.int16)
            inter[1::2] = right.astype(np.int16)
            payloads.append(encode_wav_pcm16(inter, channels=2))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def mixdown(t: pa.Table) -> pa.Table:
        frames_out, cks = [], []
        for p in t["payload"].to_pylist():
            x, _, ch = decode_wav_pcm16(p or b"")
            if ch != 2:
                raise ValueError("mixdown: expected stereo payload")
            xi = x.astype(np.int64)
            mono = xi[0::2] + xi[1::2]
            w = np.arange(1, mono.size + 1, dtype=np.int64)
            frames_out.append(mono.size)
            cks.append(int((w * mono).sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_frames": pa.array(frames_out, pa.int64()),
                "checksum": pa.array(cks, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(mixdown, batch_format="pyarrow", batch_size=256)


SQL_AUDIO_MIXDOWN = """
WITH s AS (
  SELECT d.doc_id, ts.t,
         (53 * ts.t + d.doc_id) % 2000 - 1000
           + (29 * ts.t + 2 * d.doc_id) % 1500 - 750 AS mono
  FROM documents d,
       UNNEST(generate_series(0, 255 + 32 * (d.doc_id % 4))) AS ts(t)
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_frames,
       CAST(SUM((t + 1) * mono) AS BIGINT) AS checksum
FROM s GROUP BY doc_id
"""


def q_rgb_to_luma(sf_dir: str):
    """RGB → luma conversion (integer BT.601: Y = (77R + 150G + 29B) >> 8,
    the JPEG/vision-preprocessing grayscale step), ORACLE-CHECKED over
    REAL image bytes: deterministic RGB gradients are encoded to actual
    binary PPM (P6), decoded by the in-repo Netpbm codec, converted with
    the fixed-point kernel (no floats — the >> 8 IS the spec), and
    summarized as exact integers (luma sum, min, max) so the twin
    certifies every converted pixel. Scale shape: map-only decode +
    vectorized integer dot, no shuffle."""
    from goose_parser_ray.functions.netpbm import decode_ppm, encode_ppm

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            w = 9 + (d % 6)
            h = 7 + (d % 5)
            i = np.arange(h, dtype=np.int64)[:, None, None]
            j = np.arange(w, dtype=np.int64)[None, :, None]
            c = np.arange(3, dtype=np.int64)[None, None, :]
            img = ((19 * i + 31 * j + 83 * c + d) % 256).astype(np.uint8)
            payloads.append(encode_ppm(img))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def luma(t: pa.Table) -> pa.Table:
        sums, mins, maxs = [], [], []
        for p in t["payload"].to_pylist():
            img = decode_ppm(p or b"").astype(np.int64)
            y = (77 * img[:, :, 0] + 150 * img[:, :, 1] + 29 * img[:, :, 2]
                 ) >> 8
            sums.append(int(y.sum()))
            mins.append(int(y.min()))
            maxs.append(int(y.max()))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "luma_sum": pa.array(sums, pa.int64()),
                "luma_min": pa.array(mins, pa.int64()),
                "luma_max": pa.array(maxs, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(luma, batch_format="pyarrow", batch_size=256)


SQL_RGB_TO_LUMA = """
WITH pix AS (
  SELECT d.doc_id,
         (77 * ((19 * a.i + 31 * b.j + d.doc_id) % 256)
          + 150 * ((19 * a.i + 31 * b.j + 83 + d.doc_id) % 256)
          + 29 * ((19 * a.i + 31 * b.j + 166 + d.doc_id) % 256)) // 256 AS y
  FROM documents d,
       UNNEST(generate_series(0, 6 + (d.doc_id % 5))) AS a(i),
       UNNEST(generate_series(0, 8 + (d.doc_id % 6))) AS b(j)
)
SELECT doc_id,
       CAST(SUM(y) AS BIGINT) AS luma_sum,
       CAST(MIN(y) AS BIGINT) AS luma_min,
       CAST(MAX(y) AS BIGINT) AS luma_max
FROM pix GROUP BY doc_id
"""


def q_audio_loudness(sf_dir: str):
    """Loudness / peak audit over REAL RIFF/PCM bytes (the normalization
    pre-step: energy, true peak, clip count), ORACLE-CHECKED with exact
    integers: per doc a deterministic mono waveform v_i = (37i + d) mod
    4000 − 2000 is encoded to PCM16, decoded by the in-repo codec, and
    summarized as Σv² (the un-normalized energy — exact int64), max |v|,
    and the count of samples at |v| ≥ 1900 (the clip gate). The twin
    restates every sample from the formula via generate_series. Scale
    shape: map-only decode + per-doc bounded reduce, no shuffle."""
    from goose_parser_ray.functions.wav import (
        decode_wav_pcm16,
        encode_wav_pcm16,
    )

    def synth(t: pa.Table) -> pa.Table:
        payloads = []
        for d in t["doc_id"].to_pylist():
            n = 512 + 64 * (d % 3)
            ts = np.arange(n, dtype=np.int64)
            v = (37 * ts + d) % 4000 - 2000
            payloads.append(encode_wav_pcm16(v.astype(np.int16), channels=1))
        return pa.Table.from_pydict(
            {"doc_id": t["doc_id"], "payload": pa.array(payloads, pa.binary())}
        )

    def loud(t: pa.Table) -> pa.Table:
        en, pk, cl, ns = [], [], [], []
        for p in t["payload"].to_pylist():
            x, _, ch = decode_wav_pcm16(p or b"")
            xi = x.astype(np.int64)
            en.append(int((xi * xi).sum()))
            pk.append(int(np.abs(xi).max()) if xi.size else 0)
            cl.append(int((np.abs(xi) >= 1900).sum()))
            ns.append(int(xi.size))
        return pa.Table.from_pydict(
            {
                "doc_id": t["doc_id"],
                "n_samples": pa.array(ns, pa.int64()),
                "energy": pa.array(en, pa.int64()),
                "peak": pa.array(pk, pa.int64()),
                "n_clipped": pa.array(cl, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        synth, batch_format="pyarrow", batch_size=256
    )
    return ds.map_batches(loud, batch_format="pyarrow", batch_size=256)


SQL_AUDIO_LOUDNESS = """
WITH s AS (
  SELECT d.doc_id,
         (37 * i.i + d.doc_id) % 4000 - 2000 AS v
  FROM documents d,
       UNNEST(generate_series(0, 512 + 64 * (d.doc_id % 3) - 1)) AS i(i)
)
SELECT doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_samples,
       CAST(SUM(v * v) AS BIGINT) AS energy,
       CAST(MAX(ABS(v)) AS BIGINT) AS peak,
       CAST(SUM(CASE WHEN ABS(v) >= 1900 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_clipped
FROM s GROUP BY doc_id
"""
