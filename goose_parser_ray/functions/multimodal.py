"""Multimodal column stages — opaque ``binary`` payloads with typed metadata.

Image/audio/video libraries do not exist in this sandbox, so the DECODE step
is a clearly-marked stub (deterministic fake via ``fake=True``, or
``NotImplementedError`` otherwise); everything Ray-side — schema, actor
signature, batch sizing, output layout — is real and tested
(tests/test_functions.py), so a real codec drops into ``_decode_real``
without touching pipeline code.

Batch-size note (guide "Memory-aware"): binary payloads are wide — callers
should pass small ``batch_size`` (e.g. 16) for these stages so each
batch fits a worker heap.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

MEDIA_META = pa.struct(
    [("width", pa.int32()), ("height", pa.int32()), ("format", pa.string())]
)


class ImageDecodeActor:
    """binary payload → decoded feature vector + metadata.

    ``fake=True`` (default in-sandbox): deterministic pseudo-decode — feature
    vector seeded from crc32 of the payload, metadata parsed from the
    payload's first bytes if present. ``fake=False`` raises
    ``NotImplementedError`` until a codec is available."""

    def __init__(self, payload_col: str = "payload", fake: bool = True, dim: int = 16):
        self.payload_col, self.fake, self.dim = payload_col, fake, dim

    def _decode_real(self, payload: bytes):  # pragma: no cover - no codec
        raise NotImplementedError(
            "no image codec in this environment; run with fake=True or "
            "install a codec and implement _decode_real"
        )

    def _decode_fake(self, payload: bytes):
        seed = zlib.crc32(payload or b"")
        rng = np.random.RandomState(seed & 0x7FFFFFFF)
        feat = rng.rand(self.dim).astype(np.float32)
        w = (seed % 640) + 1
        h = ((seed >> 8) % 480) + 1
        return feat, {"width": w, "height": h, "format": "fake"}

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        feats, metas = [], []
        for p in payloads:
            decode = self._decode_fake if self.fake else self._decode_real
            f, m = decode(p or b"")
            feats.append(f.tolist())
            metas.append(m)
        batch = batch.append_column("features", pa.array(feats, pa.list_(pa.float32())))
        return batch.append_column("meta", pa.array(metas, MEDIA_META))


class FrameSampleActor:
    """video payload → every Nth "frame" reference (stub: deterministic
    frame index list from payload length; real sampler slots in)."""

    def __init__(self, payload_col: str = "payload", every_n: int = 10, fake: bool = True):
        self.payload_col, self.every_n, self.fake = payload_col, every_n, fake

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch[self.payload_col].to_pylist()
        if not self.fake:  # pragma: no cover
            raise NotImplementedError("no video codec in this environment")
        frames = [
            list(range(0, max(1, len(p or b"") // 100), self.every_n))
            for p in payloads
        ]
        return batch.append_column(
            "frame_indices", pa.array(frames, pa.list_(pa.int32()))
        )


class ImageResizeActor:
    """decoded feature/metadata → resized-image metadata (stub: rescales the
    recorded dimensions and re-derives a deterministic feature vector; a
    real resampler slots into ``_resize_real``). Keeps the decode→resize
    actor-chain plumbing real: schema in/out, small-batch sizing, pool
    signature."""

    def __init__(
        self,
        target_w: int = 224,
        target_h: int = 224,
        meta_col: str = "meta",
        feat_col: str = "features",
        fake: bool = True,
    ):
        self.target_w, self.target_h = target_w, target_h
        self.meta_col, self.feat_col, self.fake = meta_col, feat_col, fake

    def _resize_real(self, feat, meta):  # pragma: no cover - no codec
        raise NotImplementedError(
            "no image codec in this environment; run with fake=True"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if not self.fake:  # pragma: no cover
            raise NotImplementedError("no image codec in this environment")
        metas = batch[self.meta_col]
        n = batch.num_rows
        out_meta = pa.array(
            [
                {"width": self.target_w, "height": self.target_h, "format": "fake"}
            ]
            * n,
            MEDIA_META,
        )
        # deterministic "resampled" features: scale by the area ratio
        w = pc.struct_field(metas, "width").to_numpy(zero_copy_only=False)
        h = pc.struct_field(metas, "height").to_numpy(zero_copy_only=False)
        ratio = (
            (self.target_w * self.target_h) / np.maximum(w * h, 1)
        ).astype(np.float32)
        feats = batch[self.feat_col].combine_chunks()
        dim = len(feats[0]) if n else 0
        flat = feats.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
        flat = flat * np.repeat(ratio, dim)
        offsets = pa.array(np.arange(0, (n + 1) * dim, dim), pa.int32())
        resized = pa.ListArray.from_arrays(offsets, pa.array(flat, pa.float32()))
        batch = batch.set_column(
            batch.column_names.index(self.feat_col), self.feat_col, resized
        )
        return batch.set_column(
            batch.column_names.index(self.meta_col), self.meta_col, out_meta
        )


class AudioFeatureActor:
    """audio payload → fixed-size feature frame (stub: deterministic
    pseudo-spectrogram seeded from the payload; a real feature extractor
    slots into ``_features_real``)."""

    def __init__(self, payload_col: str = "payload", n_mels: int = 8, fake: bool = True):
        self.payload_col, self.n_mels, self.fake = payload_col, n_mels, fake

    def _features_real(self, payload: bytes):  # pragma: no cover - no codec
        raise NotImplementedError("no audio codec in this environment")

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:  # pragma: no cover
            raise NotImplementedError("no audio codec in this environment")
        payloads = batch[self.payload_col].to_pylist()
        feats = []
        for p in payloads:
            seed = zlib.crc32(p or b"")
            rng = np.random.RandomState(seed & 0x7FFFFFFF)
            feats.append(rng.rand(self.n_mels).astype(np.float32).tolist())
        return batch.append_column(
            "audio_features", pa.array(feats, pa.list_(pa.float32()))
        )


class PdfTextActor:
    """REAL PDF layout-text branch (no stub): binary PDF payloads parsed
    with the in-repo minimal codec (object walk, FlateDecode inflate, Tj
    tokenization) into (n_lines, extracted_text, n_chars) — deterministic
    string outputs, so the stage is SQL-oracle-comparable via closed-form
    synthesis. Codec bound once per actor; small batches for wide binary
    payloads."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.pdfmini import extract_pdf_text

        self._extract = extract_pdf_text
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_lines, texts, n_chars = [], [], []
        for p in batch[self.payload_col].to_pylist():
            lines = self._extract(p or b"")
            joined = " ".join(lines)
            n_lines.append(len(lines))
            texts.append(joined)
            n_chars.append(len(joined))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("n_lines", pa.array(n_lines, pa.int64()))
        batch = batch.append_column("extracted_text", pa.array(texts, pa.string()))
        return batch.append_column("n_chars", pa.array(n_chars, pa.int64()))


class WavFeatureActor:
    """REAL audio decode→feature stage (no stub): binary WAV payloads are
    decoded with the in-repo RIFF/PCM16 codec and summarized as EXACT
    integer features — sample count, rate, total energy (Σx², int64),
    peak amplitude, and strict-sign zero-crossing count. No float anywhere,
    so the stage is SQL-oracle-comparable via closed-form synthesis (the
    audio sibling of :class:`PgmThumbnailActor`). Codec bound once per
    actor; small batches for wide binary payloads."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.wav import decode_wav_pcm16

        self._decode = decode_wav_pcm16
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        n_samples, rates, energies, peaks, zcs = [], [], [], [], []
        for p in batch[self.payload_col].to_pylist():
            x, rate, _ch = self._decode(p or b"")
            xi = x.astype(np.int64)
            n_samples.append(len(xi))
            rates.append(rate)
            energies.append(int((xi * xi).sum()))
            peaks.append(int(np.abs(xi).max()) if len(xi) else 0)
            zcs.append(int(np.count_nonzero(xi[1:] * xi[:-1] < 0)))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("n_samples", pa.array(n_samples, pa.int64()))
        batch = batch.append_column("sample_rate", pa.array(rates, pa.int64()))
        batch = batch.append_column("energy", pa.array(energies, pa.int64()))
        batch = batch.append_column("peak", pa.array(peaks, pa.int64()))
        return batch.append_column("zero_crossings", pa.array(zcs, pa.int64()))


class PgmThumbnailActor:
    """REAL image decode→resize→feature stage (no stub): binary PGM
    payloads are decoded with the in-repo Netpbm codec, thumbnailed by
    nearest-neighbor index gather, and summarized as an EXACT integer
    feature (``mean_e6 = pixel_sum × (10⁶ / 64)`` for an 8×8 thumb — no
    float rounding anywhere, so the stage is SQL-oracle-comparable).
    Same actor-pool shape as the stub codecs: parse table built once per
    actor, small batches for wide binary payloads."""

    def __init__(
        self,
        payload_col: str = "payload",
        out_w: int = 8,
        out_h: int = 8,
    ) -> None:
        from goose_parser_ray.functions.netpbm import decode_pgm, resize_nearest

        self._decode, self._resize = decode_pgm, resize_nearest
        self.payload_col, self.out_w, self.out_h = payload_col, out_w, out_h
        scale, rem = divmod(1_000_000, out_w * out_h)
        self._scale = scale if rem == 0 else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, means = [], [], []
        for p in batch[self.payload_col].to_pylist():
            img = self._decode(p or b"")
            h, w = img.shape
            thumb = self._resize(img, self.out_w, self.out_h)
            s = int(thumb.astype(np.int64).sum())
            if self._scale is not None:
                mean_e6 = s * self._scale  # exact integer
            else:  # pragma: no cover - non-divisor thumb sizes
                mean_e6 = round(1_000_000 * s / (self.out_w * self.out_h))
            widths.append(w)
            heights.append(h)
            means.append(mean_e6)
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        return batch.append_column("mean_e6", pa.array(means, pa.int64()))


class PpmChannelStatsActor:
    """Color sibling of :class:`PgmThumbnailActor`: binary PPM (P6)
    payloads decoded with the in-repo codec, nearest-neighbor 4×4
    thumbnail, EXACT per-channel integer means (``e6 = channel_sum ×
    62500`` — 10⁶/16 divides exactly, no float anywhere, so the stage is
    SQL-oracle-comparable). Same actor-pool shape: codec bound once per
    actor, small batches for wide binary payloads."""

    def __init__(self, payload_col: str = "payload", out: int = 4) -> None:
        from goose_parser_ray.functions.netpbm import (
            decode_ppm,
            resize_nearest,
        )

        self._decode, self._resize = decode_ppm, resize_nearest
        self.payload_col, self.out = payload_col, out
        scale, rem = divmod(1_000_000, out * out)
        if rem:
            raise ValueError(f"thumb {out}x{out} must divide 1e6 exactly")
        self._scale = scale

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights = [], []
        sums = [[], [], []]
        for p in batch[self.payload_col].to_pylist():
            img = self._decode(p or b"")
            h, w = img.shape[:2]
            thumb = self._resize(img, self.out, self.out).astype(np.int64)
            widths.append(w)
            heights.append(h)
            for c in range(3):
                sums[c].append(int(thumb[:, :, c].sum()) * self._scale)
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        for name, vals in zip(("r_e6", "g_e6", "b_e6"), sums):
            batch = batch.append_column(name, pa.array(vals, pa.int64()))
        return batch


class PngStatsActor:
    """REAL compressed-image decode stage: binary PNG payloads are decoded
    with the in-repo zlib codec (``pngmini.py`` — all five scanline
    filters, CRC-verified chunks) and summarized as EXACT integers: width,
    height, channel count and the full-raster pixel sum. Summing EVERY
    pixel (not a sampled thumbnail) makes the oracle compare a proof that
    unfiltering reconstructed the raster bit-exactly. Codec bound once per
    actor; small batches for wide binary payloads."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.pngmini import decode_png

        self._decode = decode_png
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, chans, sums = [], [], [], []
        for p in batch[self.payload_col].to_pylist():
            img = self._decode(p or b"")
            h, w = img.shape[:2]
            ch = 1 if img.ndim == 2 else img.shape[2]
            widths.append(w)
            heights.append(h)
            chans.append(ch)
            sums.append(int(img.astype(np.int64).sum()))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        batch = batch.append_column("channels", pa.array(chans, pa.int64()))
        return batch.append_column("px_sum", pa.array(sums, pa.int64()))


class SpectrumActor:
    """REAL audio frequency-analysis stage: WAV payloads decoded with the
    in-repo RIFF/PCM16 codec, then a full-clip ``np.fft.rfft``. Emitted
    features are integers with wide decision margins, so they are exact
    despite the float FFT: the dominant bin (argmax |X|, DC excluded), its
    frequency in Hz (``dom_bin * rate // n`` — integer floor), and the
    count of active bins (``|X| > 10 × peak amplitude`` — exactly-periodic
    signals have analytically zero leakage bins, ~1e-10 relative under
    float, vs ≥ 2·n/period ≫ 10 at true harmonics)."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.wav import decode_wav_pcm16

        self._decode = decode_wav_pcm16
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        doms, freqs, actives = [], [], []
        for p in batch[self.payload_col].to_pylist():
            x, rate, _ch = self._decode(p or b"")
            n = len(x)
            if n == 0:
                doms.append(0)
                freqs.append(0)
                actives.append(0)
                continue
            mag = np.abs(np.fft.rfft(x.astype(np.float64)))
            peak = float(np.abs(x).max())
            dom = int(np.argmax(mag[1:])) + 1 if len(mag) > 1 else 0
            doms.append(dom)
            freqs.append(dom * rate // n)
            actives.append(int(np.count_nonzero(mag[1:] > 10.0 * peak)))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("dom_bin", pa.array(doms, pa.int64()))
        batch = batch.append_column("dom_freq_hz", pa.array(freqs, pa.int64()))
        return batch.append_column("n_active_bins", pa.array(actives, pa.int64()))


class PngThumbRoundtripActor:
    """REAL compressed-image transform chain in one actor stage: PNG
    decode → nearest-neighbor thumbnail → PNG RE-ENCODE → decode again →
    exact integer channel sum. The mid-pipeline re-encode is what a
    production thumbnail job ships back to storage; running the second
    decode inside the same stage proves encode∘decode is the identity on
    the transformed raster (any filter/CRC bug breaks the closed-form
    oracle). Codec bound once per actor; small batches for wide binary
    payloads."""

    def __init__(self, payload_col: str = "payload", out: int = 8) -> None:
        from goose_parser_ray.functions.netpbm import resize_nearest
        from goose_parser_ray.functions.pngmini import decode_png, encode_png

        self._decode, self._encode = decode_png, encode_png
        self._resize = resize_nearest
        self.payload_col, self.out = payload_col, out

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, sums, nbytes = [], [], [], []
        for p in batch[self.payload_col].to_pylist():
            img = self._decode(p or b"")
            h, w = img.shape[:2]
            thumb = self._resize(img, self.out, self.out)
            reencoded = self._encode(thumb, "cycle")
            back = self._decode(reencoded)
            widths.append(w)
            heights.append(h)
            sums.append(int(back.astype(np.int64).sum()))
            nbytes.append(len(reencoded))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        batch = batch.append_column("thumb_sum", pa.array(sums, pa.int64()))
        return batch.append_column(
            "thumb_png_bytes", pa.array(nbytes, pa.int64())
        )


class ImageAHashActor:
    """Perceptual average-hash (aHash) over REAL decoded image bytes — the
    image-side near-duplicate fingerprint (the classic pre-embedding
    image dedup: identical/lightly-edited images collide, distinct ones
    don't). Decodes binary PGM payloads with the in-repo Netpbm codec,
    block-averages to 8×8 and emits one bit per block (block mean > image
    mean, compared in EXACT integer form: block_sum × n_blocks >
    total_sum — no float anywhere, so the stage is SQL-oracle-comparable
    on closed-form images). The 64 bits ship as two int64 halves
    (``hash_lo`` bits 0–31, ``hash_hi`` bits 32–63) to stay inside signed
    SQL BIGINT range. Requires images whose height/width are multiples of
    8 (true for this repo's synthesized corpora; raises otherwise)."""

    def __init__(self, payload_col: str = "payload", id_col: str = "doc_id"):
        from goose_parser_ray.functions.netpbm import decode_pgm

        self._decode = decode_pgm
        self._payload_col, self._id_col = payload_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, los, his = [], [], []
        for rid, payload in zip(
            batch[self._id_col].to_pylist(),
            batch[self._payload_col].to_pylist(),
        ):
            img = self._decode(payload).astype(np.int64)
            h, w = img.shape
            if h % 8 or w % 8:
                raise ValueError(
                    f"aHash needs 8-divisible dims, got {h}x{w}"
                )
            bh, bw = h // 8, w // 8
            blocks = img.reshape(8, bh, 8, bw).sum(axis=(1, 3))  # (8, 8)
            total = int(img.sum())
            bits = (blocks * 64 > total).astype(np.uint64).ravel()
            lo = int((bits[:32] << np.arange(32, dtype=np.uint64)).sum())
            hi = int((bits[32:] << np.arange(32, dtype=np.uint64)).sum())
            ids.append(rid)
            los.append(lo)
            his.append(hi)
        return pa.Table.from_pydict(
            {
                self._id_col: pa.array(ids),
                "hash_lo": pa.array(los, pa.int64()),
                "hash_hi": pa.array(his, pa.int64()),
            }
        )


class GifStatsActor:
    """REAL palette-image decode stage: binary GIF89a payloads are decoded
    with the in-repo LZW codec (``gifmini.py`` — variable-width codes,
    12-bit dictionary resets, sub-block framing) and summarized as EXACT
    integers: width, height, palette size, the count of DISTINCT palette
    indices actually used, and the full-raster RGB sum after palette
    lookup. Summing every palette-mapped pixel makes the oracle compare a
    proof that LZW reconstructed the index stream bit-exactly. Codec bound
    once per actor; small batches for wide binary payloads."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.gifmini import decode_gif

        self._decode = decode_gif
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, psizes, used, sums = [], [], [], [], []
        for p in batch[self.payload_col].to_pylist():
            w, h, pal, idx = self._decode(p or b"")
            widths.append(w)
            heights.append(h)
            psizes.append(len(pal))
            used.append(int(np.unique(idx).size))
            sums.append(int(pal.astype(np.int64)[idx.ravel()].sum()))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        batch = batch.append_column(
            "palette_size", pa.array(psizes, pa.int64())
        )
        batch = batch.append_column("colors_used", pa.array(used, pa.int64()))
        return batch.append_column("rgb_sum", pa.array(sums, pa.int64()))


def dhash_from_raster(img: "np.ndarray") -> "tuple[int, int]":
    """64-bit difference hash of a grayscale raster as (hi, lo) int64
    halves — the shared kernel behind :class:`ImageDHashActor` and the
    video frame-fingerprint path. Equal-size 8×9 block SUMS (compare-sum
    ≡ compare-mean, exact), bit = cell brighter than right neighbor.
    Requires height % 8 == 0 and width % 9 == 0."""
    h, w = img.shape
    if h % 8 or w % 9:
        raise ValueError("dhash: raster dims must be 8k x 9m")
    sums = img.astype(np.int64).reshape(8, h // 8, 9, w // 9).sum(axis=(1, 3))
    bits = (sums[:, :-1] > sums[:, 1:]).astype(np.int64)
    bj = np.arange(8, dtype=np.int64)[None, :]
    bi4 = np.arange(4, dtype=np.int64)[:, None]
    wgt = (np.int64(1) << (8 * bi4 + bj)).astype(np.int64)
    return int((bits[4:] * wgt).sum()), int((bits[:4] * wgt).sum())


class ImageDHashActor:
    """Perceptual difference-hash (dHash) over REAL decoded grayscale
    images: PGM payloads are decoded with the in-repo Netpbm codec, the
    raster is reduced to an 8-row × 9-column grid of integer block sums
    (equal-size blocks, so comparing sums ≡ comparing means — exact, no
    float resize), and each of the 64 bits records whether a grid cell is
    brighter than its right neighbor. Pixel-level noise that does not flip
    a block comparison leaves the hash unchanged — the property that makes
    dHash a NEAR-dup key where a byte hash is only an exact-dup key. The
    64 bits are returned as two int64 columns (``dhash_hi`` bits 32..63,
    ``dhash_lo`` bits 0..31) so downstream groupbys and SQL twins stay in
    signed-BIGINT range. Requires height % 8 == 0 and width % 9 == 0
    (raises otherwise — resize upstream with ``netpbm.resize_nearest``)."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.netpbm import decode_pgm

        self._decode = decode_pgm
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        los, his = [], []
        for p in batch[self.payload_col].to_pylist():
            hi, lo = dhash_from_raster(self._decode(p or b""))
            his.append(hi)
            los.append(lo)
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("dhash_lo", pa.array(los, pa.int64()))
        return batch.append_column("dhash_hi", pa.array(his, pa.int64()))


class VideoFrameSampleActor:
    """REAL frame-sampling stage over a multi-frame container: animated
    GIF89a payloads are decoded frame-by-frame with the in-repo codec
    (``gifmini.decode_gif_frames`` — per-frame Graphic Control delays,
    shared global color table, one LZW stream per frame), every
    ``stride``-th frame is kept (frame 0 always — the thumbnail
    convention), and each kept frame is summarized as EXACT integers:
    frame number, GCE delay, count of distinct palette indices used, and
    the palette-mapped RGB sum. One input row fans out to one row PER
    SAMPLED FRAME — the stage a video pipeline runs before per-frame
    feature extraction. Codec bound once per actor; small batches for
    wide binary payloads."""

    def __init__(self, payload_col: str = "payload", stride: int = 2) -> None:
        from goose_parser_ray.functions.gifmini import decode_gif_frames

        self._decode = decode_gif_frames
        self.payload_col = payload_col
        self.stride = int(stride)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, frame_nos, delays, used, sums = [], [], [], [], []
        ids = batch["doc_id"].to_pylist()
        for d, p in zip(ids, batch[self.payload_col].to_pylist()):
            w, h, pal, frames, dl = self._decode(p or b"")
            pal64 = pal.astype(np.int64)
            for k in range(0, len(frames), self.stride):
                idx = frames[k]
                doc_ids.append(d)
                frame_nos.append(k)
                delays.append(int(dl[k]))
                used.append(int(np.unique(idx).size))
                sums.append(int(pal64[idx.ravel()].sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "frame_no": pa.array(frame_nos, pa.int64()),
                "delay_cs": pa.array(delays, pa.int64()),
                "colors_used": pa.array(used, pa.int64()),
                "rgb_sum": pa.array(sums, pa.int64()),
            }
        )


class BmpStatsActor:
    """REAL BMP decode stage (24-bit BI_RGB via ``bmpmini.py``): binary
    payloads decoded once per batch inside the actor, summarized as EXACT
    integers — width, height, full-raster per-channel sums, and the
    TOP-LEFT pixel's channel values. The corner pixel is the orientation
    proof: BMP rasters are stored bottom-up in BGR, so an encoder or
    decoder that mishandles row flipping, channel order, or the 4-byte
    row padding shifts (r00, g00, b00) or the sums and breaks the oracle
    hash. Codec bound once per actor; small batches for wide binaries."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.bmpmini import decode_bmp

        self._decode = decode_bmp
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights = [], []
        sums = [[], [], []]
        corner = [[], [], []]
        for p in batch[self.payload_col].to_pylist():
            img = self._decode(p or b"").astype(np.int64)
            h, w = img.shape[:2]
            widths.append(w)
            heights.append(h)
            for c in range(3):
                sums[c].append(int(img[:, :, c].sum()))
                corner[c].append(int(img[0, 0, c]))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        for name, vals in zip(("r_sum", "g_sum", "b_sum"), sums):
            batch = batch.append_column(name, pa.array(vals, pa.int64()))
        for name, vals in zip(("r00", "g00", "b00"), corner):
            batch = batch.append_column(name, pa.array(vals, pa.int64()))
        return batch


class TiffStatsActor:
    """REAL TIFF decode stage (baseline uncompressed via ``tiffmini.py``):
    the IFD is walked and multi-strip rasters reassembled per payload, then
    summarized as EXACT integers — width, height, per-channel sums, the
    top-left pixel (channel-order/orientation proof) and ``n_strips`` (the
    reassembly proof: a decoder that reads only the first strip, or
    mis-sizes strips, changes the sums or raises). Codec bound once per
    actor; small batches for wide binaries."""

    def __init__(self, payload_col: str = "payload") -> None:
        from goose_parser_ray.functions.tiffmini import decode_tiff

        self._decode = decode_tiff
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, strips = [], [], []
        sums = [[], [], []]
        corner = [[], [], []]
        for p in batch[self.payload_col].to_pylist():
            raw = p or b""
            img = self._decode(raw).astype(np.int64)
            if img.ndim != 3:
                raise ValueError("TIFF stats stage expects RGB payloads")
            h, w = img.shape[:2]
            widths.append(w)
            heights.append(h)
            # count strips straight from the wire (offset table length)
            import struct as _struct

            endian = "<" if raw[:2] == b"II" else ">"
            (ifd,) = _struct.unpack_from(endian + "I", raw, 4)
            (n_entries,) = _struct.unpack_from(endian + "H", raw, ifd)
            n_strips = 0
            for i in range(n_entries):
                tag, _typ, count = _struct.unpack_from(
                    endian + "HHI", raw, ifd + 2 + 12 * i
                )
                if tag == 273:
                    n_strips = count
            strips.append(n_strips)
            for c in range(3):
                sums[c].append(int(img[:, :, c].sum()))
                corner[c].append(int(img[0, 0, c]))
        batch = batch.drop_columns([self.payload_col])
        batch = batch.append_column("width", pa.array(widths, pa.int64()))
        batch = batch.append_column("height", pa.array(heights, pa.int64()))
        batch = batch.append_column("n_strips", pa.array(strips, pa.int64()))
        for name, vals in zip(("r_sum", "g_sum", "b_sum"), sums):
            batch = batch.append_column(name, pa.array(vals, pa.int64()))
        for name, vals in zip(("r00", "g00", "b00"), corner):
            batch = batch.append_column(name, pa.array(vals, pa.int64()))
        return batch
