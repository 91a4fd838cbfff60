"""Multimodal column stages: opaque binary payloads + typed metadata.

Images/audio/video ride as ``binary`` columns with struct metadata. One
magic-byte sniff (:func:`sniff_format`) names each image's format; the
metadata sniff reports it and ``DecoderBackend`` decodes with that
format's codec alone. Pixel decode and feature extraction are REAL
for every shipped codec (PNG/GIF/JPEG incl. progressive+arithmetic/BMP/
TIFF/lossless WebP/netpbm — pure zlib+numpy, ``kernels/``). Lossy VP8
WebP is sniffed (format and dimensions) but not decoded. An unrecognised
format raises NotImplementedError (strict mode) or gets a deterministic
fake (fake mode). The Ray-side plumbing is real and
tested: schema, per-batch stage callables (passed to ``map_batches`` as
instances, so each batch runs as a plain task), small batch sizes for
large payloads, metadata extraction without full decode.

Reference anchor: the engine's image path (figure crops,
``/root/reference/src/yomitoku/export/export_markdown.py:70-111``) emits
binary blobs as columns instead of side files (SURVEY S9), and these stages
are the continuation of that column into decode / feature-extract
operators a training-data pipeline needs.
"""

from __future__ import annotations

import hashlib
import importlib
import struct
import zlib

import numpy as np
import pyarrow as pa

from ..kernels.png import block_mean_embedding, to_gray

IMAGE_META = pa.struct(
    [
        ("format", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("n_bytes", pa.int64()),
        ("sha256", pa.string()),
    ]
)

IMAGE_FEATURES = pa.struct(
    [
        ("embedding", pa.list_(pa.float32(), 16)),
        ("mean_luma", pa.float32()),
    ]
)


def sniff_format(blob: bytes) -> str:
    """Container format from the magic bytes alone: ``png``, ``jpeg``,
    ``gif``, ``bmp``, ``tiff``, ``webp``, ``pnm`` or ``unknown``.

    The one format decision: :func:`sniff_image_meta` reports it and
    :meth:`DecoderBackend.decode_image` picks its codec by it.
    """
    if blob[:8] == b"\x89PNG\r\n\x1a\n" and len(blob) >= 24:
        return "png"
    if blob[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if blob[:6] in (b"GIF87a", b"GIF89a") and len(blob) >= 10:
        return "gif"
    if blob[:2] == b"BM" and len(blob) >= 26:
        return "bmp"
    if blob[:4] in (b"II*\x00", b"MM\x00*"):
        return "tiff"
    if blob[:4] == b"RIFF" and blob[8:12] == b"WEBP":
        return "webp"
    # len check first: b"" in b"123456" is True, so a bare b"P" would match
    if len(blob) >= 2 and blob[:1] == b"P" and blob[1:2] in b"123456":
        return "pnm"
    return "unknown"


def sniff_image_meta(blob: bytes) -> dict:
    """Header-only metadata sniff (format and dimensions) — no decode.

    Real parsing of container headers is cheap and dependency-free; this is
    NOT stubbed. Unknown formats, and headers too broken to give
    dimensions, report -1 dims.
    """
    fmt, w, h = sniff_format(blob), -1, -1
    try:
        if fmt == "png":
            w, h = struct.unpack(">II", blob[16:24])
        elif fmt == "jpeg":
            i = 2
            while i + 9 < len(blob):
                if blob[i] != 0xFF:
                    break
                marker = blob[i + 1]
                seg_len = struct.unpack(">H", blob[i + 2 : i + 4])[0]
                if marker in (0xC0, 0xC1, 0xC2, 0xC3, 0xC9, 0xCA):
                    h, w = struct.unpack(">HH", blob[i + 5 : i + 9])
                    break
                i += 2 + seg_len
        elif fmt == "gif":
            w, h = struct.unpack("<HH", blob[6:10])
        elif fmt == "bmp":
            w, hs = struct.unpack("<ii", blob[18:26])
            h = abs(hs)
        elif fmt == "tiff":
            from ..kernels.tiff import _H, _W, _read_ifd

            bo = "<" if blob[:2] == b"II" else ">"
            tags, _ = _read_ifd(blob, struct.unpack(bo + "I", blob[4:8])[0], bo)
            w = tags.get(_W, [-1])[0]
            h = tags.get(_H, [-1])[0]
        elif fmt == "webp":
            from ..kernels.webp import sniff_webp_dims

            w, h = sniff_webp_dims(blob)
        elif fmt == "pnm":
            from ..kernels.netpbm import _tokens

            (w, h), _ = _tokens(blob, 2, 2)
    except Exception:  # a header too broken to give its dimensions
        w = h = -1
    return {
        "format": fmt,
        "width": int(w),
        "height": int(h),
        "n_bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


# sniffed format -> (module under kernels/, its decode function); each
# codec is imported on first use
_CODECS = {
    "png": ("png", "decode_png"),
    "gif": ("gif", "decode_gif"),
    "jpeg": ("jpeg", "decode_jpeg"),
    "bmp": ("bmp", "decode_bmp"),
    "tiff": ("tiff", "decode_tiff"),
    "webp": ("webp", "decode_webp"),
    "pnm": ("netpbm", "decode_netpbm"),
}


def _decode_as(fmt: str, blob: bytes) -> np.ndarray:
    """(H, W, C) uint8 pixels from the codec of a known ``fmt``; raises
    that codec's ``ValueError`` subclass on a broken or unsupported
    stream."""
    module, fn = _CODECS[fmt]
    px = getattr(importlib.import_module(f"..kernels.{module}", __package__), fn)(blob)
    if fmt == "tiff":
        px = px[0]  # first page (paging is the paged source's job)
    return px[:, :, None] if px.ndim == 2 else px


class DecoderBackend:
    """Pixel decode, dispatched on :func:`sniff_format`: REAL for PNG, GIF,
    JPEG (baseline, progressive SOF2 incl. successive approximation, and
    arithmetic-coded SOF9/SOF10), BMP, TIFF, lossless (VP8L) WebP and
    netpbm — pure zlib+numpy codecs in ``kernels/``.

    Lossy VP8 WebP is not decoded (its codec raises ``WebpError``). In
    strict mode an unrecognised format raises ``NotImplementedError`` and a
    recognised one that fails to decode raises its codec's ``ValueError``
    subclass. In fake mode every failure yields deterministic stand-in
    pixels instead."""

    def __init__(self, mode: str = "strict"):
        if mode not in ("strict", "fake"):
            raise ValueError(mode)
        self.mode = mode

    def decode_image(self, blob: bytes) -> np.ndarray:
        """blob -> (H, W, C) uint8 pixels."""
        fmt = sniff_format(blob)
        try:
            if fmt == "unknown":
                raise NotImplementedError(
                    f"unrecognised image format (decoded: {'/'.join(_CODECS)}); "
                    "run with DecoderBackend(mode='fake') for the "
                    "deterministic stand-in"
                )
            return _decode_as(fmt, blob)
        except (ValueError, NotImplementedError):
            if self.mode == "strict":
                raise
        # Deterministic fake pixels from a stable digest of the bytes —
        # stands in for a real decode so downstream feature plumbing
        # (ANN, dedup on embeddings) is exercisable for any format.
        h = hashlib.blake2b(blob, digest_size=48).digest()
        px = np.frombuffer(h, dtype=np.uint8)[: 4 * 4 * 3].reshape(4, 4, 3)
        return px.copy()

    def image_features(self, blob: bytes) -> dict:
        """Pixels -> real features: Rec.601 mean luma + 4x4 block-mean
        gray signature (16-dim, [-1, 1])."""
        px = self.decode_image(blob)
        return {
            "embedding": block_mean_embedding(px, grid=4).tolist(),
            "mean_luma": float(to_gray(px).mean()),
        }


class ImageMetaStage:
    """Stage: binary image column -> typed metadata struct.

    Header sniffing only — cheap enough for full-corpus sweeps. Use small
    ``batch_size`` (<=16) when payloads are multi-MB so a batch fits a
    worker heap.
    """

    def __init__(self, blob_column: str = "image"):
        self.blob_column = blob_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        metas = [
            sniff_image_meta(blob or b"")
            for blob in batch.column(self.blob_column).to_pylist()
        ]
        return batch.append_column("image_meta", pa.array(metas, IMAGE_META))


class ImageFeatureStage:
    """Stage: binary image column -> feature struct.

    Decodable payloads get REAL pixel features (decode + luma + block-mean
    signature); the rest follow the backend mode — deterministic fake
    pixels ('fake') or a raise at first batch ('strict', the correct
    behavior when a real decoder is required but absent).
    """

    def __init__(self, blob_column: str = "image", backend_mode: str = "fake"):
        self.blob_column = blob_column
        self.backend = DecoderBackend(backend_mode)

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [
            self.backend.image_features(blob or b"")
            for blob in batch.column(self.blob_column).to_pylist()
        ]
        return batch.append_column("image_features", pa.array(feats, IMAGE_FEATURES))


AUDIO_FEATURES = pa.struct(
    [
        ("duration_ms", pa.int64()),
        ("sample_rate", pa.int64()),
        ("rms_milli", pa.int64()),
        ("zcr_per_sec_milli", pa.int64()),
        ("dominant_hz", pa.int64()),
        ("error", pa.string()),
    ]
)


class AudioFeatureStage:
    """Stage: binary WAV column -> REAL signal features.

    PCM decode + RMS/ZCR/rFFT-dominant-frequency run with stdlib wave +
    numpy — no audio library, no stub. Undecodable payloads get a per-row
    error field (the batch never fails). Integer (milli-scaled) outputs
    keep downstream hashing float-free.
    """

    def __init__(self, blob_column: str = "audio"):
        self.blob_column = blob_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.audio import AudioError, audio_features

        feats = []
        for blob in batch.column(self.blob_column).to_pylist():
            try:
                f = audio_features(blob or b"")
                f["error"] = None
            except AudioError as e:
                f = {
                    "duration_ms": 0,
                    "sample_rate": 0,
                    "rms_milli": 0,
                    "zcr_per_sec_milli": 0,
                    "dominant_hz": 0,
                    "error": str(e),
                }
            feats.append(f)
        return batch.append_column("audio_features", pa.array(feats, AUDIO_FEATURES))


def make_fake_png(width: int, height: int, seed: int = 0) -> bytes:
    """Minimal valid PNG header + deterministic junk payload (for tests)."""
    ihdr_data = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    ihdr = b"IHDR" + ihdr_data
    chunk = struct.pack(">I", len(ihdr_data)) + ihdr + struct.pack(
        ">I", zlib.crc32(ihdr)
    )
    payload = hashlib.blake2b(str(seed).encode(), digest_size=32).digest()
    return b"\x89PNG\r\n\x1a\n" + chunk + payload


class VideoFrameFeatureStage:
    """Stage: MJPEG-AVI column -> uniformly sampled decoded-frame
    feature rows (vid_id, frame_idx, n_frames, fps, mean_luma_milli).

    Real video plumbing end-to-end: the AVI index walk finds frame chunks
    WITHOUT decoding, only the <= n_sample sampled frames pay a JPEG
    decode — per-video cost is O(bytes scanned + k decodes), independent
    of total frame count. Malformed containers/frames become error rows,
    never failed blocks.
    """

    def __init__(self, n_sample: int = 3, blob_column: str = "video"):
        self.n_sample = n_sample
        self.blob_column = blob_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.avi import AviError, decode_avi_frame, index_avi

        vids, idxs, totals, fpss, lumas, errs = [], [], [], [], [], []

        def emit(vid, idx, total, fps, luma, err):
            vids.append(vid)
            idxs.append(idx)
            totals.append(total)
            fpss.append(fps)
            lumas.append(luma)
            errs.append(err)

        for vid, blob in zip(
            batch.column("vid_id").to_pylist(),
            batch.column(self.blob_column).to_pylist(),
        ):
            try:
                meta = index_avi(blob or b"")
            except AviError as e:
                emit(vid, -1, 0, -1, -1, str(e))
                continue
            n = meta["n_frames"]
            k = min(self.n_sample, n)
            if k == 1:
                positions = [0]
            else:
                positions = sorted({i * (n - 1) // (k - 1) for i in range(k)})
            for p in positions:
                try:
                    px = decode_avi_frame(blob, meta["frames"][p])
                except AviError as e:
                    emit(vid, p, n, meta["fps"], -1, str(e))
                    continue
                if px.ndim == 2:
                    px = px[:, :, None]
                luma_milli = int(round(1000 * float(to_gray(px).mean())))
                emit(vid, p, n, meta["fps"], luma_milli, None)
        return pa.table(
            {
                "vid_id": pa.array(vids, pa.int64()),
                "frame_idx": pa.array(idxs, pa.int32()),
                "n_frames": pa.array(totals, pa.int32()),
                "fps": pa.array(fpss, pa.int32()),
                "mean_luma_milli": pa.array(lumas, pa.int64()),
                "error": pa.array(errs, pa.string()),
            }
        )


class ImageDHashStage:
    """Stage: binary image column -> 64-bit difference hash (dHash)
    — the standard perceptual fingerprint for image near-dup detection in
    web-scale multimodal corpora (LAION-style dedup).

    Fully integer-deterministic: decode (any repo codec) -> nearest
    resize to 9x8 -> integer Rec.601 luma (299R+587G+114B, no division)
    -> 64 horizontal-gradient bits via strict ``>``. Identical pixel
    content hashes identically regardless of (lossless) container
    format. Undecodable rows get dhash 0 + a per-row error (the batch
    never fails).
    """

    def __init__(self, blob_column: str = "image"):
        self.blob_column = blob_column
        self.backend = DecoderBackend(mode="strict")

    @staticmethod
    def dhash_of_pixels(px: np.ndarray) -> int:
        from ..kernels.png import resize_nearest

        if px.ndim == 2:
            px = px[:, :, None]
        if px.shape[2] == 4:
            px = px[:, :, :3]
        small = resize_nearest(px, 9, 8).astype(np.int64)
        c = small.shape[2]
        if c >= 3:
            luma = 299 * small[:, :, 0] + 587 * small[:, :, 1] + 114 * small[:, :, 2]
        else:
            luma = 1000 * small[:, :, 0]
        bits = (luma[:, 1:] > luma[:, :-1]).ravel()  # 8 rows x 8 diffs
        h = 0
        for b in bits:
            h = (h << 1) | int(b)
        return h

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes, errs = [], []
        for blob in batch.column(self.blob_column).to_pylist():
            try:
                px = self.backend.decode_image(blob or b"")
                hashes.append(self.dhash_of_pixels(px))
                errs.append(None)
            except (ValueError, NotImplementedError) as e:
                hashes.append(0)
                errs.append(str(e) or type(e).__name__)
        # bit-preserving signed storage (the simhash convention)
        arr = np.array(hashes, dtype=np.uint64).view(np.int64)
        return batch.append_column(
            "dhash", pa.array(arr, pa.int64())
        ).append_column("dhash_error", pa.array(errs, pa.string()))


class AudioFingerprintStage:
    """Stage: WAV column -> 64-bit spectral fingerprint — the audio
    counterpart of :class:`ImageDHashStage` (constellation-style audio
    near-dup detection, Shazam-family reduced to its deterministic core).

    The clip splits into 16 equal frames; each frame contributes a 4-bit
    log2 bucket of its dominant rFFT frequency (DC excluded, silent
    frames -> 0). Amplitude-INVARIANT by construction (argmax of the
    spectrum is unchanged under volume scaling) and robust to small added
    noise (each frame's dominant bin must flip to change its nibble).
    Undecodable rows get fingerprint 0 + a per-row error.
    """

    N_FRAMES = 16

    def __init__(self, blob_column: str = "audio"):
        self.blob_column = blob_column

    @staticmethod
    def fingerprint_of(samples: np.ndarray, rate: int) -> int:
        n = len(samples)
        if n < AudioFingerprintStage.N_FRAMES:
            return 0
        fp = 0
        flen = n // AudioFingerprintStage.N_FRAMES
        for f in range(AudioFingerprintStage.N_FRAMES):
            fr = samples[f * flen : (f + 1) * flen]
            spec = np.abs(np.fft.rfft(fr))
            nib = 0
            if len(spec) > 1:
                k = 1 + int(np.argmax(spec[1:]))
                if spec[k] > 1e-9:  # silent frame -> 0
                    hz = k * rate / flen
                    # 4-bit log2 bucket: ~32 Hz..16 kHz usable range
                    nib = int(np.clip(int(np.log2(max(hz, 1.0))) - 4, 0, 15))
            fp = (fp << 4) | nib
        return fp

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..kernels.audio import AudioError, decode_wav

        fps, errs = [], []
        for blob in batch.column(self.blob_column).to_pylist():
            try:
                x, rate = decode_wav(blob or b"")
                fps.append(self.fingerprint_of(x, rate))
                errs.append(None)
            except AudioError as e:
                fps.append(0)
                errs.append(str(e))
        arr = np.array(fps, dtype=np.uint64).view(np.int64)
        return batch.append_column(
            "audio_fp", pa.array(arr, pa.int64())
        ).append_column("fp_error", pa.array(errs, pa.string()))
