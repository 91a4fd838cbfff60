"""Pure-stdlib PNG codec: round trips, filter decoding, real image features."""

import numpy as np
import pyarrow as pa
import pytest

from yomitoku_ray.kernels.png import (
    PngError,
    block_mean_embedding,
    decode_png,
    encode_png,
    resize_nearest,
    to_gray,
)
from yomitoku_ray.stages.multimodal import DecoderBackend, ImageFeatureStage


def _rand_px(h, w, c, seed):
    return np.random.RandomState(seed).randint(0, 256, size=(h, w, c), dtype=np.uint8)


@pytest.mark.parametrize("channels", [1, 2, 3, 4])
def test_round_trip_exact(channels):
    px = _rand_px(13, 7, channels, seed=channels)
    out = decode_png(encode_png(px))
    assert out.shape == px.shape
    assert (out == px).all()


def test_rejects_garbage():
    with pytest.raises(PngError):
        decode_png(b"not a png")
    with pytest.raises(PngError):
        decode_png(encode_png(_rand_px(4, 4, 3, 0))[:30])  # truncated


def _filtered_png(px, filter_type):
    """Assemble a PNG whose rows use the given filter, by applying the
    forward filter to known pixels (exercises the decoder's unfilter path
    beyond the encoder's filter-0)."""
    import struct
    import zlib

    h, w, ch = px.shape
    stride = w * ch
    flat = px.reshape(h, stride).astype(np.int64)
    raw = bytearray()
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        cur = flat[y]
        if filter_type == 1:
            left = np.concatenate([np.zeros(ch, dtype=np.int64), cur[:-ch]])
            enc = (cur - left) & 0xFF
        elif filter_type == 2:
            enc = (cur - prev) & 0xFF
        elif filter_type == 3:
            left = np.concatenate([np.zeros(ch, dtype=np.int64), cur[:-ch]])
            enc = (cur - ((left + prev) >> 1)) & 0xFF
        elif filter_type == 4:
            enc = np.zeros(stride, dtype=np.int64)
            for x in range(stride):
                a = cur[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
                enc[x] = (cur[x] - pred) & 0xFF
        else:
            enc = cur
        raw.append(filter_type)
        raw.extend(int(v) for v in enc)
        prev = cur

    def chunk(ctype, data):
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(
            ">I", zlib.crc32(ctype + data)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, {1: 0, 3: 2, 4: 6, 2: 4}[ch], 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


@pytest.mark.parametrize("filter_type", [1, 2, 3, 4])
def test_all_filters_decode(filter_type):
    px = _rand_px(9, 6, 3, seed=10 + filter_type)
    out = decode_png(_filtered_png(px, filter_type))
    assert (out == px).all()


def test_palette_expansion():
    import struct
    import zlib

    # 2x2 palette image: indices 0..3 into a 4-color palette.
    palette = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 9, 9, 9])
    idx = bytes([0, 0, 1, 0, 2, 3])  # two rows: filter0+2 indices each

    def chunk(ctype, data):
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(
            ">I", zlib.crc32(ctype + data)
        )

    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"PLTE", palette)
        + chunk(b"IDAT", zlib.compress(idx))
        + chunk(b"IEND", b"")
    )
    out = decode_png(blob)
    assert out.shape == (2, 2, 3)
    assert out[0, 0].tolist() == [255, 0, 0]
    assert out[1, 1].tolist() == [9, 9, 9]


def test_real_features_white_vs_black():
    white = np.full((8, 8, 3), 255, dtype=np.uint8)
    black = np.zeros((8, 8, 3), dtype=np.uint8)
    batch = pa.table(
        {"image": pa.array([encode_png(white), encode_png(black)], pa.binary())}
    )
    feats = (
        ImageFeatureStage(backend_mode="strict")(batch)
        .column("image_features")
        .to_pylist()
    )
    assert feats[0]["mean_luma"] == pytest.approx(1.0, abs=1e-3)
    assert feats[1]["mean_luma"] == pytest.approx(0.0, abs=1e-3)
    assert all(v > 0.99 for v in feats[0]["embedding"])
    assert all(v < -0.99 for v in feats[1]["embedding"])


def test_resize_kernel_round_trip_and_undecodable():
    """decode -> nearest resize -> PNG re-encode keeps the sampled pixels
    exactly; an undecodable payload raises in strict mode (nothing to
    resize)."""
    px = _rand_px(8, 8, 3, seed=5)
    small = resize_nearest(DecoderBackend("strict").decode_image(encode_png(px)), 4, 4)
    assert small.shape == (4, 4, 3)
    assert (small == px[::2, ::2]).all()
    assert (decode_png(encode_png(small)) == small).all()
    with pytest.raises(NotImplementedError):
        DecoderBackend("strict").decode_image(b"not png")


def test_gray_and_embedding_kernels():
    px = np.zeros((4, 8, 3), dtype=np.uint8)
    px[:, 4:] = 255  # left half black, right half white
    g = to_gray(px)
    assert g[:, :4].max() == 0.0 and g[:, 4:].min() == 1.0
    emb = block_mean_embedding(px, grid=2)
    assert emb[0] == pytest.approx(-1.0) and emb[1] == pytest.approx(1.0)


def test_images_query_pins_known_values(ray_session):
    """The image_features_summary driver query: formats sniffed, REAL luma
    for analytically-known images, junk isolated."""
    import sys

    sys.path.insert(0, "/root/repo")
    from __ray_entry__ import _image_features_summary
    from yomitoku_ray.synth.images import gen_image

    df = _image_features_summary("/root/testdata/sf0.001").set_index("img_id")
    assert len(df) >= 200
    assert set(df["format"]) == {"png", "gif", "jpeg", "bmp", "tiff", "webp", "unknown"}
    assert (df[df["kind"] == "junk"]["format"] == "unknown").all()
    # pin one solid image's luma analytically (img 0 is a solid png)
    row0 = gen_image(0)
    assert row0["kind"] == "png"
    px = decode_png(row0["image"])
    luma = to_gray(px).mean()
    assert df.loc[0, "mean_luma_milli"] == round(1000 * luma)
    assert (df.loc[0, ["height", "width"]].to_numpy() == px.shape[:2]).all()
    # pin a solid JPEG's luma analytically: flat blocks decode exactly, so
    # the decoded luma matches the encoder input's Rec.601 gray
    from yomitoku_ray.kernels.jpeg import decode_jpeg

    jpg_id = next(i for i in range(48) if gen_image(i)["kind"] in ("jpeg", "jpeg420") and i % 3 == 0)
    rowj = gen_image(jpg_id)
    pxj = decode_jpeg(rowj["image"])
    if pxj.ndim == 2:
        pxj = pxj[:, :, None]
    lumaj = to_gray(pxj).mean()
    assert df.loc[jpg_id, "mean_luma_milli"] == round(1000 * lumaj)
    assert (df.loc[jpg_id, ["height", "width"]].to_numpy() == pxj.shape[:2]).all()


class TestPngVariants:
    """Adam7 interlace, sub-byte depths, 16-bit — hand-built files with
    analytically-known pixels."""

    @staticmethod
    def _build(w, h, depth, ctype_id, raw, interlace=0, plte=None):
        import struct
        import zlib

        def chunk(ctype, data):
            return (
                struct.pack(">I", len(data))
                + ctype
                + data
                + struct.pack(">I", zlib.crc32(ctype + data))
            )

        ihdr = struct.pack(">IIBBBBB", w, h, depth, ctype_id, 0, 0, interlace)
        out = b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
        if plte is not None:
            out += chunk(b"PLTE", plte)
        return out + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")

    def test_adam7_gray(self):
        img = np.arange(25, dtype=np.uint8).reshape(5, 5)
        passes = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
                  (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))
        raw = b""
        for x0, y0, dx, dy in passes:
            sub = img[y0::dy, x0::dx]
            if sub.size == 0:
                continue
            for r in sub:
                raw += b"\x00" + r.tobytes()
        got = decode_png(self._build(5, 5, 8, 0, raw, interlace=1))
        assert np.array_equal(got[:, :, 0], img)

    def test_adam7_rgb_roundtrip_via_scatter(self):
        rng = np.random.default_rng(8)
        img = rng.integers(0, 256, (11, 9, 3), np.uint8)
        passes = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
                  (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))
        raw = b""
        for x0, y0, dx, dy in passes:
            sub = img[y0::dy, x0::dx]
            if sub.size == 0:
                continue
            for r in sub:
                raw += b"\x00" + r.tobytes()
        got = decode_png(self._build(9, 11, 8, 2, raw, interlace=1))
        assert np.array_equal(got, img)

    def test_1bit_gray(self):
        raw = b"\x00" + bytes([0b10101010, 0b10000000])
        raw += b"\x00" + bytes([0b01010101, 0b01000000])
        got = decode_png(self._build(10, 2, 1, 0, raw))
        want = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0]) * 255
        assert np.array_equal(got[0, :, 0], want)
        assert np.array_equal(got[1, :, 0], 255 - want)

    def test_2bit_and_4bit_palette(self):
        plte = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120])
        got = decode_png(self._build(3, 1, 4, 3, b"\x00" + bytes([0x01, 0x20]), plte=plte))
        assert got.tolist() == [[[10, 20, 30], [40, 50, 60], [70, 80, 90]]]
        # 2-bit: indices 0,1,2,3 packed in one byte
        got = decode_png(self._build(4, 1, 2, 3, b"\x00" + bytes([0b00011011]), plte=plte))
        assert got.tolist() == [
            [[10, 20, 30], [40, 50, 60], [70, 80, 90], [100, 110, 120]]
        ]

    def test_16bit_gray_and_rgb_subfilter(self):
        raw = b"\x00" + bytes([0x12, 0x34, 0xFF, 0xEE])
        got = decode_png(self._build(2, 1, 16, 0, raw))
        assert got[0, :, 0].tolist() == [0x12, 0xFF]  # PIL-style high byte
        px = np.array([[[1000, 2000, 3000], [1100, 2100, 3100]]], dtype=">u2")
        arr = np.frombuffer(px.tobytes(), np.uint8).astype(int)
        f = arr.copy()
        for x in range(6, 12):
            f[x] = (arr[x] - arr[x - 6]) & 0xFF  # sub filter, bpp=6
        got = decode_png(self._build(2, 1, 16, 2, b"\x01" + bytes(f.astype(np.uint8))))
        assert np.array_equal(got, (px.astype(np.uint32) >> 8).astype(np.uint8))


def test_resize_after_decode_all_formats():
    """Every real codec decodes exactly through the backend, so a resize
    of the decoded pixels equals the resize of the source, re-encoded as
    PNG."""
    from yomitoku_ray.kernels.bmp import encode_bmp
    from yomitoku_ray.kernels.gif import encode_gif
    from yomitoku_ray.kernels.webp import encode_webp_lossless

    px = _rand_px(8, 6, 3, seed=9)
    backend = DecoderBackend("strict")
    for blob in [encode_bmp(px), encode_gif(px), encode_webp_lossless(px)]:
        got = backend.decode_image(blob)[:, :, :3]
        small = decode_png(encode_png(resize_nearest(got, 4, 4)))
        assert small.shape == (4, 4, 3)
        assert (small == resize_nearest(px, 4, 4)).all()
