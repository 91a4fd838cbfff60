"""WebP-lossless (VP8L) codec tests: round-trips across every decoder
path (transforms, color cache, LZ77, meta groups, palette bundling),
pinned bytes/pixels, header sniffing, and the multimodal stage seam."""

import numpy as np
import pytest

from yomitoku_ray.kernels.webp import (
    WebpError,
    decode_webp,
    encode_webp_lossless,
    sniff_webp_dims,
)

RNG = np.random.RandomState(0xBEEF)


def _rt(px, **kw):
    blob = encode_webp_lossless(px, **kw)
    out = decode_webp(blob)
    assert out.shape == px.shape, (out.shape, px.shape, kw)
    assert np.array_equal(out, px), kw
    return blob


def test_roundtrip_plain_and_nosubgreen():
    px = RNG.randint(0, 256, (13, 17, 3), dtype=np.uint8)
    _rt(px)
    _rt(px, subtract_green=False)


def test_roundtrip_rgba_alpha_hint():
    px = RNG.randint(0, 256, (9, 11, 4), dtype=np.uint8)
    blob = _rt(px)
    # alpha hint set -> decoder returns 4 channels
    assert decode_webp(blob).shape[2] == 4


@pytest.mark.parametrize("mode", list(range(14)))
def test_roundtrip_every_predictor_mode(mode):
    px = RNG.randint(0, 256, (12, 19, 3), dtype=np.uint8)
    _rt(px, predictor=mode)


def test_roundtrip_cross_color():
    px = RNG.randint(0, 256, (10, 14, 3), dtype=np.uint8)
    _rt(px, cross_color=(23, 239, 101))  # 239 == -17 as int8


def test_roundtrip_color_cache():
    pool = RNG.randint(0, 256, (5, 3), dtype=np.uint8)
    px = pool[RNG.randint(0, 5, (16, 16))]
    small = _rt(px, cache_bits=4)
    plain = _rt(px, use_lz77=False, cache_bits=0)
    assert len(small) < len(plain)  # cache actually engaged


def test_lz77_run_compresses():
    px = np.full((32, 32, 3), 200, np.uint8)
    blob = _rt(px)
    assert len(blob) < 80  # one literal + backrefs


@pytest.mark.parametrize(
    "n_colors,w",
    [(2, 9), (2, 17), (3, 5), (4, 13), (9, 7), (16, 31), (17, 6), (200, 40)],
)
def test_roundtrip_palette_bundling(n_colors, w):
    pool = RNG.randint(0, 256, (n_colors, 3), dtype=np.uint8)
    px = pool[RNG.randint(0, n_colors, (6, w))]
    _rt(px, palette=True)


def test_roundtrip_meta_groups():
    grad = np.tile(np.arange(64, dtype=np.uint8)[None, :, None] * 4, (32, 1, 3))
    _rt(grad, meta_bits=3)


def test_roundtrip_1x1_and_gray_input():
    _rt(np.array([[[5, 200, 9]]], dtype=np.uint8))
    gray = RNG.randint(0, 256, (6, 7), dtype=np.uint8)
    out = decode_webp(encode_webp_lossless(gray))
    assert np.array_equal(out, gray[:, :, None].repeat(3, axis=2))


def test_combo_fuzz():
    rng = np.random.RandomState(7)
    for trial in range(40):
        h, w = int(rng.randint(1, 33)), int(rng.randint(1, 33))
        ch = 4 if rng.rand() < 0.3 else 3
        px = rng.randint(0, 256, (h, w, ch), dtype=np.uint8)
        kw = {}
        if rng.rand() < 0.5:
            kw["predictor"] = int(rng.randint(0, 14))
        if rng.rand() < 0.4:
            kw["cross_color"] = tuple(int(v) for v in rng.randint(0, 256, 3))
        if rng.rand() < 0.5:
            kw["subtract_green"] = False
        if rng.rand() < 0.5:
            kw["cache_bits"] = int(rng.randint(1, 11))
        if rng.rand() < 0.3 and w > 8 and h > 1:
            kw["meta_bits"] = int(rng.randint(2, 6))
        _rt(px, **kw)


def test_pinned_bytes_2x2():
    """Exact encoded bytes for a fixed input: documents the bit layout
    (RIFF wrap, VP8L signature, 14-bit dims, subtract-green transform,
    prefix-code headers) and guards against silent codec drift."""
    px = np.array(
        [[[10, 20, 30], [40, 50, 60]], [[70, 80, 90], [10, 20, 30]]],
        dtype=np.uint8,
    )
    blob = encode_webp_lossless(px)
    assert blob[:4] == b"RIFF" and blob[8:16] == b"WEBPVP8L"
    assert decode_webp(blob).tolist() == px.tolist()
    assert blob.hex() == (
        "5249464624000000574542505650384c170000002f0140000085402091"
        "886492fdc9c67e14e67f02bc7f0700"
    )
    assert sniff_webp_dims(blob) == (2, 2)


def test_select_predictor_tie_picks_top():
    """Predictor 11 (Select): on equal distances the spec returns T."""
    from yomitoku_ray.kernels.webp import _select

    l, t, tl = 0xFF102030, 0xFF302010, 0xFF202020  # sum|T-TL| == sum|L-TL|
    assert _select(l, t, tl) == t
    assert _select(l, 0xFF202021, tl) == l  # T nearer TL: the estimate is nearer L


def test_sniff_dims_wide():
    px = np.zeros((3, 300, 3), dtype=np.uint8)
    assert sniff_webp_dims(encode_webp_lossless(px)) == (300, 3)


def test_error_paths():
    with pytest.raises(WebpError):
        decode_webp(b"nope")
    with pytest.raises(WebpError, match="lossy VP8"):  # lossy is not decoded
        decode_webp(b"RIFF\x10\x00\x00\x00WEBPVP8 \x04\x00\x00\x00abcd")
    blob = encode_webp_lossless(RNG.randint(0, 256, (8, 8, 3), dtype=np.uint8))
    with pytest.raises(WebpError):
        decode_webp(blob[:30])
    with pytest.raises(WebpError):
        encode_webp_lossless(
            np.zeros((2, 2, 3), np.uint8), palette=True, predictor=1
        )


def test_decoder_backend_and_sniff_integration():
    from yomitoku_ray.stages.multimodal import DecoderBackend, sniff_image_meta

    px = RNG.randint(0, 256, (8, 12, 3), dtype=np.uint8)
    blob = encode_webp_lossless(px, cache_bits=5)
    meta = sniff_image_meta(blob)
    assert meta["format"] == "webp"
    assert (meta["width"], meta["height"]) == (12, 8)
    out = DecoderBackend(mode="strict").decode_image(blob)
    assert np.array_equal(out, px)


def test_synth_webp_rows_decode_exactly():
    from yomitoku_ray.stages.multimodal import DecoderBackend
    from yomitoku_ray.synth.images import gen_image

    be = DecoderBackend(mode="strict")
    seen = 0
    for i in range(80):
        row = gen_image(i)
        if row["kind"] != "webp":
            continue
        seen += 1
        px = be.decode_image(row["image"])
        assert px.ndim == 3 and px.shape[2] == 3
    assert seen >= 5  # all four encoder variants cycle through


def test_sniff_lossy_and_extended_headers():
    """Hand-built VP8 (lossy) and VP8X chunks: dims sniffed, while pixel
    decode of the lossy chunk raises (lossy VP8 is not decoded)."""
    import struct

    def riff(tag, body):
        chunk = tag + struct.pack("<I", len(body)) + body
        if len(body) & 1:
            chunk += b"\x00"
        return b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk

    vp8 = riff(b"VP8 ", b"\x00\x00\x00\x9d\x01\x2a" + struct.pack("<HH", 320, 240))
    assert sniff_webp_dims(vp8) == (320, 240)
    with pytest.raises(WebpError, match="lossy VP8"):
        decode_webp(vp8)

    vp8x = riff(
        b"VP8X",
        b"\x00\x00\x00\x00"
        + (639).to_bytes(3, "little")
        + (479).to_bytes(3, "little"),
    )
    assert sniff_webp_dims(vp8x) == (640, 480)


def test_decode_pixel_cap_rejects_bombs():
    """A tiny blob claiming huge dims must fail fast (per-row error),
    not pin the actor in the per-pixel loop."""
    import struct

    # VP8L header bits: w-1=16383, h-1=16383 (14+14 bits), alpha 0, ver 0
    bits = 16383 | (16383 << 14)
    payload = b"\x2f" + struct.pack("<I", bits) + b"\x00" * 8
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload + b"\x00"
    blob = b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
    with pytest.raises(WebpError, match="max_pixels"):
        decode_webp(blob)
    # and a legitimate large-cap override still reaches the bitstream
    with pytest.raises(WebpError, match="truncated|prefix|transform"):
        decode_webp(blob, max_pixels=1 << 30)


def test_corrupt_input_raises_only_webperror():
    """Mutation + garbage fuzz: a corpus run must see WebpError (per-row
    error policy), never a leaked IndexError/OverflowError or a hang."""
    import struct

    rng = np.random.RandomState(3)
    blobs = [
        encode_webp_lossless(rng.randint(0, 256, (9, 11, 3), dtype=np.uint8)),
        encode_webp_lossless(
            (rng.randint(0, 3, (8, 8, 3)) * 80).astype(np.uint8), palette=True
        ),
    ]
    for blob in blobs:
        b = bytearray(blob)
        for _ in range(150):
            i = rng.randint(12, len(b))
            old = b[i]
            b[i] = rng.randint(0, 256)
            try:
                decode_webp(bytes(b), max_pixels=1 << 20)
            except WebpError:
                pass
            b[i] = old
    for _ in range(300):
        body = bytes(rng.randint(0, 256, rng.randint(0, 100), dtype=np.uint8))
        payload = b"\x2f" + body
        chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
        blob = b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk
        try:
            decode_webp(blob, max_pixels=1 << 18)
        except WebpError:
            pass


# ------------------------------------------------- interop with libwebp

_LIBWEBP = __import__("ctypes.util").util.find_library("webp")
needs_libwebp = pytest.mark.skipif(_LIBWEBP is None, reason="libwebp not installed")


def _libwebp():
    import ctypes as C

    lib = C.CDLL(_LIBWEBP)
    out = C.POINTER(C.POINTER(C.c_uint8))
    lib.WebPEncodeRGB.argtypes = [C.c_char_p, C.c_int, C.c_int, C.c_int, C.c_float, out]
    lib.WebPEncodeLosslessRGB.argtypes = [C.c_char_p, C.c_int, C.c_int, C.c_int, out]
    lib.WebPEncodeRGB.restype = lib.WebPEncodeLosslessRGB.restype = C.c_size_t
    lib.WebPDecodeRGB.argtypes = [C.c_char_p, C.c_size_t, C.POINTER(C.c_int), C.POINTER(C.c_int)]
    lib.WebPDecodeRGB.restype = C.POINTER(C.c_uint8)
    lib.WebPFree.argtypes, lib.WebPFree.restype = [C.c_void_p], None
    return lib


def _lib_encode(lib, px, lossy=False):
    import ctypes as C

    h, w, _ = px.shape
    out, data = C.POINTER(C.c_uint8)(), np.ascontiguousarray(px).tobytes()
    if lossy:
        n = lib.WebPEncodeRGB(data, w, h, 3 * w, 75.0, C.byref(out))
    else:
        n = lib.WebPEncodeLosslessRGB(data, w, h, 3 * w, C.byref(out))
    assert n > 0
    blob = C.string_at(out, n)
    lib.WebPFree(out)
    return blob


def _lib_decode(lib, blob):
    import ctypes as C

    w, h = C.c_int(), C.c_int()
    ptr = lib.WebPDecodeRGB(blob, len(blob), C.byref(w), C.byref(h))
    assert ptr, "libwebp rejected the stream"
    raw = C.string_at(ptr, w.value * h.value * 3)
    lib.WebPFree(ptr)
    return np.frombuffer(raw, np.uint8).reshape(h.value, w.value, 3)


def _interop_images():
    """Noise, gradients, few-colour and flat images at odd sizes."""
    rng = np.random.RandomState(0x1EB)
    out = []
    for h, w in ((1, 1), (5, 7), (16, 16), (23, 31), (40, 9)):
        ramp = (np.arange(w)[None, :, None] * 7 + np.arange(h)[:, None, None] * 3) % 256
        pal = rng.randint(0, 256, (int(rng.randint(2, 12)), 3), dtype=np.uint8)
        out += [
            rng.randint(0, 256, (h, w, 3), dtype=np.uint8),
            np.broadcast_to(ramp, (h, w, 3)).astype(np.uint8),
            pal[rng.randint(0, len(pal), (h, w))],
            np.full((h, w, 3), rng.randint(0, 256, 3), dtype=np.uint8),
        ]
    return out


@needs_libwebp
def test_libwebp_lossless_streams_decode_exactly():
    lib = _libwebp()
    for px in _interop_images():
        assert np.array_equal(decode_webp(_lib_encode(lib, px)), px), px.shape


@needs_libwebp
def test_libwebp_decodes_our_lossless_streams_exactly():
    lib = _libwebp()
    options = (
        {},
        {"subtract_green": False},
        {"cache_bits": 6},
        {"predictor": 7},
        {"predictor": 11, "cross_color": (3, 200, 17)},
        {"palette": True},
        {"meta_bits": 2},
    )
    for px in _interop_images():
        for kw in options:
            if kw.get("palette") and len(np.unique(px.reshape(-1, 3), axis=0)) > 256:
                continue
            got = _lib_decode(lib, encode_webp_lossless(px, **kw))
            assert np.array_equal(got, px), (px.shape, kw)


@needs_libwebp
def test_libwebp_lossy_stream_through_the_image_stages():
    """A real lossy WebP is not decoded: dHash gives 0 and an error naming
    lossy VP8, the strict decoder raises that error, and the metadata
    sniff still reports webp with the true dimensions."""
    import pyarrow as pa

    from yomitoku_ray.stages.multimodal import (
        DecoderBackend,
        ImageDHashStage,
        ImageMetaStage,
    )

    px = RNG.randint(0, 256, (24, 40, 3), dtype=np.uint8)
    blob = _lib_encode(_libwebp(), px, lossy=True)
    assert blob[12:16] == b"VP8 "
    batch = pa.table({"image": pa.array([blob], pa.binary())})

    dh = ImageDHashStage()(batch).to_pylist()[0]
    assert dh["dhash"] == 0 and "lossy VP8" in dh["dhash_error"]
    with pytest.raises(WebpError, match="lossy VP8"):
        DecoderBackend("strict").decode_image(blob)
    meta = ImageMetaStage()(batch).to_pylist()[0]["image_meta"]
    assert (meta["format"], meta["width"], meta["height"]) == ("webp", 40, 24)
