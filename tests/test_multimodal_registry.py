"""Multimodal stub stages, OCR pipeline, CLI smoke."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from yomitoku_ray.stages.multimodal import (
    DecoderBackend,
    ImageFeatureStage,
    ImageMetaStage,
    make_fake_png,
    sniff_format,
    sniff_image_meta,
)


def test_sniff_png_meta():
    blob = make_fake_png(320, 240, seed=1)
    meta = sniff_image_meta(blob)
    assert meta["format"] == "png"
    assert (meta["width"], meta["height"]) == (320, 240)
    assert meta["n_bytes"] == len(blob)


def test_sniff_unknown():
    meta = sniff_image_meta(b"not an image at all")
    assert meta["format"] == "unknown" and meta["width"] == -1


def test_image_meta_stage_batch():
    batch = pa.table(
        {
            "id": pa.array([1, 2], pa.int64()),
            "image": pa.array([make_fake_png(8, 8), b"junk"], pa.binary()),
        }
    )
    out = ImageMetaStage()(batch)
    metas = out.column("image_meta").to_pylist()
    assert metas[0]["format"] == "png" and metas[1]["format"] == "unknown"


def test_feature_stage_fake_is_deterministic():
    blob = make_fake_png(8, 8, seed=2)
    batch = pa.table({"image": pa.array([blob, blob], pa.binary())})
    out = ImageFeatureStage(backend_mode="fake")(batch)
    feats = out.column("image_features").to_pylist()
    assert feats[0] == feats[1]
    assert len(feats[0]["embedding"]) == 16


def test_feature_stage_strict_raises():
    with pytest.raises(NotImplementedError):
        DecoderBackend("strict").decode_image(b"x")


def test_bare_p_is_not_netpbm():
    # b"" in b"123456" is True: a length check keeps b"P" from reading as pnm
    assert sniff_format(b"P") == sniff_image_meta(b"P")["format"] == "unknown"
    assert sniff_format(b"P6") == "pnm"
    with pytest.raises(NotImplementedError):
        DecoderBackend("strict").decode_image(b"P")


def _one_of_each_format(px):
    from yomitoku_ray.kernels.bmp import BmpError, encode_bmp
    from yomitoku_ray.kernels.gif import GifError, encode_gif
    from yomitoku_ray.kernels.jpeg import JpegError, encode_jpeg_progressive
    from yomitoku_ray.kernels.netpbm import NetpbmError, encode_netpbm
    from yomitoku_ray.kernels.png import PngError, encode_png
    from yomitoku_ray.kernels.tiff import TiffError, encode_tiff
    from yomitoku_ray.kernels.webp import WebpError, encode_webp_lossless

    return {
        "png": (encode_png(px), PngError),
        "gif": (encode_gif(px), GifError),
        "jpeg": (encode_jpeg_progressive(px, subsample=True, successive=True), JpegError),
        "bmp": (encode_bmp(px), BmpError),
        "tiff": (encode_tiff([px], lzw=True), TiffError),
        "webp": (encode_webp_lossless(px), WebpError),
        "pnm": (encode_netpbm(px), NetpbmError),
    }


def test_decode_dispatches_on_the_sniffed_format():
    """One format decision: the metadata sniff and the decoder agree on the
    format; a broken file of a known format raises that codec's own error
    in strict mode (not the unknown-format one); fake mode still gives the
    digest pixels."""
    import numpy as np

    px = np.random.RandomState(3).randint(0, 256, (16, 16, 3), dtype=np.uint8)
    strict, fake = DecoderBackend("strict"), DecoderBackend("fake")
    for fmt, (blob, err) in _one_of_each_format(px).items():
        assert sniff_format(blob) == sniff_image_meta(blob)["format"] == fmt
        assert strict.decode_image(blob).shape == (16, 16, 3), fmt
        cut = blob[: len(blob) // 2]
        assert sniff_format(cut) == fmt
        with pytest.raises(err):
            strict.decode_image(cut)
        got = fake.decode_image(cut)
        assert got.shape == (4, 4, 3) and np.array_equal(got, fake.decode_image(cut))


def test_corrupt_files_raise_only_codec_errors():
    """Truncated and byte-flipped files of every format raise a ValueError
    subclass (or NotImplementedError once the magic is gone): the error the
    image stages turn into a per-row error, never a failed batch."""
    import numpy as np

    rng = np.random.RandomState(4)
    px = rng.randint(0, 256, (8, 8, 3), dtype=np.uint8)
    be = DecoderBackend("strict")
    for fmt, (blob, _) in _one_of_each_format(px).items():
        cands = [blob[:k] for k in range(0, len(blob), max(1, len(blob) // 40))]
        for _ in range(40):
            b = bytearray(blob)
            b[rng.randint(0, len(b))] = rng.randint(0, 256)
            cands.append(bytes(b))
        for c in cands:
            try:
                be.decode_image(c)
            except (ValueError, NotImplementedError):
                pass


def test_ocr_pipeline(ray_session, tmp_path):
    from yomitoku_ray.pipelines.ocr import ocr_pages
    from yomitoku_ray.synth.pages import generate_pages_table

    path = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages_table(20), path)
    df = ocr_pages(path, concurrency=1).to_pandas()
    assert len(df) == 20
    ok = df[df["error"].isna()]
    assert (ok["n_words"] > 0).all()
    row = ok.iloc[0]
    assert len(row["words"]) == row["n_words"]
    assert row["content"].count("\n") == row["n_words"] - 1


def test_ocr_stage_unexpected_error_is_one_row(monkeypatch):
    """A non-decode failure on one page becomes that page's error row; its
    neighbours in the batch come out intact."""
    from yomitoku_ray.pipelines.ocr import OcrStage
    from yomitoku_ray.synth.pages import generate_pages_table

    table = generate_pages_table(6).select(["url", "html"])
    stage = OcrStage()
    want = stage(table).to_pylist()
    assert all(r["error"] is None for r in want)

    detect = stage.engine.detect
    calls = []

    def flaky(text):
        calls.append(text)
        if len(calls) == 3:
            raise RuntimeError("boom")
        return detect(text)

    monkeypatch.setattr(stage.engine, "detect", flaky)
    got = stage(table).to_pylist()
    assert len(got) == len(want)
    assert got[2]["error"] == "RuntimeError: boom"
    assert got[2]["n_words"] == 0 and got[2]["words"] == [] and got[2]["content"] == ""
    assert [r for i, r in enumerate(got) if i != 2] == [r for i, r in enumerate(want) if i != 2]


def test_cli_synth_and_extract(ray_session, tmp_path):
    from yomitoku_ray.__main__ import main

    pages = str(tmp_path / "p.parquet")
    out = str(tmp_path / "out")
    main(["synth", pages, "--rows", "30"])
    main(["--num-cpus", "4", "extract", pages, out])
    t = pq.read_table(out)
    assert t.num_rows == 30


def test_rows_only_queries_self_check(ray_session):
    """The rows-only driver queries carry analytic ok columns (VERDICT r4
    #5, the warc_roundtrip pattern); every row must self-verify."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry

    q = entry.queries()
    sf = "/root/testdata/sf0.001"
    expect = {
        "paged_extract": ["ok_shape"],
        "image_features_summary": ["ok_dims", "ok_format"],
        "audio_features_summary": ["ok_gate"],
        "video_frames_summary": ["ok"],
        "warc_split_parity": ["ok_split", "ok_src"],
    }
    for name, cols in expect.items():
        df = q[name](sf)
        assert len(df) > 0, name
        for c in cols:
            assert int(df[c].sum()) == len(df), (name, c)


def test_image_dhash_lossless_format_invariance(ray_session):
    """The same pixels hash identically across PNG/BMP/netpbm; a small
    patch flip moves only a few gradient bits."""
    import numpy as np

    from yomitoku_ray.kernels.bmp import encode_bmp
    from yomitoku_ray.kernels.netpbm import encode_netpbm
    from yomitoku_ray.kernels.png import encode_png
    from yomitoku_ray.stages.multimodal import DecoderBackend, ImageDHashStage

    rng = np.random.RandomState(7)
    px = rng.randint(0, 256, (24, 40, 3), dtype=np.uint8)
    be = DecoderBackend(mode="strict")
    hashes = {
        enc.__name__: ImageDHashStage.dhash_of_pixels(be.decode_image(enc(px)))
        for enc in (encode_png, encode_bmp, encode_netpbm)
    }
    assert len(set(hashes.values())) == 1, hashes
    near = px.copy()
    near[:3, :5] = 255 - near[:3, :5]
    h0 = next(iter(hashes.values()))
    h1 = ImageDHashStage.dhash_of_pixels(be.decode_image(encode_png(near)))
    ham = bin(h0 ^ h1).count("1")
    assert 0 < ham <= 8


def test_image_dhash_stage_error_isolation(ray_session):
    """Garbage blobs get dhash 0 + an error string; the batch survives."""
    import pyarrow as pa

    from yomitoku_ray.stages.multimodal import ImageDHashStage
    from yomitoku_ray.kernels.png import encode_png
    import numpy as np

    px = np.zeros((8, 9, 3), dtype=np.uint8)
    batch = pa.table(
        {
            "img_id": pa.array([0, 1, 2], pa.int64()),
            "image": pa.array([encode_png(px), b"\x00garbage", None], pa.binary()),
        }
    )
    out = ImageDHashStage()(batch)
    errs = out.column("dhash_error").to_pylist()
    assert errs[0] is None and errs[1] is not None and errs[2] is not None


def test_hamming_pairs_u64_exact_radius(ray_session):
    """Pigeonhole completeness on a hand-built hash set."""
    import pandas as pd
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64

    rows = [
        {"img_id": 0, "h": 0b1111000},
        {"img_id": 1, "h": 0b1111001},   # ham 1 from 0
        {"img_id": 2, "h": 0b1111111},   # ham 3 from 0, 2 from 1
        {"img_id": 3, "h": (1 << 63) | 0b1010101},  # far from all
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    got = hamming_pairs_u64(ds, "img_id", "h", n_chunks=4, hamming_max=3)
    pairs = {(a, b): h for a, b, h in got.itertuples(index=False)}
    assert pairs == {(0, 1): 1, (0, 2): 3, (1, 2): 2}


def test_audio_fingerprint_volume_invariant_noise_robust(ray_session):
    import numpy as np

    from yomitoku_ray.kernels.audio import decode_wav, encode_wav
    from yomitoku_ray.stages.multimodal import AudioFingerprintStage

    rate = 16000
    t = np.arange(rate) / rate
    base = np.concatenate(
        [0.6 * np.sin(2 * np.pi * (500 * (1 << (i % 5))) * t[: rate // 8])
         for i in range(8)]
    )
    fp = AudioFingerprintStage.fingerprint_of
    x0, r0 = decode_wav(encode_wav(base, rate))
    xs, _ = decode_wav(encode_wav(0.25 * base, rate))
    rng = np.random.RandomState(3)
    xn, _ = decode_wav(encode_wav(base + 0.05 * rng.randn(len(base)), rate))
    h0, hs, hn = fp(x0, r0), fp(xs, r0), fp(xn, r0)
    assert h0 == hs  # amplitude invariance
    assert bin(h0 ^ hn).count("1") <= 7  # noise robustness
    assert h0 != 0


def test_audio_fingerprint_stage_error_isolation(ray_session):
    import numpy as np
    import pyarrow as pa

    from yomitoku_ray.kernels.audio import encode_wav
    from yomitoku_ray.stages.multimodal import AudioFingerprintStage

    good = encode_wav(np.sin(np.arange(8000) / 10.0), 8000)
    batch = pa.table(
        {
            "clip_id": pa.array([0, 1], pa.int64()),
            "audio": pa.array([good, b"not-a-wav"], pa.binary()),
        }
    )
    out = AudioFingerprintStage()(batch)
    errs = out.column("fp_error").to_pylist()
    assert errs[0] is None and errs[1] is not None


def test_video_middle_frame_dhash_stable_under_reencode(ray_session):
    import numpy as np

    from yomitoku_ray.kernels.avi import decode_avi_frame, encode_mjpeg_avi, index_avi
    from yomitoku_ray.stages.multimodal import ImageDHashStage

    def mid_hash(blob):
        spans = index_avi(blob)["frames"]
        return ImageDHashStage.dhash_of_pixels(
            decode_avi_frame(blob, spans[len(spans) // 2])
        )

    y, x = np.mgrid[0:48, 0:64]
    frames = []
    for i in range(6):
        f = (127 + 120 * np.sin(x / (3 + i)) * np.cos(y / (4 + i))).astype(np.uint8)
        frames.append(np.stack([f, np.roll(f, i, axis=1), 255 - f], axis=2))
    h90 = mid_hash(encode_mjpeg_avi(frames, quality=90))
    h30 = mid_hash(encode_mjpeg_avi(frames, quality=30))
    hinv = mid_hash(encode_mjpeg_avi([255 - f for f in frames], quality=90))
    assert bin(h90 ^ h30).count("1") <= 2  # perceptual hash survives q30
    assert bin(h90 ^ hinv).count("1") > 32  # inversion flips the gradients


def test_hamming_pairs_u64_rep_star_for_identical_hashes(ray_session):
    """An identical-hash clique emits min-id-rep star pairs (hamming 0,
    O(clique)), and near pairs connect cliques through their reps."""
    import pandas as pd
    import ray.data

    from yomitoku_ray.functions.dedup import hamming_pairs_u64

    rows = [
        {"img_id": 0, "h": 0b1111000},
        {"img_id": 1, "h": 0b1111000},
        {"img_id": 2, "h": 0b1111000},   # clique {0,1,2}
        {"img_id": 3, "h": 0b1111001},   # ham 1 from the clique hash
        {"img_id": 4, "h": (1 << 62)},   # far
    ]
    ds = ray.data.from_pandas(pd.DataFrame(rows))
    got = hamming_pairs_u64(ds, "img_id", "h", n_chunks=4, hamming_max=3)
    pairs = {(a, b): h for a, b, h in got.itertuples(index=False)}
    # stars: rep 0 -> members 1,2 at distance 0; near: rep 0 -> 3 only
    assert pairs == {(0, 1): 0, (0, 2): 0, (0, 3): 1}
