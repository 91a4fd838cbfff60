"""Deterministic synthetic images table (PNG/GIF/JPEG incl. progressive +
arithmetic-coded/BMP/TIFF/lossless WebP/junk).

Every row is a pure function of its index: solid fills, horizontal
gradients and 2x2 checkerboards encoded with the repo's own codecs, plus
~4% undecodable junk rows exercising the per-row error policy. Every
other row decodes with the repo's codecs, so WebP rows are lossless only
(lossy VP8 is not decoded). Ground-truth luma is computable analytically,
which the tests pin.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..kernels.bmp import encode_bmp
from ..kernels.gif import encode_gif
from ..kernels.jpeg import encode_jpeg, encode_jpeg_progressive
from ..kernels.jpeg_arith import encode_jpeg_arith
from ..kernels.png import encode_png
from ..kernels.tiff import encode_tiff

IMAGES_SCHEMA = pa.schema(
    [
        ("img_id", pa.int64()),
        ("image", pa.binary()),
        ("kind", pa.string()),
    ]
)


def gen_image(i: int) -> dict:
    rng = np.random.RandomState(0xC0FFEE ^ i)
    roll = i % 25
    if roll == 24:
        return {"img_id": i, "image": bytes(rng.randint(0, 256, 64, dtype=np.uint8)), "kind": "junk"}
    h, w = int(rng.randint(4, 24)), int(rng.randint(4, 24))
    style = i % 3
    if style == 0:  # solid
        px = np.full((h, w, 3), rng.randint(0, 256, 3, dtype=np.uint8)[None, None, :])
    elif style == 1:  # horizontal gradient (quantized to 8 steps for gif)
        steps = (np.linspace(0, 255, 8).astype(np.uint8))[
            (np.arange(w) * 8 // max(w, 1)).clip(0, 7)
        ]
        px = np.repeat(steps[None, :, None], h, axis=0).repeat(3, axis=2)
    else:  # checkerboard
        a, b = rng.randint(0, 256, 3, dtype=np.uint8), rng.randint(0, 256, 3, dtype=np.uint8)
        mask = ((np.arange(h)[:, None] // 2 + np.arange(w)[None, :] // 2) % 2).astype(bool)
        px = np.where(mask[:, :, None], a[None, None, :], b[None, None, :]).astype(np.uint8)
    enc = i % 9
    if enc == 8:  # webp, rotating through the four lossless encoder paths
        from ..kernels.webp import encode_webp_lossless

        kw = (
            {},
            {"cache_bits": 6},
            {"predictor": 7},
            {"palette": True},
        )[(i // 9) % 4]
        return {"img_id": i, "image": encode_webp_lossless(px, **kw), "kind": "webp"}
    if enc == 0:
        return {"img_id": i, "image": encode_png(px), "kind": "png"}
    if enc == 1:
        return {"img_id": i, "image": encode_gif(px), "kind": "gif"}
    if enc == 2:
        if (i // 9) % 2:  # arithmetic-coded SOF9 arm (T.81 Annex D/F)
            return {
                "img_id": i,
                "image": encode_jpeg_arith(px, quality=95),
                "kind": "jpegarith",
            }
        return {"img_id": i, "image": encode_jpeg(px, quality=95), "kind": "jpeg"}
    if enc == 3:
        return {
            "img_id": i,
            "image": encode_jpeg(px, quality=95, subsample=True),
            "kind": "jpeg420",
        }
    if enc == 4:  # progressive, spectral selection only
        return {
            "img_id": i,
            "image": encode_jpeg_progressive(px, quality=95),
            "kind": "jpegprog",
        }
    if enc == 5:  # progressive: successive approximation + 4:2:0 (all scans)
        if (i // 9) % 2:  # progressive-arithmetic SOF10 arm (T.81 Annex G.2)
            from ..kernels.jpeg_arith import encode_jpeg_arith_progressive

            return {
                "img_id": i,
                "image": encode_jpeg_arith_progressive(
                    px, quality=95, subsample=True, successive=True
                ),
                "kind": "jpegprogarith",
            }
        return {
            "img_id": i,
            "image": encode_jpeg_progressive(
                px, quality=95, subsample=True, successive=True
            ),
            "kind": "jpegprogsa",
        }
    if enc == 6:
        return {"img_id": i, "image": encode_bmp(px), "kind": "bmp"}
    return {
        "img_id": i,
        # rotate through uncompressed / PackBits / LZW / LZW+predictor
        "image": encode_tiff(
            [px],
            packbits=(i & 24) == 8,
            lzw=(i & 24) in (16, 24),
            predictor=(i & 24) == 24,
        ),
        "kind": "tiff",
    }


def ensure_images_parquet(sf_dir: str, cache_root: str = "/tmp/yomitoku_ray_images_v10") -> str:
    import pyarrow.parquet as pq

    from .pages import rows_for_sf_dir

    n = max(200, rows_for_sf_dir(sf_dir) // 20)
    out_dir = os.path.join(cache_root, f"n{n}")
    done = os.path.join(out_dir, "_SUCCESS")
    if os.path.exists(done):
        return out_dir
    tmp = out_dir + ".tmp"
    os.makedirs(tmp, exist_ok=True)
    t = pa.Table.from_pylist([gen_image(i) for i in range(n)], schema=IMAGES_SCHEMA)
    pq.write_table(t, os.path.join(tmp, "part-00000.parquet"))
    import shutil

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp, out_dir)
    with open(done, "w") as f:
        f.write(str(n))
    return out_dir
